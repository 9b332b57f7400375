"""Layer spans for the traced pass, recorded from outside the program.

Nothing in ``src/`` is edited: :func:`install` swaps the public
functions and methods of each layer for wrappers that time every call
and pass its result through, and :meth:`Installation.uninstall` puts
the originals back.  A span's *self time* is its duration minus the
time of the spans it caused; time inside the traced region that no
span covers is reported as the unattributed remainder, never spread
over the layers.

Worker processes of the experiment pool are forked after
:func:`install`, so they inherit the wrappers.  Each worker job resets
the worker's recorder, and its snapshot rides back to the parent as an
attribute of the job's ``SimResult``; the parent strips it before the
result reaches the cache and merges it into :attr:`Recorder.workers`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: Attribute that carries a worker job's span snapshot to the parent.
SNAPSHOT_ATTR = "_perfbench_spans"

#: Prefetcher hooks that make up "prefetcher train and predict".
PREFETCHER_HOOKS = ("on_access", "on_evict", "on_prefetch_fill",
                    "on_prefetch_useful", "on_prefetch_useless",
                    "hit_run_consume", "hit_run_consume_block")

#: Observers whose handlers see every event of their types exactly once
#: per bus, so their deliveries count published events by type.
COUNTING_OBSERVERS = ("LevelStatsObserver", "PrefetchAccounting")


class Recorder:
    """Self time and calls per layer, plus counts taken at the spans."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.engine_self_s: dict[str, float] = defaultdict(float)
        # Child time of every open span; entry 0 is the traced region's
        # root, which collects the duration of the top-level spans.
        self.stack: list[float] = [0.0]
        self.engine: list[str] = []
        self.workers = WorkerTotals()

    def reset(self) -> None:
        """Forget everything (in place: the wrappers hold references)."""
        for table in (self.self_s, self.calls, self.counts,
                      self.engine_self_s):
            table.clear()
        self.stack[:] = [0.0]
        self.engine[:] = []
        self.workers = WorkerTotals()

    @property
    def covered_s(self) -> float:
        """Time the top-level spans cover since the last reset."""
        return self.stack[0]

    def snapshot(self) -> dict:
        """A picklable copy of the tables (worker -> parent)."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts),
                "engine_self_s": dict(self.engine_self_s),
                "covered_s": self.covered_s}


class WorkerTotals:
    """Span tables summed over the worker jobs that reached the parent."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.engine_self_s: dict[str, float] = defaultdict(float)
        self.job_walls: list[float] = []
        self.uncovered_s = 0.0

    def merge(self, snap: dict) -> None:
        for name in ("self_s", "calls", "counts", "engine_self_s"):
            table = getattr(self, name)
            for key, value in snap[name].items():
                table[key] += value
        self.job_walls.append(snap["job_wall_s"])
        self.uncovered_s += snap["job_wall_s"] - snap["covered_s"]


def _span(rec: Recorder, layer: str, fn, post=None):
    """Wrap ``fn`` in a span of ``layer``; ``post(rec, args, out)`` may
    add counts from the call's arguments and result."""
    perf = time.perf_counter
    stack = rec.stack
    self_s = rec.self_s
    calls = rec.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack.append(0.0)
        start = perf()
        try:
            out = fn(*args, **kwargs)
        finally:
            elapsed = perf() - start
            self_s[layer] += elapsed - stack.pop()
            calls[layer] += 1
            stack[-1] += elapsed
        if post is not None:
            post(rec, args, out)
        return out

    return wrapper


def _prefetcher_span(rec: Recorder, hook: str, fn):
    """A prefetcher span, charged to the outermost engine on the stack
    (a hybrid's constituents count as the hybrid)."""
    perf = time.perf_counter
    stack = rec.stack
    self_s = rec.self_s
    calls = rec.calls
    engine_self_s = rec.engine_self_s
    engines = rec.engine

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        outermost = not engines
        if outermost:
            engines.append(self.name)
        stack.append(0.0)
        start = perf()
        try:
            return fn(self, *args, **kwargs)
        finally:
            elapsed = perf() - start
            own = elapsed - stack.pop()
            stack[-1] += elapsed
            self_s["prefetcher"] += own
            engine_self_s[engines[0]] += own
            if outermost:
                engines.pop()
                if hook == "on_access":
                    calls["prefetcher"] += 1

    return wrapper


def _event_span(rec: Recorder, fn, count_types: bool):
    """An event-handler span; counting observers also count by type."""
    perf = time.perf_counter
    stack = rec.stack
    self_s = rec.self_s
    calls = rec.calls
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(self, event):
        stack.append(0.0)
        start = perf()
        try:
            return fn(self, event)
        finally:
            elapsed = perf() - start
            self_s["events"] += elapsed - stack.pop()
            calls["events"] += 1
            stack[-1] += elapsed
            if count_types:
                counts["published." + type(event).__name__] += 1

    return wrapper


def _count_admitted(rec: Recorder, args, out) -> None:
    if out:
        rec.counts["prefetch.admitted"] += 1


def _count_retired(rec: Recorder, args, out) -> None:
    rec.counts["fastpath.retired"] += out


def _count_back_invalidations(rec: Recorder, args, out) -> None:
    rec.counts["multicore.back_invalidations"] += len(out)


def _worker_job(rec: Recorder, fn):
    """Root span of one pool job, run inside the worker process."""
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.reset()
        start = perf()
        result = fn(*args, **kwargs)
        snap = rec.snapshot()
        snap["job_wall_s"] = perf() - start
        setattr(result, SNAPSHOT_ATTR, snap)
        return result

    return wrapper


def _merge_worker_snapshot(rec: Recorder, fn):
    """Parent side: take a job's worker snapshot off its result before
    the engine caches or journals the result."""

    @functools.wraps(fn)
    def wrapper(self, results, item, result):
        snap = result.__dict__.pop(SNAPSHOT_ATTR, None)
        if snap is not None:
            rec.workers.merge(snap)
        return fn(self, results, item, result)

    return wrapper


class Installation:
    """The wrappers in place; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def replace_function(self, original, wrapper) -> None:
        """Swap a module-level function in every ``repro`` module that
        imported it by name."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def _prefetcher_classes(base) -> list[type]:
    found: list[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


def install(rec: Recorder) -> Installation:
    """Wrap every layer's public entry points; returns the installation."""
    import repro.prefetchers  # noqa: F401  (registers every engine class)
    from repro.experiments import engine as experiments_engine
    from repro.experiments.cache import ResultCache
    from repro.memtrace.trace import Trace
    from repro.memtrace.workloads import WorkloadSpec, compile_scenario
    from repro.prefetchers.base import Prefetcher
    from repro.sampling.plan import build_plan
    from repro.scenarios.catalog import cached_catalog, load_catalog
    from repro.sim import observers
    from repro.sim.core import Core
    from repro.sim.fastpath import FastPath
    from repro.sim.hierarchy import Hierarchy, SharedLLC

    inst = Installation()

    def method(owner, name, layer, post=None):
        inst.replace(owner, name, _span(rec, layer, owner.__dict__[name],
                                        post))

    def function(fn, layer):
        inst.replace_function(fn, _span(rec, layer, fn))

    function(load_catalog, "scenarios.catalog")
    function(cached_catalog, "scenarios.catalog")
    function(compile_scenario, "scenarios.catalog")
    method(WorkloadSpec, "build", "memtrace.build")
    method(Trace, "content_hash", "memtrace.hash")
    for name in ("advance", "begin_load", "finish_load", "drain"):
        method(Core, name, "core")
    method(Hierarchy, "demand_access", "hierarchy.demand")
    method(Hierarchy, "issue_prefetch", "prefetch.issue", _count_admitted)
    method(SharedLLC, "back_invalidate", "multicore.back_invalidate",
           _count_back_invalidations)
    method(FastPath, "try_run", "fastpath", _count_retired)
    function(build_plan, "sampling.plan")
    method(ResultCache, "get", "experiments.cache_get")
    method(ResultCache, "put", "experiments.cache_put")
    method(experiments_engine.SimJob, "key", "experiments.key")
    method(experiments_engine.ExperimentEngine, "run_jobs",
           "experiments.run_jobs")

    for cls_name in ("LevelStatsObserver", "PrefetcherBridge",
                     "PrefetchAccounting"):
        cls = getattr(observers, cls_name)
        for name, fn in list(vars(cls).items()):
            if name.startswith("_on_"):
                inst.replace(cls, name, _event_span(
                    rec, fn, cls_name in COUNTING_OBSERVERS))

    for cls in _prefetcher_classes(Prefetcher):
        for hook in PREFETCHER_HOOKS:
            if hook in cls.__dict__:
                inst.replace(cls, hook, _prefetcher_span(
                    rec, hook, cls.__dict__[hook]))

    inst.replace(experiments_engine, "_simulate_payload", _worker_job(
        rec, experiments_engine._simulate_payload))
    inst.replace(experiments_engine.ExperimentEngine, "_complete",
                 _merge_worker_snapshot(
                     rec, experiments_engine.ExperimentEngine._complete))
    return inst
