"""The four pinned workloads and the output check.

Every workload builds its traces from the scenario catalog with each
scenario's seed replaced by one derived from the benchmark seed (seed 0
keeps the catalog seeds), so the program only ever receives the built
traces.  One *cycle* of a workload is one cold operation (the call a
user waits for, ``cold``) followed by its replay (the same result asked
for again, ``replay``); the timing loop in ``run.py`` repeats cycles
and probes the host's speed between the two halves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import shutil
import time
from pathlib import Path

from repro.experiments.cache import ResultCache
from repro.experiments.engine import ExperimentEngine, SimJob
from repro.experiments.faults import BatchFailed
from repro.experiments.runner import SuiteRunner
from repro.experiments.single_core import run_single_core
from repro.memtrace import workloads as memtrace_workloads
from repro.memtrace.trace import rebase
from repro.prefetchers import COMPETITORS
from repro.prefetchers.pmp import make_pmp
from repro.sampling.config import SamplingConfig
from repro.scenarios import catalog as scenario_catalog
from repro.sim import fastpath
from repro.sim.engine import simulate
from repro.sim.multicore import simulate_multicore
from repro.sim.params import SystemConfig

ROOT = Path(__file__).resolve().parents[1]
CATALOG_DIR = ROOT / "scenarios"
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: The seed that keeps every catalog seed (and has pinned digests).
DEFAULT_SEED = 0
#: Length of the short untimed call that ends each set-up.
WARMUP_ACCESSES = 2_000
#: Warm-cache replays after each cold single-trace call.
TRACE_REPLAYS = 10
#: fig8 runs on at most two pool workers, as sized on a 2-CPU host.
FIG8_WORKERS = 2

FIG13_TRACES = ("spec06-00", "spec17-02", "ligra-00", "parsec-00")


def seeded(spec, seed: int):
    """``spec`` with its seed replaced by one derived from ``seed``."""
    if seed == DEFAULT_SEED:
        return spec
    digest = hashlib.sha256(f"{spec.seed}/{seed}".encode()).digest()
    return dataclasses.replace(spec, seed=int.from_bytes(digest[:8], "big"))


def load_specs(names, seed: int) -> list:
    """Compile the named catalog scenarios, re-seeded."""
    catalog = scenario_catalog.load_catalog(CATALOG_DIR)
    return [seeded(memtrace_workloads.compile_scenario(
        catalog.get(name), catalog.directory), seed) for name in names]


def digest(result) -> str:
    """Digest of one result's simulated counters (names excluded)."""
    payload = {
        "instructions": result.instructions,
        "cycles": repr(result.cycles),
        "levels": {name: stats.to_dict()
                   for name, stats in sorted(result.levels.items())},
        "dram": [result.dram_demand_requests, result.dram_prefetch_requests,
                 result.dram_writeback_requests],
        "issued": sorted((int(level), count) for level, count
                         in result.issued_prefetches.items()),
        "dropped": result.dropped_prefetches,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Checker:
    """Compares outputs with pinned values (default seed) or with the
    first value seen in the run (any other seed: a determinism check)."""

    def __init__(self, pinned: dict | None) -> None:
        self.pinned = pinned is not None
        self.reference: dict[str, str] = dict(pinned or {})
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, key: str, value: str) -> bool:
        want = self.reference.get(key)
        if want is None:
            if self.pinned:
                self.mismatches.append(f"{key}: no pinned value")
                return False
            self.reference[key] = want = value
        if value != want:
            self.mismatches.append(f"{key}: got {value}, want {want}")
            return False
        return True

    def count(self, ok: bool, operations: int = 1) -> None:
        self.attempted += operations
        if not ok:
            self.failed += operations


@dataclasses.dataclass
class Sample:
    """What one cycle measured."""

    regen_wall_s: float
    regen_cpu_s: float
    accesses: int
    replay_walls: list
    results: list
    experiments: dict
    #: Wall time of the cold operation and the replay with their checks
    #: (set by run.py).
    cycle_wall_s: float = 0.0
    children_cpu_s: float = 0.0
    workers: int = 0
    #: Accesses the fast path retired in this process (None: the
    #: simulations ran in pool workers, out of sight).
    fastpath_retired: int | None = 0
    #: Host probe times (``probe.ProbeTime``) around the cold operation
    #: and around the replay (set by run.py).
    regen_probe: tuple = (0.0, 0.0)
    replay_probe: tuple = (0.0, 0.0)


class FastPathCensus:
    """Counts fast-path retirements of in-process simulations by
    registering each scanner at construction (once per simulation, so
    it costs nothing per access)."""

    def __init__(self) -> None:
        self.scanners: list = []
        self._original = fastpath.FastPath.__init__
        census = self.scanners
        original = self._original

        def init(scanner, *args, **kwargs):
            original(scanner, *args, **kwargs)
            census.append(scanner)

        fastpath.FastPath.__init__ = init

    def take(self) -> int:
        retired = sum(s.accesses_fastpathed for s in self.scanners)
        self.scanners.clear()
        return retired

    def close(self) -> None:
        fastpath.FastPath.__init__ = self._original


def _engine_counts(counters) -> dict:
    return {"jobs": counters.jobs, "simulated": counters.simulated,
            "cache_hits": counters.cache_hits,
            "cache_misses": counters.cache_misses,
            "failed": counters.failed, "retried": counters.retried,
            "pool_rebuilds": counters.pool_rebuilds}


class TraceWorkload:
    """One serial ``simulate()`` of PMP on the pinned spec06-00 trace,
    full or sampled; replayed from a warm result cache."""

    trace_name = "spec06-00"

    def __init__(self, name: str, accesses: int, sampled: bool,
                 workdir: Path) -> None:
        self.name = name
        self.accesses = accesses
        self.sampling = SamplingConfig() if sampled else None
        self.config = SystemConfig.default()
        self.cache_dir = workdir / name
        self.cache: ResultCache | None = None
        self.trace = None
        self.census = FastPathCensus()

    @property
    def sizes(self) -> dict:
        return {"accesses": self.accesses,
                "sampling": self.sampling.fingerprint()
                if self.sampling else None}

    def setup(self, seed: int) -> None:
        [spec] = load_specs([self.trace_name], seed)
        self.trace = spec.build(self.accesses)
        self.trace.content_hash()
        simulate(spec.build(WARMUP_ACCESSES), make_pmp(),
                 sampling=self.sampling)
        self.census.take()

    def _job(self) -> SimJob:
        return SimJob(self.trace, make_pmp(), self.config,
                      sampling=self.sampling)

    def full_ipc(self) -> float:
        """IPC of an unsampled run of the same trace (the reference the
        sampled estimate is compared with)."""
        return simulate(self.trace, make_pmp(), self.config).ipc

    def cold(self, checker: Checker) -> Sample:
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        result = simulate(self.trace, make_pmp(), self.config,
                          sampling=self.sampling)
        regen_cpu = time.process_time() - start_cpu
        regen_wall = time.perf_counter() - start_wall
        retired = self.census.take()
        checker.count(checker.check(self.name, digest(result)))
        if self.cache is None:
            self.cache = ResultCache(self.cache_dir)
            self.cache.put(self._job().key(), result)
        return Sample(regen_wall_s=regen_wall, regen_cpu_s=regen_cpu,
                      accesses=len(self.trace), replay_walls=[],
                      results=[result], experiments={},
                      fastpath_retired=retired)

    def replay(self, checker: Checker, sample: Sample) -> None:
        for _ in range(TRACE_REPLAYS):
            engine = ExperimentEngine(cache=self.cache)
            start = time.perf_counter()
            [replayed] = engine.run_jobs([self._job()])
            sample.replay_walls.append(time.perf_counter() - start)
            checker.count(checker.check(self.name, digest(replayed)))
            for key, value in _engine_counts(engine.counters).items():
                sample.experiments[key] = (sample.experiments.get(key, 0)
                                           + value)

    def cycle(self, checker: Checker) -> Sample:
        sample = self.cold(checker)
        self.replay(checker, sample)
        return sample

    def close(self) -> None:
        self.census.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class _CapturingRunner(SuiteRunner):
    """A SuiteRunner that keeps the per-job results of its last batch
    (``run_single_core`` reduces them to geomeans)."""

    def suite_comparison(self, factories, config=None):
        self.captured = super().suite_comparison(factories, config)
        return self.captured


class Fig8Quick:
    """Fig 8 as ``pmp-repro fig8`` runs it: ``run_single_core`` with
    pmp-limit over the quick suite on a fresh cache (88 jobs), then the
    same figure replayed from the now-warm cache."""

    name = "fig8_quick"

    def __init__(self, accesses: int, workdir: Path) -> None:
        self.accesses = accesses
        self.workdir = workdir
        self.specs: list = []
        self.passes = 0

    @property
    def sizes(self) -> dict:
        return {"accesses": self.accesses, "workers": FIG8_WORKERS}

    @property
    def jobs(self) -> int:
        """Jobs per pass: every trace under every engine plus pmp-limit
        and the baseline."""
        return len(self.specs) * (len(COMPETITORS) + 2)

    def setup(self, seed: int) -> None:
        catalog = scenario_catalog.load_catalog(CATALOG_DIR)
        self.specs = [seeded(spec, seed)
                      for spec in memtrace_workloads.quick_suite(catalog)]
        for spec in self.specs:
            spec.build(self.accesses).content_hash()
        # The warm-up runs the figure's whole path (pool, keys, cache) on
        # one short trace, so the first timed pass pays no first-use cost.
        warm_dir = self.workdir / "fig8-warmup"
        run_single_core(SuiteRunner(specs=self.specs[:1],
                                    accesses=WARMUP_ACCESSES // 8,
                                    workers=FIG8_WORKERS,
                                    cache=ResultCache(warm_dir)),
                        include_pmp_limit=True)
        shutil.rmtree(warm_dir, ignore_errors=True)

    def _pass(self, cache_dir: Path):
        """One run of the figure; returns the runner and the figure, or
        the runner and the batch failure."""
        runner = _CapturingRunner(specs=self.specs, accesses=self.accesses,
                                  workers=FIG8_WORKERS,
                                  cache=ResultCache(cache_dir))
        try:
            return runner, run_single_core(runner, include_pmp_limit=True)
        except BatchFailed as exc:
            return runner, exc

    def _check(self, runner, figure, checker: Checker) -> list:
        """Check every job and the PMP geomean; returns the results."""
        if isinstance(figure, BatchFailed):
            checker.mismatches.extend(str(f.to_dict())
                                      for f in figure.failures)
            checker.count(False, self.jobs)
            return []
        matrix, baselines = runner.captured
        results = []
        for label, column in [*matrix.items(), ("baseline", baselines)]:
            for spec, result in zip(self.specs, column):
                checker.count(checker.check(f"{label}/{spec.name}",
                                            digest(result)))
                results.append(result)
        if not checker.check("pmp_nipc", repr(figure.nipc["pmp"])):
            checker.failed += 1
        return results

    def _cache_dir(self) -> Path:
        return self.workdir / f"fig8-{self.passes}"

    def cold(self, checker: Checker) -> Sample:
        self.passes += 1
        start_children = children_cpu_s()
        start_cpu = time.process_time()
        start_wall = time.perf_counter()
        cold, figure = self._pass(self._cache_dir())
        regen_wall = time.perf_counter() - start_wall
        children = children_cpu_s() - start_children
        regen_cpu = time.process_time() - start_cpu + children
        results = self._check(cold, figure, checker)
        return Sample(regen_wall_s=regen_wall, regen_cpu_s=regen_cpu,
                      accesses=self.jobs * self.accesses,
                      replay_walls=[], results=results,
                      experiments=_engine_counts(cold.engine.counters),
                      children_cpu_s=children, workers=FIG8_WORKERS,
                      fastpath_retired=None)

    def replay(self, checker: Checker, sample: Sample) -> None:
        start = time.perf_counter()
        warm, figure = self._pass(self._cache_dir())
        sample.replay_walls.append(time.perf_counter() - start)
        self._check(warm, figure, checker)
        for key, value in _engine_counts(warm.engine.counters).items():
            sample.experiments[key] += value
        shutil.rmtree(self._cache_dir(), ignore_errors=True)

    def cycle(self, checker: Checker) -> Sample:
        sample = self.cold(checker)
        self.replay(checker, sample)
        return sample

    def close(self) -> None:
        pass


class Fig13Mix:
    """A 4-core ``simulate_multicore`` of PMP on a heterogeneous mix of
    quick-suite traces, rebased per core.  The multicore path has no
    result cache, so it has no replay: replay_s reports the cold calls,
    as regen_s does."""

    name = "fig13_mix"

    def __init__(self, accesses: int) -> None:
        self.accesses = accesses
        self.config = SystemConfig.default().for_multicore(len(FIG13_TRACES))
        self.traces: list = []

    @property
    def sizes(self) -> dict:
        return {"accesses_per_core": self.accesses,
                "traces": list(FIG13_TRACES)}

    def setup(self, seed: int) -> None:
        specs = load_specs(FIG13_TRACES, seed)
        self.traces = [rebase(spec.build(self.accesses), core)
                       for core, spec in enumerate(specs)]
        simulate_multicore([rebase(spec.build(WARMUP_ACCESSES // 4), core)
                            for core, spec in enumerate(specs)],
                           make_pmp, self.config)

    def cold(self, checker: Checker) -> Sample:
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        results = simulate_multicore(self.traces, make_pmp, self.config)
        regen_cpu = time.process_time() - start_cpu
        regen_wall = time.perf_counter() - start_wall
        lanes = [checker.check(f"core{core}/{result.trace_name}",
                               digest(result))
                 for core, result in enumerate(results)]
        checker.count(all(lanes))
        return Sample(regen_wall_s=regen_wall, regen_cpu_s=regen_cpu,
                      accesses=sum(len(t) for t in self.traces),
                      replay_walls=[], results=results,
                      experiments={}, fastpath_retired=0)

    #: Nothing to replay without a result cache.
    replay = None

    def cycle(self, checker: Checker) -> Sample:
        return self.cold(checker)

    def close(self) -> None:
        pass


def make(name: str, workdir: Path):
    """Construct the named workload at its pinned size (changing a size
    requires re-pinning digests.json)."""
    if name == "trace_pmp":
        return TraceWorkload(name, 15_000, sampled=False, workdir=workdir)
    if name == "trace_pmp_sampled":
        return TraceWorkload(name, 240_000, sampled=True, workdir=workdir)
    if name == "fig8_quick":
        return Fig8Quick(500, workdir)
    if name == "fig13_mix":
        return Fig13Mix(4_000)
    raise ValueError(f"unknown workload {name!r}")
