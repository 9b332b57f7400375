"""Single-core simulation driver.

Mirrors the paper's methodology at reduced scale: the first
``warmup_fraction`` of the trace warms caches and prefetcher state with
stats discarded, the remainder is measured.  On every L1D load the engine
(1) serves the demand through the hierarchy, (2) hands the access to the
prefetcher, and (3) issues whatever prefetches the prefetcher returned,
subject to PQ/MSHR admission in the hierarchy.
"""

from __future__ import annotations

from typing import Callable

from ..memtrace.trace import Trace
from ..prefetchers.base import NoPrefetcher, Prefetcher
from .core import Core
from .fastpath import MIN_RUN, FastPath
from .hierarchy import Hierarchy
from .invariants import InvariantAuditor, audit_requested
from .observers import EventTrace
from .params import SystemConfig
from .stats import SimResult, snapshot_level

PrefetcherFactory = Callable[[], Prefetcher]


def simulate(trace: Trace, prefetcher: Prefetcher | None = None,
             config: SystemConfig | None = None,
             warmup_fraction: float = 0.2,
             trace_events: bool = False,
             check_invariants: bool | None = None,
             fastpath: bool = True,
             sampling=None,
             state_out: dict | None = None) -> SimResult:
    """Run one trace through one prefetcher; returns the measured stats.

    ``trace_events=True`` attaches the opt-in :class:`EventTrace`
    observer to the hierarchy's bus; its per-component counter snapshot
    lands in ``SimResult.event_counters`` (and, via the experiment
    engine, in run manifests).  When off, the observer is never
    subscribed and each event site costs one truth test.

    ``check_invariants=True`` attaches an
    :class:`~repro.sim.invariants.InvariantAuditor` that enforces the
    kernel's conservation laws as the run progresses, raising
    :class:`~repro.sim.invariants.InvariantViolation` on the first
    breach.  ``None`` (the default) defers to the
    ``REPRO_CHECK_INVARIANTS`` environment variable, so CI can audit
    every simulation without touching call sites.  Auditing is pure
    observation: results are identical with it on or off.

    ``fastpath`` (default on) lets the engine batch runs of *ordinary*
    accesses — L1 hits with no structural events — through the NumPy
    fast path (:mod:`repro.sim.fastpath`), falling back to the
    event-driven kernel at every interesting boundary.  Results are
    bit-identical either way (the differential suite pins this);
    ``fastpath=False`` (``--no-fastpath`` on the CLI) is the escape
    hatch that forces every access through the event kernel.

    ``sampling``, when given an enabled
    :class:`~repro.sampling.config.SamplingConfig`, dispatches to
    :func:`repro.sampling.engine.simulate_sampled`: representative
    windows are simulated and the full-run counters extrapolated, with
    the plan and error bars attached as ``SimResult.sampling``.  Off
    (``None`` or ``enabled=False``) by default — then this function's
    behaviour is bit-identical to the pre-sampling engine.

    ``state_out``, when given a dict, receives post-run internals for
    tests: the ``hierarchy`` and ``core`` objects plus
    ``fastpath_blocks`` / ``fastpath_accesses`` coverage counters.
    """
    if sampling is not None and sampling.enabled:
        if state_out is not None:
            raise ValueError("state_out is not supported for sampled runs "
                             "(there is no single post-run hierarchy)")
        from ..sampling.engine import simulate_sampled  # avoid import cycle

        return simulate_sampled(trace, prefetcher, config, warmup_fraction,
                                sampling=sampling, trace_events=trace_events,
                                check_invariants=check_invariants,
                                fastpath=fastpath)
    if prefetcher is None:
        prefetcher = NoPrefetcher()
    if config is None:
        config = SystemConfig.default()

    hierarchy = Hierarchy.build(config, prefetcher)
    tracer = EventTrace(hierarchy.bus) if trace_events else None
    auditor = (InvariantAuditor(hierarchy)
               if audit_requested(check_invariants) else None)
    core = Core(config.core)
    accesses = trace.accesses
    total = len(accesses)
    warmup_end = int(total * warmup_fraction)
    measured_start_instr = 0
    measured_start_cycle = 0.0

    scanner = (FastPath(trace, hierarchy, core, prefetcher)
               if fastpath and prefetcher.supports_hit_runs
               and total >= MIN_RUN else None)

    # Bound methods hoisted out of the per-access loop: the loop body is
    # the whole-simulation hot path and each lookup otherwise costs an
    # attribute resolution per access.
    advance = core.advance
    begin_load = core.begin_load
    finish_load = core.finish_load
    set_view_cycle = hierarchy.set_view_cycle
    demand_access = hierarchy.demand_access
    issue_prefetch = hierarchy.issue_prefetch
    on_access = prefetcher.on_access
    try_run = scanner.try_run if scanner is not None else None

    index = 0
    while index < total:
        if index == warmup_end:
            hierarchy.reset_stats()
            if tracer is not None:
                tracer.reset()
            if auditor is not None:
                auditor.on_reset()
            measured_start_instr = core.instructions
            measured_start_cycle = core.cycle

        if try_run is not None:
            # A block must never span the warmup/measurement boundary:
            # the stats it reconciles in one step have to land entirely
            # on one side of the reset above.
            retired = try_run(index,
                              warmup_end if index < warmup_end else total)
            if retired:
                index += retired
                continue

        access = accesses[index]
        index += 1
        if access.gap:
            advance(access.gap)
        issue_cycle = begin_load()
        set_view_cycle(issue_cycle)
        latency, l1_hit = demand_access(access.address, issue_cycle,
                                        access.is_write)
        finish_load(latency)

        requests = on_access(access.pc, access.address,
                             issue_cycle, l1_hit, hierarchy)
        for request in requests:
            issue_prefetch(request, issue_cycle)
        if auditor is not None:
            auditor.checkpoint(issue_cycle)

    core.drain()
    final_cycle = core.cycle
    hierarchy.flush_accounting(final_cycle)
    if auditor is not None:
        auditor.finalize(final_cycle)

    if state_out is not None:
        state_out["hierarchy"] = hierarchy
        state_out["core"] = core
        state_out["tracer"] = tracer
        state_out["fastpath_blocks"] = (scanner.blocks_retired
                                        if scanner is not None else 0)
        state_out["fastpath_accesses"] = (scanner.accesses_fastpathed
                                          if scanner is not None else 0)

    return SimResult(
        trace_name=trace.name,
        prefetcher_name=prefetcher.name,
        instructions=core.instructions - measured_start_instr,
        cycles=core.cycle - measured_start_cycle,
        levels={
            "l1d": snapshot_level(hierarchy.l1d.stats),
            "l2c": snapshot_level(hierarchy.l2c.stats),
            "llc": snapshot_level(hierarchy.llc.stats),
        },
        dram_demand_requests=hierarchy.dram.stats.demand_requests,
        dram_prefetch_requests=hierarchy.dram.stats.prefetch_requests,
        dram_writeback_requests=hierarchy.dram.stats.writeback_requests,
        issued_prefetches=dict(hierarchy.issued_prefetches),
        dropped_prefetches=hierarchy.dropped_prefetches,
        event_counters=tracer.counter_snapshot() if tracer is not None else None,
    )


def compare(trace: Trace, prefetcher_factories: dict[str, PrefetcherFactory],
            config: SystemConfig | None = None,
            warmup_fraction: float = 0.2) -> dict[str, SimResult]:
    """Run several prefetchers (plus the no-prefetch baseline) on one trace.

    Returns results keyed by name; the baseline is under ``"baseline"``.
    """
    results = {"baseline": simulate(trace, NoPrefetcher(), config, warmup_fraction)}
    for name, factory in prefetcher_factories.items():
        results[name] = simulate(trace, factory(), config, warmup_fraction)
    return results
