"""Multi-core simulation: private L1D/L2C per core, shared LLC and DRAM.

Cores run their own traces and prefetchers, one
:class:`~repro.sim.session.Session` per core; the driver always steps
the session whose clock is furthest behind, one access at a time, so
shared-resource contention (LLC capacity, inclusive back-invalidations,
DRAM channel queueing) emerges from interleaved timing rather than being
modelled statistically.  This is the substrate for Fig 13 (homogeneous
125-trace runs and the Table VII heterogeneous MPKI mixes).

Stats boundaries are the session's two levels.  Each lane opens its own
measurement (private counters) when it reaches its warmup boundary; the
shared LLC/DRAM counters and every lane's attribution views (LLC mirror,
DRAM port) are cleared together once, after the last lane's boundary
access.  Per-core results report the lane's attributed deltas, which sum
to the shared hardware totals over the common measurement window.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

from ..memtrace.trace import Trace
from ..prefetchers.base import NoPrefetcher, Prefetcher
from .cache import Cache
from .dram import Dram
from .hierarchy import Hierarchy, SharedLLC
from .params import SystemConfig
from .session import Session
from .stats import SimResult, geomean

PrefetcherFactory = Callable[[], Prefetcher]


def _lanes(traces: Sequence[Trace], prefetcher_factory: PrefetcherFactory,
           config: SystemConfig, warmup_fraction: float | Sequence[float],
           check_invariants: bool | None) -> list[Session]:
    """One session per trace around a shared LLC and DRAM; no fast path
    (a block would break the furthest-behind interleaving)."""
    if isinstance(warmup_fraction, (int, float)):
        fractions = [warmup_fraction] * len(traces)
    else:
        fractions = list(warmup_fraction)
        if len(fractions) != len(traces):
            raise ValueError(
                f"{len(fractions)} warmup fractions for {len(traces)} traces")
    shared = SharedLLC(Cache(config.llc, name="LLC"))
    dram = Dram(config.dram)
    # Every hierarchy exists before any auditor: an auditor sizes its
    # LLC inclusion law from the caches registered with the shared LLC.
    hierarchies = [Hierarchy(config, prefetcher_factory(), shared, dram, i)
                   for i in range(len(traces))]
    sessions = [Session(trace, hierarchy, fraction, fastpath=False,
                        check_invariants=check_invariants)
                for trace, hierarchy, fraction
                in zip(traces, hierarchies, fractions)]
    # Cross-wire the auditors so back-invalidations from other cores'
    # accesses are tracked too.
    for session in sessions:
        for other in sessions:
            if session.auditor is not None and other is not session:
                session.auditor.watch_remote_bus(other.hierarchy.bus)
    return sessions


def _interleave(sessions: Sequence[Session]) -> list[SimResult]:
    """Run the lanes to completion, always stepping the core whose clock
    is furthest behind, and return one result per lane."""
    positions = [0] * len(sessions)
    # An empty trace never steps at all.
    heap = [(session.core.cycle, i) for i, session in enumerate(sessions)
            if len(session.trace)]
    heapq.heapify(heap)
    # Lanes that still have to cross their warmup boundary before the
    # global measurement window opens.  A zero-length warmup crosses on
    # the lane's first step.
    pending_warmup = {i for _, i in heap}
    if not pending_warmup:
        for session in sessions:
            session.reset_shared()

    while heap:
        _, i = heapq.heappop(heap)
        session = sessions[i]
        index = positions[i]
        # Only this lane's private counters: the shared LLC/DRAM blocks
        # belong to the global measurement boundary.
        crossed = index == session.warmup_end
        if crossed:
            session.open_measurement()
        session.run(index, index + 1)
        positions[i] = index = index + 1
        if crossed:
            # With the fraction below 1 every lane crosses before its
            # trace ends, so the last crossing opens the window.
            pending_warmup.discard(i)
            if not pending_warmup:
                for lane in sessions:
                    lane.reset_shared()
        if index < len(session.trace):
            heapq.heappush(heap, (session.core.cycle, i))

    results = []
    for session in sessions:
        session.finish()
        results.append(session.result(session.trace.name))
    return results


def simulate_multicore(traces: Sequence[Trace],
                       prefetcher_factory: PrefetcherFactory | None = None,
                       config: SystemConfig | None = None,
                       warmup_fraction: float | Sequence[float] = 0.2,
                       check_invariants: bool | None = None) -> list[SimResult]:
    """Run N traces on N cores sharing an LLC and DRAM channels.

    Returns one :class:`SimResult` per core (trace order preserved),
    reporting each core's *attributed* share of the shared LLC and DRAM
    traffic.  ``warmup_fraction`` may be one fraction for every lane or
    a per-lane sequence (heterogeneous mixes warm up at different
    rates); each must lie in ``[0, 1)``.  ``check_invariants`` attaches
    one :class:`~repro.sim.invariants.InvariantAuditor` per core,
    cross-wired so back-invalidations from other cores' accesses are
    tracked too; ``None`` defers to ``REPRO_CHECK_INVARIANTS``.
    """
    if config is None:
        config = SystemConfig.default().for_multicore(len(traces))
    if prefetcher_factory is None:
        prefetcher_factory = NoPrefetcher
    return _interleave(_lanes(traces, prefetcher_factory, config,
                              warmup_fraction, check_invariants))


def multicore_speedup(results: Sequence[SimResult],
                      baselines: Sequence[SimResult]) -> float:
    """Geomean of per-core NIPC — the Fig 13 aggregate."""
    return geomean([r.nipc(b) for r, b in zip(results, baselines)])
