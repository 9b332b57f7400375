"""One simulation session: the per-access loop every driver runs.

A :class:`Session` owns one core's simulation state — its hierarchy,
core model, optional fast-path scanner, optional :class:`EventTrace`
and optional invariant auditor — and :meth:`Session.run` is the only
per-access loop in the simulator.  On every L1D load it (1) serves the
demand through the hierarchy, (2) hands the access to the prefetcher,
and (3) issues whatever prefetches the prefetcher returned, subject to
PQ/MSHR admission in the hierarchy.

The drivers compose the same few calls:

* :func:`repro.sim.engine.simulate` runs the warmup, opens the
  measurement, runs the rest and finishes;
* the sampled stitcher (:mod:`repro.sampling.engine`) runs each
  representative's warmup prefix, opens the measurement, runs its
  window and snapshots a result; only the last segment finishes;
* :func:`repro.sim.multicore.simulate_multicore` steps each lane's
  session one access per call, furthest-behind core first.

Stats boundaries are two-level.  :meth:`Session.open_measurement`
clears this core's private counters (L1D/L2C, prefetch accounting, the
event trace) and records where measurement starts;
:meth:`Session.reset_shared` clears the shared LLC/DRAM hardware
counters and this core's attributed views of them.  A single-core run
crosses both at once; a multicore lane crosses the private one at its
own warmup boundary and every lane crosses the shared one together,
when the last lane has crossed its own.
"""

from __future__ import annotations

from ..memtrace.trace import Trace
from ..prefetchers.base import Prefetcher
from .core import Core
from .fastpath import MIN_RUN, FastPath
from .hierarchy import Hierarchy
from .invariants import InvariantAuditor, audit_requested
from .observers import EventTrace
from .params import SystemConfig
from .stats import SimResult, snapshot_level


def warmup_boundary(length: int, warmup_fraction: float) -> int:
    """The index where a run of ``length`` accesses opens its
    measurement.  ``warmup_fraction`` must lie in ``[0, 1)``, the bound
    scenario specs enforce: outside it a run would silently measure
    the whole trace (or nothing)."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1), "
                         f"got {warmup_fraction!r}")
    return int(length * warmup_fraction)


class Session:
    """One core's trace, hierarchy and core model, run in index ranges.

    :attr:`warmup_end` is the :func:`warmup_boundary` of the trace, the
    index where a full run opens its measurement.  ``trace_events``,
    ``check_invariants`` and ``fastpath`` mean what they mean for
    :func:`~repro.sim.engine.simulate`.
    """

    def __init__(self, trace: Trace, hierarchy: Hierarchy,
                 warmup_fraction: float, *, trace_events: bool = False,
                 check_invariants: bool | None = None,
                 fastpath: bool = True) -> None:
        self.warmup_end = warmup_boundary(len(trace), warmup_fraction)
        self.trace = trace
        self.hierarchy = hierarchy
        self.prefetcher = prefetcher = hierarchy.prefetcher
        self.tracer = EventTrace(hierarchy.bus) if trace_events else None
        self.auditor = (InvariantAuditor(hierarchy)
                        if audit_requested(check_invariants) else None)
        self.core = Core(hierarchy.config.core)
        self.scanner = (FastPath(trace, hierarchy, self.core, prefetcher)
                        if fastpath and prefetcher.supports_hit_runs
                        and len(trace) >= MIN_RUN else None)
        self.start_instr = 0
        self.start_cycle = 0.0

    @classmethod
    def build(cls, trace: Trace, prefetcher: Prefetcher,
              config: SystemConfig, warmup_fraction: float,
              **options) -> "Session":
        """A single-core session with its own LLC and DRAM."""
        return cls(trace, Hierarchy.build(config, prefetcher),
                   warmup_fraction, **options)

    def run(self, start: int, stop: int) -> None:
        """Simulate trace accesses ``[start, stop)``."""
        # Bound methods hoisted out of the loop (each lookup otherwise
        # costs an attribute resolution per access), taken from the
        # instances on every call so wrappers installed on the classes
        # after construction still see every call.
        core = self.core
        hierarchy = self.hierarchy
        advance = core.advance
        begin_load = core.begin_load
        finish_load = core.finish_load
        set_view_cycle = hierarchy.set_view_cycle
        demand_access = hierarchy.demand_access
        issue_prefetch = hierarchy.issue_prefetch
        on_access = self.prefetcher.on_access
        try_run = self.scanner.try_run if self.scanner is not None else None
        checkpoint = (self.auditor.checkpoint
                      if self.auditor is not None else None)
        accesses = self.trace.accesses

        index = start
        while index < stop:
            if try_run is not None:
                # Blocks stop at ``stop``, so one never spans a
                # measurement boundary: the stats it reconciles in one
                # step land entirely on one side of the reset.
                retired = try_run(index, stop)
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
            if checkpoint is not None:
                checkpoint(issue_cycle)

    def open_measurement(self) -> None:
        """This core's measurement boundary: clear its private counters
        and event trace, and measure instructions and cycles from here."""
        self.hierarchy.reset_private_stats()
        if self.tracer is not None:
            self.tracer.reset()
        if self.auditor is not None:
            self.auditor.on_reset_private()
        self.start_instr = self.core.instructions
        self.start_cycle = self.core.cycle

    def reset_shared(self) -> None:
        """The shared measurement boundary: clear the shared LLC/DRAM
        hardware counters and this core's attributed views of them.

        Every multicore lane calls this at the same point, so the shared
        blocks are cleared once per lane with nothing simulated between.
        """
        hierarchy = self.hierarchy
        hierarchy.llc.stats.reset()
        hierarchy.dram.stats.reset()
        hierarchy.reset_shared_attribution()
        if self.auditor is not None:
            self.auditor.on_reset_shared_attribution()

    def finish(self) -> None:
        """End of run: drain the core, resolve in-flight prefetch
        accounting and run the auditor's end-of-run laws."""
        self.core.drain()
        final_cycle = self.core.cycle
        self.hierarchy.flush_accounting(final_cycle)
        if self.auditor is not None:
            self.auditor.finalize(final_cycle)

    def result(self, name: str) -> SimResult:
        """Snapshot the measured counters as a :class:`SimResult`.

        Shared-resource numbers are this core's *attributed* views — the
        LLC mirror its own accesses incremented and the DRAM port its
        hierarchy issued through.  In a single-core run they equal the
        hardware totals.
        """
        hierarchy = self.hierarchy
        dram = hierarchy.dram_port.stats
        return SimResult(
            trace_name=name,
            prefetcher_name=self.prefetcher.name,
            instructions=self.core.instructions - self.start_instr,
            cycles=self.core.cycle - self.start_cycle,
            levels={
                "l1d": snapshot_level(hierarchy.l1d.stats),
                "l2c": snapshot_level(hierarchy.l2c.stats),
                "llc": snapshot_level(hierarchy.llc_stats),
            },
            dram_demand_requests=dram.demand_requests,
            dram_prefetch_requests=dram.prefetch_requests,
            dram_writeback_requests=dram.writeback_requests,
            issued_prefetches=dict(hierarchy.issued_prefetches),
            dropped_prefetches=hierarchy.dropped_prefetches,
            event_counters=(self.tracer.counter_snapshot()
                            if self.tracer is not None else None),
        )
