"""Single-core simulation driver.

Mirrors the paper's methodology at reduced scale: the first
``warmup_fraction`` of the trace warms caches and prefetcher state with
stats discarded, the remainder is measured.  The run is one
:class:`~repro.sim.session.Session`: the warmup segment, both
measurement boundaries, the measured segment, then the end-of-run
drain.
"""

from __future__ import annotations

from typing import Callable

from ..memtrace.trace import Trace
from ..prefetchers.base import NoPrefetcher, Prefetcher
from .params import SystemConfig
from .session import Session
from .stats import SimResult

PrefetcherFactory = Callable[[], Prefetcher]


def simulate(trace: Trace, prefetcher: Prefetcher | None = None,
             config: SystemConfig | None = None,
             warmup_fraction: float = 0.2,
             trace_events: bool = False,
             check_invariants: bool | None = None,
             fastpath: bool = True,
             sampling=None) -> SimResult:
    """Run one trace through one prefetcher; returns the measured stats.

    ``warmup_fraction`` must lie in ``[0, 1)``; anything else raises
    ``ValueError``.

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
    """
    if sampling is not None and sampling.enabled:
        from ..sampling.engine import simulate_sampled  # avoid import cycle

        return simulate_sampled(trace, prefetcher, config, warmup_fraction,
                                sampling=sampling, trace_events=trace_events,
                                check_invariants=check_invariants,
                                fastpath=fastpath)
    if prefetcher is None:
        prefetcher = NoPrefetcher()
    if config is None:
        config = SystemConfig.default()
    return measure(Session.build(trace, prefetcher, config, warmup_fraction,
                                 trace_events=trace_events,
                                 check_invariants=check_invariants,
                                 fastpath=fastpath))


def measure(session: Session) -> SimResult:
    """A full single-core run of ``session``: warm up, open both
    measurement boundaries, measure the rest of the trace, finish."""
    warmup_end = session.warmup_end
    session.run(0, warmup_end)
    session.open_measurement()
    session.reset_shared()
    session.run(warmup_end, len(session.trace))
    session.finish()
    return session.result(session.trace.name)


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
