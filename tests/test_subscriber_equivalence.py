"""Publishing events only to subscribers is pure observation.

The kernel writes its counters at the event site and builds events only
when an opt-in subscriber (the event trace, the invariant auditor) is
attached.  For every registry engine, plus one 2-core shared-LLC run,
these tests require:

* identical ``SimResult`` counters with ``trace_events`` and
  ``check_invariants`` each on and off;
* an event stream that accounts for exactly the directly written
  counters: per level, ``CacheAccess`` events equal ``demand_accesses``,
  ``PrefetchFill`` equals ``prefetch_fills`` and ``Eviction`` equals
  ``evictions``; ``PrefetchIssued`` per level equals the issued count and
  ``PrefetchDropped`` per reason equals the drop count;
* for three engines, the full event log itself, pinned by digest.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.memtrace.workloads import quick_suite
from repro.prefetchers import COMPETITORS
from repro.prefetchers.pmp import PMP
from repro.sim import engine, multicore, session
from repro.sim.events import PrefetchDropped
from repro.sim.hierarchy import Hierarchy
from repro.sim.observers import EventTrace
from repro.sim.params import SystemConfig

from tests.test_invariants import small_config

LEVELS = (("l1d", "L1D"), ("l2c", "L2C"), ("llc", "LLC"))
PER_LEVEL = (("CacheAccess", "demand_accesses"),
             ("PrefetchFill", "prefetch_fills"),
             ("Eviction", "evictions"))


class ReasonTrace(EventTrace):
    """An event trace that also counts drops by reason."""

    def __init__(self, bus=None, max_events: int = 100_000) -> None:
        self.reasons: dict[str, int] = {}
        super().__init__(bus, max_events)

    def reset(self) -> None:
        super().reset()
        self.reasons.clear()

    def _record(self, event) -> None:
        if type(event) is PrefetchDropped:
            self.reasons[event.reason] = self.reasons.get(event.reason, 0) + 1
        super()._record(event)


def counters(result) -> dict:
    """A result's simulated counters (the event snapshot excluded)."""
    return dataclasses.replace(result, event_counters=None).to_dict()


def assert_stream_accounts_for(snapshot, reasons, hierarchy) -> None:
    """The trace's counts equal the hierarchy's directly written ones
    (the LLC as this core's attributed view)."""
    blocks = {"l1d": hierarchy.l1d.stats, "l2c": hierarchy.l2c.stats,
              "llc": hierarchy.llc_stats}
    for kind, field in PER_LEVEL:
        for name, component in LEVELS:
            seen = snapshot.get(kind, {}).get(component, 0)
            assert seen == getattr(blocks[name], field), (kind, component)
    for level, count in hierarchy.issued_prefetches.items():
        assert snapshot.get("PrefetchIssued", {}).get(level.name, 0) == count
    assert {r: n for r, n in hierarchy.drop_reasons.items() if n} == reasons
    assert sum(snapshot.get("PrefetchDropped", {}).values()) == \
        hierarchy.dropped_prefetches


@pytest.fixture(scope="module")
def trace():
    spec = next(s for s in quick_suite() if s.name == "spec06-00")
    return spec.build(1500)


@pytest.mark.parametrize("name", sorted(COMPETITORS))
def test_subscribers_only_observe(name, trace, monkeypatch):
    factory = COMPETITORS[name]
    monkeypatch.setattr(session, "EventTrace", ReasonTrace)
    runs = {}
    for trace_events in (False, True):
        for audit in (False, True):
            run = session.Session.build(trace, factory(),
                                        SystemConfig.default(), 0.2,
                                        trace_events=trace_events,
                                        check_invariants=audit)
            runs[trace_events, audit] = result = engine.measure(run)
            if trace_events:
                assert_stream_accounts_for(result.event_counters,
                                           run.tracer.reasons, run.hierarchy)
    reference = counters(runs[False, False])
    for key, result in runs.items():
        assert counters(result) == reference, key
    assert runs[False, False].event_counters is None
    assert set(runs[True, False].event_counters["CacheAccess"]) == {
        "L1D", "L2C", "LLC"}


def test_registry_run_exercises_the_prefetch_events(trace):
    result = engine.simulate(trace, PMP(), trace_events=True)
    for kind in ("PrefetchIssued", "PrefetchDropped", "PrefetchFill",
                 "Eviction"):
        assert sum(result.event_counters[kind].values()) > 0, kind


#: Length and digest of the full ``EventTrace`` log (every event, in
#: order, with its cycle) on the 1500-access trace, pinned when the
#: counters were still bus subscribers: subscribers must keep seeing the
#: same stream in the same order.
PINNED_LOGS = {"pmp": (9890, "e4a794bc85f573db"),
               "spp+ppf": (11122, "88581d625272cf00"),
               "hybrid": (9883, "4cb640f3a7e0a2b1")}


@pytest.mark.parametrize("name", sorted(PINNED_LOGS))
def test_event_stream_and_order_are_pinned(name, trace):
    run = session.Session.build(trace, COMPETITORS[name](),
                                SystemConfig.default(), 0.0,
                                trace_events=True)
    engine.measure(run)
    log = run.tracer.log
    digest = hashlib.sha256(repr(log).encode()).hexdigest()[:16]
    assert (len(log), digest) == PINNED_LOGS[name]


class TracedHierarchy(Hierarchy):
    """A lane hierarchy with an event trace reset at the same boundaries
    as the counters it shadows (private levels and issue/drop accounting
    at the lane's own warmup, the LLC view at the global boundary)."""

    built: list["TracedHierarchy"] = []

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tracer = ReasonTrace(self.bus)
        TracedHierarchy.built.append(self)

    def _forget(self, kinds, components) -> None:
        for kind in kinds:
            for component in components:
                self.tracer.counts.get(kind, {}).pop(component, None)

    def reset_private_stats(self) -> None:
        super().reset_private_stats()
        self._forget([kind for kind, _ in PER_LEVEL], ("L1D", "L2C"))
        self._forget(("PrefetchIssued", "PrefetchDropped"),
                     ("L1D", "L2C", "LLC"))
        self.tracer.reasons.clear()

    def reset_shared_attribution(self) -> None:
        super().reset_shared_attribution()
        self._forget([kind for kind, _ in PER_LEVEL], ("LLC",))


def test_two_core_subscribers_only_observe(monkeypatch):
    specs = {s.name: s for s in quick_suite()}
    traces = [specs["spec06-00"].build(1200), specs["ligra-00"].build(1200)]
    # A small shared LLC, so the cores evict and back-invalidate each
    # other's lines.
    config = small_config()
    plain = multicore.simulate_multicore(traces, PMP, config,
                                         check_invariants=False)
    audited = multicore.simulate_multicore(traces, PMP, config,
                                           check_invariants=True)
    monkeypatch.setattr(multicore, "Hierarchy", TracedHierarchy)
    TracedHierarchy.built = []
    traced = multicore.simulate_multicore(traces, PMP, config,
                                          check_invariants=True)
    assert ([counters(r) for r in plain] == [counters(r) for r in audited]
            == [counters(r) for r in traced])
    assert len(TracedHierarchy.built) == 2
    for hierarchy in TracedHierarchy.built:
        assert_stream_accounts_for(hierarchy.tracer.counter_snapshot(),
                                   hierarchy.tracer.reasons, hierarchy)
    assert sum(h.llc_stats.evictions for h in TracedHierarchy.built) > 0
    assert sum(h.tracer.total("BackInvalidation")
               for h in TracedHierarchy.built) > 0
