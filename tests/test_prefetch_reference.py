"""Per-access differential test of the prefetch path against the reference.

A scripted prefetcher drives the real :class:`~repro.sim.hierarchy.Hierarchy`
and the flat :class:`~repro.sim.refmodel.RefModel` side by side.  Its
requests target random levels and deliberately include lines that are
resident or already in flight, plus bursts that overflow the prefetch
queues and MSHRs.  After every demand access the test compares latency,
hit level and every per-level counter; after every prefetch request it
compares admission and the drop reason; and after both it compares the
exact, ordered feedback calls the prefetcher received.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.prefetchers.base import FillLevel, PrefetchRequest, Prefetcher
from repro.sim.cache import CacheStats
from repro.sim.hierarchy import Hierarchy
from repro.sim.invariants import InvariantAuditor
from repro.sim.refmodel import COUNTERS, RefModel

from tests.test_invariants import small_config

LEVEL_NAMES = ("l1d", "l2c", "llc")
LEVELS = (FillLevel.L1D, FillLevel.L2C, FillLevel.LLC)
#: LLC set count of ``small_config()``: lines ``s + k * 128`` share a set
#: at every level, so a small pool forces evictions and back-invalidations.
CONFLICT_STRIDE = 128

assert COUNTERS == tuple(CacheStats.__dataclass_fields__)


class ScriptedPrefetcher(Prefetcher):
    """Records every feedback hook; the test issues its requests."""

    name = "scripted"

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def on_evict(self, line_address):
        self.calls.append(("evict", line_address))

    def on_prefetch_useful(self, address, level):
        self.calls.append(("useful", address, int(level)))

    def on_prefetch_useless(self, address, level):
        self.calls.append(("useless", address, int(level)))

    def on_prefetch_fill(self, address, level):
        self.calls.append(("fill", address, int(level)))


def counters_of(stats: CacheStats) -> dict[str, int]:
    return {name: getattr(stats, name) for name in COUNTERS}


def kernel_outcome(before, after, dram_before, dram_after) -> tuple:
    """Where the kernel answered a demand, from its counter deltas."""
    for depth, (b, a) in enumerate(zip(before, after)):
        if a["demand_hits"] > b["demand_hits"]:
            return ("hit", depth)
    walked = max(depth for depth, (b, a) in enumerate(zip(before, after))
                 if a["demand_accesses"] > b["demand_accesses"])
    if dram_after > dram_before:
        return ("dram", None)
    return ("merge", walked)


class Lockstep:
    """Kernel and reference driven by one schedule."""

    def __init__(self, audit: bool = False) -> None:
        config = small_config()
        self.prefetcher = ScriptedPrefetcher()
        self.kernel = Hierarchy.build(config, self.prefetcher)
        self.auditor = (InvariantAuditor(self.kernel, checkpoint_every=8,
                                         deep_every=4) if audit else None)
        self.ref = RefModel(config)
        self.seen = {"outcomes": set(), "drops": set(), "late": 0,
                     "useless": 0, "evict": 0, "admitted": set()}

    def kernel_counters(self) -> list[dict[str, int]]:
        h = self.kernel
        return [counters_of(h.l1d.stats), counters_of(h.l2c.stats),
                counters_of(h.llc_stats)]

    def check_feedback(self, where: str) -> None:
        assert self.prefetcher.calls == self.ref.feedback, (
            f"{where}: feedback diverged\n kernel {self.prefetcher.calls}"
            f"\n ref    {self.ref.feedback}")
        self.prefetcher.calls.clear()
        self.ref.feedback.clear()

    def demand(self, step: int, address: int, cycle: float,
               is_write: bool) -> float:
        h, ref = self.kernel, self.ref
        before = self.kernel_counters()
        dram_before = h.dram.stats.demand_requests
        latency, l1_hit = h.demand_access(address, cycle, is_write)
        ref_latency, ref_l1_hit = ref.access(address, cycle, is_write)
        where = f"step {step} demand {address:#x} @ {cycle}"
        assert latency == ref_latency, (
            f"{where}: kernel latency {latency}, reference {ref_latency}")
        assert l1_hit == ref_l1_hit, f"{where}: L1 hit flag diverged"
        after = self.kernel_counters()
        outcome = kernel_outcome(before, after, dram_before,
                                 h.dram.stats.demand_requests)
        assert outcome == ref.last_outcome, (
            f"{where}: hit level {outcome}, reference {ref.last_outcome}")
        for index, name in enumerate(LEVEL_NAMES):
            assert after[index] == ref.counters(index), (
                f"{where}: {name} counters diverged")
        self.seen["outcomes"].add(outcome[0])
        self.seen["late"] += sum(a["late_prefetch_hits"]
                                 - b["late_prefetch_hits"]
                                 for a, b in zip(after, before))
        self.check_feedback(where)
        return latency

    def prefetch(self, step: int, address: int, level: FillLevel,
                 cycle: float) -> None:
        h, ref = self.kernel, self.ref
        drops_before = dict(h.drop_reasons)
        admitted = h.issue_prefetch(PrefetchRequest(address, level), cycle)
        reason = next((r for r, n in h.drop_reasons.items()
                       if n != drops_before.get(r, 0)), None)
        ref_admitted, ref_reason = ref.issue(address, int(level), cycle)
        where = f"step {step} prefetch {address:#x}->{level.name} @ {cycle}"
        assert (admitted, reason) == (ref_admitted, ref_reason), (
            f"{where}: kernel {(admitted, reason)}, "
            f"reference {(ref_admitted, ref_reason)}")
        if reason is not None:
            self.seen["drops"].add(reason)
        else:
            self.seen["admitted"].add(level.name)
        self.check_feedback(where)

    def finish(self, cycle: float) -> None:
        h, ref = self.kernel, self.ref
        h.flush_accounting(cycle)
        if self.auditor is not None:
            self.auditor.finalize(cycle)
        ref.flush()
        self.check_feedback("end of run")
        for index, name in enumerate(LEVEL_NAMES):
            storage = getattr(h, name)
            assert self.kernel_counters()[index] == ref.counters(index), (
                f"{name} final counters diverged")
            contents = {line: entry.dirty for cache_set in storage._sets
                        for line, entry in cache_set.items()}
            assert contents == ref.contents(index), (
                f"{name} final contents diverged")
        assert counters_of(h.llc.stats) == ref.counters(2)
        stats = h.dram.stats
        assert (stats.demand_requests, stats.prefetch_requests,
                stats.writeback_requests) == (
            ref.dram_demands, ref.dram_prefetches, ref.dram_writebacks)
        assert {int(k): v for k, v in h.issued_prefetches.items()} == \
            ref.issued
        assert h.drop_reasons == ref.dropped
        assert h.dropped_prefetches == sum(ref.dropped.values())
        self.seen["useless"] = sum(ref.counters(i)["useless_prefetches"]
                                   for i in range(3))
        self.seen["evict"] = sum(ref.counters(i)["evictions"]
                                 for i in range(3))


def run_script(steps, *, blocking: bool, audit: bool = False) -> Lockstep:
    """``steps`` rows: ``(line, is_write, gap, [(line, level_index), ...])``."""
    rig = Lockstep(audit=audit)
    cycle = 0.0
    for step, (line, is_write, gap, requests) in enumerate(steps):
        cycle += gap
        latency = rig.demand(step, line << 6, cycle, is_write)
        for pf_line, level_index in requests:
            rig.prefetch(step, (pf_line << 6) | 8, LEVELS[level_index], cycle)
        if rig.auditor is not None:
            rig.auditor.checkpoint(cycle)
        # Blocking mode serialises on every load; pipelined mode keeps
        # fills in flight so demands and prefetches merge with them.
        cycle += latency + 1 if blocking else 1
    rig.finish(cycle)
    return rig


POOL = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 40)).map(
        lambda sk: sk[0] + sk[1] * CONFLICT_STRIDE),
    st.integers(0, 300).map(lambda i: (1 << 16) + i))


@st.composite
def scripts(draw, max_steps=120):
    steps = []
    for _ in range(draw(st.integers(1, max_steps))):
        line = draw(POOL)
        burst = draw(st.integers(0, 12))
        requests = []
        for _ in range(burst):
            # Near the demand (resident / in flight) or anywhere in the pool.
            if draw(st.booleans()):
                pf_line = max(0, line + draw(st.integers(-2, 3))
                              * CONFLICT_STRIDE)
            else:
                pf_line = draw(POOL)
            requests.append((pf_line, draw(st.integers(0, 2))))
        steps.append((line, draw(st.booleans()),
                      draw(st.integers(0, 30)), requests))
    return steps


@settings(max_examples=60, deadline=None)
@given(scripts(), st.booleans())
def test_prefetch_path_matches_reference(steps, blocking):
    run_script(steps, blocking=blocking)


@settings(max_examples=10, deadline=None)
@given(scripts(max_steps=80))
def test_prefetch_path_matches_reference_under_audit(steps):
    run_script(steps, blocking=False, audit=True)


#: A region spread over every set, demanded once up front: most of it
#: stays LLC-resident after leaving L1/L2, so requests for it promote
#: on-chip — PQ slots without MSHRs, the only way to fill a PQ first.
WARM_BASE = 1 << 16
WARM_LINES = 600


def seeded_script(seed: int, steps: int, sets: int, depth: int) -> list:
    rng = random.Random(seed)
    script = [(WARM_BASE + i, False, 0, []) for i in range(WARM_LINES)]
    for _ in range(steps):
        line = rng.randrange(sets) + rng.randrange(depth) * CONFLICT_STRIDE
        requests = []
        gap = rng.randrange(40)
        if rng.random() < 0.1:
            # After a quiet spell (MSHRs drained), a burst of promotions.
            gap = 2000
            requests = [(WARM_BASE + rng.randrange(WARM_LINES),
                         rng.randrange(2)) for _ in range(20)]
        for _ in range(rng.choice((0, 0, 1, 2, 3, 6, 12, 20))):
            if rng.random() < 0.5:
                pf_line = line + rng.randrange(-2, 4) * CONFLICT_STRIDE
            else:
                pf_line = (rng.randrange(sets)
                           + rng.randrange(depth) * CONFLICT_STRIDE)
            requests.append((max(0, pf_line), rng.randrange(3)))
        script.append((line, rng.random() < 0.3, gap, requests))
    return script


def test_long_script_covers_every_prefetch_outcome():
    """A long seeded run must reach every behaviour the reference models,
    so the lockstep above is not passing vacuously."""
    rig = run_script(seeded_script(1, 3000, sets=6, depth=48),
                     blocking=False)
    seen = rig.seen
    assert seen["drops"] == {"resident", "pq_full", "mshr_full"}
    assert seen["admitted"] == {"L1D", "L2C", "LLC"}
    assert seen["outcomes"] == {"hit", "merge", "dram"}
    assert seen["late"] > 0 and seen["useless"] > 0 and seen["evict"] > 0
    assert rig.kernel.dram.stats.writeback_requests > 0
    useful = sum(rig.ref.counters(i)["useful_prefetches"] for i in range(3))
    assert useful > seen["late"]        # resident useful hits too


def test_long_blocking_script_matches_reference():
    run_script(seeded_script(2, 2000, sets=4, depth=64), blocking=True)
