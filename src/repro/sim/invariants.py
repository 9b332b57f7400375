"""Opt-in invariant audit for the event-driven memory-system kernel.

The paper's headline results are *relative* comparisons across ten
prefetchers sharing this one kernel, so a single silent accounting bug
skews every curve at once.  :class:`InvariantAuditor` is a bus observer
(plus per-access checkpoints) that enforces the kernel's conservation
laws while a simulation runs and raises a structured
:class:`InvariantViolation` — carrying the cycle, level, line and the
last N events from a ring buffer — the moment one breaks, so failures
are debuggable without rerunning.

The audited laws (see ``docs/architecture.md`` for the full catalogue):

* **MSHR bounds** — occupancy never exceeds capacity, completion cycles
  stay finite (an infinite completion is a leaked entry), and the prune
  lower bound ``_mshr_min`` never over-estimates the true minimum.
* **Fill-queue coherence** — the readiness heap and the per-line index
  describe the same multiset of pending fills.
* **Inclusion** — every line resident in a private L1D/L2C is resident
  in the shared LLC or in flight to it, and a writeback that reaches
  DRAM never bypasses a still-resident lower-level copy.
* **Stats conservation** — every :class:`~repro.sim.cache.CacheStats`
  counter equals an independently event-derived shadow (so a stray
  reset, double count or missed event is caught), hits + misses equals
  accesses, and ``dropped_prefetches`` equals the sum of drop reasons.
* **Prefetched-bit census** — the number of resident prefetched bits per
  level equals fills minus (resident useful + useless) resolutions.
* **Dirty-line conservation** — a dirty line leaving a cache (capacity
  eviction or inclusive back-invalidation) must be absorbed by a level
  below or reach ``Dram.writeback``; this is the law the historical
  back-invalidation bug violated.
* **Shared-counter monotonicity** — shared LLC/DRAM hardware totals are
  never *below* any single core's attributed view (a mid-measurement
  reset of shared counters trips this immediately).
* **Flush timestamps** — end-of-run ``flushed`` events never claim a
  cycle earlier than the last demand access.

Auditing is opt-in (CLI ``--check-invariants``, the engine/``SimJob``
knob, or ``REPRO_CHECK_INVARIANTS=1`` for CI) and pure observation: an
audited run produces bit-identical results to an unaudited one.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import TYPE_CHECKING, Iterable

from ..prefetchers.base import FillLevel
from .cache import CacheStats
from .events import (
    BackInvalidation,
    CacheAccess,
    EventBus,
    Eviction,
    HitRunRetired,
    PrefetchDropped,
    PrefetchFill,
    PrefetchIssued,
    PrefetchUseful,
    PrefetchUseless,
    Writeback,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .hierarchy import Hierarchy

ENV_FLAG = "REPRO_CHECK_INVARIANTS"

_STAT_FIELDS = tuple(CacheStats.__dataclass_fields__)


def audit_requested(explicit: bool | None = None) -> bool:
    """Resolve the audit knob: an explicit True/False wins, ``None``
    defers to the ``REPRO_CHECK_INVARIANTS`` environment variable (how
    CI turns the auditor on for every simulation it runs)."""
    if explicit is not None:
        return explicit
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


class InvariantViolation(AssertionError):
    """A conservation law broke.

    Carries the law's name, the cycle/level/line it broke at, and the
    last events from the auditor's ring buffer so the failure is
    debuggable without rerunning the simulation.
    """

    def __init__(self, law: str, message: str, *, cycle: float = 0.0,
                 level: FillLevel | None = None, line: int | None = None,
                 recent_events: Iterable[tuple] = ()) -> None:
        self.law = law
        self.cycle = cycle
        self.level = level
        self.line = line
        self.recent_events = list(recent_events)
        where = f"cycle={cycle:.1f}"
        if level is not None:
            where += f", level={getattr(level, 'name', level)}"
        if line is not None:
            where += f", line={line:#x}"
        text = f"[{law}] {message} ({where})"
        if self.recent_events:
            rows = "\n".join(
                f"  {c:>12.1f}  {kind:<18} {self._component(comp):<6} "
                f"line={ln:#x} {extra}"
                for c, kind, comp, ln, extra in self.recent_events)
            text += f"\nlast {len(self.recent_events)} events:\n{rows}"
        super().__init__(text)

    @staticmethod
    def _component(component) -> str:
        return getattr(component, "name", None) or str(component)


class _BlockAudit:
    """One counter block under audit: the live block, its event-derived
    shadow, and the storage whose prefetched bits it accounts."""

    __slots__ = ("level", "actual", "shadow", "storage", "census",
                 "check_census")

    def __init__(self, level: FillLevel, actual: CacheStats, storage,
                 check_census: bool) -> None:
        self.level = level
        self.actual = actual
        self.shadow = CacheStats()
        self.storage = storage
        self.census = 0            # resident prefetched bits expected
        self.check_census = check_census


class InvariantAuditor:
    """Subscribes to one hierarchy's bus and audits the kernel's laws.

    ``checkpoint(cycle)`` is called once per demand access; cheap laws
    (dirty obligations) run every call, structural laws every
    ``checkpoint_every`` accesses, and cache-sized scans (inclusion,
    prefetched-bit census) every ``checkpoint_every * deep_every``
    accesses and at :meth:`finalize`.

    In shared-LLC multicore runs, create one auditor per hierarchy and
    cross-wire them with :meth:`watch_remote_bus` so back-invalidations
    published on *another* core's bus still update the owning core's
    shadows.  LLC census checks are skipped automatically when the LLC
    is shared (bits from other cores are indistinguishable).
    """

    def __init__(self, hierarchy: "Hierarchy", *, ring_size: int = 64,
                 checkpoint_every: int = 64, deep_every: int = 16,
                 exclusive_llc: bool | None = None) -> None:
        self.hierarchy = hierarchy
        self._ring: deque[tuple] = deque(maxlen=ring_size)
        # Bound append for the hot event handlers, which inline
        # :meth:`_record`'s body — the auditor fires on every kernel
        # event, so one saved method call per event is measurable.
        self._ring_append = self._ring.append
        self._every = max(1, checkpoint_every)
        self._deep_every = max(1, deep_every)
        if exclusive_llc is None:
            # Two registered private caches == this hierarchy's own pair.
            exclusive_llc = len(hierarchy.shared_llc._private) <= 2
        self._exclusive_llc = exclusive_llc

        self._blocks: dict[FillLevel, _BlockAudit] = {
            FillLevel.L1D: _BlockAudit(FillLevel.L1D, hierarchy.l1d.stats,
                                       hierarchy.l1d, True),
            FillLevel.L2C: _BlockAudit(FillLevel.L2C, hierarchy.l2c.stats,
                                       hierarchy.l2c, True),
            # The audited LLC block is this core's attributed mirror; the
            # shared storage block is covered by the monotonicity law.
            FillLevel.LLC: _BlockAudit(FillLevel.LLC, hierarchy.llc_stats,
                                       hierarchy.llc, exclusive_llc),
        }
        self._owned = {id(b.actual): b for b in self._blocks.values()}
        self._shadows = {level: b.shadow for level, b in self._blocks.items()}

        self._dirty_obligations: set[int] = set()
        self._issued = {level: 0 for level in FillLevel}
        self._dropped = 0
        self._drop_reasons: dict[str, int] = {}
        self._last_access_cycle = 0.0
        self._accesses = 0
        self.structural_audits = 0

        self._detach: list = []
        bus = hierarchy.bus
        for event_type, handler in (
                (CacheAccess, self._on_access),
                (HitRunRetired, self._on_hit_run),
                (PrefetchFill, self._on_fill),
                (PrefetchUseful, self._on_useful),
                (PrefetchUseless, self._on_useless),
                (Eviction, self._on_eviction),
                (BackInvalidation, self._on_back_invalidation),
                (Writeback, self._on_writeback),
                (PrefetchIssued, self._on_issued),
                (PrefetchDropped, self._on_dropped)):
            # Field handlers: the kernel calls them with the event's
            # fields directly, no event object built per delivery.
            self._detach.append(bus.subscribe_fields(event_type, handler))

    # ------------------------------------------------------------- plumbing

    def detach(self) -> None:
        """Unsubscribe from every bus this auditor attached to."""
        for unsubscribe in self._detach:
            unsubscribe()
        self._detach.clear()

    def watch_remote_bus(self, bus: EventBus) -> None:
        """Track back-invalidations another core's accesses inflict on
        this core's private caches (shared-LLC multicore runs)."""
        self._detach.append(
            bus.subscribe_fields(BackInvalidation,
                                 self._on_remote_back_invalidation))

    def _record(self, cycle: float, kind: str, component, line: int,
                extra: str = "") -> None:
        # Hot per-event handlers (_on_access, _on_fill, ...) inline this
        # body against the bound ``_ring_append`` — keep them in sync if
        # the record shape changes.
        self._ring.append((cycle, kind, component, line, extra))

    def _fail(self, law: str, message: str, *, cycle: float = 0.0,
              level: FillLevel | None = None,
              line: int | None = None) -> None:
        raise InvariantViolation(law, message, cycle=cycle, level=level,
                                 line=line, recent_events=tuple(self._ring))

    # ------------------------------------------------------ reset coupling

    def on_reset(self) -> None:
        """Mirror a full ``Hierarchy.reset_stats()`` (single-core warmup
        boundary).  Censuses survive: prefetched bits are physical state,
        not counters."""
        self.on_reset_private()
        self.on_reset_shared_attribution()

    def on_reset_private(self) -> None:
        """Mirror ``reset_private_stats()`` (a lane's own warmup boundary)."""
        self._blocks[FillLevel.L1D].shadow.reset()
        self._blocks[FillLevel.L2C].shadow.reset()
        self._issued = {level: 0 for level in FillLevel}
        self._dropped = 0
        self._drop_reasons = {}

    def on_reset_shared_attribution(self) -> None:
        """Mirror ``reset_shared_attribution()`` (the global boundary)."""
        self._blocks[FillLevel.LLC].shadow.reset()

    # ------------------------------------------------------- event shadows
    #
    # Each handler takes its event's fields positionally, in the event
    # dataclass's field order (see repro.sim.events).

    def _on_access(self, level, line, hit, is_write, cycle) -> None:
        shadow = self._shadows[level]
        shadow.demand_accesses += 1
        if hit:
            shadow.demand_hits += 1
            self._ring_append((cycle, "CacheAccess", level, line, "hit"))
        else:
            shadow.demand_misses += 1
            self._ring_append((cycle, "CacheAccess", level, line, "miss"))

    def _on_hit_run(self, level, count, cycles, lines, cycle) -> None:
        """Audit checkpoint at a fast-path block exit.

        A retired hit run is ``count`` demand hits the event kernel never
        saw individually: the shadow counters absorb the batch, the
        access clock advances by the whole block, and the structural laws
        run *now* — the block boundary is the fast path's checkpoint, so
        a broken block-exit reconciliation is caught before the next
        access executes.
        """
        shadow = self._shadows[level]
        shadow.demand_accesses += count
        shadow.demand_hits += count
        self._record(cycle, "HitRunRetired", level, int(lines[-1]),
                     f"count={count}")
        self._last_access_cycle = cycle
        before = self._accesses
        self._accesses = before + count
        if self._dirty_obligations:
            self._fail("dirty-conservation",
                       f"{len(self._dirty_obligations)} dirty victim(s) "
                       "outstanding at a fast-path block exit — a hit run "
                       "can never surrender a dirty line",
                       cycle=cycle,
                       line=next(iter(self._dirty_obligations)))
        # Deep (cache-sized) scans keep their access-count cadence; the
        # structural pass runs at every block exit regardless.
        deep = (self._accesses // self._every != before // self._every
                and (self._accesses // self._every) % self._deep_every == 0)
        self.audit_now(cycle, deep=deep)

    def _on_fill(self, level, line, cycle) -> None:
        block = self._blocks[level]
        block.shadow.prefetch_fills += 1
        block.census += 1
        self._ring_append((cycle, "PrefetchFill", level, line, ""))

    def _on_useful(self, level, line, address, late, cycle) -> None:
        block = self._blocks[level]
        block.shadow.useful_prefetches += 1
        if late:
            block.shadow.late_prefetch_hits += 1
        else:
            # A resident useful consumes one installed prefetched bit;
            # a late merge resolves a prefetch that never filled as one.
            block.census -= 1
        self._ring_append((cycle, "PrefetchUseful", level, line,
                           "late" if late else ""))

    def _on_useless(self, level, line, reason, cycle) -> None:
        if reason == "flushed" and cycle < self._last_access_cycle:
            self._fail(
                "flush-cycle",
                f"end-of-run flush stamped cycle {cycle:.1f}, before the "
                f"last demand access at {self._last_access_cycle:.1f}",
                cycle=cycle, level=level, line=line)
        block = self._blocks[level]
        block.shadow.useless_prefetches += 1
        block.census -= 1
        self._ring_append((cycle, "PrefetchUseless", level, line, reason))

    def _on_eviction(self, level, line, prefetched, dirty, cycle) -> None:
        self._shadows[level].evictions += 1
        if dirty:
            self._dirty_obligations.add(line)
            self._ring_append((cycle, "Eviction", level, line, "dirty"))
        else:
            self._ring_append((cycle, "Eviction", level, line, ""))

    def _apply_back_invalidation(self, prefetched: bool, stats) -> None:
        block = self._owned.get(id(stats))
        if block is not None and prefetched:
            block.shadow.useless_prefetches += 1
            block.census -= 1

    def _on_back_invalidation(self, cache_name, line, prefetched, dirty,
                              cycle, stats) -> None:
        self._apply_back_invalidation(prefetched, stats)
        if dirty:
            # The dirty private data must reach DRAM (or a level that
            # still holds the line) before control returns to the core.
            self._dirty_obligations.add(line)
        self._record(cycle, "BackInvalidation", cache_name, line,
                     "dirty" if dirty else "")

    def _on_remote_back_invalidation(self, cache_name, line, prefetched,
                                     dirty, cycle, stats) -> None:
        # Shadow/census only: the publishing core's auditor owns the
        # ring-buffer record and the dirty obligation (it sees the
        # writeback that discharges it on its own bus).
        self._apply_back_invalidation(prefetched, stats)

    def _on_writeback(self, level, line, absorbed, cycle) -> None:
        if line in self._dirty_obligations:
            self._dirty_obligations.discard(line)
        else:
            self._fail("dirty-conservation",
                       "writeback published for a line no dirty eviction "
                       "or back-invalidation surrendered",
                       cycle=cycle, level=level, line=line)
        depth = level - FillLevel.L1D
        lower = self.hierarchy.levels[depth + 1:]
        if absorbed:
            holder = next((lvl.storage.probe(line) for lvl in lower
                           if lvl.storage.contains(line)), None)
            if holder is None or not holder.dirty:
                self._fail("dirty-conservation",
                           "writeback claims absorption but no lower level "
                           "holds the line dirty",
                           cycle=cycle, level=level, line=line)
        else:
            for lvl in lower:
                if lvl.storage.contains(line):
                    self._fail(
                        "inclusion",
                        f"writeback to DRAM bypassed the copy still "
                        f"resident in {lvl.name} (now clean and stale)",
                        cycle=cycle, level=level, line=line)
        self._record(cycle, "Writeback", level, line,
                     "absorbed" if absorbed else "to-dram")

    def _on_issued(self, level, line, address, cycle) -> None:
        self._issued[level] += 1
        self._ring_append((cycle, "PrefetchIssued", level, line, ""))

    def _on_dropped(self, level, line, reason, cycle) -> None:
        self._dropped += 1
        self._drop_reasons[reason] = self._drop_reasons.get(reason, 0) + 1
        self._record(cycle, "PrefetchDropped", level, line, reason)

    # --------------------------------------------------------- checkpoints

    def checkpoint(self, cycle: float) -> None:
        """Per-access audit hook.

        Dirty obligations must already be discharged (their writebacks
        publish synchronously inside the eviction that created them);
        structural and deep laws run on their configured cadences.
        """
        self._last_access_cycle = cycle
        self._accesses += 1
        if self._dirty_obligations:
            line = next(iter(self._dirty_obligations))
            self._fail("dirty-conservation",
                       f"{len(self._dirty_obligations)} dirty victim(s) "
                       "left a cache without being absorbed below or "
                       "written back to DRAM",
                       cycle=cycle, line=line)
        if self._accesses % self._every == 0:
            deep = (self._accesses // self._every) % self._deep_every == 0
            self.audit_now(cycle, deep=deep)

    def finalize(self, cycle: float) -> None:
        """End-of-run audit: every law, plus end-state checks (fill
        queues drained, no unpruneable MSHR entries)."""
        self.audit_now(cycle, deep=True)
        for level in self.hierarchy.levels:
            storage = level.storage
            pending = storage.fills.live_count()
            if pending != 0:
                self._fail("fill-queue",
                           f"{storage.name} still holds {pending} pending "
                           "fills after the end-of-run sync",
                           cycle=cycle, level=level.level)
        if self._dirty_obligations:
            self._fail("dirty-conservation",
                       "dirty victims still undischarged at end of run",
                       cycle=cycle,
                       line=next(iter(self._dirty_obligations)))

    # ----------------------------------------------------- structural laws

    def audit_now(self, cycle: float, *, deep: bool = True) -> None:
        """Run the structural laws immediately (tests call this too)."""
        self.structural_audits += 1
        for level in self.hierarchy.levels:
            self._audit_storage(level, cycle)
        self._audit_stats(cycle)
        self._audit_prefetch_accounting(cycle)
        self._audit_shared_monotonicity(cycle)
        if deep:
            self._audit_census_and_capacity(cycle)
            self._audit_inclusion(cycle)

    def _audit_storage(self, level, cycle: float) -> None:
        storage = level.storage
        mshr = storage._mshr
        # The occupancy bound is strict only where admission is enforced:
        # demands stall the core on L1D MSHR availability and prefetches
        # check their target level.  Lower levels deliberately admit
        # descending demands with the L1 slot held, so their leak law is
        # *pairing* instead (below): an entry that has not completed must
        # have a fill in flight to release it.
        if (level.level is FillLevel.L1D
                and len(mshr) > storage._mshr_capacity):
            self._fail("mshr-occupancy",
                       f"{storage.name} holds {len(mshr)} MSHR entries, "
                       f"capacity {storage._mshr_capacity}",
                       cycle=cycle, level=level.level)
        if mshr:
            in_flight = storage.fills._by_line
            completions = [when for when, _ in mshr.values()]
            for line, (when, _) in mshr.items():
                if not math.isfinite(when):
                    self._fail("mshr-leak",
                               f"{storage.name} MSHR entry can never "
                               f"complete (completion={when})",
                               cycle=cycle, level=level.level, line=line)
                if when > cycle and line not in in_flight:
                    self._fail("mshr-leak",
                               f"{storage.name} MSHR entry has not "
                               f"completed (ready {when}) but no fill is "
                               "in flight to release it",
                               cycle=cycle, level=level.level, line=line)
            if storage._mshr_min > min(completions):
                self._fail("mshr-bound",
                           f"{storage.name} prune lower bound "
                           f"{storage._mshr_min} exceeds the true minimum "
                           f"{min(completions)} — completed entries would "
                           "never be pruned",
                           cycle=cycle, level=level.level)
        fills = storage.fills
        heap_ids = {id(entry[2]) for entry in fills._heap
                    if not entry[2].canceled}
        indexed = sum(map(len, fills._by_line.values()))
        if indexed != len(heap_ids):
            self._fail("fill-queue",
                       f"{storage.name} fill heap holds {len(heap_ids)} live "
                       f"entries but the per-line index holds {indexed}",
                       cycle=cycle, level=level.level)
        for line, bucket in fills._by_line.items():
            for fill in bucket:
                if fill.line != line:
                    self._fail("fill-queue",
                               f"{storage.name} fill for line "
                               f"{fill.line:#x} indexed under {line:#x}",
                               cycle=cycle, level=level.level, line=line)
                if id(fill) not in heap_ids:
                    self._fail("fill-queue",
                               f"{storage.name} indexed fill for line "
                               f"{line:#x} is missing from the heap",
                               cycle=cycle, level=level.level, line=line)

    def _audit_stats(self, cycle: float) -> None:
        for block in self._blocks.values():
            actual, shadow = block.actual, block.shadow
            for field in _STAT_FIELDS:
                have, want = getattr(actual, field), getattr(shadow, field)
                if have != want:
                    self._fail(
                        "stats-conservation",
                        f"{block.level.name} {field} is {have} but the "
                        f"event stream accounts for {want} — a counter "
                        "was reset, double-counted or missed",
                        cycle=cycle, level=block.level)
            if (actual.demand_hits + actual.demand_misses
                    != actual.demand_accesses):
                self._fail("stats-conservation",
                           f"{block.level.name} hits+misses != accesses",
                           cycle=cycle, level=block.level)

    def _audit_prefetch_accounting(self, cycle: float) -> None:
        accounting = self.hierarchy
        if accounting.dropped_prefetches != sum(
                accounting.drop_reasons.values()):
            self._fail("drop-accounting",
                       "dropped_prefetches disagrees with the sum of "
                       "per-reason drop counters", cycle=cycle)
        if accounting.dropped_prefetches != self._dropped:
            self._fail("drop-accounting",
                       f"accounting reports {accounting.dropped_prefetches} "
                       f"drops, the event stream carried {self._dropped}",
                       cycle=cycle)
        for reason, count in self._drop_reasons.items():
            if accounting.drop_reasons.get(reason, 0) != count:
                self._fail("drop-accounting",
                           f"drop reason {reason!r} diverged from the "
                           "event stream", cycle=cycle)
        for level, count in self._issued.items():
            if accounting.issued_prefetches.get(level, 0) != count:
                self._fail("drop-accounting",
                           f"issued_prefetches[{level.name}] diverged from "
                           "the event stream", cycle=cycle, level=level)

    def _audit_shared_monotonicity(self, cycle: float) -> None:
        hierarchy = self.hierarchy
        shared, mine = hierarchy.llc.stats, hierarchy.llc_stats
        for field in _STAT_FIELDS:
            if getattr(shared, field) < getattr(mine, field):
                self._fail(
                    "shared-monotonicity",
                    f"shared LLC {field} ({getattr(shared, field)}) fell "
                    f"below core {hierarchy.core_id}'s attributed count "
                    f"({getattr(mine, field)}) — a shared counter was "
                    "reset mid-measurement",
                    cycle=cycle, level=FillLevel.LLC)
        totals, port = hierarchy.dram.stats, hierarchy.dram_port.stats
        for field in ("demand_requests", "prefetch_requests",
                      "writeback_requests"):
            if getattr(totals, field) < getattr(port, field):
                self._fail(
                    "shared-monotonicity",
                    f"shared DRAM {field} ({getattr(totals, field)}) fell "
                    f"below core {hierarchy.core_id}'s attributed count "
                    f"({getattr(port, field)}) — a shared counter was "
                    "reset mid-measurement",
                    cycle=cycle)
        if self._exclusive_llc:
            for field in _STAT_FIELDS:
                if getattr(shared, field) != getattr(mine, field):
                    self._fail(
                        "shared-monotonicity",
                        f"single-core LLC {field} mirror diverged from the "
                        "storage block", cycle=cycle, level=FillLevel.LLC)

    def _audit_census_and_capacity(self, cycle: float) -> None:
        for block in self._blocks.values():
            storage = block.storage
            sets = storage._sets
            if max(map(len, sets)) > storage.ways:
                worst = max(sets, key=len)
                self._fail("set-capacity",
                           f"{storage.name} set holds {len(worst)} "
                           f"lines, associativity {storage.ways}",
                           cycle=cycle, level=block.level)
            if not block.check_census:
                continue
            resident_prefetched = len([1 for cache_set in sets
                                       for entry in cache_set.values()
                                       if entry.prefetched])
            if resident_prefetched != block.census:
                self._fail(
                    "prefetch-census",
                    f"{storage.name} holds {resident_prefetched} prefetched "
                    f"bits but fills minus resolutions account for "
                    f"{block.census}",
                    cycle=cycle, level=block.level)

    def _audit_inclusion(self, cycle: float) -> None:
        hierarchy = self.hierarchy
        llc = hierarchy.llc
        llc_sets, num_sets = llc._sets, llc.num_sets
        in_flight, mshr = llc.fills._by_line, llc._mshr
        for storage, level in ((hierarchy.l1d, FillLevel.L1D),
                               (hierarchy.l2c, FillLevel.L2C)):
            uncovered = [line for cache_set in storage._sets
                         for line in cache_set
                         if line not in llc_sets[line % num_sets]
                         and line not in in_flight and line not in mshr]
            if uncovered:
                self._fail(
                    "inclusion",
                    f"{storage.name} holds line {uncovered[0]:#x} that is "
                    "neither resident in nor in flight to the "
                    "inclusive LLC",
                    cycle=cycle, level=level, line=uncovered[0])
