"""Per-level cache components: the fill side of the memory kernel.

A :class:`CacheLevel` bundles one level's storage (:class:`~repro.sim.cache.Cache`
— set arrays, MSHRs, PQ, fill queue) with the behaviour that runs when
data arrives: applying fills, handling the victim (inclusive
back-invalidation, prefetcher feedback, dirty-victim drain) and the
end-of-run flush.  Levels are connected by explicit ports: ``below``
points one level further from the core (L1D → L2C → LLC → ``None``),
``dram`` is every level's memory port for writebacks, and the LLC level
additionally carries the :class:`~repro.sim.hierarchy.SharedLLC`
registry that enforces inclusion.  The demand and prefetch descents live
in :class:`~repro.sim.hierarchy.Hierarchy`, which reads the same
per-level fields directly.

Every event is counted where it happens.  A level writes its own
:class:`~repro.sim.cache.CacheStats` block (and, at the LLC, the owning
core's ``mirror`` block) and calls the prefetcher's feedback hooks
itself.  Typed events (:mod:`repro.sim.events`) are dispatched, as
their fields, only when the bus has a subscriber for the type — the
opt-in :class:`~repro.sim.observers.EventTrace` or the invariant
auditor — so an unobserved run pays one truth test per event site.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING

from ..memtrace.access import CACHELINE_BITS
from ..prefetchers.base import FillLevel, Prefetcher
from .cache import Cache, CacheLine, CacheStats, PendingFill
from .events import (
    BackInvalidation,
    CacheAccess,
    EventBus,
    Eviction,
    PrefetchFill,
    PrefetchUseful,
    PrefetchUseless,
    Writeback,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dram import Dram, DramPort
    from .hierarchy import SharedLLC

INF = float("inf")


class CacheLevel:
    """One cache level: storage, counters and feedback hooks.

    The storage's hot structures (``sets``, ``mshr``, ``fills``) are
    exposed on the component itself — the storage never reassigns them —
    so the descent reads them without a second attribute hop.  The
    ``*_subs`` attributes are the bus's live handler lists, one per
    event type, called with the event's fields when non-empty.
    """

    __slots__ = ("level", "storage", "dram", "below", "shared",
                 "stats", "mirror", "sets", "num_sets", "ways", "mshr",
                 "fills", "hit_latency", "on_evict", "on_useful",
                 "on_useless", "access_subs", "useful_subs", "fill_subs", "evict_subs",
                 "useless_subs", "wb_subs", "binv_subs")

    def __init__(self, level: FillLevel, storage: Cache, bus: EventBus,
                 dram: "Dram | DramPort", below: "CacheLevel | None" = None,
                 shared: "SharedLLC | None" = None, *,
                 mirror: CacheStats | None = None,
                 prefetcher: Prefetcher | None = None) -> None:
        self.level = level
        self.storage = storage
        self.dram = dram
        self.below = below
        self.shared = shared
        self.stats = storage.stats
        # A second counter block every event here also increments: at a
        # shared LLC the storage block holds the hardware totals and the
        # mirror the owning core's attributed view.
        self.mirror = mirror
        self.sets = storage._sets
        self.num_sets = storage.num_sets
        self.ways = storage.ways
        self.mshr = storage._mshr
        self.fills = storage.fills
        self.hit_latency: int = storage.params.hit_latency
        if prefetcher is None:
            prefetcher = Prefetcher()
        # Feedback goes straight to the prefetcher: L1D victims reach
        # ``on_evict``; back-invalidations and end-of-run flushes reach
        # no hook at all.
        self.on_evict = prefetcher.on_evict if level == FillLevel.L1D else None
        self.on_useful = prefetcher.on_prefetch_useful
        self.on_useless = prefetcher.on_prefetch_useless
        self.access_subs = bus.handlers(CacheAccess)
        self.useful_subs = bus.handlers(PrefetchUseful)
        self.fill_subs = bus.handlers(PrefetchFill)
        self.evict_subs = bus.handlers(Eviction)
        self.useless_subs = bus.handlers(PrefetchUseless)
        self.wb_subs = bus.handlers(Writeback)
        self.binv_subs = bus.handlers(BackInvalidation)

    @property
    def name(self) -> str:
        """The storage's display name (e.g. ``L1D0``)."""
        return self.storage.name

    # ----------------------------------------------------------- demand side

    def prefetch_useful(self, line: int, address: int, late: bool,
                        cycle: float) -> None:
        """A demand consumed a prefetch: resident (its bit already
        cleared by the caller) or ``late``, merged while in flight."""
        stats = self.stats
        stats.useful_prefetches += 1
        if late:
            stats.late_prefetch_hits += 1
        mirror = self.mirror
        if mirror is not None:
            mirror.useful_prefetches += 1
            if late:
                mirror.late_prefetch_hits += 1
        self.on_useful(address, self.level)
        if self.useful_subs:
            for handler in self.useful_subs:
                handler(self.level, line, address, late, cycle)

    # ------------------------------------------------------------- fill side

    def sync(self, cycle: float) -> None:
        """Apply every pending fill whose data has arrived by ``cycle``,
        releasing each line's MSHR entry as its fill lands."""
        fills = self.fills
        heap = fills._heap
        by_line = fills._by_line
        mshr = self.mshr
        apply_fill = self.apply_fill
        while heap and heap[0][0] <= cycle:
            fill = heappop(heap)[2]
            if fill.canceled:
                continue
            line = fill.line
            bucket = by_line[line]
            if len(bucket) == 1:
                del by_line[line]
            else:
                bucket.remove(fill)
            mshr.pop(line, None)
            if not mshr:
                # As Cache.mshr_release: re-tighten the prune bound.
                storage = self.storage
                storage._mshr_heap.clear()
                storage._mshr_min = INF
            apply_fill(line, fill.ready, fill.prefetched, fill.is_write)

    def fill(self, line: int, ready: float, cycle: float,
             prefetched: bool = False, is_write: bool = False) -> None:
        """Apply now if the data is already here, otherwise queue the
        fill for ``ready`` (the same heap + per-line index as
        :meth:`FillQueue.push`)."""
        if ready <= cycle:
            self.apply_fill(line, cycle, prefetched, is_write)
            return
        fills = self.fills
        seq = fills._seq
        fills._seq = seq + 1
        pending = PendingFill(ready, line, prefetched, is_write)
        heappush(fills._heap, (ready, seq, pending))
        bucket = fills._by_line.get(line)
        if bucket is None:
            fills._by_line[line] = [pending]
        else:
            bucket.append(pending)

    def apply_fill(self, line: int, cycle: float, prefetched: bool = False,
                   is_write: bool = False) -> None:
        """Install a line whose data is here, resolving its victim.

        A refill of a resident line only refreshes recency (and never
        re-marks a demand-fetched line as a prefetch).  A level with a
        ``shared`` registry (the inclusive LLC) back-invalidates every
        registered private copy of its victim; dirty victims drain
        through ``below`` — absorbed when a lower level holds the line,
        written back to DRAM otherwise.
        """
        cache_set = self.sets[line % self.num_sets]
        existing = cache_set.pop(line, None)
        if existing is not None:
            cache_set[line] = existing
            return
        self.storage.version += 1
        if len(cache_set) >= self.ways:
            victim = next(iter(cache_set))
            victim_entry = cache_set.pop(victim)
        else:
            victim = None
        cache_set[line] = CacheLine(prefetched, is_write)
        stats = self.stats
        mirror = self.mirror
        if prefetched:
            stats.prefetch_fills += 1
            if mirror is not None:
                mirror.prefetch_fills += 1
            if self.fill_subs:
                for handler in self.fill_subs:
                    handler(self.level, line, cycle)
        if victim is None:
            return

        stats.evictions += 1
        if mirror is not None:
            mirror.evictions += 1
        if self.on_evict is not None:
            self.on_evict(victim << CACHELINE_BITS)
        if self.evict_subs:
            for handler in self.evict_subs:
                handler(self.level, victim, victim_entry.prefetched,
                        victim_entry.dirty, cycle)
        dirty_private = False
        if self.shared is not None:
            for cache, entry in self.shared.back_invalidate(victim):
                if entry.dirty:
                    dirty_private = True
                if entry.prefetched:
                    # The invalidated cache may be another core's.
                    cache.stats.useless_prefetches += 1
                if self.binv_subs:
                    for handler in self.binv_subs:
                        handler(cache.name, victim, entry.prefetched,
                                entry.dirty, cycle, cache.stats)
        if victim_entry.prefetched:
            self.prefetch_useless(victim, "evicted", cycle)
        # A dirty back-invalidated private copy holds data newer than the
        # LLC line it shadowed; with that line gone, the only place left
        # for it is memory — one writeback covers the freshest copy even
        # when the LLC victim itself was also dirty.
        if victim_entry.dirty or dirty_private:
            self._drain_dirty(victim, cycle)

    def prefetch_useless(self, line: int, reason: str, cycle: float) -> None:
        """A prefetched line left unused: ``evicted`` reaches the
        prefetcher, ``flushed`` (end of run) does not."""
        self.stats.useless_prefetches += 1
        if self.mirror is not None:
            self.mirror.useless_prefetches += 1
        if reason != "flushed":
            self.on_useless(line << CACHELINE_BITS, self.level)
        if self.useless_subs:
            for handler in self.useless_subs:
                handler(self.level, line, reason, cycle)

    def _drain_dirty(self, victim: int, cycle: float) -> None:
        """Dirty victims drain towards memory through the ``below`` chain.

        The first level that still holds the line absorbs the data
        (its copy turns dirty); only when no level between here and
        memory has it does the victim go to DRAM.  Probing just the
        immediate level would let an L1 victim absent from L2 but
        resident in the inclusive LLC bypass the LLC straight to DRAM,
        leaving the LLC copy clean and stale.
        """
        below = self.below
        absorbed = False
        while below is not None:
            entry = below.storage.probe(victim)
            if entry is not None:
                entry.dirty = True
                absorbed = True
                break
            below = below.below
        if not absorbed:
            self.dram.writeback(victim, cycle)
        if self.wb_subs:
            for handler in self.wb_subs:
                handler(self.level, victim, absorbed, cycle)

    def flush_prefetch_accounting(self, cycle: float = 0.0) -> None:
        """End-of-run: resident never-used prefetched lines are useless.

        ``cycle`` is the final simulated cycle so the flush events land
        at the end of ``--trace-events`` timelines, not at time zero.
        """
        for line in self.storage.strip_prefetched():
            self.prefetch_useless(line, "flushed", cycle)
