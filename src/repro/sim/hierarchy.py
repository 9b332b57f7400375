"""The memory kernel: ported cache levels and one flat descent.

The hierarchy is a chain of :class:`~repro.sim.level.CacheLevel`
components (L1D → L2C → LLC, each owning its storage, MSHRs, PQ and fill
queue) ending at the DRAM port.  :meth:`Hierarchy.demand_access` and
:meth:`Hierarchy.issue_prefetch` walk that chain in straight-line code,
reading each level's sets, MSHRs and counters directly; the fill side
(applying arrived fills, victims, back-invalidation, dirty drains) is
the levels' own.

Misses and prefetches schedule their fills for the cycle the data
arrives; the kernel *syncs* each level (applies arrived fills, evicting
victims at the honest time) before serving an access.  Demands that touch
a line whose fill is still in flight merge with it through the MSHR —
with their wait capped at a demand-priority refetch, because real memory
controllers promote a demand that matches an in-flight prefetch.

The LLC is inclusive (Table IV): evicting an LLC line back-invalidates it
from every registered private L1D/L2C, which is also how useless shared
prefetches propagate in the 4-core runs.

Counters, issued/dropped accounting and prefetcher feedback are written
where each event happens.  The typed events of the kernel's
:class:`~repro.sim.events.EventBus` are published only to subscribers
(the opt-in :class:`~repro.sim.observers.EventTrace` and the invariant
auditor), in the same order the counters are written.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ..memtrace.access import CACHELINE_BITS
from ..prefetchers.base import FillLevel, PrefetchRequest, Prefetcher
from .cache import Cache, CacheLine, CacheStats
from .dram import Dram, DramPort
from .events import EventBus, PrefetchDropped, PrefetchIssued
from .level import CacheLevel
from .params import SystemConfig

DROP_REASONS = ("resident", "pq_full", "mshr_full")


class SharedLLC:
    """An LLC plus the registry of private caches it must keep inclusive."""

    def __init__(self, cache: Cache) -> None:
        self.cache = cache
        self._private: list[Cache] = []

    def register(self, *caches: Cache) -> None:
        """Track private caches for inclusive back-invalidation."""
        self._private.extend(caches)

    def back_invalidate(self, line: int) -> list[tuple[Cache, CacheLine]]:
        """Remove an evicted LLC line from every private cache.

        Fills of the line still in flight to a private cache are
        canceled too: one sync pass can apply an LLC fill whose victim
        is a line a private level is *about* to install (the LLC drains
        first, precisely so back-invalidations precede private fills),
        and letting that fill land would break inclusion.

        Returns the ``(cache, evicted_entry)`` pairs that actually held
        the line, so the evicting level can publish one
        :class:`~repro.sim.events.BackInvalidation` per copy removed.
        """
        removed: list[tuple[Cache, CacheLine]] = []
        for cache in self._private:
            entry = cache.invalidate(line)
            if entry is not None:
                removed.append((cache, entry))
            cache.cancel_fills(line)
        return removed


class Hierarchy:
    """One core's view of the memory system (L1D/L2C private, LLC/DRAM shared).

    For single-core runs construct with :meth:`build`; multi-core runs
    share one :class:`SharedLLC` and one :class:`Dram` across hierarchies
    (each core keeps its own bus, prefetcher and private levels — LLC
    events are counted into the shared block *and* the accessing core's
    ``llc_stats`` mirror, published on that core's bus, and fed back to
    that core's prefetcher).
    """

    def __init__(self, config: SystemConfig, prefetcher: Prefetcher,
                 shared_llc: SharedLLC, dram: Dram, core_id: int = 0) -> None:
        self.config = config
        self.prefetcher = prefetcher
        self.core_id = core_id
        self.shared_llc = shared_llc
        self.dram = dram
        # All of this hierarchy's memory traffic goes through its own
        # port, so a shared Dram can attribute requests per core.
        self.dram_port = DramPort(dram)
        self.bus = EventBus()
        self._view_cycle = 0.0
        # This core's view of the shared LLC counters: LLC events from
        # *this* hierarchy's accesses increment both the shared storage
        # block (hardware totals) and this per-core mirror.
        self.llc_stats = CacheStats()

        llc_level = CacheLevel(FillLevel.LLC, shared_llc.cache, self.bus,
                               self.dram_port, shared=shared_llc,
                               mirror=self.llc_stats, prefetcher=prefetcher)
        l2c_level = CacheLevel(FillLevel.L2C,
                               Cache(config.l2c, name=f"L2C{core_id}"),
                               self.bus, self.dram_port, below=llc_level,
                               prefetcher=prefetcher)
        l1d_level = CacheLevel(FillLevel.L1D,
                               Cache(config.l1d, name=f"L1D{core_id}"),
                               self.bus, self.dram_port, below=l2c_level,
                               prefetcher=prefetcher)
        # Descent order: closest to the core first.
        self.levels: tuple[CacheLevel, ...] = (l1d_level, l2c_level, llc_level)
        # (level, fill-heap) pairs in sync order — LLC first, so inclusive
        # back-invalidations precede private-level fills.  The FillQueue
        # never reassigns its heap, so the pairs stay valid.
        self._sync_pairs: tuple[tuple[CacheLevel, list], ...] = tuple(
            (level, level.fills._heap)
            for level in (llc_level, l2c_level, l1d_level))
        self.l1d = l1d_level.storage
        self.l2c = l2c_level.storage
        self.llc = llc_level.storage
        shared_llc.register(self.l1d, self.l2c)
        # A demand merging with an in-flight fill never waits longer than
        # its own demand-priority refetch would take.
        self._merge_cap = dram.latency + 2 * dram.service_cycles

        self.issued_prefetches: dict[FillLevel, int] = {}
        self.dropped_prefetches = 0
        self.drop_reasons: dict[str, int] = {}
        self._reset_prefetch_accounting()
        self._on_prefetch_fill = prefetcher.on_prefetch_fill
        self._issued_subs = self.bus.handlers(PrefetchIssued)
        self._dropped_subs = self.bus.handlers(PrefetchDropped)

    @classmethod
    def build(cls, config: SystemConfig, prefetcher: Prefetcher) -> "Hierarchy":
        """Construct a single-core hierarchy with its own LLC and DRAM."""
        shared = SharedLLC(Cache(config.llc, name="LLC"))
        return cls(config, prefetcher, shared, Dram(config.dram))

    def level_for(self, level: FillLevel) -> CacheLevel:
        """The component serving one :class:`FillLevel`."""
        return self.levels[level - 1]

    def _reset_prefetch_accounting(self) -> None:
        # Every rejection counts as dropped, whatever the reason, so
        # ``dropped_prefetches == sum(drop_reasons.values())`` always.
        self.issued_prefetches = {level: 0 for level in FillLevel}
        self.dropped_prefetches = 0
        self.drop_reasons = {reason: 0 for reason in DROP_REASONS}

    def _sync(self, cycle: float) -> None:
        """Apply every fill whose data has arrived by `cycle` (LLC first)."""
        for level, heap in self._sync_pairs:
            if heap and heap[0][0] <= cycle:
                level.sync(cycle)

    # ----------------------------------------------------------- demand path

    def demand_access(self, address: int, cycle: float,
                      is_write: bool = False) -> tuple[float, bool]:
        """Serve one demand access. Returns (total latency, L1D hit)."""
        for level, heap in self._sync_pairs:  # inline _sync (hot path)
            if heap and heap[0][0] <= cycle:
                level.sync(cycle)
        line = address >> CACHELINE_BITS
        levels = self.levels
        latency = 0.0
        depth = 0
        for level in levels:
            cache_set = level.sets[line % level.num_sets]
            entry = cache_set.pop(line, None)
            stats = level.stats
            mirror = level.mirror
            stats.demand_accesses += 1
            if mirror is not None:
                mirror.demand_accesses += 1
            if entry is not None:
                cache_set[line] = entry  # re-insert at the MRU end
                if is_write:
                    entry.dirty = True
                stats.demand_hits += 1
                if mirror is not None:
                    mirror.demand_hits += 1
                if level.access_subs:
                    for handler in level.access_subs:
                        handler(level.level, line, True, is_write,
                                cycle + latency)
                if entry.prefetched:
                    entry.prefetched = False
                    level.storage.version += 1
                    level.prefetch_useful(line, address, False,
                                          cycle + latency)
                latency += level.hit_latency
                # Backfill the levels above, bottom-up; only the L1D
                # copy carries the demand's write intent.
                if depth == 2:
                    levels[1].fill(line, cycle + latency, cycle)
                if depth:
                    levels[0].fill(line, cycle + latency, cycle, False,
                                   is_write)
                return latency, depth == 0
            stats.demand_misses += 1
            if mirror is not None:
                mirror.demand_misses += 1
            if level.access_subs:
                for handler in level.access_subs:
                    handler(level.level, line, False, is_write,
                            cycle + latency)
            latency += level.hit_latency
            pending = level.mshr.get(line)
            if pending is not None:
                completion, is_prefetch = pending
                if is_prefetch:
                    # The demand caught its own prefetch in flight: useful
                    # but late, and the fill is demoted to a demand's so
                    # its arrival is not counted again.
                    level.prefetch_useful(line, address, True, cycle)
                    level.storage.mshr_allocate(line, completion)
                    level.fills.strip_prefetch_flag(line)
                merge = min(max(0.0, completion - cycle), self._merge_cap)
                if depth == 2:
                    levels[1].fill(line, cycle + latency + merge, cycle)
                if depth:
                    levels[0].fill(line, cycle + latency + merge, cycle,
                                   False, is_write)
                return latency + merge, False
            if depth == 0:
                # The core blocks only on L1 MSHR availability; the lower
                # levels admit the descending miss with the L1 slot held.
                storage = level.storage
                if cycle >= storage._mshr_min:
                    storage.mshr_prune(cycle)
                if len(level.mshr) >= storage._mshr_capacity:
                    latency += self._mshr_stall(storage, cycle)
            depth += 1

        completion = self.dram_port.request(line, cycle + latency)
        for level in levels:
            storage = level.storage
            if cycle >= storage._mshr_min:
                storage.mshr_prune(cycle)
            level.mshr[line] = (completion, False)
            heappush(storage._mshr_heap, (completion, line))
            if completion < storage._mshr_min:
                storage._mshr_min = completion
            level.fill(line, completion, cycle, False,
                       is_write and level is levels[0])
        return completion - cycle, False

    def _mshr_stall(self, cache: Cache, cycle: float) -> float:
        """Cycles a demand waits until a level's MSHRs admit a new miss."""
        waited = 0.0
        while cache.mshr_free(cycle + waited) <= 0:
            earliest = cache.mshr_earliest()
            if earliest <= cycle + waited:
                cache.mshr_prune(earliest)
                continue
            waited = earliest - cycle
        return waited

    # --------------------------------------------------------- prefetch path

    def issue_prefetch(self, request: PrefetchRequest, cycle: float) -> bool:
        """Try to issue one prefetch; returns True if it was accepted.

        Rejections mirror the hardware conditions the paper describes:
        the line is already resident or in flight at or above the target
        (``resident``), the target's prefetch queue is full
        (``pq_full``), or taking an MSHR would leave none for demands
        (``mshr_full``).
        """
        for level, heap in self._sync_pairs:  # inline _sync (hot path)
            if heap and heap[0][0] <= cycle:
                level.sync(cycle)
        address = request.address
        line = address >> CACHELINE_BITS
        level_id = request.level
        levels = self.levels
        depth = level_id - 1
        target = levels[depth]
        storage = target.storage

        reason = None
        for i in range(depth + 1):
            level = levels[i]
            if line in level.sets[line % level.num_sets] or line in level.mshr:
                reason = "resident"
                break
        else:
            pq = storage._pq
            while pq and pq[0] <= cycle:
                heappop(pq)
            if len(pq) >= storage.params.pq_entries:
                reason = "pq_full"
            else:
                if cycle >= storage._mshr_min:
                    storage.mshr_prune(cycle)
                # Prefetches may not take the last MSHR (Section IV-B).
                if storage._mshr_capacity - len(target.mshr) <= 1:
                    reason = "mshr_full"
        if reason is not None:
            self.dropped_prefetches += 1
            self.drop_reasons[reason] += 1
            if self._dropped_subs:
                for handler in self._dropped_subs:
                    handler(level_id, line, reason, cycle)
            return False

        llc = levels[2]
        # Fills below never change LLC residency, so one probe serves
        # both the latency decision and the fills.
        llc_resident = line in llc.sets[line % llc.num_sets]
        if llc_resident and depth != 2:
            # On-chip move: promote from the LLC without DRAM traffic.
            ready = cycle + llc.hit_latency
        else:
            llc_pending = llc.mshr.get(line)
            if llc_pending is not None:
                ready = llc_pending[0]  # piggy-back on the fetch in flight
            else:
                ready = self.dram_port.request(line, cycle + llc.hit_latency,
                                               is_prefetch=True)
            # The admission check above already pruned this MSHR at
            # `cycle`, so the allocation needs no second prune.
            target.mshr[line] = (ready, True)
            heappush(storage._mshr_heap, (ready, line))
            if ready < storage._mshr_min:
                storage._mshr_min = ready

        # The target gets the prefetched bit; every level below it is
        # filled too (inclusive path), the LLC only when absent.
        target.fill(line, ready, cycle, True)
        if depth == 0:
            levels[1].fill(line, ready, cycle)
        if depth != 2 and not llc_resident:
            llc.fill(line, ready, cycle)

        # A PQ entry holds the request only until it is handed to the
        # memory system (ChampSim semantics), not until the fill lands.
        heappush(storage._pq, cycle + target.hit_latency)
        self.issued_prefetches[level_id] += 1
        self._on_prefetch_fill(address, level_id)
        if self._issued_subs:
            for handler in self._issued_subs:
                handler(level_id, line, address, cycle)
        return True

    # ----------------------------------------------------------- SystemView

    def free_pq_entries(self, level: FillLevel) -> int:
        """Free prefetch-queue slots at a level (SystemView)."""
        return self.level_for(level).storage.pq_free(self._view_cycle)

    def prefetch_headroom(self, level: FillLevel) -> int:
        """What a level can actually take now: min of PQ room and MSHR room
        (one MSHR is always reserved for demands)."""
        storage = self.level_for(level).storage
        mshr_room = max(0, storage.mshr_free(self._view_cycle) - 1)
        return min(storage.pq_free(self._view_cycle), mshr_room)

    def dram_utilization(self) -> float:
        """Coarse DRAM busy fraction (SystemView)."""
        return self.dram.utilization_hint(self._view_cycle)

    def set_view_cycle(self, cycle: float) -> None:
        """Engine sets the cycle SystemView queries are answered at."""
        self._view_cycle = cycle

    # ------------------------------------------------------------- lifecycle

    def flush_accounting(self, cycle: float = 0.0) -> None:
        """Resolve still-resident prefetched lines as useless (end of run).

        ``cycle`` is the final simulated cycle, stamped on the flush
        events so event timelines do not place them at time zero.
        """
        self._sync(float("inf"))
        for level in self.levels:
            level.flush_prefetch_accounting(cycle)

    def reset_private_stats(self) -> None:
        """Clear this core's private counters (its own warmup boundary).

        Touches nothing shared: a multicore lane crossing its warmup
        boundary must not wipe the LLC storage or DRAM counters other
        cores are still measuring.
        """
        self.l1d.stats.reset()
        self.l2c.stats.reset()
        self._reset_prefetch_accounting()

    def reset_shared_attribution(self) -> None:
        """Clear this core's view of the shared resources (LLC mirror and
        DRAM port), used at the *global* measurement boundary so per-core
        deltas sum to the shared hardware totals."""
        self.llc_stats.reset()
        self.dram_port.stats.reset()

    def reset_stats(self) -> None:
        """Clear all counters (single-core warmup/measurement boundary)."""
        self.reset_private_stats()
        self.reset_shared_attribution()
        self.llc.stats.reset()
        self.dram.stats.reset()
