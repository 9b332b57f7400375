"""Functional reference model for the memory kernel: demand and prefetch.

A deliberately boring re-implementation of the memory hierarchy's
*semantics* — dict-based LRU sets, a flat pending-fill list, an MSHR
dict, a flat prefetch-queue list, arithmetic DRAM channels — with none
of the kernel's machinery: no event bus, no heaps, no inlined hot path.
``tests/test_differential.py`` drives this model and the real
:class:`~repro.sim.hierarchy.Hierarchy` with identical demand streams,
and ``tests/test_prefetch_reference.py`` adds a scripted prefetcher
whose requests go to both.  Per access they assert latency, hit level,
prefetch admission (with the drop reason), the ordered feedback calls
the prefetcher receives, and the per-level counters; at the end, the
final cache contents.  A bug in the kernel's clever parts (fill-queue
heaps, lazy MSHR pruning, sync ordering, counting at the site) cannot
hide behind plausible-looking aggregate numbers.

Scope: demand traffic plus the prefetch path — PQ admission and the drop
reasons (``resident`` / ``pq_full`` / ``mshr_full``), per-level fill
placement (prefetched bit at the target, inclusive fills below it, the
LLC filled only when absent, on-chip promotion from a resident LLC
line), and useful / useless / late feedback.  Prefetcher feedback is
recorded in :attr:`RefModel.feedback` as ``(hook, address[, level])``
tuples in call order.
"""

from __future__ import annotations

from ..memtrace.access import CACHELINE_BITS
from .params import SystemConfig

#: Counter names, in :class:`~repro.sim.cache.CacheStats` field order.
COUNTERS = ("demand_accesses", "demand_hits", "demand_misses",
            "prefetch_fills", "useful_prefetches", "useless_prefetches",
            "late_prefetch_hits", "evictions")

DROP_REASONS = ("resident", "pq_full", "mshr_full")


class _RefLevel:
    """One level: insertion-ordered dicts per set, plus flat queues."""

    def __init__(self, params, level_id: int) -> None:
        self.level_id = level_id
        self.num_sets = params.num_sets
        self.ways = params.ways
        self.hit_latency = params.hit_latency
        self.mshr_capacity = params.mshr_entries
        self.pq_capacity = params.pq_entries
        # line -> [dirty, prefetched]; dict insertion order is LRU order.
        self.sets: list[dict[int, list[bool]]] = [dict()
                                                  for _ in range(self.num_sets)]
        # line -> [completion cycle, is_prefetch]
        self.mshr: dict[int, list] = {}
        # Pending fills as plain [ready, seq, line, is_write, prefetched].
        self.pending: list[list] = []
        self._seq = 0
        # Prefetch-queue entries as the cycles they free at.
        self.pq: list[float] = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def set_for(self, line: int) -> dict[int, list[bool]]:
        return self.sets[line % self.num_sets]

    def touch(self, line: int) -> None:
        """Refresh LRU recency (re-insert at the back)."""
        cache_set = self.set_for(line)
        cache_set[line] = cache_set.pop(line)

    def schedule(self, line: int, ready: float, is_write: bool,
                 prefetched: bool = False) -> None:
        self.pending.append([ready, self._seq, line, is_write, prefetched])
        self._seq += 1

    def cancel(self, line: int) -> None:
        """Back-invalidation: in-flight fills of the line never land."""
        before = len(self.pending)
        self.pending = [row for row in self.pending if row[2] != line]
        if len(self.pending) != before:
            self.mshr.pop(line, None)

    def prune_mshr(self, cycle: float) -> None:
        done = [line for line, (when, _) in self.mshr.items() if when <= cycle]
        for line in done:
            del self.mshr[line]

    def allocate_mshr(self, line: int, completion: float, cycle: float,
                      is_prefetch: bool = False) -> None:
        self.prune_mshr(cycle)
        self.mshr[line] = [completion, is_prefetch]

    def pq_free(self, cycle: float) -> int:
        self.pq = [when for when in self.pq if when > cycle]
        return max(0, self.pq_capacity - len(self.pq))


class RefModel:
    """Reference semantics of :meth:`Hierarchy.demand_access` and
    :meth:`Hierarchy.issue_prefetch`."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        if config is None:
            config = SystemConfig.default()
        self.levels = [_RefLevel(config.l1d, 1), _RefLevel(config.l2c, 2),
                       _RefLevel(config.llc, 3)]
        dram = config.dram
        self.dram_latency = dram.base_latency_cycles
        self.service = dram.service_cycles
        self.channels = [[0.0, 0.0] for _ in range(dram.channels)]
        self.dram_demands = 0
        self.dram_prefetches = 0
        self.dram_writebacks = 0
        self.issued = {1: 0, 2: 0, 3: 0}
        self.dropped = dict.fromkeys(DROP_REASONS, 0)
        self.feedback: list[tuple] = []
        #: Where the last demand was answered: ``("hit", depth)``,
        #: ``("merge", depth)`` or ``("dram", None)``.
        self.last_outcome: tuple = ("dram", None)

    # ------------------------------------------------------------------ DRAM

    def _dram_demand(self, line: int, cycle: float) -> float:
        channel = self.channels[line % len(self.channels)]
        next_free, demand_next_free = channel
        in_flight_wait = min(next_free, cycle + self.service)
        start = max(cycle, demand_next_free, in_flight_wait)
        channel[1] = start + self.service
        channel[0] = max(next_free, start) + self.service
        self.dram_demands += 1
        return start + self.service + self.dram_latency

    def _dram_prefetch(self, line: int, cycle: float) -> float:
        channel = self.channels[line % len(self.channels)]
        start = max(cycle, channel[0])
        channel[0] = start + self.service
        self.dram_prefetches += 1
        return start + self.service + self.dram_latency

    def _dram_writeback(self, line: int, cycle: float) -> None:
        channel = self.channels[line % len(self.channels)]
        channel[0] = max(cycle, channel[0]) + self.service
        self.dram_writebacks += 1

    # ----------------------------------------------------------------- fills

    def _sync(self, cycle: float) -> None:
        # LLC drains first so back-invalidations precede private fills,
        # each level in (ready, schedule-order) — the kernel's heap order.
        for level in (self.levels[2], self.levels[1], self.levels[0]):
            ready_rows = sorted(row for row in level.pending
                                if row[0] <= cycle)
            if not ready_rows:
                continue
            level.pending = [row for row in level.pending if row[0] > cycle]
            for ready, _, line, is_write, prefetched in ready_rows:
                level.mshr.pop(line, None)
                self._apply_fill(level, line, ready, is_write, prefetched)

    def _fill(self, level: _RefLevel, line: int, ready: float, cycle: float,
              is_write: bool = False, prefetched: bool = False) -> None:
        """Apply now when the data is already here, otherwise defer."""
        if ready <= cycle:
            self._apply_fill(level, line, cycle, is_write, prefetched)
        else:
            level.schedule(line, ready, is_write, prefetched)

    def _apply_fill(self, level: _RefLevel, line: int, cycle: float,
                    is_write: bool, prefetched: bool = False) -> None:
        cache_set = level.set_for(line)
        if line in cache_set:
            level.touch(line)
            return
        victim = None
        if len(cache_set) >= level.ways:
            victim = next(iter(cache_set))
            victim_dirty, victim_prefetched = cache_set.pop(victim)
            level.counters["evictions"] += 1
        cache_set[line] = [is_write, prefetched]
        if prefetched:
            level.counters["prefetch_fills"] += 1
        if victim is None:
            return
        if level is self.levels[0]:
            self.feedback.append(("evict", victim << CACHELINE_BITS))
        dirty_private = False
        if level is self.levels[2]:
            for private in (self.levels[0], self.levels[1]):
                removed = private.set_for(victim).pop(victim, None)
                if removed is not None:
                    dirty_private = dirty_private or removed[0]
                    if removed[1]:
                        private.counters["useless_prefetches"] += 1
                private.cancel(victim)
        if victim_prefetched:
            level.counters["useless_prefetches"] += 1
            self.feedback.append(("useless", victim << CACHELINE_BITS,
                                  level.level_id))
        if victim_dirty or dirty_private:
            self._drain_dirty(level, victim, cycle)

    def _drain_dirty(self, level: _RefLevel, victim: int,
                     cycle: float) -> None:
        depth = self.levels.index(level)
        for below in self.levels[depth + 1:]:
            cache_set = below.set_for(victim)
            if victim in cache_set:
                cache_set[victim][0] = True
                return
        self._dram_writeback(victim, cycle)

    # ---------------------------------------------------------------- demand

    def _mshr_stall(self, level: _RefLevel, cycle: float) -> float:
        waited = 0.0
        while True:
            level.prune_mshr(cycle + waited)
            if len(level.mshr) < level.mshr_capacity:
                return waited
            earliest = min(when for when, _ in level.mshr.values())
            if earliest <= cycle + waited:
                level.prune_mshr(earliest)
            else:
                waited = earliest - cycle

    def access(self, address: int, cycle: float,
               is_write: bool = False) -> tuple[float, bool]:
        """One demand access; returns (latency, l1_hit) like the kernel."""
        self._sync(cycle)
        line = address >> CACHELINE_BITS
        latency = 0.0
        for depth, level in enumerate(self.levels):
            counters = level.counters
            counters["demand_accesses"] += 1
            cache_set = level.set_for(line)
            if line in cache_set:
                counters["demand_hits"] += 1
                level.touch(line)
                entry = cache_set[line]
                if is_write:
                    entry[0] = True
                if entry[1]:
                    entry[1] = False
                    counters["useful_prefetches"] += 1
                    self.feedback.append(("useful", address, level.level_id))
                latency += level.hit_latency
                self._backfill(line, depth, cycle + latency, cycle, is_write)
                self.last_outcome = ("hit", depth)
                return latency, depth == 0
            counters["demand_misses"] += 1
            latency += level.hit_latency
            pending = level.mshr.get(line)
            if pending is not None:
                if pending[1]:
                    # A demand catching its own prefetch in flight: late
                    # but useful, and the fill is demoted to a demand's.
                    counters["useful_prefetches"] += 1
                    counters["late_prefetch_hits"] += 1
                    self.feedback.append(("useful", address, level.level_id))
                    pending[1] = False
                    for row in level.pending:
                        if row[2] == line:
                            row[4] = False
                cap = self.dram_latency + 2 * self.service
                merge = min(max(0.0, pending[0] - cycle), cap)
                self._backfill(line, depth, cycle + latency + merge, cycle,
                               is_write)
                self.last_outcome = ("merge", depth)
                return latency + merge, False
            if depth == 0:
                latency += self._mshr_stall(level, cycle)

        completion = self._dram_demand(line, cycle + latency)
        for level in self.levels:
            level.allocate_mshr(line, completion, cycle)
        for index in (2, 1, 0):
            self.levels[index].schedule(line, completion,
                                        is_write and index == 0)
        self.last_outcome = ("dram", None)
        return completion - cycle, False

    def _backfill(self, line: int, depth: int, ready: float, cycle: float,
                  is_write: bool) -> None:
        for index in range(depth - 1, -1, -1):
            self._fill(self.levels[index], line, ready, cycle,
                       is_write and index == 0)

    # -------------------------------------------------------------- prefetch

    def issue(self, address: int, level_id: int,
              cycle: float) -> tuple[bool, str | None]:
        """One prefetch request; returns ``(admitted, drop_reason)``."""
        self._sync(cycle)
        line = address >> CACHELINE_BITS
        depth = level_id - 1
        target = self.levels[depth]
        reason = None
        if any(line in level.set_for(line) or line in level.mshr
               for level in self.levels[:depth + 1]):
            reason = "resident"
        elif target.pq_free(cycle) <= 0:
            reason = "pq_full"
        else:
            target.prune_mshr(cycle)
            if target.mshr_capacity - len(target.mshr) <= 1:
                reason = "mshr_full"     # the last MSHR is kept for demands
        if reason is not None:
            self.dropped[reason] += 1
            return False, reason

        llc = self.levels[2]
        llc_resident = line in llc.set_for(line)
        if llc_resident and target is not llc:
            ready = cycle + llc.hit_latency      # on-chip promotion
        else:
            llc_pending = llc.mshr.get(line)
            if llc_pending is not None:
                ready = llc_pending[0]           # piggy-back the fetch
            else:
                ready = self._dram_prefetch(line, cycle + llc.hit_latency)
            target.allocate_mshr(line, ready, cycle, is_prefetch=True)
        for level in self.levels[depth:]:
            if level is llc and level is not target:
                if not llc_resident:
                    self._fill(level, line, ready, cycle)
            else:
                self._fill(level, line, ready, cycle,
                           prefetched=level is target)
        target.pq.append(cycle + target.hit_latency)
        self.issued[level_id] += 1
        self.feedback.append(("fill", address, level_id))
        return True, None

    # ------------------------------------------------------------- snapshots

    def drain(self) -> None:
        """Apply every outstanding fill (end of run)."""
        self._sync(float("inf"))

    def flush(self) -> None:
        """End of run: drain, then resident unused prefetched lines count
        useless (the prefetcher is not told)."""
        self.drain()
        for level in self.levels:
            for cache_set in level.sets:
                for entry in cache_set.values():
                    if entry[1]:
                        entry[1] = False
                        level.counters["useless_prefetches"] += 1

    def level_counters(self, index: int) -> tuple[int, int, int, int]:
        counters = self.levels[index].counters
        return (counters["demand_accesses"], counters["demand_hits"],
                counters["demand_misses"], counters["evictions"])

    def counters(self, index: int) -> dict[str, int]:
        """Every counter of one level, keyed like ``CacheStats`` fields."""
        return dict(self.levels[index].counters)

    def contents(self, index: int) -> dict[int, bool]:
        """Resident ``line -> dirty`` map of one level."""
        return {line: entry[0] for cache_set in self.levels[index].sets
                for line, entry in cache_set.items()}

    def prefetched_lines(self, index: int) -> set[int]:
        """Resident lines of one level whose prefetched bit is set."""
        return {line for cache_set in self.levels[index].sets
                for line, entry in cache_set.items() if entry[1]}


class RefCounterVector:
    """Naive reference for :class:`~repro.prefetchers.pmp.CounterVector`.

    Same semantics, none of the optimisations: ``merge`` scans every
    counter position (instead of iterating only the set bits of the
    incoming vector) and ``decay`` rebuilds the list (the shape of the
    original implementation, before the in-place fix).
    ``tests/test_perf_equivalence.py`` drives both implementations with
    identical merge sequences and asserts the counters stay
    bit-identical, so a bug in the set-bit walk or the in-place halving
    cannot hide behind plausible-looking saturating counters.
    """

    def __init__(self, length: int, counter_bits: int) -> None:
        if counter_bits < 1:
            raise ValueError("counter_bits must be >= 1")
        self.counters = [0] * length
        self.max_value = (1 << counter_bits) - 1

    def merge(self, anchored_bits: int) -> None:
        """Merge one anchored bit vector, position by position."""
        for i in range(len(self.counters)):
            if anchored_bits >> i & 1 and self.counters[i] < self.max_value:
                self.counters[i] += 1
        if self.counters[0] >= self.max_value:
            self.decay()

    def decay(self) -> None:
        """Halve every counter (list rebuild, the pre-fix shape)."""
        self.counters = [c >> 1 for c in self.counters]

    def frequencies(self) -> list[float]:
        time = self.counters[0]
        if time == 0:
            return [0.0] * len(self.counters)
        return [c / time for c in self.counters]
