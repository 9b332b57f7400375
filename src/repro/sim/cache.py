"""Set-associative cache storage: LRU, prefetch bits, MSHRs, prefetch
queues and *deferred fills*.

A miss (demand or prefetch) does not insert its line immediately: the fill
is scheduled on a pending :class:`FillQueue` and applied — evicting its
victim — only when the data actually arrives (its ready cycle).  Demands
that touch the line while the fill is in flight merge with it through the
MSHR rather than re-requesting memory.  Applying fills lazily keeps
eviction timing honest: a prefetch issued 200 cycles early must not
shrink the cache for those 200 cycles.

This module is storage.  A :class:`Cache` holds the set arrays, MSHRs,
prefetch queue and fill queue, plus a :class:`CacheStats` counter block.
The per-access kernel (:mod:`repro.sim.level`, :mod:`repro.sim.hierarchy`)
reads and writes these structures directly and counts every event at the
site where it happens; the methods here are the same operations for
set-up code, the fast-path scanner, the auditor and tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .params import CacheParams


@dataclass(slots=True)
class CacheLine:
    """State of one resident cacheline."""

    prefetched: bool = False
    dirty: bool = False


@dataclass(slots=True)
class PendingFill:
    """A fill scheduled for the future (data still in flight).

    ``canceled`` marks a fill whose line was back-invalidated while the
    data was still in flight: the entry stays in the readiness heap
    (removing from a heap's middle is O(n)) but is skipped when it pops.
    """

    ready: float
    line: int
    prefetched: bool
    is_write: bool
    canceled: bool = False


class FillQueue:
    """Pending fills ordered by readiness, with a per-line index.

    The index makes "find the in-flight fill for line X" O(1) — the demand
    merge path strips the ``prefetched`` flag of a caught-up prefetch fill
    without scanning the whole queue (the old implementation walked every
    pending entry).

    Heap entries are ``(ready, seq, fill)`` tuples: the float/int prefix
    keeps every heap comparison in C (no per-sift Python ``__lt__``), and
    the monotonic ``seq`` makes same-cycle fills pop in insertion order.
    """

    __slots__ = ("_heap", "_by_line", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, PendingFill]] = []
        self._by_line: dict[int, list[PendingFill]] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, fill: PendingFill) -> None:
        """Queue one fill."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (fill.ready, seq, fill))
        bucket = self._by_line.get(fill.line)
        if bucket is None:
            self._by_line[fill.line] = [fill]
        else:
            bucket.append(fill)

    def pop_ready(self, cycle: float) -> list[PendingFill]:
        """Remove and return every fill whose data has arrived by ``cycle``."""
        out: list[PendingFill] = []
        heap = self._heap
        by_line = self._by_line
        while heap and heap[0][0] <= cycle:
            fill = heapq.heappop(heap)[2]
            if fill.canceled:
                continue
            bucket = by_line[fill.line]
            if len(bucket) == 1:
                del by_line[fill.line]
            else:
                bucket.remove(fill)
            out.append(fill)
        return out

    def cancel_line(self, line: int) -> list[PendingFill]:
        """Cancel every in-flight fill of ``line`` (back-invalidation).

        The fills are dropped from the per-line index and flagged so the
        readiness heap skips them when they pop; returns what was
        canceled so the cache can release the matching MSHR entry.
        """
        bucket = self._by_line.pop(line, None)
        if bucket is None:
            return []
        for fill in bucket:
            fill.canceled = True
        return bucket

    def live_count(self) -> int:
        """Pending fills excluding canceled heap residue."""
        return sum(len(bucket) for bucket in self._by_line.values())

    def strip_prefetch_flag(self, line: int) -> None:
        """Demote in-flight fills of ``line`` to demand fills (O(1) lookup)."""
        for fill in self._by_line.get(line, ()):
            fill.prefetched = False


@dataclass
class CacheStats:
    """Per-level counters for the Fig 9 / Fig 10 metrics.

    Owned by the storage (so shared-LLC counters are naturally shared
    across cores) and written by the kernel at the site of each event.
    """

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    useful_prefetches: int = 0
    useless_prefetches: int = 0
    late_prefetch_hits: int = 0
    evictions: int = 0

    def accuracy(self) -> float:
        """Useful / (useful + useless); 0 when no prefetches resolved."""
        total = self.useful_prefetches + self.useless_prefetches
        return self.useful_prefetches / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)


class Cache:
    """One set-associative level's storage. Addresses are cacheline ints."""

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.params = params
        self.name = name
        self.num_sets = params.num_sets
        self.ways = params.ways
        # Plain dicts double as LRU stacks: insertion order is recency
        # order (hits re-insert, the victim is the first key).  Probes on
        # a plain dict are measurably cheaper than OrderedDict's on the
        # per-access path.
        self._sets: list[dict[int, CacheLine]] = [
            {} for _ in range(self.num_sets)]
        # Bumped whenever the *eligibility-relevant* state changes: which
        # lines are resident and which carry a prefetched bit.  The
        # fast-path scanner (repro.sim.fastpath) caches a sorted array of
        # hit-eligible lines keyed by this counter; LRU reordering and
        # dirty-bit changes deliberately do not bump it.
        self.version = 0
        self.stats = CacheStats()
        # Outstanding misses: line -> (completion cycle, is_prefetch).
        self._mshr: dict[int, tuple[float, bool]] = {}
        self._mshr_capacity = params.mshr_entries
        # Companion min-heap of (completion, line) with lazy deletion:
        # released or overwritten entries stay in the heap until popped
        # and are skipped when the dict disagrees.  Pruning pops only
        # the completed prefix instead of scanning every entry.
        self._mshr_heap: list[tuple[float, int]] = []
        # Lower bound on the earliest outstanding completion; lets prune
        # skip its pops when no entry can possibly have completed.  May go
        # stale-low after a release (costing a few wasted pops), never
        # high.
        self._mshr_min = float("inf")
        # Fills whose data has not arrived yet, ordered by readiness.
        self.fills = FillQueue()
        # In-flight prefetch-queue occupancy (entries free at issue time),
        # kept as a min-heap so pruning pops expired entries instead of
        # rebuilding the whole list on every headroom query.
        self._pq: list[float] = []

    # ------------------------------------------------------------- residency

    def contains(self, line: int) -> bool:
        """Presence check with no LRU side effects."""
        return line in self._sets[line % self.num_sets]

    def probe(self, line: int) -> CacheLine | None:
        """Peek at a resident line without touching LRU."""
        return self._sets[line % self.num_sets].get(line)

    def access(self, line: int, cycle: float,
               is_write: bool = False) -> tuple[bool, bool]:
        """Demand lookup (resident lines only — callers sync pending fills
        first and handle in-flight merges through the MSHR).

        Returns ``(hit, used_prefetch)``: ``used_prefetch`` is True when
        the hit consumed a still-set prefetched bit (the bit is cleared,
        so a prefetch resolves useful exactly once).
        """
        cache_set = self._sets[line % self.num_sets]
        entry = cache_set.pop(line, None)
        if entry is None:
            return False, False
        cache_set[line] = entry  # re-insert at the MRU end
        if is_write:
            entry.dirty = True
        if entry.prefetched:
            entry.prefetched = False
            self.version += 1
            return True, True
        return True, False

    def fill_now(self, line: int, cycle: float, *, prefetched: bool = False,
                 is_write: bool = False,
                 ) -> tuple[bool, int | None, CacheLine | None]:
        """Apply a fill immediately (data is here).

        Returns ``(inserted, victim, victim_entry)``.  A refill of a
        resident line only refreshes recency (and never re-marks a
        demand-fetched line as a prefetch): ``inserted`` is False and no
        victim is chosen.
        """
        cache_set = self._sets[line % self.num_sets]
        existing = cache_set.pop(line, None)
        if existing is not None:
            cache_set[line] = existing  # refresh recency
            return False, None, None
        victim = None
        victim_entry = None
        if len(cache_set) >= self.ways:
            victim = next(iter(cache_set))
            victim_entry = cache_set.pop(victim)
        cache_set[line] = CacheLine(prefetched, is_write)
        self.version += 1
        return True, victim, victim_entry

    def schedule_fill(self, line: int, ready: float, *, prefetched: bool = False,
                      is_write: bool = False) -> None:
        """Queue a fill to be applied when its data arrives."""
        self.fills.push(PendingFill(ready, line, prefetched, is_write))

    def pop_ready_fills(self, cycle: float) -> list[PendingFill]:
        """Remove and return every pending fill whose data has arrived."""
        return self.fills.pop_ready(cycle)

    def invalidate(self, line: int) -> CacheLine | None:
        """Remove a line (inclusive back-invalidation).  Returns the
        evicted entry when it was present, else None."""
        entry = self._sets[line % self.num_sets].pop(line, None)
        if entry is not None:
            self.version += 1
        return entry

    def cancel_fills(self, line: int) -> bool:
        """Cancel in-flight fills of a back-invalidated line.

        Without this, a private fill still in flight when the inclusive
        LLC evicts its line installs after the back-invalidation swept
        through — leaving the private cache holding a line the LLC no
        longer tracks.  Releases the matching MSHR entry too (its fill
        will never apply, so nothing else would).
        """
        canceled = self.fills.cancel_line(line)
        if not canceled:
            return False
        self.mshr_release(line)
        return True

    def strip_prefetched(self) -> list[int]:
        """Clear every resident prefetched bit; returns the lines cleared.

        End-of-run accounting: resident never-used prefetched lines
        resolve as useless (the caller publishes the events).
        """
        stripped: list[int] = []
        for cache_set in self._sets:
            for line, entry in cache_set.items():
                if entry.prefetched:
                    entry.prefetched = False
                    stripped.append(line)
        if stripped:
            self.version += 1
        return stripped

    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets)

    # ----------------------------------------------------------------- MSHRs

    def mshr_pending(self, line: int) -> float | None:
        """Completion cycle of an outstanding miss on this line, if any."""
        entry = self._mshr.get(line)
        return entry[0] if entry is not None else None

    def mshr_is_prefetch(self, line: int) -> bool:
        """True if the outstanding miss on `line` is a prefetch."""
        entry = self._mshr.get(line)
        return entry is not None and entry[1]

    def mshr_allocate(self, line: int, completion: float,
                      now: float | None = None, *,
                      is_prefetch: bool = False) -> None:
        """Track an outstanding miss; prunes completed entries when `now`
        is given so occupancy never grows stale."""
        if now is not None and now >= self._mshr_min:
            self.mshr_prune(now)
        self._mshr[line] = (completion, is_prefetch)
        heapq.heappush(self._mshr_heap, (completion, line))
        if completion < self._mshr_min:
            self._mshr_min = completion

    def mshr_release(self, line: int) -> None:
        """Drop the MSHR entry for `line`, if any."""
        mshr = self._mshr
        mshr.pop(line, None)
        if not mshr:
            # Re-tighten the lower bound and drop the stale heap tail:
            # without this, a stale-low bound forces every later prune
            # through (empty) pop attempts.
            self._mshr_heap.clear()
            self._mshr_min = float("inf")

    def mshr_prune(self, cycle: float) -> None:
        """Drop MSHR entries whose fills have completed.

        Pops the heap's completed prefix; an entry whose dict completion
        disagrees with its heap key is stale (released or re-allocated)
        and skipped.
        """
        if cycle < self._mshr_min:
            return
        mshr = self._mshr
        heap = self._mshr_heap
        pop = heapq.heappop
        while heap and heap[0][0] <= cycle:
            when, line = pop(heap)
            entry = mshr.get(line)
            if entry is not None and entry[0] == when:
                del mshr[line]
        self._mshr_min = heap[0][0] if heap else float("inf")

    def mshr_earliest(self) -> float:
        """Completion cycle of the oldest outstanding miss.

        Every live entry has a heap entry, so the walk always finds one.
        Running out means the MSHR is empty (a caller bug) or the heap
        lost an entry (a kernel bug); either way it raises.
        """
        heap = self._mshr_heap
        mshr = self._mshr
        stale = 0
        while heap:
            when, line = heap[0]
            entry = mshr.get(line)
            if entry is not None and entry[0] == when:
                return when
            heapq.heappop(heap)  # stale: released or re-allocated since
            stale += 1
        raise RuntimeError(
            f"{self.name}: no outstanding miss to wait for — MSHR holds "
            f"{len(mshr)}/{self._mshr_capacity} entries, heap empty after "
            f"dropping {stale} stale entries, prune bound {self._mshr_min}")

    def mshr_free(self, cycle: float) -> int:
        """Free MSHR slots at `cycle` (prunes completed entries)."""
        if cycle >= self._mshr_min:
            self.mshr_prune(cycle)
        return self._mshr_capacity - len(self._mshr)

    def mshr_has_room_for_prefetch(self, cycle: float) -> bool:
        """Prefetches may not take the last MSHR (paper Section IV-B)."""
        return self.mshr_free(cycle) > 1

    # ------------------------------------------------------------------- PQs

    def pq_free(self, cycle: float) -> int:
        """Free prefetch-queue slots at `cycle` (drops expired entries)."""
        pq = self._pq
        while pq and pq[0] <= cycle:
            heapq.heappop(pq)
        return max(0, self.params.pq_entries - len(pq))

    def pq_push(self, completion: float) -> None:
        """Occupy one PQ slot until `completion`."""
        heapq.heappush(self._pq, completion)
