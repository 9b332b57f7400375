"""Cache storage: LRU, deferred fills, the indexed fill queue, MSHRs, PQs.

Storage is mechanics — the kernel counts at the event site, covered in
``test_event_kernel.py`` and the reference lockstep tests; here we check
what the storage *reports* (hits, consumed prefetch bits, victims) and
its queue state.
"""

import pytest
from hypothesis import given, strategies as st

from repro.sim.cache import Cache, PendingFill
from repro.sim.params import CacheParams


def small_cache(ways=2, sets=2, mshr=4, pq=4):
    return Cache(CacheParams(size_bytes=64 * ways * sets, ways=ways,
                             hit_latency=1, mshr_entries=mshr, pq_entries=pq))


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        hit, _ = cache.access(10, 0.0)
        assert not hit
        inserted, _, _ = cache.fill_now(10, 0.0)
        assert inserted
        hit, used_prefetch = cache.access(10, 1.0)
        assert hit and not used_prefetch

    def test_lru_eviction_order(self):
        cache = small_cache(ways=2, sets=1)
        cache.fill_now(0, 0.0)
        cache.fill_now(1, 0.0)
        cache.access(0, 1.0)            # 0 becomes MRU
        _, victim, _ = cache.fill_now(2, 2.0)
        assert victim == 1

    def test_refill_does_not_evict(self):
        cache = small_cache(ways=2, sets=1)
        cache.fill_now(0, 0.0)
        cache.fill_now(1, 0.0)
        inserted, victim, _ = cache.fill_now(0, 1.0)
        assert not inserted and victim is None
        assert cache.resident_lines() == 2

    def test_refill_never_marks_demand_line_as_prefetch(self):
        cache = small_cache()
        cache.fill_now(5, 0.0)
        cache.fill_now(5, 1.0, prefetched=True)
        _, used_prefetch = cache.access(5, 2.0)
        assert not used_prefetch

    def test_write_sets_dirty(self):
        cache = small_cache()
        cache.fill_now(5, 0.0)
        cache.access(5, 1.0, is_write=True)
        assert cache.probe(5).dirty

    def test_prefetch_bit_consumed_once(self):
        cache = small_cache()
        cache.fill_now(3, 0.0, prefetched=True)
        assert cache.access(3, 1.0) == (True, True)
        assert cache.access(3, 2.0) == (True, False)

    def test_victim_entry_reports_state(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill_now(0, 0.0, prefetched=True, is_write=True)
        _, victim, victim_entry = cache.fill_now(1, 1.0)
        assert victim == 0
        assert victim_entry.prefetched
        assert victim_entry.dirty

    def test_invalidate_returns_entry(self):
        cache = small_cache()
        cache.fill_now(0, 0.0, prefetched=True)
        entry = cache.invalidate(0)
        assert entry is not None and entry.prefetched
        assert cache.invalidate(0) is None

    def test_strip_prefetched_reports_lines(self):
        cache = small_cache()
        cache.fill_now(0, 0.0, prefetched=True)
        cache.fill_now(1, 0.0, prefetched=True)
        cache.access(0, 1.0)            # consumes line 0's bit
        assert cache.strip_prefetched() == [1]
        assert cache.strip_prefetched() == []


class TestDeferredFills:
    def test_scheduled_fill_not_resident_until_ready(self):
        cache = small_cache()
        cache.schedule_fill(7, ready=100.0)
        assert not cache.contains(7)
        ready = cache.pop_ready_fills(50.0)
        assert ready == []
        ready = cache.pop_ready_fills(100.0)
        assert len(ready) == 1 and ready[0].line == 7

    def test_fills_pop_in_ready_order(self):
        cache = small_cache()
        cache.schedule_fill(1, ready=30.0)
        cache.schedule_fill(2, ready=10.0)
        cache.schedule_fill(3, ready=20.0)
        lines = [f.line for f in cache.pop_ready_fills(100.0)]
        assert lines == [2, 3, 1]


class TestFillQueueIndex:
    def test_strip_prefetch_flag_is_indexed(self):
        cache = small_cache()
        cache.schedule_fill(1, ready=10.0, prefetched=True)
        cache.schedule_fill(2, ready=20.0, prefetched=True)
        cache.fills.strip_prefetch_flag(1)
        fills = {f.line: f for f in cache.pop_ready_fills(100.0)}
        assert not fills[1].prefetched
        assert fills[2].prefetched

    def test_strip_unknown_line_is_noop(self):
        cache = small_cache()
        cache.fills.strip_prefetch_flag(42)   # no pending fill: no error
        assert len(cache.fills) == 0

    def test_index_cleared_after_pop(self):
        cache = small_cache()
        cache.schedule_fill(1, ready=10.0, prefetched=True)
        cache.pop_ready_fills(10.0)
        # A stale index entry would flip this later fill's flag too.
        cache.schedule_fill(1, ready=30.0, prefetched=True)
        cache.fills.strip_prefetch_flag(1)
        assert not cache.pop_ready_fills(30.0)[0].prefetched

    def test_duplicate_line_fills_both_stripped(self):
        cache = small_cache()
        cache.fills.push(PendingFill(10.0, 5, True, False))
        cache.fills.push(PendingFill(20.0, 5, True, False))
        cache.fills.strip_prefetch_flag(5)
        assert all(not f.prefetched for f in cache.pop_ready_fills(100.0))


class TestMSHR:
    def test_allocate_and_pending(self):
        cache = small_cache()
        cache.mshr_allocate(9, 50.0, now=0.0)
        assert cache.mshr_pending(9) == 50.0
        assert cache.mshr_free(0.0) == 3

    def test_prune_releases_completed(self):
        cache = small_cache()
        cache.mshr_allocate(9, 50.0)
        assert cache.mshr_free(60.0) == 4

    def test_prefetch_flag(self):
        cache = small_cache()
        cache.mshr_allocate(9, 50.0, is_prefetch=True)
        assert cache.mshr_is_prefetch(9)
        cache.mshr_allocate(9, 50.0, is_prefetch=False)
        assert not cache.mshr_is_prefetch(9)

    def test_last_mshr_reserved_for_demands(self):
        cache = small_cache(mshr=2)
        cache.mshr_allocate(1, 100.0)
        assert not cache.mshr_has_room_for_prefetch(0.0)
        cache.mshr_release(1)
        assert cache.mshr_has_room_for_prefetch(0.0)

    def test_earliest(self):
        cache = small_cache()
        cache.mshr_allocate(1, 30.0)
        cache.mshr_allocate(2, 20.0)
        assert cache.mshr_earliest() == 20.0

    def test_earliest_skips_released_entries(self):
        cache = small_cache()
        cache.mshr_allocate(1, 30.0)
        cache.mshr_allocate(2, 20.0)
        cache.mshr_release(2)
        assert cache.mshr_earliest() == 30.0

    def test_earliest_on_empty_mshr_fails_loudly(self):
        cache = Cache(CacheParams(size_bytes=256, ways=2, hit_latency=1,
                                  mshr_entries=4, pq_entries=4), name="L1D7")
        with pytest.raises(RuntimeError,
                           match=r"L1D7: .* 0/4 entries, heap empty"):
            cache.mshr_earliest()

    def test_earliest_with_lost_heap_entry_fails_loudly(self):
        # A live entry whose heap entry vanished is a kernel bug: no
        # silent fallback to scanning the dict.
        cache = small_cache()
        cache.mshr_allocate(1, 30.0)
        cache.mshr_allocate(2, 20.0)
        cache.mshr_release(2)
        cache._mshr_heap.remove((30.0, 1))
        with pytest.raises(RuntimeError,
                           match=r"1/4 entries, heap empty after dropping "
                                 r"1 stale entries"):
            cache.mshr_earliest()


class TestPQ:
    def test_occupancy_and_prune(self):
        cache = small_cache(pq=2)
        cache.pq_push(10.0)
        cache.pq_push(20.0)
        assert cache.pq_free(0.0) == 0
        assert cache.pq_free(15.0) == 1
        assert cache.pq_free(25.0) == 2


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                max_size=300))
def test_occupancy_never_exceeds_capacity(lines):
    cache = small_cache(ways=3, sets=4)
    for i, line in enumerate(lines):
        cache.fill_now(line, float(i))
        for s in cache._sets:
            assert len(s) <= cache.ways
    assert cache.resident_lines() <= cache.ways * cache.num_sets
