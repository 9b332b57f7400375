"""Job cache keys: pinned values, the fingerprint memo, refused inputs.

* **Golden keys.** ``SimJob.key()`` for every registry engine, pmp-limit
  and the baseline on ``spec06-00`` @500, plus one sampled and one
  ``trace_events`` job, pinned as hex strings.  Result-cache entries,
  run journals (``--resume``) and fabric leases are all addressed by
  these keys, so a change here orphans every stored result: bump
  ``CACHE_VERSION`` deliberately instead.
* **Memo soundness.** ``prefetcher_fingerprint`` memoises by the pickled
  state; a mutated table must miss, an equal state pickled in another
  order must give the same key, and an unpicklable state must still get
  the exact key.
* **Refused inputs.** ``canonical()`` raises ``TypeError`` where it used
  to hash a ``repr`` (past the depth limit, objects without state).
"""

from __future__ import annotations

import pytest

from repro.experiments import cache
from repro.experiments.cache import (CACHE_VERSION, canonical, fingerprint,
                                     prefetcher_fingerprint)
from repro.experiments.engine import SimJob
from repro.memtrace.workloads import quick_suite
from repro.prefetchers import COMPETITORS
from repro.prefetchers.base import NoPrefetcher
from repro.prefetchers.pmp import PMP, make_pmp_limit
from repro.sampling.config import SamplingConfig
from repro.sim.params import SystemConfig

GOLDEN_KEYS = {
    "dspatch": "a19a0ba97bd4bfce4f676965132176da0aa3cba2f358221e3ede2cae18b2112d",
    "bingo": "d47bef3370d8001182ae41b630beace17bc398cb957953854097f8d30d3e46d5",
    "spp+ppf": "f2eac0c7c7a5e6da9fa414cd8daec1a73ee0b0dc9688ec15db1b3c36d76cebb2",
    "pythia": "2f1e9795d3b8148cf862be51e6f84b4e405020ed698ec511b8dc11a75b2bd5fb",
    "pmp": "874e2beb3ba3a1d6e7c33dedbf913c72695c775b9c2810c4b89e515171753899",
    "pangloss": "d470c0ad0e0cc4ba88a3f00da15aa2035e70512cc6d85647f5c402235c9042f3",
    "gaze": "ea04a74685a44631c81799ce0c76a904e62b6acbdca742a2a81f67868758842b",
    "triangel": "19a3eb4343bef3f4c7d3cd3b0960f369ca9036c86b54e02a01ec486455ef11d9",
    "hybrid": "8a8f6cb9187d5fabdf5669e7c56f372d5f0703400b4d509e6c1d94437759efe7",
    "pmp-limit": "cb5c51ab716f300258ab9bc7a3f4cc627199761206d5456250a5bb066ae11d17",
    "baseline": "68ca67441c142010c43779c6477faa97acae8df4a006c4d4b62f6a1acab464a7",
}
SAMPLED_PMP_KEY = (
    "c00e063fe29cb1f58f96e535167cc35cbbaa3c8d3bc0b6635f1573c2e25f55de")
TRACED_PMP_KEY = (
    "9240313e77bf5da1216dc93d3d4decdc2bc37883e6dda1da497f520074d38ada")

FACTORIES = {**COMPETITORS, "pmp-limit": make_pmp_limit,
             "baseline": NoPrefetcher}


@pytest.fixture(scope="module")
def trace():
    spec = next(s for s in quick_suite() if s.name == "spec06-00")
    return spec.build(500)


def uncached_fingerprint(prefetcher) -> str:
    """``prefetcher_fingerprint`` computed by a full walk, no memo."""
    return fingerprint([type(prefetcher).__module__,
                        type(prefetcher).__qualname__, prefetcher.name,
                        dict(vars(prefetcher))])


class TestGoldenKeys:
    def test_cache_version_unchanged(self):
        assert CACHE_VERSION == 2

    def test_every_registry_engine_is_pinned(self):
        assert set(COMPETITORS) <= set(GOLDEN_KEYS)

    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_engine_key(self, trace, name):
        job = SimJob(trace, FACTORIES[name](), SystemConfig())
        assert job.key() == GOLDEN_KEYS[name]
        # Repeated (memoised) keys are the same key.
        assert SimJob(trace, FACTORIES[name](), SystemConfig()).key() \
            == GOLDEN_KEYS[name]

    def test_sampled_job_key(self, trace):
        job = SimJob(trace, PMP(), SystemConfig(), sampling=SamplingConfig())
        assert job.key() == SAMPLED_PMP_KEY

    def test_trace_events_job_key(self, trace):
        job = SimJob(trace, PMP(), SystemConfig(), trace_events=True)
        assert job.key() == TRACED_PMP_KEY


def _mutate_pmp(p):
    p.opt[3].counters[5] = 7


def _mutate_pythia(p):
    p._q[100][2] = 0.75


def _mutate_hybrid(p):
    p.a.ppt[1].counters[2] = 3


def _mutate_spp(p):
    p.tables[2].weights[17] = 5


MUTATIONS = {"pmp": _mutate_pmp, "pythia": _mutate_pythia,
             "hybrid": _mutate_hybrid, "spp+ppf": _mutate_spp}


class TestFingerprintMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        cache._FINGERPRINT_MEMO.clear()

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_changed_table_value_misses(self, name):
        fresh = prefetcher_fingerprint(COMPETITORS[name]())
        changed = COMPETITORS[name]()
        MUTATIONS[name](changed)
        key = prefetcher_fingerprint(changed)
        assert key != fresh
        assert key == uncached_fingerprint(changed)

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_other_dict_order_gets_same_key(self, name):
        fresh = prefetcher_fingerprint(COMPETITORS[name]())
        reordered = COMPETITORS[name]()
        reordered.__dict__ = dict(reversed(list(vars(reordered).items())))
        assert prefetcher_fingerprint(reordered) == fresh
        # The reordered state pickles differently: a miss, same key.
        assert len(cache._FINGERPRINT_MEMO) == 2

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_unpicklable_member_gets_exact_key(self, name):
        class Knob:  # local class: pickle cannot import it
            def __init__(self, value):
                self.value = value

        one, two = COMPETITORS[name](), COMPETITORS[name]()
        one.knob, two.knob = Knob(1), Knob(2)
        assert prefetcher_fingerprint(one) == uncached_fingerprint(one)
        assert prefetcher_fingerprint(two) == uncached_fingerprint(two)
        assert prefetcher_fingerprint(one) != prefetcher_fingerprint(two)
        assert not cache._FINGERPRINT_MEMO  # bypassed


class TestCanonicalRefuses:
    def test_nesting_past_max_depth_raises(self):
        nested: list = []
        for _ in range(cache._MAX_DEPTH + 2):
            nested = [nested]
        with pytest.raises(TypeError, match="list.*nested deeper"):
            canonical(nested)

    def test_stateless_object_raises(self):
        with pytest.raises(TypeError, match="function"):
            canonical({"hook": lambda: None})
        with pytest.raises(TypeError, match="object"):
            canonical([object()])

    def test_prefetcher_holding_a_function_has_no_key(self, trace):
        prefetcher = PMP()
        prefetcher.hook = print
        with pytest.raises(TypeError, match="builtin_function_or_method"):
            SimJob(trace, prefetcher, SystemConfig()).key()
