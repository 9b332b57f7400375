"""Exact pins for the multicore and sampled drivers.

The golden traces pin single-core ``simulate()``.  These pin the other
two drivers bit for bit: the per-lane ``SimResult.to_dict()`` digests of
``simulate_multicore`` (a 4-core quick-suite mix under PMP, and a 2-core
audited run on a small shared LLC), and every counter of one
``simulate(..., sampling=SamplingConfig())`` run, sampling attachment
included.  Auditing is pure observation, so the pins hold with
``REPRO_CHECK_INVARIANTS=1`` too.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.memtrace.workloads import quick_suite
from repro.prefetchers.pmp import PMP
from repro.sampling.config import SamplingConfig
from repro.sim.engine import simulate
from repro.sim.multicore import simulate_multicore

from tests.test_invariants import small_config

MIX = ("spec06-00", "spec17-02", "ligra-00", "parsec-00")
MIX_DIGESTS = ["bee83751ed473238", "564fe3c6ff8bcf9d",
               "5b9a21c4409f77ec", "58c126a8ab14ee0b"]
AUDITED_PAIR_DIGESTS = ["2513482d9a343e94", "0da5759fab5723a5"]
SAMPLED_DIGEST = "13c77732e1ef41fb"


def digest(result) -> str:
    """Digest of a result's complete serialized form."""
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def specs():
    return {spec.name: spec for spec in quick_suite()}


def test_four_core_mix_lanes_are_pinned(specs):
    traces = [specs[name].build(2000) for name in MIX]
    results = simulate_multicore(traces, PMP)
    assert [r.trace_name for r in results] == list(MIX)
    assert [digest(r) for r in results] == MIX_DIGESTS


def test_audited_two_core_lanes_are_pinned(specs):
    traces = [specs["spec06-00"].build(1200), specs["ligra-00"].build(1200)]
    results = simulate_multicore(traces, PMP, small_config(),
                                 check_invariants=True)
    assert [digest(r) for r in results] == AUDITED_PAIR_DIGESTS


def test_default_sampled_run_is_pinned(specs):
    result = simulate(specs["spec06-00"].build(10_000), PMP(),
                      sampling=SamplingConfig())
    assert "fallback" not in result.sampling
    assert (result.instructions, result.cycles) == (459896, 275555.25)
    assert result.sampling["clusters"] == 6
    assert result.sampling["fraction_simulated"] == 0.36
    assert digest(result) == SAMPLED_DIGEST
