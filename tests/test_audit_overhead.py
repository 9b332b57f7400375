"""The audit-overhead gate must not fail on noise.

``benchmarks/audit_overhead.py`` compares audited with unaudited runs
by CPU time over interleaved pairs.  Timed against *itself*, unaudited
code must pass the gate at its 20% budget: a gate that fails on
unchanged code measures the host, not the auditor.
"""

import pytest

from benchmarks import audit_overhead


@pytest.mark.slow
def test_self_compare_passes_the_gate(capsys):
    assert audit_overhead.main(["--self-compare", "--runs", "5",
                                "--accesses", "1500"]) == 0
    assert "self-compare: median overhead" in capsys.readouterr().out


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def side(name):
        def run():
            calls.append(name)
            sum(range(20_000))  # some CPU time to measure
        return run

    ratios = audit_overhead.paired_ratios(side("base"), side("test"),
                                          pairs=2, min_seconds=0.0)
    assert calls == ["base", "test", "test", "base"]
    assert len(ratios) == 2
