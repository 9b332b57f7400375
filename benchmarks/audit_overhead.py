"""Bound the invariant auditor's overhead on the golden trace.

CI runs this as a standalone script (not part of the tier-1 suite).  It
simulates the golden spec06-00 trace with PMP, audit off and audit on,
and fails when the audited run costs more than the budgeted fraction
extra.  The no-audit runs double as a check that merely shipping the
audit subsystem did not slow the default path: no auditor is constructed
and no bus handler is subscribed unless a run opts in.

The measurement is built to hold still on a shared machine:

* CPU time (``time.process_time``), not wall time, so time spent
  descheduled does not count against either side;
* each pair runs whole simulations, audited and unaudited alternating
  call by call, until each side has used at least ``MIN_SECONDS`` of
  CPU, so a slow phase of the host hits both sides alike;
* a pair's ratio is the median over its back-to-back calls of the
  audited/unaudited CPU-time ratio, and the verdict is the median of
  the per-pair ratios.

``--self-compare`` times unaudited code against itself with the same
procedure; it must pass, which shows the gate does not fail on noise.

Usage::

    PYTHONPATH=src python benchmarks/audit_overhead.py [--budget 0.20]
    PYTHONPATH=src python benchmarks/audit_overhead.py --self-compare
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

#: CPU seconds each side of a pair runs for, at least.
MIN_SECONDS = 0.3


def paired_ratios(base, test, pairs: int, min_seconds: float) -> list[float]:
    """``test / base`` CPU time per call, one ratio per pair.

    Within a pair the two sides alternate call by call (which one goes
    first alternates between pairs) until each has used ``min_seconds``
    of CPU.  Each back-to-back (base, test) couple of calls gives one
    ratio, and the pair reports their median, so a burst of host noise
    that lands on a single call cannot move the pair.
    """
    clock = time.process_time
    fns = (base, test)
    ratios = []
    for i in range(pairs):
        used = [0.0, 0.0]
        couples = []
        order = (1, 0) if i % 2 else (0, 1)
        while not couples or min(used) < min_seconds:
            cost = [0.0, 0.0]
            for side in order:
                start = clock()
                fns[side]()
                cost[side] = clock() - start
                used[side] += cost[side]
            couples.append(cost[1] / cost[0])
        ratios.append(statistics.median(couples))
    return ratios


def measure(accesses: int, pairs: int, min_seconds: float,
            self_compare: bool = False) -> tuple[float, list[float]]:
    """Median overhead of auditing (or of nothing, ``self_compare``) and
    the per-pair ratios."""
    from repro.memtrace.workloads import full_suite
    from repro.prefetchers.pmp import PMP
    from repro.sim.engine import simulate

    spec = next(s for s in full_suite() if s.name == "spec06-00")
    trace = spec.build(accesses)

    def plain():
        simulate(trace, PMP(), check_invariants=False)

    def audited():
        simulate(trace, PMP(), check_invariants=True)

    plain()  # warm caches
    ratios = paired_ratios(plain, plain if self_compare else audited,
                           pairs, min_seconds)
    return statistics.median(ratios) - 1, ratios


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # The budget is *relative* to the unaudited kernel, so kernel
    # speedups tighten it without the auditor changing at all.  20%
    # keeps honest headroom while still catching what this gate exists
    # for — an accidentally super-linear audit pass.
    parser.add_argument("--budget", type=float, default=0.20,
                        help="max audited overhead as a fraction (0.20 = 20%%)")
    parser.add_argument("--accesses", type=int, default=4000,
                        help="golden-trace length (matches the fixture)")
    parser.add_argument("--runs", type=int, default=7,
                        help="interleaved audited/unaudited pairs")
    parser.add_argument("--self-compare", action="store_true",
                        help="time unaudited code against itself")
    args = parser.parse_args(argv)

    overhead, ratios = measure(args.accesses, args.runs, MIN_SECONDS,
                               self_compare=args.self_compare)
    what = "self-compare" if args.self_compare else "audited"
    print(f"{what}: median overhead {overhead:+.1%} over {len(ratios)} "
          f"pairs (budget {args.budget:.0%}); ratios "
          + " ".join(f"{r:.3f}" for r in ratios))
    if overhead > args.budget:
        print("FAIL: invariant auditor exceeds its overhead budget",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
