"""Re-pin the output digests the benchmark checks on the default seed.

Run from the repository root, only when a change is *meant* to alter
simulated results (or after resizing a workload)::

    python3 perfbench/pin.py            # every workload
    python3 perfbench/pin.py fig13_mix  # just one

It runs one cycle of each workload on the default seed and rewrites the
workload's entry in ``perfbench/digests.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(names: list[str]) -> int:
    run.pin_environment()
    import workloads

    path = workloads.DIGESTS_PATH
    document = (json.loads(path.read_text()) if path.exists()
                else {"seed": workloads.DEFAULT_SEED, "workloads": {}})
    workdir = run.RESULTS_DIR / "pin"
    for name in names or run.WORKLOADS:
        workload = workloads.make(name, workdir)
        try:
            workload.setup(workloads.DEFAULT_SEED)
            checker = workloads.Checker(None)
            workload.cycle(checker)
            if checker.mismatches:
                print(f"{name}: not deterministic: {checker.mismatches}",
                      file=sys.stderr)
                return 1
            values = {}
            if name == "trace_pmp_sampled":
                values["full_ipc"] = workload.full_ipc()
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
        document["workloads"][name] = {
            "sizes": workload.sizes, "digests": checker.reference,
            "values": values}
        print(f"{name}: pinned {len(checker.reference)} digests")
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
