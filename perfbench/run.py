"""The repository benchmark: four pinned workloads, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload trace_pmp --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced pass that reports the per-layer
metrics (see README.md).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
run also appends its full record (environment, traffic shape, metrics)
to ``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import ProbeTime, host_probe  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = ROOT / ".perfbench"
WORKLOADS = ("trace_pmp", "trace_pmp_sampled", "fig8_quick", "fig13_mix")
#: Set-ups per run; setup_s reports their median plus the imports.
SETUPS = 3
#: Cycles every timed run completes, even past ``--seconds``.
MIN_CYCLES = 2
#: The host probe's time at the reference host speed: every time metric
#: is reported in seconds at this speed (see README.md, *Noise*).
REFERENCE_PROBE_S = 0.125

END_TO_END = {
    "setup_s": "s",
    "sim_kaps": "kacc/cpu_s",
    "regen_s": "s",
    "regen_cpu_s": "cpu_s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
}

#: Engines whose self time is reported one by one (fig8 runs them all).
ENGINES = ("pmp", "pmp-limit", "dspatch", "bingo", "spp+ppf", "pythia",
           "pangloss", "gaze", "triangel", "hybrid")
EVENT_TYPES = ("CacheAccess", "HitRunRetired", "PrefetchFill",
               "PrefetchUseful", "PrefetchUseless", "Eviction",
               "BackInvalidation", "PrefetchIssued", "PrefetchDropped")
LEVELS = ("l1d", "l2c", "llc")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "setup.imports_s": "s", "setup.catalog_s": "s",
        "setup.build_s": "s", "setup.hash_s": "s", "setup.other_s": "s",
        "scenarios.catalog_s": "s", "memtrace.build_s": "s",
        "memtrace.hash_s": "s",
        "core.calls": "count", "core.self_s": "s",
        "hierarchy.demand_calls": "count", "hierarchy.demand_self_s": "s",
    }
    units.update({f"{level}.hit_ratio": "ratio" for level in LEVELS})
    units.update({"dram.requests": "count", "events.delivered": "count",
                  "events.self_s": "s"})
    units.update({f"events.published.{kind}": "count"
                  for kind in EVENT_TYPES})
    units.update({"prefetcher.calls": "count", "prefetcher.self_s": "s",
                  "prefetcher.requests_per_access": "ratio"})
    units.update({f"prefetcher.{metric_name(engine)}.self_s": "s"
                  for engine in ENGINES})
    units.update({"prefetch.issue_calls": "count",
                  "prefetch.issue_self_s": "s",
                  "prefetch.admit_ratio": "ratio",
                  "prefetch.dropped": "count"})
    units.update({f"prefetch.accuracy.{level}": "ratio" for level in LEVELS})
    units.update({
        "fastpath.try_calls": "count", "fastpath.self_s": "s",
        "fastpath.coverage": "ratio",
        "sampling.plan_s": "s", "sampling.fraction_simulated": "ratio",
        "sampling.clusters": "count", "sampling.ipc_err_pct": "%",
        "multicore.back_invalidations": "count",
        "multicore.back_invalidate_s": "s",
        "experiments.jobs": "count", "experiments.simulated": "count",
        "experiments.cache_hits": "count", "experiments.cache_get_s": "s",
        "experiments.cache_put_s": "s", "experiments.key_s": "s",
        "experiments.run_jobs_self_s": "s", "experiments.job_p50_s": "s",
        "experiments.job_p88_s": "s", "experiments.worker_busy_frac": "ratio",
        "experiments.failed": "count", "experiments.retried": "count",
        "experiments.pool_rebuilds": "count",
        "trace.overhead_pct": "%", "trace.unattributed_s": "s",
        "trace.unattributed_pct": "%", "error_rate": "ratio",
    })
    return units


def metric_name(engine: str) -> str:
    """Engine name as a metric-name component (``+`` is not allowed)."""
    return engine.replace("+", "-")


# ----------------------------------------------------------------- helpers

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def quantile(values, q: float) -> float:
    """The q-quantile of ``values`` (inclusive method; 0 when empty)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def git_sha() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout
    (never the SHA of some repository that happens to enclose it)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    from repro.experiments.manifest import current_git_sha
    return current_git_sha(ROOT)


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "git_sha": git_sha(),
            "loadavg_start": list(os.getloadavg())}


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def pin_environment() -> None:
    """Run the program under its defaults: the committed catalog, no
    auditor, no chaos injection, whatever the caller's environment."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_SCENARIOS"] = str(ROOT / "scenarios")
    sys.path.insert(0, str(ROOT / "src"))


def fresh_import_s() -> float:
    """Wall time of a fresh interpreter that starts and imports the
    benchmark's modules (and with them the program) -- one more sample
    of the import share of set-up."""
    bench = Path(__file__).resolve().parent
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, "
            f"{str(bench)!r}]; import tracing, workloads")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def load_pinned(workload, seed: int, default_seed: int, path: Path):
    """The pinned digests for this workload, or None off the default
    seed.  A size change without re-pinning fails loudly."""
    if seed != default_seed:
        return None, None
    document = json.loads(path.read_text())
    entry = document["workloads"][workload.name]
    if entry["sizes"] != json.loads(json.dumps(workload.sizes)):
        raise SystemExit(f"{path.name}: {workload.name} was pinned at "
                         f"{entry['sizes']}, now sized {workload.sizes}; "
                         "re-pin with perfbench/pin.py")
    return entry["digests"], entry.get("values", {})


# ---------------------------------------------------------------- measuring

class Probe:
    """The host probe, run between timed steps (see probe.py)."""

    def __init__(self) -> None:
        self.times = [host_probe()]

    def around(self) -> ProbeTime:
        """Probe again; the mean of this probe and the one before is the
        host's speed around the step timed in between."""
        self.times.append(host_probe())
        before, after = self.times[-2:]
        return ProbeTime((before.cpu_s + after.cpu_s) / 2,
                         (before.wall_s + after.wall_s) / 2)


def at_reference(value: float, probe: float) -> float:
    """A time scaled to the reference host speed, given the probe's time
    on the same clock around it (see README.md, *Noise*)."""
    return ratio(value * REFERENCE_PROBE_S, probe)


def measure(workload, checker, seconds: float, min_cycles: int,
            probe: Probe) -> list:
    """Repeat cycles for ``seconds``: at least ``min_cycles``, then as
    long as another cycle as long as the last one still ends in time.
    The host is probed after the cold operation and after the replay."""
    samples = []
    start = time.perf_counter()
    tried = 0
    last = 0.0
    while (tried < min_cycles
           or time.perf_counter() - start + last <= seconds):
        tried += 1
        cycle_start = time.perf_counter()
        try:
            begin = time.perf_counter()
            sample = workload.cold(checker)
            sample.cycle_wall_s = time.perf_counter() - begin
            sample.regen_probe = sample.replay_probe = probe.around()
            if workload.replay is not None:
                begin = time.perf_counter()
                workload.replay(checker, sample)
                sample.cycle_wall_s += time.perf_counter() - begin
                sample.replay_probe = probe.around()
        except Exception as exc:  # a raising operation is a failed one
            checker.mismatches.append(f"cycle raised {exc!r}")
            checker.count(False)
            probe.around()
            continue
        finally:
            last = time.perf_counter() - cycle_start
        samples.append(sample)
    return samples


def end_to_end(samples, setup_s: float, include_children: bool) -> dict:
    """Medians over the run's cycles of times at the reference host
    speed.  A workload without a replay reports its cold calls as
    ``replay_s``."""
    regen_cpu = median([at_reference(s.regen_cpu_s, s.regen_probe.cpu_s)
                        for s in samples])
    regen_wall = median([at_reference(s.regen_wall_s, s.regen_probe.wall_s)
                         for s in samples])
    replays = [at_reference(wall, s.replay_probe.wall_s) for s in samples
               for wall in s.replay_walls]
    return {
        "setup_s": setup_s,
        "sim_kaps": ratio(samples[0].accesses if samples else 0,
                          1000.0 * regen_cpu),
        "regen_s": regen_wall,
        "regen_cpu_s": regen_cpu,
        "replay_s": median(replays) if replays else regen_wall,
        "peak_rss_mb": peak_rss_mb(include_children),
    }


def traffic(samples, checker) -> dict:
    """The shape of the traffic the layers saw (recorded every run)."""
    results = [r for s in samples for r in s.results]
    totals = {level: [0, 0] for level in LEVELS}
    for result in results:
        for level in LEVELS:
            stats = result.levels[level]
            totals[level][0] += stats.demand_misses
            totals[level][1] += stats.demand_accesses
    issued = sum(sum(r.issued_prefetches.values()) + r.dropped_prefetches
                 for r in results)
    retired = [s.fastpath_retired for s in samples]
    lookups = sum(s.experiments.get("cache_hits", 0)
                  + s.experiments.get("cache_misses", 0) for s in samples)
    fractions = [r.sampling["fraction_simulated"] for r in results
                 if r.sampling and "fraction_simulated" in r.sampling]
    return {
        "accesses_per_op": samples[0].accesses if samples else 0,
        "fastpath.coverage": None if None in retired else ratio(
            sum(retired), sum(s.accesses for s in samples)),
        "prefetch.requests_per_access": ratio(
            issued, sum(r.levels["l1d"].demand_accesses for r in results)),
        "sampling.fraction_simulated": median(fractions),
        "miss_ratio": {level: ratio(*totals[level]) for level in LEVELS},
        "cache_hit_ratio": ratio(sum(s.experiments.get("cache_hits", 0)
                                     for s in samples), lookups),
        "operations": checker.attempted,
    }


def per_layer(rec, samples, setup_scope: dict, overhead_pct: float,
              ipc_err_pct: float, checker) -> dict:
    """Per-layer metrics of the traced cycles, per cycle."""
    cycles = max(1, len(samples))
    workers = rec.workers
    self_s = {k: rec.self_s.get(k, 0.0) + workers.self_s.get(k, 0.0)
              for k in set(rec.self_s) | set(workers.self_s)}
    calls = {k: rec.calls.get(k, 0) + workers.calls.get(k, 0)
             for k in set(rec.calls) | set(workers.calls)}
    counts = {k: rec.counts.get(k, 0) + workers.counts.get(k, 0)
              for k in set(rec.counts) | set(workers.counts)}
    engines = {k: rec.engine_self_s.get(k, 0.0)
               + workers.engine_self_s.get(k, 0.0)
               for k in set(rec.engine_self_s) | set(workers.engine_self_s)}

    def per(value) -> float:
        return value / cycles

    results = [r for s in samples for r in s.results]
    level_sum = {level: {} for level in LEVELS}
    for result in results:
        for level in LEVELS:
            for key, value in result.levels[level].to_dict().items():
                level_sum[level][key] = level_sum[level].get(key, 0) + value
    experiments = {}
    for s in samples:
        for key, value in s.experiments.items():
            experiments[key] = experiments.get(key, 0) + value
    wall = sum(s.cycle_wall_s for s in samples)
    unattributed = wall - rec.covered_s + workers.uncovered_s
    fractions = [r.sampling["fraction_simulated"] for r in results
                 if r.sampling and "fraction_simulated" in r.sampling]
    clusters = [r.sampling["clusters"] for r in results
                if r.sampling and "clusters" in r.sampling]
    retired = counts.get("fastpath.retired", 0)

    metrics = dict(setup_scope)
    metrics.update({
        "scenarios.catalog_s": per(self_s.get("scenarios.catalog", 0.0)),
        "memtrace.build_s": per(self_s.get("memtrace.build", 0.0)),
        "memtrace.hash_s": per(self_s.get("memtrace.hash", 0.0)),
        "core.calls": per(calls.get("core", 0)),
        "core.self_s": per(self_s.get("core", 0.0)),
        "hierarchy.demand_calls": per(calls.get("hierarchy.demand", 0)),
        "hierarchy.demand_self_s": per(self_s.get("hierarchy.demand", 0.0)),
    })
    for level in LEVELS:
        metrics[f"{level}.hit_ratio"] = ratio(
            level_sum[level].get("demand_hits", 0),
            level_sum[level].get("demand_accesses", 0))
    metrics["dram.requests"] = per(sum(r.dram_requests for r in results))
    metrics["events.delivered"] = per(calls.get("events", 0))
    metrics["events.self_s"] = per(self_s.get("events", 0.0))
    for kind in EVENT_TYPES:
        metrics[f"events.published.{kind}"] = per(
            counts.get("published." + kind, 0))
    metrics["prefetcher.calls"] = per(calls.get("prefetcher", 0))
    metrics["prefetcher.self_s"] = per(self_s.get("prefetcher", 0.0))
    metrics["prefetcher.requests_per_access"] = ratio(
        calls.get("prefetch.issue", 0), calls.get("prefetcher", 0))
    for engine in ENGINES:
        metrics[f"prefetcher.{metric_name(engine)}.self_s"] = per(
            engines.get(engine, 0.0))
    metrics.update({
        "prefetch.issue_calls": per(calls.get("prefetch.issue", 0)),
        "prefetch.issue_self_s": per(self_s.get("prefetch.issue", 0.0)),
        "prefetch.admit_ratio": ratio(counts.get("prefetch.admitted", 0),
                                      calls.get("prefetch.issue", 0)),
        "prefetch.dropped": per(sum(r.dropped_prefetches for r in results)),
    })
    for level in LEVELS:
        useful = level_sum[level].get("useful_prefetches", 0)
        useless = level_sum[level].get("useless_prefetches", 0)
        metrics[f"prefetch.accuracy.{level}"] = ratio(useful,
                                                      useful + useless)
    job_walls = workers.job_walls
    metrics.update({
        "fastpath.try_calls": per(calls.get("fastpath", 0)),
        "fastpath.self_s": per(self_s.get("fastpath", 0.0)),
        "fastpath.coverage": ratio(
            retired, retired + calls.get("hierarchy.demand", 0)),
        "sampling.plan_s": per(self_s.get("sampling.plan", 0.0)),
        "sampling.fraction_simulated": median(fractions),
        "sampling.clusters": median(clusters),
        "sampling.ipc_err_pct": ipc_err_pct,
        "multicore.back_invalidations": per(
            counts.get("multicore.back_invalidations", 0)),
        "multicore.back_invalidate_s": per(
            self_s.get("multicore.back_invalidate", 0.0)),
        "experiments.jobs": per(experiments.get("jobs", 0)),
        "experiments.simulated": per(experiments.get("simulated", 0)),
        "experiments.cache_hits": per(experiments.get("cache_hits", 0)),
        "experiments.cache_get_s": per(
            self_s.get("experiments.cache_get", 0.0)),
        "experiments.cache_put_s": per(
            self_s.get("experiments.cache_put", 0.0)),
        "experiments.key_s": per(self_s.get("experiments.key", 0.0)),
        "experiments.run_jobs_self_s": per(
            self_s.get("experiments.run_jobs", 0.0)),
        "experiments.job_p50_s": quantile(job_walls, 0.50),
        "experiments.job_p88_s": quantile(job_walls, 0.88),
        "experiments.worker_busy_frac": ratio(
            sum(s.children_cpu_s for s in samples),
            sum(s.workers * s.regen_wall_s for s in samples)),
        "experiments.failed": per(experiments.get("failed", 0)),
        "experiments.retried": per(experiments.get("retried", 0)),
        "experiments.pool_rebuilds": per(experiments.get("pool_rebuilds", 0)),
        "trace.overhead_pct": overhead_pct,
        "trace.unattributed_s": per(unattributed),
        "trace.unattributed_pct": 100.0 * ratio(
            unattributed, wall + sum(job_walls)),
        "error_rate": ratio(checker.failed, checker.attempted),
    })
    return metrics


# -------------------------------------------------------------------- runs

def run_workload(args) -> int:
    pin_environment()
    import tracing
    import workloads

    imports_s = time.perf_counter() - PROCESS_START
    env = environment()
    probe = Probe()
    workdir = RESULTS_DIR / f"work-{os.getpid()}"
    workload = workloads.make(args.workload, workdir)
    try:
        pinned, values = load_pinned(workload, args.seed,
                                     workloads.DEFAULT_SEED,
                                     workloads.DIGESTS_PATH)
        checker = workloads.Checker(pinned)
        if args.trace:
            metrics, samples = traced_run(args, workload, checker, imports_s,
                                          values, tracing, probe)
            setup_parts = {"imports_s": [imports_s]}
        else:
            # Set-up runs several times: the imports in fresh processes
            # (this one's counts as the first), the rest in-process.
            # Each sample is scaled by the probes around it.
            imports = [imports_s]
            scaled_imports = [at_reference(imports_s,
                                           probe.times[0].wall_s)]
            for _ in range(SETUPS - 1):
                imports.append(fresh_import_s())
                scaled_imports.append(at_reference(imports[-1],
                                                   probe.around().wall_s))
            setups, scaled_setups = [], []
            for _ in range(SETUPS):
                start = time.perf_counter()
                workload.setup(args.seed)
                setups.append(time.perf_counter() - start)
                scaled_setups.append(at_reference(setups[-1],
                                                  probe.around().wall_s))
            samples = measure(workload, checker, args.seconds, MIN_CYCLES,
                              probe)
            setup_parts = {"imports_s": imports, "setups_s": setups}
            metrics = end_to_end(samples, median(scaled_imports)
                                 + median(scaled_setups),
                                 include_children=args.workload
                                 == "fig8_quick")
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    units = END_TO_END if not args.trace else per_layer_units()
    env["loadavg_end"] = list(os.getloadavg())
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "cycles": len(samples), "environment": env,
              "setup_parts": setup_parts,
              "cycle_regen_s": [s.regen_wall_s for s in samples],
              "cycle_regen_cpu_s": [s.regen_cpu_s for s in samples],
              "cycle_replay_s": [s.replay_walls for s in samples],
              "probe_s": probe.times,
              "cycle_regen_probe_s": [s.regen_probe for s in samples],
              "cycle_replay_probe_s": [s.replay_probe for s in samples],
              "traffic": traffic(samples, checker), "metrics": metrics,
              "attempted": checker.attempted, "failed": checker.failed,
              "mismatches": checker.mismatches[:20]}
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "results.jsonl", "a") as out:
        out.write(json.dumps(record) + "\n")

    for line in checker.mismatches[:20]:
        print(f"MISMATCH {args.workload}: {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"cycles={len(samples)} load={env['loadavg_start'][0]:.2f}->"
          f"{env['loadavg_end'][0]:.2f}")
    for key, value in record["traffic"].items():
        print(f"#   traffic {key} = {value}")
    for name, unit in units.items():
        print(f"{args.workload:18s} {name:40s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.mismatches,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def traced_run(args, workload, checker, imports_s, values, tracing, probe):
    """The traced pass: untraced cycles for the overhead baseline, then
    cycles with every layer wrapped."""
    rec = tracing.Recorder()
    installation = tracing.install(rec)
    setup_walls = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload.setup(args.seed)
        setup_walls.append(time.perf_counter() - start)
    installation.uninstall()
    setup_total = sum(setup_walls)
    named = {"setup.catalog_s": rec.self_s.get("scenarios.catalog", 0.0),
             "setup.build_s": rec.self_s.get("memtrace.build", 0.0),
             "setup.hash_s": rec.self_s.get("memtrace.hash", 0.0)}
    setup_scope = {"setup.imports_s": imports_s}
    setup_scope.update({k: v / SETUPS for k, v in named.items()})
    setup_scope["setup.other_s"] = (setup_total - sum(named.values())) / SETUPS

    ipc_err_pct = 0.0
    if workload.name == "trace_pmp_sampled":
        full_ipc = (values or {}).get("full_ipc")
        if full_ipc is None:
            full_ipc = workload.full_ipc()

    start = time.perf_counter()
    base = measure(workload, checker, args.seconds / 3, 1, probe)
    remaining = max(0.0, args.seconds - (time.perf_counter() - start))
    rec.reset()
    installation = tracing.install(rec)
    try:
        traced = measure(workload, checker, remaining, 1, probe)
    finally:
        installation.uninstall()
    if workload.name == "trace_pmp_sampled" and traced:
        sampled_ipc = traced[0].results[0].ipc
        ipc_err_pct = 100.0 * abs(sampled_ipc - full_ipc) / full_ipc
    overhead = 100.0 * (ratio(
        median([at_reference(s.cycle_wall_s, s.regen_probe.wall_s)
                for s in traced]),
        median([at_reference(s.cycle_wall_s, s.regen_probe.wall_s)
                for s in base])) - 1.0)
    metrics = per_layer(rec, traced, setup_scope, overhead, ipc_err_pct,
                        checker)
    return metrics, base + traced


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{name}: exited {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="0 keeps the catalog seeds (pinned digests); "
                             "any other seed re-seeds every trace")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() \
            or not (ROOT / "scenarios").is_dir():
        print(f"no program to measure: {ROOT} lacks src/repro or "
              "scenarios/", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
