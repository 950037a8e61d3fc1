#!/usr/bin/env python3
"""STCO benchmark: builds the workload binary from source and runs each
workload in its own process.

    python3 stcobench/run.py                          # every workload, default seed
    python3 stcobench/run.py --workload trad_s386 --seed 7 --seconds 10
    python3 stcobench/run.py --workload device_tcad --trace 1   # per-layer metrics
    python3 stcobench/run.py --workload fast_darkriscv --repeat 10  # steadiness

Run it from the repository root. The binary is built in Release into
$CARGO_TARGET_DIR (default .bench_build). Each child process runs with
STCO_CACHE_DIR, STCO_TRACE and STCO_TELEMETRY unset, so no cost cache, trace
file or telemetry thread changes a run. Every workload measures on one
thread.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The exit code is non-zero when an output
check fails or a workload cannot run. See stcobench/NOTES.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ["trad_s386", "fast_darkriscv", "device_tcad"]
DEFAULT_SEED = 1
DEFAULT_SECONDS = 10
CHILD_TIMEOUT_S = 170
CLEARED_ENV = ("STCO_CACHE_DIR", "STCO_TRACE", "STCO_TELEMETRY",
               "STCO_TELEMETRY_INTERVAL_MS")

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("iter_s_p50", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics, each with the end-to-end metric it should move (see
# NOTES.md). A layer the workload does not run reads 0.
PER_LAYER = [
    ("stco.search_self_s", "s"),
    ("stco.calibrate_s", "s"),
    ("flow.build_library_s_p50", "s"),
    ("flow.sta_s_p50", "s"),
    ("flow.make_benchmark_s", "s"),
    ("cells.characterize_cell_s_total", "s"),
    ("cells.characterize_cell_s_max", "s"),
    ("cells.dropped_arcs", "count"),
    ("spice.transient.runs", "count"),
    ("spice.transient.retries", "count"),
    ("spice.dc.iterations", "count"),
    ("spice.lu.reuse_ratio", "ratio"),
    ("solver.retries", "count"),
    ("solver.failures", "count"),
    ("charlib.dataset_s", "s"),
    ("charlib.train_s", "s"),
    ("gnn.epochs", "count"),
    ("gnn.infer.graphs", "count"),
    ("gnn.infer.batches", "count"),
    ("gnn.infer.arena_high_water_bytes", "bytes"),
    ("surrogate.population_s", "s"),
    ("surrogate.population.dropped", "count"),
    ("tcad.poisson.iterations_per_solve", "count"),
    ("solver.linear.solves", "count"),
    ("solver.linear.ilu_refactors", "count"),
    ("solver.linear.dense_fallback", "count"),
    ("tcad.sweep_s_p50", "s"),
    ("tcad.transport.iterations_per_solve", "count"),
    ("tcad.invalid_points", "count"),
    ("compact.extract_s_p50", "s"),
    ("compact.lm_iterations_p50", "count"),
    ("compact.converged_ratio", "ratio"),
    ("exec.tasks_run", "count"),
    ("exec.parallel_regions", "count"),
    ("exec.cpu_per_wall", "ratio"),
    ("exec.idle_s", "s"),
    ("trace.overhead", "ratio"),
]


class BenchError(Exception):
    """A workload could not be built or run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build

def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build_binary():
    """Configure (once) and build the workload binary; returns its path. A lock file
    serialises concurrent runners on one build directory."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    binary = bdir / "stcobench_workloads"
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(bdir), "--target",
                      "stcobench_workloads", "-j", jobs])
        for cmd in steps:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                if cmd[1] == "-S":  # configure again next time
                    (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError("build failed: " + " ".join(cmd) + "\n" +
                                 p.stdout[-4000:] + p.stderr[-4000:])
    if not binary.exists():
        raise BenchError(f"build produced no {binary}")
    return binary


# --------------------------------------------------------------------------
# Child processes

def run_child(binary, workload, seed, seconds, trace):
    """Run one workload in its own process; returns its result document
    (with the recorded spans under "spans" when traced)."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    if p.returncode != 0:
        raise BenchError(f"{workload} exited {p.returncode}: {p.stderr.strip()}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: no output")
    return json.loads(lines[-1])


# --------------------------------------------------------------------------
# Metrics

def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(raw):
    """{name: (value, unit, sample count)} for every end-to-end metric."""
    return {
        "setup_s": (median(raw["setup_s"]), "s", len(raw["setup_s"])),
        "run_s": (median(raw["run_s"]), "s", len(raw["run_s"])),
        "iter_s_p50": (median(raw["iter_s"]), "s", len(raw["iter_s"])),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", 1),
    }


def per_layer(raw, untraced):
    """{name: (value, unit, sample count)} for every per-layer metric. The
    obs documents are Snapshot::delta_since results, which leave out what
    did not change."""
    layer = raw["layer"]
    samples = raw["samples"]
    spans = raw["spans"]
    setups = max(1, len(raw["setup_s"]))
    setup_c = raw["obs"]["setup"]["counters"]
    setup_h = raw["obs"]["setup"]["histograms"]
    run_c = raw["obs"]["run"]["counters"]
    run_h = raw["obs"]["run"]["histograms"]
    libraries = run_c.get("stco.evaluations", 0)

    def med(name):
        return median(samples.get(name, [])), len(samples.get(name, []))

    def hist(h, name):
        return h.get(name, {"count": 0, "sum": 0.0})

    def per_solve(h, name):
        return benchstats.ratio(hist(h, name)["sum"], hist(h, name)["count"])

    search_self = [st for (name, _, _, _), st in
                   zip(spans, benchstats.self_times(spans))
                   if name == "stco.search"]
    reuses = run_c.get("spice.lu.reuses", 0)
    factors = run_c.get("spice.lu.factors", 0)
    traced_run = median(raw["run_s"])
    untraced_run = median(untraced["run_s"])

    v = {
        "stco.search_self_s": (median(search_self), len(search_self)),
        "stco.calibrate_s": med("stco.calibrate_s"),
        "flow.build_library_s_p50": med("flow.build_library_s"),
        "flow.sta_s_p50": med("flow.sta_s"),
        "flow.make_benchmark_s": med("flow.make_benchmark_s"),
        "cells.characterize_cell_s_total":
            (layer.get("cells.characterize_cell_s_total", 0.0), 1),
        "cells.characterize_cell_s_max":
            (layer.get("cells.characterize_cell_s_max", 0.0), 1),
        "cells.dropped_arcs": (layer.get("cells.dropped_arcs", 0), 1),
        "spice.transient.runs": (run_c.get("spice.transient.runs", 0), 1),
        "spice.transient.retries": (hist(run_h, "spice.transient.retries")["sum"], 1),
        "spice.dc.iterations": (hist(run_h, "spice.dc.iterations")["sum"], 1),
        "spice.lu.reuse_ratio": (benchstats.ratio(reuses, reuses + factors), 1),
        "solver.retries": (layer.get("solver.retries", 0), 1),
        "solver.failures": (layer.get("solver.failures", 0), 1),
        "charlib.dataset_s": med("charlib.dataset_s"),
        "charlib.train_s": med("charlib.train_s"),
        "gnn.epochs": (setup_c.get("gnn.epochs", 0) / setups, setups),
        "gnn.infer.graphs":
            (benchstats.ratio(run_c.get("gnn.infer.graphs", 0), libraries), libraries),
        "gnn.infer.batches":
            (benchstats.ratio(run_c.get("gnn.infer.batches", 0), libraries), libraries),
        "gnn.infer.arena_high_water_bytes":
            (layer.get("gnn.infer.arena_high_water_bytes", 0.0), 1),
        "surrogate.population_s": med("surrogate.population_s"),
        "surrogate.population.dropped":
            (layer.get("surrogate.population.dropped", 0), 1),
        "tcad.poisson.iterations_per_solve":
            (per_solve(setup_h, "tcad.poisson.iterations"),
             hist(setup_h, "tcad.poisson.iterations")["count"]),
        "solver.linear.solves": (setup_c.get("solver.linear.solves", 0) / setups, setups),
        "solver.linear.ilu_refactors":
            (setup_c.get("solver.linear.ilu_refactors", 0) / setups, setups),
        "solver.linear.dense_fallback":
            (setup_c.get("solver.linear.dense_fallback", 0) / setups, setups),
        "tcad.sweep_s_p50": med("tcad.sweep_s"),
        "tcad.transport.iterations_per_solve":
            (per_solve(run_h, "tcad.transport.iterations"),
             hist(run_h, "tcad.transport.iterations")["count"]),
        "tcad.invalid_points": (layer.get("tcad.invalid_points", 0), 1),
        "compact.extract_s_p50": med("compact.extract_s"),
        "compact.lm_iterations_p50": med("compact.lm_iterations"),
        "compact.converged_ratio": (layer.get("compact.converged_ratio", 0.0), 1),
        "exec.tasks_run": (layer.get("exec.tasks_run", 0), 1),
        "exec.parallel_regions": (layer.get("exec.parallel_regions", 0), 1),
        "exec.cpu_per_wall": (layer.get("exec.cpu_per_wall", 0.0), 1),
        "exec.idle_s": (layer.get("exec.idle_s", 0.0), 1),
        "trace.overhead": (benchstats.ratio(traced_run, untraced_run) - 1.0, 2),
    }
    units = dict(PER_LAYER)
    assert set(v) == set(units), "per-layer metric table and values disagree"
    return {name: (v[name][0], units[name], v[name][1]) for name, _ in PER_LAYER}


# --------------------------------------------------------------------------
# Output checks

def recorded_decisions():
    return json.loads((HERE / "expected.json").read_text())


def close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def decision_checks(workload, seed, raw, table):
    """Compare the decision with the recorded one for this seed, if any."""
    want = table.get(workload, {}).get(str(seed))
    if want is None:
        return {}
    got = raw["decision"]
    ok = all(k in got and close(got[k], v) for k, v in want.items())
    return {"matches_recorded_decision": ok}


def counts_consistent(raw):
    """Failures are counted in the unit of the attempts, so 0 <= failed <=
    attempted and at least one operation was attempted."""
    return raw["attempted"] >= 1 and 0 <= raw["failed"] <= raw["attempted"]


def check_result(workload, seed, raw, table):
    checks = dict(raw["checks"])
    checks.update(decision_checks(workload, seed, raw, table))
    checks["failure_counts_consistent"] = counts_consistent(raw)
    return checks


# --------------------------------------------------------------------------
# Modes

def fmt(value, unit):
    if unit in ("count", "bytes") and float(value).is_integer():
        return f"{int(value)} {unit}"
    return f"{value:.6g} {unit}"


def print_metrics(workload, metrics, raw=None):
    print(f"== {workload}")
    for name, (value, unit, n) in metrics.items():
        line = f"  {name:<38} {fmt(value, unit):>22}   n={n}"
        if name == "iter_s_p50" and raw and raw["iter_s"]:
            s = benchstats.summary(raw["iter_s"])
            beyond = benchstats.samples_beyond(len(raw["iter_s"]), 90)
            line += f"   (p90 {s['p90']:.6g} s, {beyond} samples beyond it)"
        print(line)


def print_counts(raw):
    line = f"  attempted {raw['attempted']}, failed {raw['failed']}"
    if counts_consistent(raw):
        line += f" (share {benchstats.failure_share(raw['attempted'], raw['failed']):.3g})"
    print(line)


def print_self_times(spans):
    print("  self time by span (traced run):")
    totals = benchstats.self_time_by_name(spans)
    for name, (total, count) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        print(f"    {name:<28} {total:10.4f} s  over {count} spans")


def one_run(binary, workload, seed, seconds, trace, table):
    """Run one workload once; returns (metrics, checks, raw)."""
    if trace:
        # The untraced reference for the tracing overhead runs right before
        # the traced run, so both see the machine in the same state.
        untraced = run_child(binary, workload, seed, seconds, trace=False)
        raw = run_child(binary, workload, seed, seconds, trace=True)
        metrics = per_layer(raw, untraced)
    else:
        raw = run_child(binary, workload, seed, seconds, trace=False)
        metrics = end_to_end(raw)
    checks = check_result(workload, seed, raw, table)
    print_metrics(workload, metrics, raw)
    print_counts(raw)
    if trace:
        print_self_times(raw["spans"])
    bad = [k for k, ok in checks.items() if not ok]
    print("  checks: " + ("all passed" if not bad else "FAILED " + ", ".join(bad)))
    for note in raw["notes"]:
        print("    " + note)
    return metrics, checks, raw


def contract_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    })


def single(binary, args, table):
    metrics, checks, raw = one_run(binary, args.workload, args.seed,
                                   args.seconds, args.trace, table)
    correct = all(checks.values())
    print(contract_line(correct, raw["attempted"], raw["failed"], metrics))
    return 0 if correct else 1


def every_workload(binary, args, table):
    """Each workload once with the same seed."""
    all_metrics, attempted, failed, correct = {}, 0, 0, True
    for w in WORKLOADS:
        metrics, checks, raw = one_run(binary, w, args.seed, args.seconds,
                                       args.trace, table)
        correct &= all(checks.values())
        attempted += raw["attempted"]
        failed += raw["failed"]
        all_metrics.update({f"{w}/{k}": v for k, v in metrics.items()})
    print(contract_line(correct, attempted, failed, all_metrics))
    return 0 if correct else 1


def repeat(binary, args, table):
    """Run each selected workload N times with seeds seed..seed+N-1 and print
    each end-to-end metric's median and quartile spread."""
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    report, correct = {}, True
    for w in workloads:
        values = {name: [] for name, _ in END_TO_END}
        for i in range(args.repeat):
            seed = args.seed + i
            raw = run_child(binary, w, seed, args.seconds, trace=False)
            ok = all(check_result(w, seed, raw, table).values())
            correct &= ok
            m = end_to_end(raw)
            for name in values:
                values[name].append(m[name][0])
            log(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m[k][0]:.5g}" for k in values) + ("" if ok else " CHECK FAILED"))
        print(f"== {w}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        report[w] = {}
        for name, unit in END_TO_END:
            med, q1, q3, spread = benchstats.quartile_spread(values[name])
            report[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "values": values[name]}
            print(f"  {name:<12} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {100 * spread:.2f}%")
    print(json.dumps({"repeat": args.repeat, "correct": correct, "workloads": report}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness mode: N runs per workload, seeds seed..seed+N-1")
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0 or args.repeat < 0 or args.repeat == 1:
        ap.error("--seconds must be >= 1, --seed >= 0, --repeat 0 or >= 2")
    started = time.monotonic()
    try:
        binary = build_binary()
        table = recorded_decisions()
        if args.repeat:
            code = repeat(binary, args, table)
        elif args.workload == "all":
            code = every_workload(binary, args, table)
        else:
            code = single(binary, args, table)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"stcobench: {e}")
        return 1
    log(f"stcobench: done in {time.monotonic() - started:.1f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
