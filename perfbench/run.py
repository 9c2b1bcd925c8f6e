#!/usr/bin/env python3
"""The parfaclo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `parfaclo` binary and the layer
harness (`perfbench/harness`) into $CARGO_TARGET_DIR (default
`.bench_build`), then:

* `--trace 0` runs the workload as `parfaclo run ... --seed <n>` processes,
  two at `--threads 2` for each one at `--threads 1`, for about `--seconds`
  seconds and at least two of each. Each process is timed from spawn to
  exit, its rusage is read, and its Run JSON is checked. The end-to-end
  metrics are medians over the processes.
* `--trace 1` runs the layer harness once on the workload (per-layer timings
  of calls into each crate, with spans written as Chrome trace-event JSON),
  then alternates traced (`--trace`) and untraced `--threads 2` processes
  until `--seconds` seconds are used, harness included;
  `trace.overhead_pct` compares their median solve times.

The metric names and units come from BENCHMARK.json. The last line of
standard output is one JSON object:
{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HARNESS_MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")

# `parfaclo run` arguments per workload; every run adds --backend spatial,
# --threads, --seed and --json. Why each was chosen is in BENCHMARK.json.
# The facility-location workload pins its instance (generator seed 1) and
# takes the benchmark seed as the solver seed only: greedy's solve time varies
# about 5x between generated 100k instances, with the certification path, so
# a seeded instance would swamp every other change.
WORKLOADS = {
    "fl-greedy-100k": ["greedy", "--gen", "large:seed=1"],
    "kmedian-coreset-10m": ["kmedian-ls", "--gen", "xxlarge", "--coreset", "eps:0.1"],
}
EXPECTED_N = {
    "fl-greedy-100k": 100_000,
    "kmedian-coreset-10m": 10_000_000,
}

# Run JSON fields that may differ between repeats and thread counts; the rest
# is the canonical Run and must be identical across every process of a run.
NON_CANONICAL = ("wall_ms", "threads", "backend", "memory_bytes", "phase_wall_ms", "trials")

# A run stops starting processes once this much of the 180 s limit is used
# after the build.
TIME_LIMIT_S = 150.0
OP_TIMEOUT_S = 120.0
# The end-to-end cycle of (threads, traced). Every timing but solve_1t_s is
# read from the 2-thread processes, so they get two processes of every three.
E2E_CYCLE = [(2, False), (1, False), (2, False)]
# Good processes per thread count, at least, behind each end-to-end timing.
E2E_MIN_EACH = 2
# Traced and untraced processes each, at least, behind trace.overhead_pct.
OVERHEAD_PAIRS = 2


class BenchError(Exception):
    """Set-up failure: no result is printed and the exit code is 2."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds `parfaclo` and the layer harness; returns their paths and the
    run output directory."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        raise BenchError("no parfaclo workspace in the current directory")
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "parfaclo-bench", "--bin", "parfaclo"],
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", HARNESS_MANIFEST],
    ):
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"{' '.join(cmd)}: {e}")
        if done.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} exited {done.returncode}")
    out = os.path.join(target, "perfbench")
    os.makedirs(out, exist_ok=True)
    release = os.path.join(target, "release")
    return os.path.join(release, "parfaclo"), os.path.join(release, "perfbench-harness"), out


def spawn(argv, stdout_path, stderr_path, timeout=OP_TIMEOUT_S):
    """Runs argv through perfbench/launch.py; returns (exit code, wall s, cpu s, peak RSS MB)."""
    launcher = [sys.executable, LAUNCHER, str(timeout), stdout_path, stderr_path, *argv]
    try:
        done = subprocess.run(launcher, stdout=subprocess.PIPE, timeout=timeout + 30, check=True)
        r = json.loads(done.stdout)
    except (subprocess.SubprocessError, ValueError) as e:
        with open(stderr_path, "a") as f:
            f.write(f"launcher failed: {e}\n")
        return -1, 0.0, 0.0, 0.0
    return r["code"], r["wall_s"], r["cpu_s"], r["peak_rss_mb"]


def canonical(run):
    return {k: v for k, v in run.items() if k not in NON_CANONICAL}


def check_run(run, workload, reference=None):
    """Problems with one Run record; an empty list means it passed.

    `reference` is the canonical Run of the run's first process: every later
    repeat, at either thread count, must match it exactly.
    """
    problems = []
    if not isinstance(run, dict):
        return ["Run JSON is not an object"]
    solver = WORKLOADS[workload][0]
    if run.get("solver") != solver:
        problems.append(f"solver is {run.get('solver')!r}, expected {solver!r}")
    if run.get("n") != EXPECTED_N[workload]:
        problems.append(f"n is {run.get('n')}, expected {EXPECTED_N[workload]}")
    cost, bound, guarantee = run.get("cost"), run.get("lower_bound"), run.get("guarantee")
    if not all(isinstance(x, (int, float)) for x in (cost, bound, guarantee)):
        return problems + ["cost, lower_bound or guarantee is missing"]
    if not math.isfinite(cost) or cost < bound:
        problems.append(f"cost {cost} is below the lower bound {bound}")
    if bound > 0 and cost / bound > guarantee:
        problems.append(f"certified ratio {cost / bound} exceeds the guarantee {guarantee}")
    stray = set(run.get("assignment") or []) - set(run.get("selected") or [])
    if stray:
        problems.append(f"assignment names unselected facilities or centers, e.g. {sorted(stray)[:3]}")
    if reference is not None:
        mine = canonical(run)
        differing = sorted(k for k in set(mine) | set(reference) if mine.get(k) != reference.get(k))
        if differing:
            problems.append(f"canonical Run differs from the first process in {differing}")
    return problems


def run_op(binary, workload, seed, threads, out_dir, reference, trace_path=None):
    """One `parfaclo run` process: returns (record, canonical Run, problems);
    the first two are None when the process produced no Run."""
    json_path = os.path.join(out_dir, f"run-{workload}.json")
    if os.path.exists(json_path):
        os.remove(json_path)
    argv = [binary, "run", *WORKLOADS[workload], "--backend", "spatial", "--threads", str(threads),
            "--seed", str(seed), "--json", json_path, "--quiet"]
    if trace_path:
        argv += ["--trace", trace_path, "--force"]
    err_path = os.path.join(out_dir, "stderr.txt")
    code, wall, cpu, rss = spawn(argv, os.devnull, err_path)
    if code != 0:
        with open(err_path, errors="replace") as f:
            return None, None, [f"exit {code}: {f.read()[-300:].strip()}"]
    try:
        with open(json_path) as f:
            runs = json.load(f)
    except (OSError, ValueError) as e:
        return None, None, [f"Run JSON does not parse: {e}"]
    if not isinstance(runs, list) or len(runs) != 1:
        return None, None, ["expected exactly one Run record"]
    run = runs[0]
    problems = check_run(run, workload, reference)
    solve = run.get("wall_ms", 0) / 1000.0
    record = {
        "threads": threads,
        "wall_s": wall,
        "solve_s": solve,
        "setup_s": wall - solve,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "cost": run.get("cost"),
        "lower_bound": run.get("lower_bound"),
        "n": run.get("n"),
    }
    return record, canonical(run), problems


def e2e_metrics(ops, attempted, failed):
    """End-to-end metric values from the successful process records."""
    two = [o for o in ops if o["threads"] == 2]
    one = [o for o in ops if o["threads"] == 1]
    med = lambda rows, key: statistics.median(r[key] for r in rows) if rows else 0.0
    # Every process of a run solves the same input, and the canonical check
    # holds cost and bound equal across them.
    first = ops[0] if ops else {"cost": 0.0, "lower_bound": 0.0, "n": 1}
    ratio = first["cost"] / first["lower_bound"] if first["lower_bound"] > 0 else 1.0
    return {
        "wall_s": med(two, "wall_s"),
        "solve_s": med(two, "solve_s"),
        "solve_1t_s": med(one, "solve_s"),
        "setup_s": med(two, "setup_s"),
        "cpu_s": med(two, "cpu_s"),
        "peak_rss_mb": med(two, "peak_rss_mb"),
        "certified_ratio": ratio,
        "cost_per_point": first["cost"] / first["n"],
        "ok_rate": (attempted - failed) / attempted if attempted else 0.0,
    }


def alternate(binary, out_dir, workload, seed, variants, deadline, started, min_each):
    """Starts `parfaclo run` processes, cycling through `variants` (pairs of
    thread count and traced or not), until the `deadline` (a perf_counter
    reading) and every variant has `min_each` good processes. Returns
    (records per variant, attempted, failed, problems)."""
    records = {v: [] for v in variants}
    problems, durations = [], []
    attempted = failed = 0
    reference = None
    trace_path = os.path.join(out_dir, f"program-{workload}.trace.json")
    while True:
        threads, traced = variants[attempted % len(variants)]
        enough = all(len(r) >= min_each for r in records.values())
        estimate = statistics.median(durations) if durations else 0.0
        now = time.perf_counter()
        if (enough or attempted >= 3 * len(variants) * min_each) and now + estimate > deadline:
            break
        if now - started + estimate > TIME_LIMIT_S:
            break
        t0 = time.perf_counter()
        record, canon, issues = run_op(binary, workload, seed, threads, out_dir, reference,
                                       trace_path if traced else None)
        durations.append(time.perf_counter() - t0)
        attempted += 1
        if reference is None and not issues:
            reference = canon
        del canon
        if issues:
            failed += 1
            label = f"{threads} threads{', traced' if traced else ''}"
            problems += [f"op {attempted} ({label}): {p}" for p in issues]
        else:
            records[(threads, traced)].append(record)
            print(f"  {threads}t{' traced' if traced else ''}  wall {record['wall_s']:.3f} s  "
                  f"solve {record['solve_s']:.3f} s  cpu {record['cpu_s']:.2f} s  "
                  f"rss {record['peak_rss_mb']:.0f} MB")
    return records, attempted, failed, problems


def measure_e2e(binary, out_dir, workload, seed, seconds, started):
    """Cycles through E2E_CYCLE for `seconds`, at least E2E_MIN_EACH
    processes at each thread count."""
    records, attempted, failed, problems = alternate(
        binary, out_dir, workload, seed, E2E_CYCLE, started + seconds, started, E2E_MIN_EACH)
    ops = records[(2, False)] + records[(1, False)]
    return e2e_metrics(ops, attempted, failed), attempted, failed, problems


def measure_layers(binary, harness, out_dir, workload, seed, seconds, started):
    """One layer harness pass, then traced and untraced 2-thread processes
    alternating until `seconds` are used, the harness's included (at least
    OVERHEAD_PAIRS of each)."""
    trace_out = os.path.join(out_dir, f"layers-{workload}-{seed}.trace.json")
    stdout_path = os.path.join(out_dir, "harness.out")
    err_path = os.path.join(out_dir, "harness.err")
    code, wall, _, _ = spawn([harness, "--workload", workload, "--seed", str(seed), "--trace-out", trace_out],
                             stdout_path, err_path)
    metrics = {}
    try:
        with open(stdout_path) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        metrics = result["metrics"]
        issues = result["failures"]
        if code != 0:
            issues.append(f"harness exited {code}")
    except (OSError, ValueError, IndexError, KeyError) as e:
        issues = [f"harness exited {code} without a result: {e}"]
        result = {}
    problems = [f"harness: {p}" for p in issues]
    print(f"layer harness: {wall:.1f} s, {result.get('checks', 0)} checks, {len(issues)} failed, "
          f"{result.get('ops', 0)} ops; spans in {os.path.relpath(trace_out, ROOT)}")
    self_time = result.get("self_time_s", {})
    for name, secs in sorted(self_time.items(), key=lambda kv: -kv[1]):
        print(f"  self {name:<56} {secs:9.4f} s")

    records, attempted, failed, more = alternate(
        binary, out_dir, workload, seed, [(2, False), (2, True)], started + seconds, started,
        OVERHEAD_PAIRS)
    problems += more
    attempted += 1
    failed += 1 if issues else 0
    plain, traced = records[(2, False)], records[(2, True)]
    if plain and traced:
        solve = lambda rows: statistics.median(r["solve_s"] for r in rows)
        metrics["trace.overhead_pct"] = 100.0 * (solve(traced) / solve(plain) - 1.0)
        if "metric.build_s" in metrics:
            setup = statistics.median(r["setup_s"] for r in plain)
            metrics["metric.build_share"] = metrics["metric.build_s"] / setup
    return metrics, attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        binary, harness, out_dir = build()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    started = time.perf_counter()

    if args.trace:
        wanted = spec["per_layer"]
        values, attempted, failed, problems = measure_layers(
            binary, harness, out_dir, args.workload, args.seed, args.seconds, started)
    else:
        wanted = spec["end_to_end"]
        values, attempted, failed, problems = measure_e2e(
            binary, out_dir, args.workload, args.seed, args.seconds, started)
    missing = [m["name"] for m in wanted if not isinstance(values.get(m["name"]), (int, float))]
    problems += [f"metric {name} was not measured" for name in missing]
    for p in problems:
        print(f"FAILED {p}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload} {m['name']:<36} {value:.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
