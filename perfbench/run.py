#!/usr/bin/env python3
"""perfbench: the repository benchmark, one command for every workload.

Run from the repository root:

  python3 perfbench/run.py --workload kv-hot --seed 1 --seconds 12 --trace 0
  python3 perfbench/run.py selftest
  python3 perfbench/run.py compare RESULTS_A RESULTS_B

A run builds the benchmark (a CMake package in this directory that pulls
the library in from the parent directory) into .bench_build/, runs one
workload, prints a human-readable report, and ends with one JSON line:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the run also writes its
sampled spans next to its result. Every result (with the environment
fingerprint) is kept under .bench_build/runs/. The exit code is 0 when
every correctness check held, 1 when one failed, 2 when the benchmark
could not build or run.

`compare` reads the results under two directories (for example two copies
of .bench_build/runs/ from two commits), refuses to compare results whose
environment fingerprints differ, and prints per-workload medians with the
relative change against each end-to-end metric's bound.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "serve", "serve_session.hpp")):
        fail("library sources not found next to " + HERE)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def run(args):
    spec = load_spec()
    binary = build("perfbench")
    out_dir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode == 2 or not os.path.exists(result_path):
        fail(f"benchmark binary exited with {proc.returncode}")
    with open(result_path) as f:
        result = json.load(f)

    metrics = result["metrics"]
    if spec is not None:
        wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        missing = [n for n in wanted if n not in metrics]
        extra = [n for n in metrics if n not in wanted]
        if missing or extra:
            fail(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
        metrics = {n: metrics[n] for n in wanted}
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"metric {name} is not a finite number")
    if not args.trace and "send_lag_p99_us" not in result["info"]:
        print("  send_lag_p99_us: n/a (this workload sends on no schedule)")
    if not args.trace and "cc_edges_per_s" not in result["info"]:
        print("  cc_edges_per_s: n/a (this workload solves no graph)")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


def selftest():
    binary = build("perfbench_selftest")
    sys.exit(subprocess.run([binary]).returncode)


def load_results(directory):
    """Maps (workload, trace) to the list of results found under `directory`."""
    found = {}
    for dirpath, _, files in os.walk(directory):
        if "result.json" in files:
            with open(os.path.join(dirpath, "result.json")) as f:
                r = json.load(f)
            found.setdefault((r["workload"], bool(r["trace"])), []).append(r)
    return found


def compare(args):
    spec = load_spec() or {"end_to_end": []}
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load_results(args.base), load_results(args.head)
    status = 0
    for key in sorted(set(a) & set(b)):
        workload, traced = key
        fa = {json.dumps(r["fingerprint"], sort_keys=True) for r in a[key] + b[key]}
        if len(fa) != 1:
            print(f"{workload}: refusing to compare results from different environments:")
            for fp in sorted(fa):
                print("  " + fp)
            status = 2
            continue
        print(f"{workload}{' (traced)' if traced else ''}: {len(a[key])} base runs, "
              f"{len(b[key])} head runs")
        for name in a[key][0]["metrics"]:
            va = [r["metrics"][name]["value"] for r in a[key] if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b[key] if name in r["metrics"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else float("nan")
            line = f"  {name:34s} {ma:14.6g} -> {mb:14.6g} ({change:+.1%})"
            m = bounds.get(name)
            if m is not None and not traced:
                worse = -change if m["better"] == "higher" else change
                if worse > m["bound"]:
                    line += f"  WORSE than bound {m['bound']:.0%}"
                    status = max(status, 1)
            print(line)
    sys.exit(status)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("action", nargs="?", default="run", choices=["run", "selftest", "compare"])
    p.add_argument("dirs", nargs="*", help="compare: the base and head result directories")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.action == "selftest":
        selftest()
    elif args.action == "compare":
        if len(args.dirs) != 2:
            p.error("compare needs two result directories")
        args.base, args.head = args.dirs
        compare(args)
    else:
        if not args.workload:
            p.error("--workload is required")
        run(args)


if __name__ == "__main__":
    main()
