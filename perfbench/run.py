#!/usr/bin/env python3
"""The repository benchmark: host cost per simulated event.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/ (CMake, Release) into
.bench_build/perfbench on first use, runs one workload for S seconds of
timed passes, checks every output for correctness, prints a readable report
and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
untraced; with --trace 1 they are its per_layer list, from a run that also
times every SimBackend call (the Chrome trace of the first traced pass and
its self-time table land in .bench_build/perfbench-traces/).

Exits non-zero when a check fails, and without printing a result when the
library sources or the build are missing.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build once per checkout; later runs only re-check."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "backend.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "grasp_perfbench")


def load_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        doc = json.load(f)
    return bench, doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reduced", action="store_true",
                    help="small inputs (the self-test's size)")
    args = ap.parse_args()

    bench, doc = load_catalogue()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.reduced:
        cmd.append("--reduced")
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(os.path.dirname(build_dir()),
                                 "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.trace.json")
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark binary printed nothing (exit {proc.returncode})")
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark binary did not print a JSON result")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics, problems = {}, []
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} missing or not finite")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    checks = raw.get("checks", [])
    correct = (proc.returncode == 0 and raw["failed"] == 0 and not problems
               and all(c["ok"] for c in checks))

    info = {m["name"]: m for m in doc["metrics"]}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {raw['nproc']}  passes {raw['passes']}  "
          f"simulated completions per pass {raw['events']}")
    for m in wanted:
        if m["name"] not in metrics:
            continue
        meta = info.get(m["name"], {})
        print(f"  {m['name']:34s} {metrics[m['name']]['value']:>16.6g} "
              f"{m['unit']:8s} [{meta.get('tag', '?')}, "
              f"{meta.get('layer', '?')}]")
    print(f"  {'fail_ratio':34s} {raw['failed'] / raw['attempted']:>16.6g} "
          f"{'ratio':8s} [{raw['failed']} failed of {raw['attempted']} "
          f"operations and checks]")
    for key, value in raw.get("info", {}).items():
        print(f"  base {key} = {value:.6g}")
    for c in checks:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} "
              f"({c['detail']})")
    for p in problems:
        print(f"  problem: {p}")
    if trace_path:
        print(f"  trace: {os.path.relpath(trace_path, ROOT)} "
              f"(+ .selftime.txt)")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"] + len(problems),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
