#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the self-test's small size, once
untraced and once traced, through perfbench/run.py, and fails unless each
run exits 0, prints exactly the metrics BENCHMARK.json names for its mode
(finite, with their units), reports correct with no failed operation, and
passes every correctness gate.  It also checks that perfbench/metrics.json
documents the same metrics and only refers to metrics and workloads that
exist.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_catalogue(bench, doc, errors):
    workloads = {w["name"] for w in bench["workloads"]}
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    documented = {m["name"]: m for m in doc["metrics"]}
    if set(declared) != set(documented):
        errors.append("BENCHMARK.json and metrics.json name different metrics: "
                      f"{sorted(set(declared) ^ set(documented))}")
    if set(doc["workloads"]) != workloads:
        errors.append("metrics.json documents other workloads")
    for m in doc["metrics"]:
        if m.get("tag") not in ("host", "sim", "count"):
            errors.append(f"{m['name']}: tag must be host, sim or count")
        for move in m.get("moves", []):
            if move["metric"] not in declared or \
                    move["workload"] not in workloads:
                errors.append(f"{m['name']}: moves an unknown {move}")
        for w in m.get("unchanged_on", []):
            if w not in workloads:
                errors.append(f"{m['name']}: unchanged_on unknown {w}")
    for m in bench["end_to_end"]:
        if documented.get(m["name"], {}).get("layer") != "end_to_end":
            errors.append(f"{m['name']}: documented outside end_to_end")


def run_one(workload, trace, bench, errors):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--reduced"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    tag = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        errors.append(f"{tag}: exit {proc.returncode}")
        sys.stdout.write(proc.stdout)
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        errors.append(f"{tag}: not correct ({result['failed']} failed of "
                      f"{result['attempted']})")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        errors.append(f"{tag}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or \
                not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            errors.append(f"{tag}: bad {m['name']}: {got}")
        elif not trace and value <= 0:
            errors.append(f"{tag}: end-to-end {m['name']} is {value}")
    report = "\n".join(lines[:-1])
    for needed in ("fail_ratio", "check "):
        if needed not in report:
            errors.append(f"{tag}: report lacks {needed!r}")
    if "FAILED" in report:
        errors.append(f"{tag}: a check failed")
    print(f"ok  {tag}: {len(result['metrics'])} metrics, "
          f"{result['attempted']} operations and checks")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        doc = json.load(f)
    errors = []
    check_catalogue(bench, doc, errors)
    for w in bench["workloads"]:
        for trace in (0, 1):
            run_one(w["name"], trace, bench, errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("FAILED" if errors else "passed"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
