#!/usr/bin/env python3
"""Smoke test of the repo benchmark: every workload at a tiny size
(--smoke, one second), untraced and traced.

Checks that each run exits 0, ends with the result line, passes its own
verification, and prints exactly the metrics BENCHMARK.json names for
its mode, each with the declared unit. Run from anywhere:

    python3 e2e_bench/smoke_test.py
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(bench, workload, trace):
    declared = bench["per_layer" if trace else "end_to_end"]
    cmd = bench["command"] + ["--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", str(trace),
                              "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    problems = []
    if out.returncode != 0:
        return [f"exit code {out.returncode}: {out.stderr[-1000:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"verification failed: {out.stderr[-1000:]}")
    if not result.get("attempted", 0) >= 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')} != {m['unit']}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed = False
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            problems = check(bench, workload, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            for p in problems:
                print(f"  {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
