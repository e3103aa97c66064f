#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and spread (interquartile range over the median, with
statistics.quantiles(values, n=4)) beside its bound from BENCHMARK.json.

Usage (from the repository root):

    python3 e2e_bench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs are sequential; a run that fails or reports correct=false is
printed and counted as a failure (exit code 1).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failures = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                failures += 1
                tail = "\n".join(out.stderr.strip().splitlines()[-5:])
                print(f"{workload} seed {seed}: FAILED\n{tail}")
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({args.runs} runs)")
        for name, vals in values.items():
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {name:18s} median {med:14.6g}  spread {spread:6.3f}"
                  f"  (bound {bounds[name]}, {spread / bounds[name]:.2f} of it)"
                  f"  [{' '.join(f'{v:.4g}' for v in vals)}]")
        sys.stdout.flush()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
