#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as used to set the bounds.

    python3 perfbench/spread.py --runs 10

Runs perfbench/run.py once per seed (1..runs) on each workload of
BENCHMARK.json and prints, per metric, the median, the quartiles and the
interquartile distance as a share of the median, next to the bound
BENCHMARK.json fixes for it. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {result}")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds),
                flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {workload:13s} {name:12s} median {med:.6g} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {spread:.2%} (bound {bounds[name]:.0%})",
                  flush=True)
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
