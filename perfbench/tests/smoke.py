#!/usr/bin/env python3
"""Small-scale smoke of the benchmark.

    python3 perfbench/tests/smoke.py

Runs every workload of BENCHMARK.json on test-scale graphs for one second,
untraced and traced, and checks that the result line carries every
end-to-end (untraced) or per-layer (traced) metric by name with its unit,
that the record line carries the workload's catalog figures, the host and
build identity and the request counts, and that a run with one corrupted
answer is reported as failed. Run from the repository root; exits 1 on the
first problem.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Catalog figures each workload must put in its record (README.md).
CATALOG = {
    "batch_full": {"batch_s": "s", "reference_ms": "ms"},
    "churn_update": {"update_to_query_ms": "ms", "reference_ms": "ms",
                     "query_p50_us": "us", "query_p99_us": "us"},
    "serve_read": {"query_p50_us": "us", "echo_p50_us": "us",
                   "query_p99_us": "us", "query_max_qps": "req/s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MiB", "error_rate": "ratio"}
MANIFEST_KEYS = ("cpu_model", "cpu_logical_cores", "hostname", "build_type", "git_sha")


def run(spec, workload, trace, *extra):
    cmd = spec["command"] + ["--workload", workload, "--seed", "5", "--seconds", "1",
                             "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().split("\n")
    record = next(json.loads(l[len("record "):]) for l in lines if l.startswith("record "))
    return json.loads(lines[-1]), record


def check_metrics(got, expected, where):
    names = [m["name"] for m in expected]
    if sorted(got) != sorted(names):
        raise AssertionError(f"{where}: metrics {sorted(got)} != {sorted(names)}")
    for m in expected:
        if got[m["name"]]["unit"] != m["unit"]:
            raise AssertionError(f"{where}: {m['name']} unit {got[m['name']]['unit']}")
        if not isinstance(got[m["name"]]["value"], (int, float)):
            raise AssertionError(f"{where}: {m['name']} is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} trace {trace}"
            result, record = run(spec, workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise AssertionError(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                raise AssertionError(f"{where}: not a clean run: {result}")
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            check_metrics(result["metrics"], expected, where)
            if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
                raise AssertionError(f"{where}: an end-to-end metric is not positive")
            for name, unit in {**COMMON, **CATALOG[workload]}.items():
                if record["metrics"].get(name, {}).get("unit") != unit:
                    raise AssertionError(f"{where}: record lacks {name} [{unit}]")
            for key in MANIFEST_KEYS:
                if key not in record["manifest"]:
                    raise AssertionError(f"{where}: record manifest lacks {key}")
            if set(record["requests"]) != {"sent", "succeeded", "failed"}:
                raise AssertionError(f"{where}: record lacks request counts")
            print(f"ok   {where}")
        result, _ = run(spec, workload, 0, "--inject-fault")
        if result["correct"] or result["failed"] < 1:
            raise AssertionError(f"{workload}: a corrupted answer went unnoticed: {result}")
        print(f"ok   {workload} fault injection counted as failed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print(f"FAIL {err}")
        sys.exit(1)
