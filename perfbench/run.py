#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload batch_full --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/ (CMake,
Release, the library plus the `kcc` daemon and the workload runner); build
output goes to stderr so that the last line of stdout stays the result
object. Exits non-zero without a result when the build or the run fails.
See perfbench/README.md for the workloads and the metric catalog.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("batch_full", "churn_update", "serve_read")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="test-scale graphs (for perfbench/tests/smoke.py)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one checked answer; the run must count it")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "cmake")
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    # Relative paths keep the unix socket path short whatever the checkout's.
    work_dir = os.path.join(".bench_build", "work", args.workload)
    command = [os.path.join(build_dir, "kcc_perfbench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--kcc={os.path.join(build_dir, 'kcc')}", f"--work-dir={work_dir}"]
    if args.smoke:
        command.append("--smoke")
    if args.inject_fault:
        command.append("--inject-fault")

    # Its own session, so a timeout can stop it and the daemon it started.
    proc = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: the run timed out", file=sys.stderr)
        return 3
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(out, file=sys.stderr)
        print("perfbench: the runner printed no result", file=sys.stderr)
        return 4
    if not isinstance(result, dict) or "metrics" not in result:
        print("perfbench: the last line is not a result object", file=sys.stderr)
        return 4
    print(out, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
