#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 benchmark/run.py --workload live-campus --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --selftest

Run from anywhere; paths resolve against the repository root (the parent
of this directory). The first run configures and builds the library from
source plus the benchmark into .bench_build/ (or $CARGO_TARGET_DIR when
set, relative to the root); later runs only rebuild what changed. Build
output goes to stderr, so the benchmark's JSON result stays the last line
of stdout. Exits nonzero without a result when the build or run fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("live-campus", "replay-swarm", "analyze-campus")
# Each run must finish well inside 180 s; a wedged run is killed here.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    out = build_dir()
    cmake_dir = os.path.join(out, "cmake")
    os.makedirs(out, exist_ok=True)
    # Serialize concurrent runs in one checkout around the build.
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", cmake_dir],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1),
             "--target", *targets],
            stdout=sys.stderr, check=True)
    return cmake_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    target = "upbound_benchmark_selftest" if args.selftest else "upbound_benchmark"
    try:
        cmake_dir = build([target])
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 3

    binary = os.path.join(cmake_dir, target)
    if args.selftest:
        return subprocess.run([binary]).returncode

    work_dir = os.path.join(build_dir(), "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
