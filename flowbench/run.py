#!/usr/bin/env python3
"""Builds the FlowTime benchmark from source and runs one measurement.

Usage (from the repository root):

    python3 flowbench/run.py --workload replan_storm --seed 1 \
        --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory: an optimized CMake build of ../src plus flowbench.cpp.
Build output goes to stderr; the benchmark's own report goes to stdout,
whose last line is the JSON result. The exit code is the benchmark's, or
non-zero without a result when the build fails (for example when the
repository sources are missing).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("replan_storm", "federated_flash", "adhoc_flood")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "flowbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("flowbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    build(build_dir)
    command = [
        os.path.join(build_dir, "flowbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(
            build_dir, "spans-%s.jsonl" % args.workload)]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
