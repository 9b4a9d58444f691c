#!/usr/bin/env python3
"""Builds and runs the OptChain repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload place-replay --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
optchain_perfbench (Release) under .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr, so the last stdout line
is the benchmark's JSON result. Exits non-zero when a correctness check
fails, and when the build fails, printing no result then.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "optchain_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; returns True on success."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "optchain_perfbench",
         "-j", "4"],
    ]
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return False
        if result.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    spans = os.path.join(BUILD_DIR, f"spans-{args.workload}.csv")
    command = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--scratch={BUILD_DIR}", f"--spans_out={spans}"]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
