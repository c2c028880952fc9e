#!/usr/bin/env python3
"""Host-time benchmark of the simulated ASK service.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the perfbench CMake package (which
compiles the repository's src/ layers) into .bench_build/perfbench, then
runs one workload. Build output goes to standard error; the last line of
standard output is the result: {"correct", "attempted", "failed",
"metrics"}. The exit code is 0
only when the build succeeded and every task matched its reference fold.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
REPORT_DIR = os.path.join(ROOT, ".bench_build", "reports")
# A hung simulation must not hang the benchmark: a run has 180 s in all.
RUN_TIMEOUT_S = 170


def build():
    """Configure and build ask_perf; returns its path, or None on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", PACKAGE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "ask_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    exe = build()
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", REPORT_DIR]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: ask_perf exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
