#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

Usage (from the repository root):
  python3 pipebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/pipebench; build output goes to stderr so
the last line of stdout stays the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
BINARY = os.path.join(BUILD, "pipebench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "pipebench"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr).returncode
        except OSError as e:
            print(f"cannot run {cmd[0]}: {e}", file=sys.stderr)
            return 1
        if rc != 0:
            print(f"build step failed ({rc}): {' '.join(cmd)}", file=sys.stderr)
            return rc
    return 0


def main():
    rc = build()
    if rc != 0:
        return rc
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
