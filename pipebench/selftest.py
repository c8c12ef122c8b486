#!/usr/bin/env python3
"""Short-mode self-test of the pipeline benchmark.

Runs every workload in BENCHMARK.json, and the ungated poller_burst, for
a couple of seconds, untraced and traced, through run.py, and checks
that each run exits 0, that the oracle passed (correct, no failed
pairs), and that every metric named in BENCHMARK.json prints with its
unit.

Usage (from the repository root):  python3 pipebench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
# Runnable by name but not in BENCHMARK.json (see README.md).
UNGATED = ["poller_burst"]


def check(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit status {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return errors + ["last stdout line is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"unexpected keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"oracle failed: {[l for l in lines if 'problem' in l][:5]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be a positive integer")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            errors.append(f"{m['name']}: value is not a number")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]] + UNGATED:
        for trace in (0, 1):
            errors = check(spec, workload, trace)
            status = "ok" if not errors else "FAIL"
            print(f"{status:4s} {workload} --trace {trace}")
            for e in errors:
                print(f"     {e}")
            failures += bool(errors)
    print("self-test passed" if failures == 0 else f"{failures} run(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
