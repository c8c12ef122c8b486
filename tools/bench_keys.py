#!/usr/bin/env python3
"""Checks that a bench snapshot has the same JSON key paths as a reference.

Usage: bench_keys.py SNAPSHOT REFERENCE

A key path names every object key from the root, with "[]" standing for
any array element: {"results": [{"files": 1}]} has the paths "results"
and "results[].files". Values, array lengths and key order are ignored,
so a quick-mode snapshot compares cleanly against a full-mode one. Any
path added, dropped or renamed exits 1 and lists the difference.
"""

import json
import sys


def key_paths(value, prefix=""):
    paths = set()
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.add(path)
            paths |= key_paths(child, path)
    elif isinstance(value, list):
        for child in value:
            paths |= key_paths(child, prefix + "[]")
    return paths


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    snapshot_path, reference_path = argv[1], argv[2]
    with open(snapshot_path) as f:
        snapshot = key_paths(json.load(f))
    with open(reference_path) as f:
        reference = key_paths(json.load(f))
    added = sorted(snapshot - reference)
    dropped = sorted(reference - snapshot)
    for path in added:
        print(f"{snapshot_path}: added key {path}")
    for path in dropped:
        print(f"{snapshot_path}: dropped key {path}")
    if added or dropped:
        return 1
    print(f"{snapshot_path}: {len(snapshot)} key paths match {reference_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
