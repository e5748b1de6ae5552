#!/usr/bin/env python3
"""Compare two tinca-bench-v1 JSON documents exactly.

Every bench binary writes its rows with `--json <path>`.  The virtual-time
simulator is deterministic, so two runs of the same code must agree to the
last bit on every row; any difference is a real behaviour change.

Usage:
  tools/bench_diff.py OLD.json NEW.json [--skip LABEL_GLOB[:METRIC_GLOB]]...

Reports the bench name or config if they differ, rows added or removed, and
every metric that was added, removed or changed value.  Rows are matched by
label (with an occurrence index when a label repeats).  `--skip` ignores a
whole row (LABEL_GLOB alone) or only the matching metrics of matching rows;
the globs use fnmatch syntax and the split is at the first ':'.

Exit status: 0 when the documents agree outside the skips, 1 when they
differ, 2 on a usage or input error.
"""

import argparse
import fnmatch
import json
import sys


def fail(msg):
    print(f"bench_diff: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != "tinca-bench-v1":
        fail(f"{path}: not a tinca-bench-v1 document")
    return doc


def keyed_rows(doc):
    """label -> metrics, with '#N' appended to the Nth repeat of a label."""
    rows, seen = {}, {}
    for row in doc["rows"]:
        label = row["label"]
        n = seen.get(label, 0)
        seen[label] = n + 1
        rows[label if n == 0 else f"{label}#{n}"] = row["metrics"]
    return rows


def parse_skip(spec):
    label, sep, metric = spec.partition(":")
    return label, (metric if sep else None)


def skipped(skips, label, metric=None):
    for label_glob, metric_glob in skips:
        if not fnmatch.fnmatchcase(label, label_glob):
            continue
        if metric_glob is None or (
                metric is not None and fnmatch.fnmatchcase(metric, metric_glob)):
            return True
    return False


def diff(old, new, skips):
    out = []
    if old["bench"] != new["bench"]:
        out.append(f"bench: {old['bench']!r} -> {new['bench']!r}")
    for key in sorted(set(old["config"]) | set(new["config"])):
        a, b = old["config"].get(key), new["config"].get(key)
        if a != b:
            out.append(f"config {key}: {a!r} -> {b!r}")
    a_rows, b_rows = keyed_rows(old), keyed_rows(new)
    for label in a_rows:
        if label not in b_rows and not skipped(skips, label):
            out.append(f"row removed: {label}")
    for label in b_rows:
        if label not in a_rows and not skipped(skips, label):
            out.append(f"row added: {label}")
    for label, a in a_rows.items():
        b = b_rows.get(label)
        if b is None or skipped(skips, label):
            continue
        for metric in list(a) + [m for m in b if m not in a]:
            if skipped(skips, label, metric):
                continue
            if metric not in b:
                out.append(f"{label}: metric removed: {metric}")
            elif metric not in a:
                out.append(f"{label}: metric added: {metric}")
            elif a[metric] != b[metric]:
                out.append(f"{label}: {metric}: {a[metric]!r} -> {b[metric]!r}")
    return out


def main():
    ap = argparse.ArgumentParser(
        description="Exact diff of two tinca-bench-v1 JSON files.")
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--skip", action="append", default=[],
                    metavar="LABEL_GLOB[:METRIC_GLOB]",
                    help="ignore a row, or some of its metrics (repeatable)")
    args = ap.parse_args()
    skips = [parse_skip(s) for s in args.skip]
    lines = diff(load(args.old), load(args.new), skips)
    for line in lines:
        print(line)
    if lines:
        print(f"bench_diff: {len(lines)} difference(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
