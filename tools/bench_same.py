#!/usr/bin/env python3
"""Check that two build trees behave the same on every deterministic bench.

Usage:
  tools/bench_same.py PARENT_BUILD CHANGE_BUILD [--only NAME]... [--out DIR]

Runs every `bench/bench_*` binary of CHANGE_BUILD except
bench_micro_primitives (it reports host time) with `--json` in both trees,
the two fuzz sweeps at the ci.sh settings, and diffs each pair with
tools/bench_diff.py.  The only rows skipped are the ones real threads make
vary between runs (bench_group_commit's batcher, bench_shard_scale's lock
waits and its cross-shard and cleaner rows).  Both trees should be Release
builds of the parent and the change.  The two runs of one binary go side by
side; the binaries run one after another (~4 minutes on a 4-vCPU host).

Prints one verdict per binary: SAME, DIFF (with bench_diff's lines), FAIL
(a run exited nonzero) or NEW (no parent binary, not compared).  Exit
status: 1 on any DIFF or FAIL, 0 otherwise.
"""

import argparse
import os
import subprocess
import sys
import tempfile

HOST_TIME = {"bench_micro_primitives"}
ARGS = {
    "bench_fault_sweep": ["--schedules", "1000", "--seed", "1"],
    "bench_fs_fuzz_sweep": ["--schedules", "500", "--seed", "1"],
}
SKIPS = {
    "bench_group_commit": ["batcher/threads=8"],
    "bench_shard_scale": ["*:lock_wait_*", "cross/*", "cleaner/*"],
}
BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")


def benches(build):
    d = os.path.join(build, "bench")
    return sorted(n for n in os.listdir(d)
                  if n.startswith("bench_") and n not in HOST_TIME
                  and os.access(os.path.join(d, n), os.X_OK)
                  and os.path.isfile(os.path.join(d, n)))


def compare(name, parent, change, out):
    runs = []
    for side, build in (("parent", parent), ("change", change)):
        path = os.path.join(out, f"{name}.{side}.json")
        cmd = [os.path.join(build, "bench", name), *ARGS.get(name, []),
               "--json", path]
        runs.append((path, subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                            stderr=subprocess.DEVNULL)))
    codes = [p.wait() for _, p in runs]
    if any(codes):
        return "FAIL", [f"exit status parent={codes[0]} change={codes[1]}"]
    skips = [a for s in SKIPS.get(name, []) for a in ("--skip", s)]
    diff = subprocess.run([sys.executable, BENCH_DIFF, runs[0][0], runs[1][0],
                           *skips], capture_output=True, text=True)
    lines = (diff.stdout + diff.stderr).splitlines()
    return ("SAME" if diff.returncode == 0 else "DIFF"), lines


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_build")
    ap.add_argument("change_build")
    ap.add_argument("--only", action="append", default=[], metavar="NAME",
                    help="run only this bench binary (repeatable)")
    ap.add_argument("--out", help="keep the JSON documents in this directory")
    args = ap.parse_args()

    names = args.only or benches(args.change_build)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or tmp
        os.makedirs(out, exist_ok=True)
        bad = 0
        for name in names:
            if not os.path.exists(os.path.join(args.parent_build, "bench", name)):
                print(f"NEW   {name}", flush=True)
                continue
            verdict, lines = compare(name, args.parent_build,
                                     args.change_build, out)
            print(f"{verdict:5} {name}", flush=True)
            if verdict != "SAME":
                bad += 1
                for line in lines:
                    print(f"      {line}")
    print(f"bench_same: {len(names) - bad}/{len(names)} binaries without a "
          f"difference")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
