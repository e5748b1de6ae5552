#!/usr/bin/env python3
"""Compare the repository benchmark on two source trees in alternating pairs.

    tools/perf_pairs.py PARENT_DIR CHANGE_DIR [--pairs N] [--seed0 S]
                        [--workload W]...

Each tree is a checkout with its own perfbench/ and BENCHMARK.json (the
change's BENCHMARK.json sets the run length, workloads and metrics).  Pair i
runs, for every workload,

    python3 perfbench/run.py --workload W --seed S0+i --seconds T --trace 0

once in each tree, the parent first on even pairs and the change first on
odd ones, where T is BENCHMARK.json's run_seconds.  Every raw result line is
printed as it arrives (prefixed "raw"), so the output keeps all the runs.

For each workload and each end-to-end metric the summary gives both sides'
median and quartiles, how many pairs the change won (ties count for
neither) and a verdict:

  gain        the change won at least 9/10 of the pairs and its median is
              better by more than the parent's quartile distance
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the run-to-run spread (quartile distance over median, either
              side) exceeds the bound and not every change run beat every
              parent run
  unchanged   otherwise ("identical" when every pair matched exactly)

A workload whose failed-op share grew is reported as worse too.  Exit
status: 0, 1 when any verdict is "worse", 2 on a usage error or failed run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def fail(msg):
    print(f"perf_pairs: {msg}", file=sys.stderr)
    sys.exit(2)


def load_benchmark(tree):
    try:
        with open(os.path.join(tree, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {tree}/BENCHMARK.json: {e}")


def run_once(tree, workload, seed, seconds):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr[-2000:])
        fail(f"{' '.join(cmd)} failed in {tree} (exit {res.returncode})")
    try:
        return lines[-1], json.loads(lines[-1])
    except ValueError:
        fail(f"{tree}: last output line is not JSON: {lines[-1][:200]}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def is_better(a, b, better):
    return a > b if better == "higher" else a < b


def worse_by(parent_med, change_med, better):
    """Relative amount by which the change's median is worse (<= 0: not)."""
    delta = change_med - parent_med if better == "lower" else parent_med - change_med
    if parent_med == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(parent_med)


def rel_spread(q1, med, q3):
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(parent, change, better, bound):
    pairs = len(parent)
    wins = sum(is_better(c, p, better) for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if parent == change:
        return "identical", wins
    if worse_by(p_med, c_med, better) > bound:
        return "worse", wins
    if (wins * 10 >= pairs * 9 and is_better(c_med, p_med, better)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "gain", wins
    every_run_better = all(is_better(c, p, better) for c in change for p in parent)
    spread = max(rel_spread(p_q1, p_med, p_q3), rel_spread(c_q1, c_med, c_q3))
    if spread > bound and not every_run_better:
        return "unresolved", wins
    return "unchanged", wins


def fmt(v):
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: every "
                         "workload in BENCHMARK.json)")
    args = ap.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    bench = load_benchmark(args.change_dir)
    if load_benchmark(args.parent_dir) != bench:
        print("perf_pairs: warning: the trees' BENCHMARK.json differ; "
              "using the change's", file=sys.stderr)
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    trees = {"parent": args.parent_dir, "change": args.change_dir}

    results = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                line, doc = run_once(trees[side], w, seed, seconds)
                print(f"raw {side} {w} seed={seed} {line}", flush=True)
                results[w][side].append(doc)

    any_worse = False
    for w in workloads:
        print(f"\n{w}: {args.pairs} pairs, seeds {args.seed0}.."
              f"{args.seed0 + args.pairs - 1}, {seconds} s runs")
        print(f"  {'metric':24} {'parent median [q1, q3]':34} "
              f"{'change median [q1, q3]':34} {'wins':>6}  verdict")
        for m in metrics:
            name = m["name"]
            parent = [d["metrics"][name]["value"] for d in results[w]["parent"]]
            change = [d["metrics"][name]["value"] for d in results[w]["change"]]
            v, wins = verdict(parent, change, m["better"], m["bound"])
            any_worse |= v == "worse"
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            move = 0.0 - worse_by(p_med, c_med, m["better"]) * 100
            print(f"  {name:24} {f'{fmt(p_med)} [{fmt(p_q1)}, {fmt(p_q3)}]':34} "
                  f"{f'{fmt(c_med)} [{fmt(c_q1)}, {fmt(c_q3)}]':34} "
                  f"{wins:>3}/{args.pairs:<2}  {v} ({move:+.1f}% better, "
                  f"bound {m['bound']:.0%})")
        share = {}
        for side in ("parent", "change"):
            docs = results[w][side]
            share[side] = (sum(d["failed"] for d in docs),
                           sum(d["attempted"] for d in docs))
        failed_worse = (share["change"][0] * max(share["parent"][1], 1) >
                        share["parent"][0] * max(share["change"][1], 1))
        any_worse |= failed_worse
        counts = {side: f"{n} of {of}" for side, (n, of) in share.items()}
        print(f"  {'failed ops':24} {counts['parent']:34} {counts['change']:34} "
              f"{'':>6}  {'worse' if failed_worse else 'unchanged'}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
