#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fio-evict --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --selftest

Run from the repository root.  The driver is built from source (Release)
into .bench_build/perfbench, then run; its standard output is passed
through, and its last line is the JSON result.  Workloads: fio-evict,
oltp-shard4, varmail-nvlog.  --trace 1 reports per-layer metrics instead of
end-to-end ones and writes the recorded spans to .bench_build/.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ["fio-evict", "oltp-shard4", "varmail-nvlog"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build():
    """Configure and build; returns the binary path or None on failure."""
    os.makedirs(BUILD, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen,
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    base = [binary, "--rev", revision()]
    if args.selftest:
        return run(base + ["--selftest"])
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = base + ["--workload", workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans-out", os.path.join(
                ROOT, ".bench_build", "spans-%s-%d.tsv" % (workload, args.seed))]
        status = run(cmd) or status
    return status


def run(cmd):
    """Run the driver, passing its output through; kill it past the limit."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 124


if __name__ == "__main__":
    sys.exit(main())
