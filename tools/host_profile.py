#!/usr/bin/env python3
"""Sample where perfbench spends its host CPU time, function by function.

    tools/host_profile.py --workload fio-evict [--seed 7] [--seconds 30]
                          [--under perfbench::BackendShim::commit] [--top 30]
    tools/host_profile.py --samples FILE [--under FRAME]   # re-read a run
    tools/host_profile.py --samples FILE --callers '__nss_database_lookup'

Run from the repository root.  The tool

  1. builds perfbench from perfbench/CMakeLists.txt into .bench_build/profile
     in Release with -g -fno-omit-frame-pointer (perfbench/ itself is not
     modified);
  2. compiles tools/host_sampler.c into a shared object and runs the driver
     (--trace 0) with it preloaded: every millisecond of the process's own
     CPU time, ITIMER_PROF interrupts it and the sampler records the PC and
     the frame-pointer chain of return addresses (the kernel checks CPU
     timers on its tick, so the report prints the interval it achieved);
  3. symbolizes every address with `addr2line -f -i -C`, expanding inlined
     frames, so a function inlined into its caller still gets its samples;
  4. prints the sample count and, per function, its self share (samples
     whose innermost frame it is) and inclusive share (samples with it
     anywhere on the stack).  With --under FRAME only samples that have
     FRAME on their stack count, and shares are of those samples.

With --callers FRAME it then takes the samples whose innermost frame is
FRAME and prints, with shares, their nearest caller outside the C and C++
runtimes: frames in libc, libstdc++, libm, libgcc_s or the dynamic loader
and inlined std:: / __gnu_cxx:: template code are skipped.  That is how a
libc memcpy or memset (stripped libc shows it under the nearest exported
symbol, e.g. `__nss_database_lookup [libc.so.6]`) is traced to the code
that asked for it.

Frames are matched by their demangled name with or without the parameter
list or the library tag.  The sample file is kept in .bench_build/profile/ and can be re-read
with --samples.  Needs only the Python standard library, gcc, cmake and
binutils' addr2line.
"""
import argparse
import bisect
import collections
import os
import re
import shutil
import struct
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "profile")
HERE = os.path.dirname(os.path.abspath(__file__))
ADDR_LINE = re.compile(r"^0x[0-9a-f]+$")
RUNTIME_LIB = re.compile(
    r"\[(?:libc|libstdc\+\+|libm|libgcc_s|ld-linux)[.\-][^\]]*\]$")
STD_FRAME = re.compile(r"^(?:[\w ]+ )?(?:std|__gnu_cxx)::")


def fail(msg):
    print(f"host_profile: {msg}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, **kw):
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True, **kw)
    if res.returncode != 0:
        sys.stderr.write(res.stdout[-4000:])
        fail("command failed: " + " ".join(cmd))
    return res.stdout


def build():
    """Build the frame-pointer perfbench and the sampler; return both paths."""
    os.makedirs(BUILD, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DCMAKE_CXX_FLAGS=-g -fno-omit-frame-pointer"] + gen)
    run_checked(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    sampler = os.path.join(BUILD, "host_sampler.so")
    run_checked(["gcc", "-O2", "-fPIC", "-shared", "-o", sampler,
                 os.path.join(HERE, "host_sampler.c")])
    return os.path.join(BUILD, "perfbench"), sampler


def record(args):
    binary, sampler = build()
    out = os.path.join(BUILD, f"samples-{args.workload}-{args.seed}.txt")
    env = dict(os.environ, LD_PRELOAD=sampler, HOST_SAMPLER_OUT=out)
    cmd = [binary, "--rev", "profile", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    # The driver's own report goes to stderr; stdout carries only ours.
    res = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if res.returncode != 0:
        fail(f"perfbench exited {res.returncode}")
    if not os.path.exists(out):
        fail("the sampler wrote no samples (was it preloaded?)")
    return out


def read_samples(path):
    """Return (stacks, mappings, header): stacks leaf-first address lists,
    mappings (start, end, file offset, path) sorted by start, and the
    sampler's header fields (samples, dropped, cpu_s)."""
    stacks, maps, header = [], [], {}
    with open(path) as f:
        for line in f:
            if line.startswith("s"):
                stacks.append([int(a, 16) for a in line.split()[1:]])
            elif line.startswith("m "):
                parts = line[2:].split(None, 5)
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
            elif line.startswith("#"):
                header = dict(re.findall(r"(\w+)=([\d.]+)", line))
    maps.sort()
    return stacks, maps, header


def load_segments(path):
    """PT_LOAD (file offset, vaddr, size) triples of a 64-bit ELF file."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return []
    if data[:4] != b"\x7fELF" or data[4] != 2 or data[5] != 1:
        return []
    phoff, = struct.unpack_from("<Q", data, 0x20)
    phentsize, phnum = struct.unpack_from("<HH", data, 0x36)
    segs = []
    for i in range(phnum):
        p_type, _, p_off, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", data, phoff + i * phentsize)
        if p_type == 1:
            segs.append((p_off, p_vaddr, p_filesz))
    return segs


def to_object(addr, maps, starts, segments):
    """(object path, ELF virtual address) of a runtime address, or None."""
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= maps[i][1]:
        return None
    lo, _, offset, path = maps[i]
    file_off = addr - lo + offset
    if path not in segments:
        segments[path] = load_segments(path)
    for p_off, p_vaddr, size in segments[path]:
        if p_off <= file_off < p_off + size:
            return path, file_off - p_off + p_vaddr
    return path, file_off


def symbolize(path, vaddrs):
    """Map each vaddr to its inline-expanded frames, innermost first.

    Frames in shared libraries carry the library's name: a stripped library
    (libc) only has exported symbols, so its internal routines (the memcpy
    variants, say) show under the nearest exported name."""
    out = {}
    tag = ".so" in os.path.basename(path)
    if not os.path.isfile(path):
        return {v: [f"?? [{path}]"] for v in vaddrs}
    ordered = sorted(vaddrs)
    text = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input="\n".join(f"{v:x}" for v in ordered) + "\n",
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True).stdout
    lines = text.splitlines()
    k, idx = 0, -1
    while k < len(lines):
        if ADDR_LINE.match(lines[k]):
            idx += 1
            out[ordered[idx]] = []
            k += 1
            continue
        name = lines[k]
        if name == "??" or tag:
            name = f"{name} [{os.path.basename(path)}]"
        out[ordered[idx]].append(name)
        k += 2  # skip the file:line that follows every function name
    return out


def frames_of(stacks, maps):
    """Expand every sample to its list of function names, innermost first."""
    starts = [m[0] for m in maps]
    segments, wanted = {}, collections.defaultdict(set)
    located = []
    for stack in stacks:
        row = []
        for depth, addr in enumerate(stack):
            # A return address points past its call: look up the call itself.
            loc = to_object(addr if depth == 0 else addr - 1, maps, starts,
                            segments)
            row.append(loc)
            if loc is not None:
                wanted[loc[0]].add(loc[1])
        located.append(row)
    names = {path: symbolize(path, vaddrs) for path, vaddrs in wanted.items()}
    expanded = []
    for row in located:
        frames = []
        for loc in row:
            frames.extend(["??"] if loc is None
                          else names[loc[0]].get(loc[1]) or ["??"])
        expanded.append(frames)
    return expanded


def matches(frame, want):
    return (frame == want or frame.startswith(want + "(")
            or frame.startswith(want + " ["))


def is_runtime(frame):
    """Whether a frame belongs to the C/C++ runtime or is unsymbolized."""
    return (frame.startswith("??") or RUNTIME_LIB.search(frame) is not None
            or STD_FRAME.match(frame) is not None)


def report_callers(expanded, frame, top):
    """Nearest non-runtime caller of the samples whose leaf is `frame`."""
    leaf = [f for f in expanded if matches(f[0], frame)]
    n = len(expanded)
    share = 100.0 * len(leaf) / n if n else 0.0
    print(f"\ncallers of {frame}: {len(leaf)} samples "
          f"({share:.1f} % of the {n} above)")
    if not leaf:
        return
    callers = collections.Counter(
        next((x for x in f[1:] if not is_runtime(x)), "(none)") for f in leaf)
    print(f"{'of-leaf%':>8} {'of-all%':>8}  nearest caller outside the runtime")
    for name, c in callers.most_common(top):
        print(f"{100.0 * c / len(leaf):8.2f} {100.0 * c / n:8.2f}  {name[:160]}")


def report(expanded, header, under, top, callers=None):
    total = len(expanded)
    if under:
        expanded = [f for f in expanded if any(matches(x, under) for x in f)]
    n = len(expanded)
    cpu_s = float(header.get("cpu_s", 0))
    rate = f" over {cpu_s:.1f} s CPU, one per {1000 * cpu_s / total:.1f} ms" \
        if cpu_s > 0 else ""
    dropped = int(header.get("dropped", 0))
    print(f"samples: {total} total{rate}"
          + (f", {dropped} dropped" if dropped else ""))
    if under:
        share = 100.0 * n / total if total else 0.0
        print(f"under {under}: {n} samples ({share:.1f} % of all)")
    if n == 0:
        return
    self_n, incl_n = collections.Counter(), collections.Counter()
    for frames in expanded:
        self_n[frames[0]] += 1
        for name in set(frames):
            incl_n[name] += 1
    for title, counter in (("by self share", self_n),
                           ("by inclusive share", incl_n)):
        print(f"\n{title} (top {top}):")
        print(f"{'self%':>7} {'incl%':>7}  function")
        for name, _ in counter.most_common(top):
            print(f"{100.0 * self_n[name] / n:7.2f} {100.0 * incl_n[name] / n:7.2f}"
                  f"  {name[:160]}")
    if callers:
        report_callers(expanded, callers, top)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="perfbench workload to run")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--samples", help="analyze this sample file, do not run")
    ap.add_argument("--under", help="only samples with this frame on the stack")
    ap.add_argument("--callers", metavar="FRAME",
                    help="also print the nearest caller outside libc/libstdc++"
                         " of the samples whose innermost frame is FRAME")
    ap.add_argument("--top", type=int, default=30)
    args = ap.parse_args()
    if not args.samples and not args.workload:
        ap.error("--workload or --samples is required")
    if shutil.which("addr2line") is None:
        fail("addr2line not found")

    path = args.samples or record(args)
    stacks, maps, header = read_samples(path)
    if not stacks:
        fail(f"{path}: no samples")
    print(f"sample file: {path}")
    report(frames_of(stacks, maps), header, args.under, args.top, args.callers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
