#!/usr/bin/env python3
"""Sample where perfbench spends its host CPU time, function by function.

    tools/host_profile.py --workload fio-evict [--seed 7] [--seconds 30]
                          [--under perfbench::BackendShim::commit] [--top 30]
    tools/host_profile.py --samples FILE [--under FRAME]   # re-read a run
    tools/host_profile.py --samples FILE --callers '__nss_database_lookup'
    tools/host_profile.py --samples FILE --lines 'perfbench::BackendShim::commit'

Run from the repository root.  The tool

  1. builds perfbench from perfbench/CMakeLists.txt into .bench_build/profile
     in Release with -g -fno-omit-frame-pointer (perfbench/ itself is not
     modified);
  2. compiles tools/host_sampler.c into a shared object and runs the driver
     (--trace 0) with it preloaded: every millisecond of the process's own
     CPU time, ITIMER_PROF interrupts it and the sampler records the PC, the
     frame-pointer chain of return addresses (the kernel checks CPU timers
     on its tick, so the report prints the interval it achieved) and the
     word at the stack pointer (x86-64) or the link register (aarch64);
  3. symbolizes every address with `addr2line -f -i -C`, expanding inlined
     frames, so a function inlined into its caller still gets its samples.
     A leaf in a runtime library (libc's memcpy, say) usually sets up no
     frame, so the chain skips its caller; when the recorded word is a
     return address into the program's text (a call instruction ends right
     before it), that caller is put back between the leaf and the chain;
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
that asked for it.  With --lines FRAME it prints the source lines (file:line
of the sampled instruction, innermost inlined frame) of the samples whose
innermost frame is FRAME.

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
    """Return (stacks, words, mappings, header): stacks leaf-first address
    lists, each sample's stack-pointer word (None in a v1 file), mappings
    (start, end, file offset, path) sorted by start, and the sampler's
    header fields (samples, dropped, cpu_s)."""
    stacks, words, maps, header = [], [], [], {}
    with open(path) as f:
        for line in f:
            if line.startswith("t "):
                addrs = [int(a, 16) for a in line.split()[1:]]
                words.append(addrs[0])
                stacks.append(addrs[1:])
            elif line.startswith("s"):
                words.append(None)
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
    return stacks, words, maps, header


class Elf:
    """The PT_LOAD segments (file offset, vaddr, size), the machine and the
    bytes of a 64-bit little-endian ELF file (no segments if unreadable)."""

    def __init__(self, path):
        self.segs, self.machine, self.data = [], 0, b""
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError:
            return
        if data[:4] != b"\x7fELF" or data[4] != 2 or data[5] != 1:
            return
        self.data = data
        self.machine, = struct.unpack_from("<H", data, 0x12)
        phoff, = struct.unpack_from("<Q", data, 0x20)
        phentsize, phnum = struct.unpack_from("<HH", data, 0x36)
        for i in range(phnum):
            p_type, _, p_off, p_vaddr, _, p_filesz = struct.unpack_from(
                "<IIQQQQ", data, phoff + i * phentsize)
            if p_type == 1:
                self.segs.append((p_off, p_vaddr, p_filesz))

    def call_ends_at(self, vaddr):
        """Whether a call instruction ends right before `vaddr`."""
        for p_off, p_vaddr, size in self.segs:
            if p_vaddr + 7 <= vaddr <= p_vaddr + size:
                at = vaddr - p_vaddr + p_off
                code = self.data[at - 7:at]
                break
        else:
            return False
        if self.machine == 62:  # x86-64: call rel32, or call r/m64 (FF /2)
            if code[2] == 0xE8:
                return True
            return any(code[-n] == 0xFF and (code[-n + 1] >> 3) & 7 == 2
                       for n in (2, 3, 4, 6, 7))
        if self.machine == 183:  # aarch64: BL, or BLR
            insn, = struct.unpack_from("<I", code, 3)
            return (insn & 0xFC000000) == 0x94000000 or \
                (insn & 0xFFFFFC1F) == 0xD63F0000
        return False


def to_object(addr, maps, starts, elfs):
    """(object path, ELF virtual address) of a runtime address, or None."""
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= maps[i][1]:
        return None
    lo, _, offset, path = maps[i]
    file_off = addr - lo + offset
    if path not in elfs:
        elfs[path] = Elf(path)
    for p_off, p_vaddr, size in elfs[path].segs:
        if p_off <= file_off < p_off + size:
            return path, file_off - p_off + p_vaddr
    return path, file_off


def in_runtime_lib(path):
    return RUNTIME_LIB.search(f"[{os.path.basename(path)}]") is not None


def symbolize(path, vaddrs):
    """Map each vaddr to its inline-expanded frames, innermost first, and
    the source line (file:line) of its innermost frame.

    Frames in shared libraries carry the library's name: a stripped library
    (libc) only has exported symbols, so its internal routines (the memcpy
    variants, say) show under the nearest exported name."""
    out = {}
    tag = ".so" in os.path.basename(path)
    if not os.path.isfile(path):
        return {v: ([f"?? [{path}]"], "??") for v in vaddrs}
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
            out[ordered[idx]] = ([], None)
            k += 1
            continue
        name = lines[k]
        if name == "??" or tag:
            name = f"{name} [{os.path.basename(path)}]"
        frames, where = out[ordered[idx]]
        if where is None and k + 1 < len(lines):
            where = lines[k + 1].split(" (discriminator")[0]
            if where.startswith(ROOT + os.sep):
                where = where[len(ROOT) + 1:]
        out[ordered[idx]] = (frames + [name], where)
        k += 2  # the file:line follows every function name
    return out


def frames_of(stacks, words, maps):
    """Expand every sample to (function names innermost first, the source
    line of its sampled instruction).  A runtime-library leaf whose stack
    word is a return address into the program gets that caller back."""
    starts = [m[0] for m in maps]
    elfs, wanted = {}, collections.defaultdict(set)
    located = []
    for stack, word in zip(stacks, words):
        row = []
        for depth, addr in enumerate(stack):
            # A return address points past its call: look up the call itself.
            loc = to_object(addr if depth == 0 else addr - 1, maps, starts,
                            elfs)
            row.append(loc)
        if word and row and row[0] is not None and in_runtime_lib(row[0][0]) \
                and (len(stack) < 2 or stack[1] != word):
            ret = to_object(word, maps, starts, elfs)
            if ret is not None and not in_runtime_lib(ret[0]) and \
                    elfs[ret[0]].call_ends_at(ret[1]):
                row.insert(1, (ret[0], ret[1] - 1))
        for loc in row:
            if loc is not None:
                wanted[loc[0]].add(loc[1])
        located.append(row)
    names = {path: symbolize(path, vaddrs) for path, vaddrs in wanted.items()}
    expanded = []
    for row in located:
        frames = []
        for loc in row:
            frames.extend(["??"] if loc is None
                          else names[loc[0]].get(loc[1], (None,))[0] or ["??"])
        leaf = row[0] if row else None
        where = names[leaf[0]][leaf[1]][1] if leaf is not None else None
        expanded.append((frames, where or "??"))
    return expanded


def matches(frame, want):
    return (frame == want or frame.startswith(want + "(")
            or frame.startswith(want + " ["))


def is_runtime(frame):
    """Whether a frame belongs to the C/C++ runtime or is unsymbolized."""
    return (frame.startswith("??") or RUNTIME_LIB.search(frame) is not None
            or STD_FRAME.match(frame) is not None)


def report_leaf(samples, frame, top, heading, column, key):
    """Shares of key(sample) over the samples whose leaf is `frame`."""
    leaf = [x for x in samples if matches(x[0][0], frame)]
    n = len(samples)
    share = 100.0 * len(leaf) / n if n else 0.0
    print(f"\n{heading} {frame}: {len(leaf)} samples "
          f"({share:.1f} % of the {n} above)")
    if not leaf:
        return
    counts = collections.Counter(key(x) for x in leaf)
    print(f"{'of-leaf%':>8} {'of-all%':>8} {'samples':>7}  {column}")
    for name, c in counts.most_common(top):
        print(f"{100.0 * c / len(leaf):8.2f} {100.0 * c / n:8.2f} {c:7d}"
              f"  {name[:160]}")


def report(expanded, header, under, top, callers=None, lines=None):
    total = len(expanded)
    if under:
        expanded = [x for x in expanded if any(matches(f, under) for f in x[0])]
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
    for frames, _ in expanded:
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
        report_leaf(expanded, callers, top, "callers of",
                    "nearest caller outside the runtime",
                    lambda x: next((f for f in x[0][1:] if not is_runtime(f)),
                                   "(none)"))
    if lines:
        report_leaf(expanded, lines, top, "source lines of",
                    "file:line of the sampled instruction", lambda x: x[1])


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
    ap.add_argument("--lines", metavar="FRAME",
                    help="also print the source lines of the samples whose"
                         " innermost frame is FRAME")
    ap.add_argument("--top", type=int, default=30)
    args = ap.parse_args()
    if not args.samples and not args.workload:
        ap.error("--workload or --samples is required")
    if shutil.which("addr2line") is None:
        fail("addr2line not found")

    path = args.samples or record(args)
    stacks, words, maps, header = read_samples(path)
    if not stacks:
        fail(f"{path}: no samples")
    print(f"sample file: {path}")
    report(frames_of(stacks, words, maps), header, args.under, args.top,
           args.callers, args.lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
