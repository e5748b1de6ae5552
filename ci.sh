#!/usr/bin/env bash
# CI entry point: Debug build with Address+UB sanitizers, full test suite.
#
# A Debug build keeps the TINCA debug invariants compiled in (NDEBUG off —
# e.g. TincaCache::assert_dirty_count cross-checks the incremental dirty
# counter against a full entry scan on every commit), and the sanitizers
# catch lifetime/aliasing mistakes the RelWithDebInfo tier-1 run would miss.
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR=${BUILD_DIR:-build-ci}
SAN_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DTINCA_WERROR=ON \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"

cmake --build "$BUILD_DIR" -j "$(nproc)"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# ---------------------------------------------------------------------------
# ThreadSanitizer stage: the MVCC lock-free read path (DESIGN.md §12) and the
# sharded front-end are the only truly multi-threaded code in the tree, and
# ASan cannot see data races.  TSan is incompatible with ASan, so this is a
# separate build; only the threaded suites run under it.
TSAN_DIR=${TSAN_DIR:-build-ci-tsan}
TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"

cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DTINCA_WERROR=ON \
  -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"
cmake --build "$TSAN_DIR" -j "$(nproc)" \
  --target mvcc_stress_test shard_test cleaner_test group_commit_test \
  multistream_stress_test nvlog_stress_test

"$TSAN_DIR/tests/mvcc_stress_test"
"$TSAN_DIR/tests/shard_test"
"$TSAN_DIR/tests/cleaner_test"
# The group-commit suite includes the multi-threaded per-shard batcher
# stress (DESIGN.md §14): leaders coalescing concurrent committers.
"$TSAN_DIR/tests/group_commit_test"
# Multi-stream cross-shard stress (DESIGN.md §15): writers mixing
# single-shard and cross-shard txns while MVCC readers check that no
# snapshot ever observes half a cross-stream transaction.
"$TSAN_DIR/tests/multistream_stress_test"
# Deep-stacked NvLog stress (DESIGN.md §16): concurrent absorbers + a
# drain_pass() loop whose shard-affine batches run on real per-shard
# threads (drain_threads=true) into the sharded inner.
"$TSAN_DIR/tests/nvlog_stress_test"
echo "tsan stage: OK (mvcc stress + shard + cleaner + group-commit +" \
  "multistream + nvlog-stacked suites race-free)"

# ---------------------------------------------------------------------------
# Bench smoke: Release build, run two benches with --json and validate the
# machine-readable output against the tinca-bench-v1 schema.  Release because
# the JSON contract must hold in the configuration people actually benchmark.
# Every target (library, tests, benches, examples) is built here with
# -Werror too: some warnings (e.g. GCC's -Wrestrict) fire only at -O3.
BENCH_DIR=${BENCH_DIR:-build-ci-bench}
JSON_OUT=$(mktemp -d)
trap 'rm -rf "$JSON_OUT"' EXIT

cmake -B "$BENCH_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DTINCA_WERROR=ON
cmake --build "$BENCH_DIR" -j "$(nproc)"

# Examples (Release): each commits through a Tinca stack and mounts it again
# through TincaCache::recover, so a mount that throws fails CI here.
# crash_recovery_demo also exits nonzero unless every crash it injects
# recovers atomically (each block OLD or NEW, the transaction all-old or
# all-new) and every cut after the commit fence recovers all-new.  All four
# finish in well under a second.
for example in crash_recovery_demo quickstart kvstore trace_replay; do
  "$BENCH_DIR/examples/$example" > /dev/null
done
echo "examples: OK (crash_recovery_demo atomic, quickstart, kvstore," \
  "trace_replay)"

"$BENCH_DIR/bench/bench_micro_primitives" \
  --benchmark_filter=BM_CacheEntryCodec --benchmark_min_time=0.05 \
  --json "$JSON_OUT/micro.json" > /dev/null
"$BENCH_DIR/bench/bench_ablation_txn_batch" \
  --json "$JSON_OUT/txn_batch.json" > /dev/null

# Paper-figure gates: Figs 3 and 11 run Filebench over MiniFs (about 4 s
# together), so a file-system or cache change that loses the paper's result
# fails here.  The checks are in the JSON validation below.
"$BENCH_DIR/bench/bench_fig03_journaling" --json "$JSON_OUT/fig03.json" > /dev/null
"$BENCH_DIR/bench/bench_fig11_filebench" --json "$JSON_OUT/fig11.json" > /dev/null

# Fault-fuzz smoke (DESIGN.md §9): 1000 randomized fault schedules per stack
# at a fixed seed.  The binary exits nonzero on any recovery-invariant
# violation, so this line is the gate.
"$BENCH_DIR/bench/bench_fault_sweep" --schedules 1000 --seed 1 \
  --json "$JSON_OUT/fault_sweep.json" > /dev/null

# FS-level fuzz smoke (DESIGN.md §10): 500 randomized MiniFs op histories per
# stack plus a crash-point sweep, fixed seed.  Nonzero exit on any tree-model
# mismatch or dirty fsck — this line is the file-system consistency gate.
"$BENCH_DIR/bench/bench_fs_fuzz_sweep" --schedules 500 --seed 1 \
  --json "$JSON_OUT/fs_fuzz.json" > /dev/null

# Background-cleaner smoke (DESIGN.md §11): off-vs-on commit latency.  The
# binary exits nonzero unless cleaner-on commit p95 beats cleaner-off, so
# this line gates "the cleaner actually moves write-backs off the commit
# path" — a cleaner regressed into a no-op fails CI here.
"$BENCH_DIR/bench/bench_cleaner" --json "$JSON_OUT/cleaner.json" > /dev/null

# MVCC read-path smoke (DESIGN.md §12): lock-free reads vs the mutex
# baseline in virtual time, with a writer committing throughout and every
# read verified against a committed image.  The binary exits nonzero unless
# the 4-reader speedup is >= 3x, so this line gates "clean read hits never
# take the shard mutex" — a fast path regressed onto the lock fails here.
"$BENCH_DIR/bench/bench_mvcc_reads" --json "$JSON_OUT/mvcc.json" > /dev/null

# NVM write-ahead tier smoke (DESIGN.md §13 + §16): fsync-heavy 1-block
# commits on NvLog-Classic vs classic-journal vs Tinca, then the deep-stacked
# tiers (NvLog over Tinca / Sharded inners).  The binary exits nonzero unless
# NvLog-Classic's throughput is >= 2x classic-journal's AND its drain
# coalesced at least one superseded record AND the §16 gates hold —
# NvLog-Sharded >= 2x Sharded on the fsync-heavy commit window, parallel
# drain-lag p95 <= 0.5x sequential, and watermark-ring rotation cools the
# hot metadata line >= 10x.  The schema-checked JSON is published as
# BENCH_nvlog_stacked.json for downstream comparison.
"$BENCH_DIR/bench/bench_nvlog" --json "$JSON_OUT/nvlog.json" > /dev/null
cp "$JSON_OUT/nvlog.json" BENCH_nvlog_stacked.json

# Determinism gate: bench_nvlog runs purely in virtual time, so a second run
# must reproduce the first bit for bit.  tools/bench_diff.py prints every
# differing row or metric and exits nonzero on any.
"$BENCH_DIR/bench/bench_nvlog" --json "$JSON_OUT/nvlog_rerun.json" > /dev/null
python3 tools/bench_diff.py "$JSON_OUT/nvlog.json" "$JSON_OUT/nvlog_rerun.json"
echo "bench_nvlog determinism: identical across two runs"

# Group-commit smoke (DESIGN.md §14): single commits vs commit_group over a
# hot-set stream sweep plus a TPC-C-style open-arrival DES.  The binary exits
# nonzero unless grouped commit throughput at 8 streams is >= 2x single,
# fences/txn < 0.25, 1-stream p95 does not regress, and the DES p95 at 100k
# users improves — so this line gates "batching actually amortizes the flush
# pass + fence".  The schema-checked JSON is published as
# BENCH_group_commit.json for downstream comparison.
"$BENCH_DIR/bench/bench_group_commit" \
  --json "$JSON_OUT/group_commit.json" > /dev/null
cp "$JSON_OUT/group_commit.json" BENCH_group_commit.json

# Multi-stream smoke (DESIGN.md §15): per-stream commit rings vs the
# single-ring baseline over real measured commit costs, plus fence
# accounting against the §14 group path.  The binary exits nonzero unless
# the 8-stream modeled throughput is >= 3x single-ring, group fences/txn
# does not grow with streams, and the ~10% cross-shard mix actually went
# through the atomic cross-stream commit record — so this line gates "the
# per-stream rings buy pipeline headroom without costing fences or
# atomicity".  The schema-checked JSON is published as
# BENCH_multistream.json for downstream comparison.
"$BENCH_DIR/bench/bench_multistream" \
  --json "$JSON_OUT/multistream.json" > /dev/null
cp "$JSON_OUT/multistream.json" BENCH_multistream.json

# Benchmark self-test: perfbench (the BENCHMARK.json benchmark) builds its own
# stacks against src/ in a stand-alone Release tree (.bench_build/perfbench)
# that no stage above compiles.  --selftest builds it, checks that repeated
# short runs agree bit for bit on every modeled metric, and that a planted
# wrong shadow entry is reported as a failure; it exits nonzero on any
# failed check, so a src/ change that breaks the benchmark fails CI here.
python3 perfbench/run.py --selftest

# Oracle self-test: a sabotaged run (harness corrupts a committed data block
# behind the backend's back) must FAIL, proving the oracle has teeth.
if "$BENCH_DIR/bench/bench_fs_fuzz_sweep" --schedules 20 --seed 1 \
    --sabotage data > /dev/null 2>&1; then
  echo "FATAL: sabotaged fs-fuzz run passed — the oracle is blind" >&2
  exit 1
fi
echo "fs fuzz sabotage self-test: correctly rejected"

python3 - "$JSON_OUT/micro.json" "$JSON_OUT/txn_batch.json" \
  "$JSON_OUT/fault_sweep.json" "$JSON_OUT/fs_fuzz.json" \
  "$JSON_OUT/cleaner.json" "$JSON_OUT/mvcc.json" \
  "$JSON_OUT/nvlog.json" "$JSON_OUT/group_commit.json" \
  "$JSON_OUT/multistream.json" "$JSON_OUT/fig03.json" \
  "$JSON_OUT/fig11.json" <<'EOF'
import json, numbers, sys

for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    assert doc["schema"] == "tinca-bench-v1", f"{path}: bad schema {doc['schema']!r}"
    assert doc["bench"], f"{path}: empty bench name"
    assert isinstance(doc["config"], dict), f"{path}: config not an object"
    assert doc["rows"], f"{path}: no result rows"
    for row in doc["rows"]:
        assert row["label"], f"{path}: row without label"
        assert row["metrics"], f"{path}: row {row['label']!r} has no metrics"
        for name, value in row["metrics"].items():
            assert isinstance(value, numbers.Real), \
                f"{path}: {row['label']}/{name} is not numeric: {value!r}"
    print(f"{path}: OK ({len(doc['rows'])} rows)")

# The base fault/fs campaigns: the five bare stacks plus the four
# cleaner-capable ones re-run with the background cleaner armed (§11; the
# NvLog stack's cleaner drives the log drain, §13).  On top of that, the
# group-commit-capable stacks re-run with batched commit_group() schedules
# (§14) — the block-level sweep batches on every such stack, the fs-level
# sweep arms the sharded per-shard batcher — and the sharded stack re-runs
# with 2 commit streams per shard (§15), alone and combined with group
# commit, so crash cuts land inside the cross-stream commit-record protocol.
# The deep-stacked NvLog tiers (§16) run in both sweeps too, so crash cuts
# land inside parallel shard-affine drains and watermark-ring rotation.
CAMPAIGNS = {"Tinca", "Classic", "UBJ", "Sharded", "NvLog",
             "Tinca+cleaner", "UBJ+cleaner", "Sharded+cleaner",
             "NvLog+cleaner"}
STREAM_CAMPAIGNS = {"Sharded+streams", "Sharded+streams+group"}
STACKED_CAMPAIGNS = {"NvLogTinca", "NvLogSharded", "NvLogSharded+group"}
FAULT_CAMPAIGNS = CAMPAIGNS | {"Tinca+group", "Sharded+group",
                               "NvLog+group"} | STREAM_CAMPAIGNS \
    | STACKED_CAMPAIGNS
FS_CAMPAIGNS = CAMPAIGNS | {"Sharded+group"} | STREAM_CAMPAIGNS \
    | STACKED_CAMPAIGNS

# Both sweeps: every cleaner a row's stack ran must show it at work, each in
# its own unit — the cache cleaners retire blocks, an NvLog tier's log
# cleaner drains segments (the row carries its own *_armed flags, so no
# campaign list here).
def cleaner_did_work(row):
    m = row["metrics"]
    if m["cleaner_armed"] == 1:
        assert m["cleaner_retired"] > 0, \
            f"{row['label']}: the armed cache cleaner retired no block"
    if m["log_cleaner_armed"] == 1:
        assert m["log_cleaner_retired"] > 0, \
            f"{row['label']}: the armed log cleaner drained no segment"

# Fault-sweep specifics: every campaign present, full schedule count, and
# zero recovery-invariant violations (the post-crash media check's included).
with open(sys.argv[3]) as f:
    sweep = json.load(f)
labels = {row["label"] for row in sweep["rows"]}
assert labels == FAULT_CAMPAIGNS, f"campaigns ran: {labels}"
for row in sweep["rows"]:
    m = row["metrics"]
    assert m["schedules"] >= 1000, f"{row['label']}: only {m['schedules']} schedules"
    assert m["violations"] == 0, f"{row['label']}: {m['violations']} violations"
    assert m["crashes"] > 0, f"{row['label']}: campaign never crashed"
    cleaner_did_work(row)
print(f"fault sweep: OK ({len(sweep['rows'])} campaigns, 0 violations)")

# FS-fuzz specifics: every campaign, full schedule count, zero tree-model
# violations, zero dirty fscks, and the campaign actually exercised the
# machinery (crashes happened, fsck ran, the sweep covered commit points).
with open(sys.argv[4]) as f:
    fsf = json.load(f)
labels = {row["label"] for row in fsf["rows"]}
assert labels == FS_CAMPAIGNS, f"campaigns ran: {labels}"
for row in fsf["rows"]:
    m = row["metrics"]
    assert m["schedules"] >= 500, f"{row['label']}: only {m['schedules']} schedules"
    assert m["violations"] == 0, f"{row['label']}: {m['violations']} violations"
    assert m["fsck_dirty"] == 0, f"{row['label']}: {m['fsck_dirty']} dirty fscks"
    assert m["crashes"] > 0, f"{row['label']}: campaign never crashed"
    assert m["fsck_runs"] > 0, f"{row['label']}: fsck never ran"
    assert m["sweep_points"] > 0, f"{row['label']}: sweep covered no points"
    cleaner_did_work(row)
print(f"fs fuzz: OK ({len(fsf['rows'])} campaigns, 0 violations, 0 dirty)")

# Cleaner smoke specifics: both rows present, the armed run retired work in
# the background, and its commit p95 is strictly better than cleaner-off.
with open(sys.argv[5]) as f:
    cl = json.load(f)
rows = {row["label"]: row["metrics"] for row in cl["rows"]}
assert set(rows) == {"cleaner-off", "cleaner-on"}, f"rows: {set(rows)}"
off, on = rows["cleaner-off"], rows["cleaner-on"]
assert on["commit_p95_ns"] < off["commit_p95_ns"], \
    f"cleaner-on commit p95 {on['commit_p95_ns']} !< off {off['commit_p95_ns']}"
assert on["cleaner_retired"] > 0, "armed run never retired a block"
assert on["background_cleanings"] > 0, "armed run did no background write-backs"
assert off["dirty_writebacks"] > 0, "off run never paid an inline write-back"
assert on["drain_lag_count"] > 0, "drain-lag histogram is empty"
print(f"cleaner: OK (commit p95 off/on = "
      f"{off['commit_p95_ns'] / on['commit_p95_ns']:.2f}x)")

# MVCC read smoke specifics: both modes at every reader count, the gate
# speedup, every read content-verified, and the fast path actually resolved
# through version chains (not silently falling back to the mutex).
with open(sys.argv[6]) as f:
    mv = json.load(f)
rows = {row["label"]: row["metrics"] for row in mv["rows"]}
expect = {f"{mode}/readers={n}" for mode in ("locked", "mvcc") for n in (1, 2, 4, 8)}
assert set(rows) == expect, f"rows: {set(rows)}"
speedup = rows["mvcc/readers=4"]["reads_per_sec_m"] / \
    rows["locked/readers=4"]["reads_per_sec_m"]
assert speedup >= 3.0, f"mvcc read speedup at 4 readers only {speedup:.2f}x"
for label, m in rows.items():
    assert m["verified"] == 1, f"{label}: unverified read content"
    assert m["commit_count"] > 0, f"{label}: writer never committed"
    if label.startswith("mvcc"):
        assert m["snapshot_reads"] >= m["reads"], \
            f"{label}: only {m['snapshot_reads']} chain-resolved reads"
        assert m["lock_fallbacks"] == 0, f"{label}: fast path fell back to lock"
print(f"mvcc reads: OK (speedup at 4 readers = {speedup:.2f}x)")

# NvLog smoke specifics: all three stacks ran, the headline >= 2x throughput
# gate vs classic-journal, and the drain both moved records and coalesced
# superseded ones (a log tier that never coalesces has lost its batching).
with open(sys.argv[7]) as f:
    nv = json.load(f)
rows = {row["label"]: row["metrics"] for row in nv["rows"]}
assert set(rows) == {"Classic-journal", "NvLog-Classic", "Tinca",
                     "NvLog-drain", "Sharded", "NvLog-Tinca",
                     "NvLog-Sharded", "NvLog-stacked", "NvLog-meta-wear"}, \
    f"rows: {set(rows)}"
drain = rows["NvLog-drain"]
assert drain["speedup_vs_classic"] >= 2.0, \
    f"NvLog speedup only {drain['speedup_vs_classic']:.2f}x"
assert drain["coalesce_ratio"] > 0, "drain never coalesced a record"
assert drain["absorbed_txns"] > 0, "log absorbed no commits"
assert drain["drained_records"] > 0, "log drained no records"
assert drain["segments_recycled"] > 0, "log never recycled a segment"
# Deep-stacked gates (§16): the log tier over the Sharded inner must win
# the fsync-heavy commit window >= 2x, shard-affine parallel drains must
# at least halve the drain-lag p95, and the drains must actually have been
# partitioned by inner shard (not one flat batch).
stacked = rows["NvLog-stacked"]
assert stacked["speedup_vs_sharded"] >= 2.0, \
    f"NvLog-Sharded speedup only {stacked['speedup_vs_sharded']:.2f}x"
assert stacked["drain_lag_ratio"] <= 0.5, \
    f"parallel drain-lag ratio {stacked['drain_lag_ratio']:.2f} > 0.5"
assert stacked["partitioned_drains"] > 0, "no drain was shard-partitioned"
assert stacked["shard_batches"] > stacked["partitioned_drains"], \
    "partitioned drains never produced more than one shard batch"
wear = rows["NvLog-meta-wear"]
assert wear["wear_improvement"] >= 10.0, \
    f"watermark-ring wear improvement only {wear['wear_improvement']:.1f}x"
print(f"nvlog: OK (speedup = {drain['speedup_vs_classic']:.2f}x, "
      f"coalesce = {drain['coalesce_ratio']:.2f}, "
      f"stacked = {stacked['speedup_vs_sharded']:.2f}x, "
      f"lag ratio = {stacked['drain_lag_ratio']:.2f}, "
      f"wear = {wear['wear_improvement']:.1f}x)")

# Group-commit smoke specifics (§14): the full stream sweep and DES user
# sweep are present, and the headline ratios hold — >= 2x commit throughput
# and < 0.25 fences/txn from batching at 8 streams, no 1-stream p95
# regression, and a DES p95 win at 100k users.  The batcher row proves the
# threaded per-shard path actually formed multi-member batches.
with open(sys.argv[8]) as f:
    gc = json.load(f)
rows = {row["label"]: row["metrics"] for row in gc["rows"]}
expect = {f"{mode}/streams={n}" for mode in ("single", "group")
          for n in (1, 2, 4, 8, 16)}
expect |= {f"{mode}/users={u}" for mode in ("des-single", "des-group")
           for u in (1000, 10000, 100000)}
expect |= {"batcher/threads=8"}
assert set(rows) == expect, f"rows: {set(rows)}"
ratio = rows["group/streams=8"]["txns_per_sec"] / \
    rows["single/streams=8"]["txns_per_sec"]
assert ratio >= 2.0, f"group commit speedup at 8 streams only {ratio:.2f}x"
assert rows["group/streams=8"]["fences_per_txn"] < 0.25, \
    f"group fences/txn {rows['group/streams=8']['fences_per_txn']:.3f} >= 0.25"
assert rows["group/streams=8"]["batch_mean_txns"] > 4.0, \
    "8-stream batches did not form"
assert rows["group/streams=1"]["commit_p95_ns"] <= \
    rows["single/streams=1"]["commit_p95_ns"], "1-stream commit p95 regressed"
assert rows["des-group/users=100000"]["txn_p95_ns"] < \
    rows["des-single/users=100000"]["txn_p95_ns"], \
    "DES group p95 did not beat single at 100k users"
assert rows["batcher/threads=8"]["batch_mean_txns"] > 1.0, \
    "threaded batcher never coalesced concurrent committers"
print(f"group commit: OK (speedup = {ratio:.2f}x, fences/txn = "
      f"{rows['group/streams=8']['fences_per_txn']:.3f})")

# Multi-stream smoke specifics (§15): the full stream sweep is present, the
# 8-stream modeled throughput gate holds, fences/txn never grows with the
# stream count on the group path, and the cross-shard mix really went
# through the atomic cross-stream commit record.
with open(sys.argv[9]) as f:
    ms = json.load(f)
rows = {row["label"]: row["metrics"] for row in ms["rows"]}
expect = {f"sweep/streams={n}" for n in (1, 2, 4, 8, 16)}
expect |= {"group/streams=1", "group/streams=8"}
assert set(rows) == expect, f"rows: {set(rows)}"
speedup = rows["sweep/streams=8"]["speedup_vs_single_ring"]
assert speedup >= 3.0, f"8-stream speedup only {speedup:.2f}x"
assert rows["group/streams=8"]["fences_per_txn"] <= \
    rows["group/streams=1"]["fences_per_txn"] * 1.05, \
    "fences/txn grew with the stream count on the group path"
for n in (1, 2, 4, 8, 16):
    m = rows[f"sweep/streams={n}"]
    assert m["xstream_commits"] > 0, \
        f"streams={n}: no cross-stream commit record was ever staged"
    assert m["cross_shard_share"] > 0.05, \
        f"streams={n}: cross-shard mix only {m['cross_shard_share']:.3f}"
print(f"multistream: OK (8-stream speedup = {speedup:.2f}x, group fences/txn "
      f"= {rows['group/streams=8']['fences_per_txn']:.3f})")

# Paper-figure gates, per Filebench personality.  Fig 3(a): journaling
# writes more to the NVM cache than no journaling (the paper's double
# writes).  Fig 11: Tinca serves more file operations per second than
# Classic, with no more clflushes and no more disk writes per operation.
PERSONALITIES = ("fileserver", "webproxy", "varmail")
with open(sys.argv[10]) as f:
    rows = {row["label"]: row["metrics"] for row in json.load(f)["rows"]}
for p in PERSONALITIES:
    pct = rows[f"nvm_traffic/{p}"]["journal_traffic_pct"]
    assert pct > 100, f"fig 3(a) {p}: journal traffic only {pct:.0f}%"
print("fig 3(a): OK (journal traffic " + ", ".join(
    f"{p} {rows[f'nvm_traffic/{p}']['journal_traffic_pct']:.0f}%"
    for p in PERSONALITIES) + ")")
with open(sys.argv[11]) as f:
    rows = {row["label"]: row["metrics"] for row in json.load(f)["rows"]}
for p in PERSONALITIES:
    tinca, classic = rows[f"Tinca/{p}"], rows[f"Classic/{p}"]
    assert tinca["ops_per_sec"] > classic["ops_per_sec"], \
        f"fig 11 {p}: Tinca {tinca['ops_per_sec']:.0f} ops/s !> Classic " \
        f"{classic['ops_per_sec']:.0f}"
    for m in ("clflush_per_op", "disk_writes_per_op"):
        assert tinca[m] <= classic[m], \
            f"fig 11 {p}: Tinca {m} {tinca[m]:.2f} > Classic {classic[m]:.2f}"
print("fig 11: OK (Tinca/Classic ops/s " + ", ".join(
    f"{p} {rows[f'Tinca/{p}']['ops_per_sec'] / rows[f'Classic/{p}']['ops_per_sec']:.2f}x"
    for p in PERSONALITIES) + ")")
EOF
