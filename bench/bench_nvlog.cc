// Bench — NVM write-ahead tier: fsync-heavy small writes (DESIGN.md §13).
//
// Workload: single-block transactions, each committed (= fsynced)
// immediately, 80% of them re-writing a small hot set — the mail-spool /
// database-WAL pattern that motivates log-structured NVM staging.  Disk
// writes are synchronous, so every journal block Classic writes stalls the
// committer, while NvLog-Classic retires the same writes as one NVM append
// per commit plus background coalesced drains.  Tinca rides along as the
// specialised-NVM-cache reference point.
//
// The second half benches the DEEP stacks (DESIGN.md §16): the same log
// tier draining into a full TincaCache / ShardedTinca inner, measured on a
// commit-window clock (only time spent inside commit() counts, summed over
// the outer clock and every shard clock), plus the watermark-ring wear
// ablation.
//
// Usage:
//   bench_nvlog [--txns N] [--json <path>]
//
// Exit status is nonzero unless NvLog-Classic's fsync-heavy throughput is
// at least 2x classic-journal's AND the drain coalesced at least one
// superseded record AND the §16 stacked gates hold: NvLog-Sharded >= 2x
// Sharded commit throughput, parallel drain-lag p95 <= 0.5x sequential,
// and watermark rotation cools the hottest metadata line >= 10x.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <random>
#include <vector>

#include "backend/nvlog_stacked_backend.h"
#include "backend/sharded_backend.h"
#include "bench_reporter.h"
#include "bench_util.h"
#include "common/bytes.h"
#include "nvlog/log_meta.h"
#include "nvlog/nvlog_tier.h"
#include "obs/metrics.h"

using namespace tinca;
using namespace tinca::bench;

namespace {

struct RunResult {
  Histogram commit_lat;            ///< per-commit span (virtual ns)
  std::uint64_t ops = 0;           ///< measured commits
  double secs = 0.0;               ///< measured virtual seconds
  std::uint64_t disk_writes = 0;   ///< measured window only
  nvlog::NvLogStats log;           ///< zeroed for non-NvLog stacks
};

RunResult run_one(backend::StackKind kind, std::uint64_t txns) {
  backend::StackConfig cfg = scaled_stack(kind);
  // Synchronous disk writes: committing IS fsyncing, so whoever puts disk
  // blocks on the commit path pays for them in the commit span.
  cfg.disk_writes = blockdev::WritePolicy::kSync;
  // Background drains between commits, like the cleaner bench.
  cfg.nvlog.cleaner.mode = cleaner::CleanerMode::kStepped;
  backend::Stack stack(cfg);
  backend::TxnBackend& be = stack.backend();

  // 80% of writes land in a 64-block hot set: segments retire holding
  // several generations of the same blocks, which is what coalescing eats.
  constexpr std::uint64_t kUniverse = 2048;
  constexpr std::uint64_t kHotSet = 64;
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<std::uint64_t> hot(0, kHotSet - 1);
  std::uniform_int_distribution<std::uint64_t> cold(kHotSet, kUniverse - 1);
  std::uniform_int_distribution<int> coin(0, 99);
  std::vector<std::byte> blk(4096);

  const auto run_txns = [&](std::uint64_t n) {
    for (std::uint64_t t = 0; t < n; ++t) {
      const std::uint64_t blkno = coin(rng) < 80 ? hot(rng) : cold(rng);
      fill_pattern(blk, blkno ^ t);
      be.begin();
      be.stage(blkno, blk);
      be.commit();
      be.cleaner_step();  // no-op on stacks without one
    }
  };

  run_txns(txns / 4);  // warmup: fill caches / seal first segments

  stack.enable_tracing();
  const std::uint64_t disk_before = stack.disk_blocks_written();
  const std::uint64_t t0 = stack.clock().now();
  const nvlog::NvLogStats warm =
      kind == backend::StackKind::kNvLogClassic
          ? static_cast<backend::NvLogStackedBackend&>(be).tier().stats()
          : nvlog::NvLogStats{};
  run_txns(txns);

  RunResult r;
  if (const Histogram* h = commit_histogram(stack)) r.commit_lat = *h;
  r.ops = txns;
  r.secs = static_cast<double>(stack.clock().now() - t0) /
           static_cast<double>(sim::kSec);
  r.disk_writes = stack.disk_blocks_written() - disk_before;
  if (kind == backend::StackKind::kNvLogClassic) {
    r.log = static_cast<backend::NvLogStackedBackend&>(be).tier().stats();
    r.log.absorbed_txns -= warm.absorbed_txns;
    r.log.absorbed_records -= warm.absorbed_records;
    r.log.drained_records -= warm.drained_records;
    r.log.coalesced_records -= warm.coalesced_records;
    r.log.segments_recycled -= warm.segments_recycled;
  }
  return r;
}

double kiops(const RunResult& r) {
  return r.secs == 0.0 ? 0.0
                       : static_cast<double>(r.ops) / r.secs / 1000.0;
}

/// Fraction of retired records that were superseded before ever reaching
/// the disk — the write traffic coalescing deleted outright.
double coalesce_ratio(const nvlog::NvLogStats& s) {
  const std::uint64_t retired = s.drained_records + s.coalesced_records;
  return retired == 0 ? 0.0
                      : static_cast<double>(s.coalesced_records) /
                            static_cast<double>(retired);
}

void emit(Table& t, BenchReporter& reporter, const char* name,
          const RunResult& r) {
  t.add_row({name, Table::num(kiops(r), 1),
             Table::num(static_cast<double>(r.commit_lat.quantile(0.50)) / 1000.0, 2),
             Table::num(static_cast<double>(r.commit_lat.quantile(0.95)) / 1000.0, 2),
             Table::num(static_cast<double>(r.commit_lat.quantile(0.99)) / 1000.0, 2),
             Table::num(per_op(r.disk_writes, 0, r.ops), 2)});
  reporter.add_row(name)
      .metric("iops_k", kiops(r))
      .metric("commit_p50_us",
              static_cast<double>(r.commit_lat.quantile(0.50)) / 1000.0)
      .metric("commit_p95_us",
              static_cast<double>(r.commit_lat.quantile(0.95)) / 1000.0)
      .metric("commit_p99_us",
              static_cast<double>(r.commit_lat.quantile(0.99)) / 1000.0)
      .metric("disk_writes_per_op", per_op(r.disk_writes, 0, r.ops));
}

// --- Deep stacks (DESIGN.md §16) -------------------------------------------

/// Virtual now summed over the outer clock and every inner shard clock, so
/// commit spans that advance a shard's private clock are not invisible.
std::uint64_t all_clocks_now(backend::Stack& stack, backend::StackKind kind) {
  std::uint64_t t = stack.clock().now();
  shard::ShardedTinca* sh = nullptr;
  if (kind == backend::StackKind::kShardedTinca) {
    sh = &static_cast<backend::ShardedBackend&>(stack.backend()).sharded();
  } else if (kind == backend::StackKind::kNvLogSharded) {
    sh = &static_cast<backend::NvLogStackedBackend&>(stack.backend())
              .inner_sharded()
              ->sharded();
  }
  if (sh != nullptr)
    for (std::uint32_t s = 0; s < sh->shard_count(); ++s)
      t += sh->shard_clock(s).now();
  return t;
}

/// One fsync-heavy run over a deep stack, timed on the commit window only:
/// background drains (cleaner_step) are real work but not commit latency —
/// exactly the §16 claim that the log takes the inner stack (and its disk
/// evictions) off the fsync path.
RunResult run_stacked(backend::StackKind kind, std::uint64_t txns,
                      bool parallel_drain, Histogram* drain_apply_out) {
  backend::StackConfig cfg = scaled_stack(kind);
  cfg.disk_writes = blockdev::WritePolicy::kSync;
  // Shrink the NVM so the 2048-block universe overflows the inner caches:
  // the Sharded baseline must evict ON the commit path (synchronous disk
  // writes), the stacked log absorbs the same commits in one append.
  cfg.nvm_bytes = 5ull << 20;
  cfg.tinca.ring_bytes = 256 * 1024;  // per shard
  cfg.nvlog.log_bytes = 2ull << 20;
  cfg.nvlog.cleaner.mode = cleaner::CleanerMode::kStepped;
  cfg.nvlog.parallel_drain = parallel_drain;
  backend::Stack stack(cfg);
  backend::TxnBackend& be = stack.backend();

  constexpr std::uint64_t kUniverse = 2048;
  constexpr std::uint64_t kHotSet = 64;
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<std::uint64_t> hot(0, kHotSet - 1);
  std::uniform_int_distribution<std::uint64_t> cold(kHotSet, kUniverse - 1);
  std::uniform_int_distribution<int> coin(0, 99);
  std::vector<std::byte> blk(4096);

  RunResult r;
  const auto commit_one = [&](std::uint64_t blkno, std::uint64_t salt,
                              bool measured) {
    fill_pattern(blk, blkno ^ salt);
    be.begin();
    be.stage(blkno, blk);
    const std::uint64_t c0 = all_clocks_now(stack, kind);
    be.commit();
    if (measured) r.commit_lat.record(all_clocks_now(stack, kind) - c0);
    be.cleaner_step();
  };

  // Warmup: one sequential pass over the whole universe dirties every
  // block, filling the inner caches to capacity — the measured window runs
  // at steady state, where every cold miss costs the baseline an eviction.
  // The measured mix is 50% hot / 50% cold: colder than the first table's
  // mail-spool mix on purpose, because THIS table is about who pays for
  // capacity misses when every commit is an fsync.
  for (std::uint64_t b = 0; b < kUniverse; ++b) commit_one(b, 0, false);
  for (std::uint64_t t = 0; t < txns / 4; ++t)
    commit_one(coin(rng) < 50 ? hot(rng) : cold(rng), t, false);

  const std::uint64_t disk_before = stack.disk_blocks_written();
  for (std::uint64_t t = 0; t < txns; ++t)
    commit_one(coin(rng) < 50 ? hot(rng) : cold(rng), t, true);
  r.disk_writes = stack.disk_blocks_written() - disk_before;

  r.ops = txns;
  r.secs = static_cast<double>(r.commit_lat.sum()) /
           static_cast<double>(sim::kSec);
  if (kind != backend::StackKind::kShardedTinca) {
    auto& nb = static_cast<backend::NvLogStackedBackend&>(be);
    r.log = nb.tier().stats();
    if (drain_apply_out != nullptr) *drain_apply_out = r.log.drain_apply;
  }
  return r;
}

/// Watermark-ring wear ablation at tier level: N drain cycles with one slot
/// (the pre-§16 hot line) vs the rotating ring; returns the hottest line's
/// write count over the metadata ring region.
std::uint64_t meta_hot_line_writes(std::uint32_t slots, int cycles) {
  struct NullSink : nvlog::NvLogTier::DrainSink {
    void drain_apply(DrainBatch& blocks) override { (void)blocks; }
  } sink;
  sim::SimClock clock;
  nvm::NvmDevice nvm(1 << 19, nvdimm_profile(), clock);
  nvlog::NvLogConfig cfg;
  cfg.segment_bytes = 64 * 1024;
  cfg.watermark_slots = slots;
  auto tier = nvlog::NvLogTier::format(nvm, cfg);
  for (int i = 0; i < cycles; ++i) {
    std::vector<std::byte> blk(4096);
    fill_pattern(blk, static_cast<std::uint64_t>(i));
    std::vector<blockdev::WriteSet::Write> blocks;
    blocks.emplace_back(1, std::move(blk));
    tier->absorb_commit(std::move(blocks), sink);
    tier->drain_all(sink);  // one watermark advance per cycle
  }
  return nvm
      .wear(nvlog::kWatermarkBase,
            nvlog::kLogMetaBytes - nvlog::kWatermarkBase)
      .max_line_writes;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReporter reporter("nvlog", argc, argv);

  std::uint64_t txns = 8000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--txns") == 0 && i + 1 < argc) {
      txns = std::strtoull(argv[++i], nullptr, 0);
    } else {
      std::cerr << "usage: bench_nvlog [--txns N] [--json <path>]\n";
      return 2;
    }
  }
  reporter.config("txns", txns);
  reporter.config("blocks_per_txn", std::uint64_t{1});
  reporter.config("hot_set_pct", std::uint64_t{80});
  reporter.config("disk_writes", "sync");
  reporter.config("nvm_profile", "pcm");
  reporter.config("disk_profile", "ssd");

  banner("NVM write-ahead tier",
         "fsync-heavy 1-block commits: log staging vs disk journal");

  const RunResult classic = run_one(backend::StackKind::kClassic, txns);
  const RunResult nvlog_r = run_one(backend::StackKind::kNvLogClassic, txns);
  const RunResult tinca = run_one(backend::StackKind::kTinca, txns);

  Table t({"stack", "kIOPS", "p50 us", "p95 us", "p99 us", "disk wr/op"});
  emit(t, reporter, "Classic-journal", classic);
  emit(t, reporter, "NvLog-Classic", nvlog_r);
  emit(t, reporter, "Tinca", tinca);
  std::cout << t.render();

  const double speedup = kiops(classic) == 0.0
                             ? 0.0
                             : kiops(nvlog_r) / kiops(classic);
  const double ratio = coalesce_ratio(nvlog_r.log);
  reporter.add_row("NvLog-drain")
      .metric("speedup_vs_classic", speedup)
      .metric("coalesce_ratio", ratio)
      .metric("absorbed_txns", static_cast<double>(nvlog_r.log.absorbed_txns))
      .metric("drained_records",
              static_cast<double>(nvlog_r.log.drained_records))
      .metric("coalesced_records",
              static_cast<double>(nvlog_r.log.coalesced_records))
      .metric("segments_recycled",
              static_cast<double>(nvlog_r.log.segments_recycled));

  std::cout << "\nNvLog-Classic vs classic-journal: " << Table::num(speedup, 2)
            << "x throughput; drain coalesced "
            << Table::num(100.0 * ratio, 1) << "% of retired records ("
            << nvlog_r.log.coalesced_records << " of "
            << (nvlog_r.log.drained_records + nvlog_r.log.coalesced_records)
            << ").\n";
  std::cout << "Expectation: absorbing fsyncs in NVM takes the synchronous\n"
               "disk journal off the commit path (>= 2x here), and the\n"
               "hot-set overwrites never reach the disk at all.\n";

  // --- Deep stacks (DESIGN.md §16): log over the REAL caches. --------------
  banner("NVM write-ahead tier, deep-stacked",
         "commit-window throughput: log-over-Tinca/Sharded vs bare Sharded");

  Histogram drain_par, drain_seq;
  const RunResult sharded =
      run_stacked(backend::StackKind::kShardedTinca, txns, true, nullptr);
  const RunResult nv_tinca =
      run_stacked(backend::StackKind::kNvLogTinca, txns, true, nullptr);
  const RunResult nv_sharded =
      run_stacked(backend::StackKind::kNvLogSharded, txns, true, &drain_par);
  const RunResult nv_sharded_seq = run_stacked(
      backend::StackKind::kNvLogSharded, txns, false, &drain_seq);
  (void)nv_sharded_seq;

  Table t2({"stack", "kIOPS", "p50 us", "p95 us", "p99 us", "disk wr/op"});
  emit(t2, reporter, "Sharded", sharded);
  emit(t2, reporter, "NvLog-Tinca", nv_tinca);
  emit(t2, reporter, "NvLog-Sharded", nv_sharded);
  std::cout << t2.render();

  const double stacked_speedup =
      kiops(sharded) == 0.0 ? 0.0 : kiops(nv_sharded) / kiops(sharded);
  const double lag_p95_par =
      static_cast<double>(drain_par.quantile(0.95)) / 1000.0;
  const double lag_p95_seq =
      static_cast<double>(drain_seq.quantile(0.95)) / 1000.0;
  const double lag_ratio = lag_p95_seq == 0.0 ? 1.0 : lag_p95_par / lag_p95_seq;
  reporter.add_row("NvLog-stacked")
      .metric("speedup_vs_sharded", stacked_speedup)
      .metric("drain_lag_p95_parallel_us", lag_p95_par)
      .metric("drain_lag_p95_sequential_us", lag_p95_seq)
      .metric("drain_lag_ratio", lag_ratio)
      .metric("partitioned_drains",
              static_cast<double>(nv_sharded.log.partitioned_drains))
      .metric("shard_batches",
              static_cast<double>(nv_sharded.log.shard_batches))
      .metric("coalesce_ratio", coalesce_ratio(nv_sharded.log));

  // Watermark-ring wear ablation: the pre-§16 single hot line vs rotation.
  const std::uint64_t wear_single = meta_hot_line_writes(1, 256);
  const std::uint64_t wear_rotated = meta_hot_line_writes(32, 256);
  const double wear_improvement =
      wear_rotated == 0 ? 0.0
                        : static_cast<double>(wear_single) /
                              static_cast<double>(wear_rotated);
  reporter.add_row("NvLog-meta-wear")
      .metric("hot_line_writes_single_slot", static_cast<double>(wear_single))
      .metric("hot_line_writes_rotated", static_cast<double>(wear_rotated))
      .metric("wear_improvement", wear_improvement);

  std::cout << "\nNvLog-Sharded vs Sharded (commit window): "
            << Table::num(stacked_speedup, 2)
            << "x; parallel drain p95 " << Table::num(lag_p95_par, 1)
            << " us vs sequential " << Table::num(lag_p95_seq, 1)
            << " us (ratio " << Table::num(lag_ratio, 2)
            << "); watermark rotation cools the hot metadata line "
            << Table::num(wear_improvement, 1) << "x ("
            << wear_single << " -> " << wear_rotated << " writes).\n";

  bool ok = reporter.finish();
  if (speedup < 2.0) {
    std::cerr << "GATE FAILED: NvLog speedup " << speedup << " < 2.0\n";
    ok = false;
  }
  if (ratio <= 0.0) {
    std::cerr << "GATE FAILED: drain never coalesced a record\n";
    ok = false;
  }
  if (stacked_speedup < 2.0) {
    std::cerr << "GATE FAILED: NvLog-Sharded stacked speedup "
              << stacked_speedup << " < 2.0\n";
    ok = false;
  }
  if (lag_ratio > 0.5) {
    std::cerr << "GATE FAILED: parallel drain-lag p95 ratio " << lag_ratio
              << " > 0.5\n";
    ok = false;
  }
  if (wear_improvement < 10.0) {
    std::cerr << "GATE FAILED: watermark wear improvement "
              << wear_improvement << "x < 10x\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
