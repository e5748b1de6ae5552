// Shared schedule/seed/campaign machinery for the randomized fault-fuzz
// harnesses: the block-level harness (src/backend/fault_fuzz.h) and the
// file-system-level harness (src/fs/fs_fuzz.h) both derive their schedules
// from the same option block, build their stacks through the same per-kind
// constructors, and report failures with the same reproduce-from-seed tag.
//
// Everything is a function of FuzzOptions::seed and the schedule index, so a
// failure anywhere reproduces from the printed "reproduce:" tag alone:
// re-run the campaign with the printed seed, first_schedule and schedules=1.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "backend/classic_backend.h"
#include "backend/sharded_backend.h"
#include "backend/stack_builder.h"
#include "backend/tinca_backend.h"
#include "backend/txn_backend.h"
#include "backend/ubj_backend.h"

namespace tinca::backend {

/// Deliberate harness sabotage for oracle self-tests ("does the harness
/// actually catch a corruption?").  kNone in every real campaign.
enum class FuzzSabotage : std::uint8_t {
  kNone = 0,
  /// Commit one unrecorded update over a committed block right before
  /// verification — the recovered/live state then matches no acceptable
  /// history, and the harness must flag it.
  kCorruptCommitted,
  /// The background cleaner marks blocks clean WITHOUT their pre-writeback
  /// disk flush (DESIGN.md §11).  Stale disk data then leaks into reads
  /// after eviction or a clean remount, and the oracle must flag it.
  kCleanerSkipsFlush,
  /// The NvLog tier's absorb returns WITHOUT its clflush + sfence pass
  /// (DESIGN.md §13) — "committed" txns are only cache-resident.  Any
  /// crash then loses acknowledged commits, and the oracle must flag it.
  kNvLogSkipsCommitFlush,
  /// The sharded stack stages its cross-stream commit record WITHOUT the
  /// clflush that makes it the atomic commit point (DESIGN.md §15).  A
  /// crash then rolls back an acknowledged cross-shard transaction, and
  /// the oracle must flag the lost commit.
  kSkipCommitRecordFlush,
  /// The NvLog tier stores its watermark ring records WITHOUT the flush
  /// that makes them durable (DESIGN.md §16).  A crash then mounts a stale
  /// watermark whose oldest_live_seq can name a recycled-and-reused
  /// segment; the chain scan finds a gap at its head and every younger
  /// committed txn is lost — the oracle must flag it.
  kSkipWatermarkRecordFlush,
};

/// Parameters of one fuzz campaign (one backend kind, many schedules).
struct FuzzOptions {
  StackKind kind = StackKind::kTinca;
  std::uint64_t seed = 1;
  std::uint32_t schedules = 200;
  /// First schedule index to run (schedule seeds depend only on the campaign
  /// seed and the *absolute* index, so seed + first_schedule + schedules=1
  /// replays exactly one schedule of a larger campaign).
  std::uint32_t first_schedule = 0;
  /// Transactions attempted per schedule (a crash may cut a schedule short).
  std::uint32_t txns_per_schedule = 12;
  /// Blocks per transaction: 1..min(this, backend max_txn_blocks()).
  std::uint32_t max_blocks_per_txn = 6;
  /// Data-block universe [0, data_blocks) — deliberately larger than the
  /// small NVM cache so evictions and write-backs run under fault pressure.
  std::uint64_t data_blocks = 320;
  /// Probability a schedule arms a deterministic crash (power cut or torn
  /// write); random torn writes can still crash unarmed schedules.
  double crash_prob = 0.6;
  /// Armed power cuts land uniformly on NVM crash points [1, this].  The
  /// default covers the first few transactions of every stack; self-tests
  /// whose bug needs a LONG history first (e.g. the watermark-ring sabotage,
  /// which only bites after the log wraps) raise it so late cuts happen.
  std::uint64_t crash_point_range = 300;
  /// Disk fault rates (per operation).
  double transient_read_rate = 0.01;
  double transient_write_rate = 0.02;
  double bad_sector_rate = 0.002;
  double torn_write_rate = 0.001;
  /// 0 = pick a per-kind default small enough to force evictions.
  std::uint64_t nvm_bytes = 0;
  std::uint64_t disk_blocks = 1ull << 12;
  std::uint64_t ring_bytes = 64 * 1024;    ///< Tinca ring (per shard)
  std::uint64_t journal_blocks = 512;      ///< Classic journal reservation
  std::uint32_t shards = 2;                ///< kShardedTinca only
  /// Per-shard commit streams (DESIGN.md §15).  1 keeps the single-ring
  /// layout; >1 splits each shard's ring region into per-stream rings and
  /// lets cross-shard transactions anchor to the commit directory.
  std::uint32_t streams = 1;
  blockdev::RetryPolicy retry{};
  /// Background cleaner mode for the cache under test (kStepped arms the
  /// cleaner deterministically: the harness calls cleaner_step() after each
  /// commit, and crash points inside the drain are swept like any other).
  cleaner::CleanerMode cleaner = cleaner::CleanerMode::kDisabled;
  /// Cleaner watermarks for cleaner-armed campaigns.  The aggressive
  /// self-test campaigns drop these so the cleaner provably does work on
  /// every schedule; real campaigns keep the production defaults.
  std::uint32_t cleaner_low_water_pct = cleaner::CleanerConfig{}.low_water_pct;
  std::uint32_t cleaner_high_water_pct =
      cleaner::CleanerConfig{}.high_water_pct;
  /// Group commit (DESIGN.md §14): the workload randomly commits 2–4
  /// transactions through TxnBackend::commit_group() instead of one at a
  /// time, and the sharded stack arms its per-shard commit batcher.  Only
  /// backends whose supports_group_commit() is true take the batched path;
  /// others keep single commits so their crash-candidate set stays exact.
  bool group_commit = false;
  /// Oracle self-test hook; leave kNone outside harness self-tests.
  FuzzSabotage sabotage = FuzzSabotage::kNone;
};

/// Campaign outcome.  `violations` is the only failure signal; everything
/// else is telemetry (how hard the campaign actually exercised the stack).
struct FuzzReport {
  std::uint64_t schedules = 0;
  std::uint64_t crashes = 0;          ///< schedules ended by CrashException
  std::uint64_t clean_remounts = 0;   ///< crash-free recover() round trips
  std::uint64_t io_errors = 0;        ///< unrecoverable-read IoError throws
  std::uint64_t wedges = 0;           ///< documented capacity wedges hit
  std::uint64_t violations = 0;       ///< invariant violations (must be 0)
  std::vector<std::string> violation_messages;  ///< first few, with seeds
  std::uint64_t io_retries = 0;
  std::uint64_t io_quarantined = 0;
  std::uint64_t io_degraded_writes = 0;
  blockdev::FaultStats faults;        ///< summed over all schedules
};

/// One sweep campaign: a stack kind with the background cleaner off or
/// armed in deterministic stepped mode (DESIGN.md §11), optionally with
/// group commit (§14) — batched commit_group() schedules in the block-level
/// harness, the sharded per-shard batcher in both — and per-shard commit
/// streams (§15).  Classic has no cleaner.
struct FuzzCampaign {
  StackKind kind;
  cleaner::CleanerMode cleaner;
  bool group;
  std::uint32_t streams;  ///< commit streams per shard (DESIGN.md §15)
  /// Block-level sweep only: group commit here means commit_group()
  /// batches, which the file-system harness never issues.
  bool block_only;
  const char* label;
};

/// The campaign table both sweep benches run (bench_fault_sweep runs every
/// row, bench_fs_fuzz_sweep skips the block-only ones).
inline constexpr FuzzCampaign kFuzzCampaigns[] = {
    {StackKind::kTinca, cleaner::CleanerMode::kDisabled, false, 1, false,
     "Tinca"},
    {StackKind::kClassic, cleaner::CleanerMode::kDisabled, false, 1, false,
     "Classic"},
    {StackKind::kUbj, cleaner::CleanerMode::kDisabled, false, 1, false, "UBJ"},
    {StackKind::kShardedTinca, cleaner::CleanerMode::kDisabled, false, 1,
     false, "Sharded"},
    {StackKind::kTinca, cleaner::CleanerMode::kStepped, false, 1, false,
     "Tinca+cleaner"},
    {StackKind::kUbj, cleaner::CleanerMode::kStepped, false, 1, false,
     "UBJ+cleaner"},
    {StackKind::kShardedTinca, cleaner::CleanerMode::kStepped, false, 1, false,
     "Sharded+cleaner"},
    {StackKind::kNvLogClassic, cleaner::CleanerMode::kDisabled, false, 1,
     false, "NvLog"},
    {StackKind::kNvLogClassic, cleaner::CleanerMode::kStepped, false, 1, false,
     "NvLog+cleaner"},
    {StackKind::kTinca, cleaner::CleanerMode::kDisabled, true, 1, true,
     "Tinca+group"},
    {StackKind::kShardedTinca, cleaner::CleanerMode::kDisabled, true, 1, false,
     "Sharded+group"},
    {StackKind::kNvLogClassic, cleaner::CleanerMode::kDisabled, true, 1, true,
     "NvLog+group"},
    // Multi-stream rings (DESIGN.md §15): cross-shard txns anchor to one
    // atomic cross-stream commit record, cuts land at every protocol step.
    {StackKind::kShardedTinca, cleaner::CleanerMode::kDisabled, false, 2,
     false, "Sharded+streams"},
    {StackKind::kShardedTinca, cleaner::CleanerMode::kDisabled, true, 2, false,
     "Sharded+streams+group"},
    // Deep-stacked NvLog tiers (DESIGN.md §16): the log drains into a full
    // transactional cache, so cuts land mid-drain with both the tier's
    // watermark ring and the inner cache's commit protocol in flight.
    {StackKind::kNvLogTinca, cleaner::CleanerMode::kStepped, false, 1, false,
     "NvLogTinca"},
    {StackKind::kNvLogSharded, cleaner::CleanerMode::kStepped, false, 1, false,
     "NvLogSharded"},
    {StackKind::kNvLogSharded, cleaner::CleanerMode::kDisabled, true, 1, false,
     "NvLogSharded+group"},
};

namespace detail {

/// Log-tier carve-out shared by every NvLog fuzz stack (and by the harness'
/// post-crash verify_nvlog_media sweep, which must view the same range).
inline constexpr std::uint64_t kFuzzLogBytes = 1ull << 19;  // 512 KB

inline std::uint64_t fuzz_mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Per-kind NVM size: small enough that the workload's block universe
/// overcommits the cache (evictions + threshold cleaning run under faults),
/// big enough for a valid layout (FlashCache needs one full 256-slot set).
inline std::uint64_t fuzz_nvm_bytes(StackKind kind, std::uint64_t override) {
  if (override != 0) return override;
  switch (kind) {
    case StackKind::kClassic:
    case StackKind::kClassicNoJournal:
      return 3ull << 19;  // 1.5 MB → one 256-slot set
    case StackKind::kShardedTinca:
      return (1ull << 19) * 2;  // two 512 KB shards
    case StackKind::kNvLogClassic:
      return (3ull << 19) + kFuzzLogBytes;  // classic cache + 512 KB log
    case StackKind::kNvLogTinca:
      return (1ull << 19) + kFuzzLogBytes;  // Tinca cache + 512 KB log
    case StackKind::kNvLogSharded:
      return (1ull << 19) * 2 + kFuzzLogBytes;  // two shards + 512 KB log
    default:
      return 1ull << 19;  // 512 KB → ~100 Tinca/UBJ blocks
  }
}

inline std::unique_ptr<TxnBackend> fuzz_build(const FuzzOptions& o,
                                              nvm::NvmDevice& nvm,
                                              blockdev::BlockDevice& disk,
                                              bool recover) {
  switch (o.kind) {
    case StackKind::kTinca: {
      core::TincaConfig c;
      c.ring_bytes = o.ring_bytes;
      c.num_streams = o.streams;
      c.io = o.retry;
      c.cleaner.mode = o.cleaner;
      c.cleaner.low_water_pct = o.cleaner_low_water_pct;
      c.cleaner.high_water_pct = o.cleaner_high_water_pct;
      c.cleaner.sabotage_skip_write =
          o.sabotage == FuzzSabotage::kCleanerSkipsFlush;
      return recover ? TincaBackend::recover(nvm, disk, c)
                     : TincaBackend::format(nvm, disk, c);
    }
    case StackKind::kClassic:
    case StackKind::kClassicNoJournal: {
      classic::ClassicConfig c;
      c.journaling = o.kind == StackKind::kClassic;
      c.journal_blocks = o.journal_blocks;
      c.cache.io = o.retry;
      return recover ? ClassicBackend::recover(nvm, disk, c)
                     : ClassicBackend::format(nvm, disk, c);
    }
    case StackKind::kUbj: {
      ubj::UbjConfig c;
      c.io = o.retry;
      c.cleaner.mode = o.cleaner;
      c.cleaner.low_water_pct = o.cleaner_low_water_pct;
      c.cleaner.high_water_pct = o.cleaner_high_water_pct;
      c.cleaner.sabotage_skip_write =
          o.sabotage == FuzzSabotage::kCleanerSkipsFlush;
      return recover ? UbjBackend::recover(nvm, disk, c)
                     : UbjBackend::format(nvm, disk, c);
    }
    case StackKind::kShardedTinca: {
      shard::ShardedConfig s;
      s.num_shards = o.shards;
      s.group_commit = o.group_commit;
      // The harnesses are single-threaded, so lingering for co-committers
      // only wastes wall clock; linger=0 keeps the full leader/batch commit
      // path (the code under test) without the wait.
      s.group_linger_us = 0;
      s.sabotage_skip_commit_record_flush =
          o.sabotage == FuzzSabotage::kSkipCommitRecordFlush;
      s.shard.ring_bytes = o.ring_bytes;
      s.shard.num_streams = o.streams;
      s.shard.io = o.retry;
      s.shard.cleaner.mode = o.cleaner;
      s.shard.cleaner.low_water_pct = o.cleaner_low_water_pct;
      s.shard.cleaner.high_water_pct = o.cleaner_high_water_pct;
      s.shard.cleaner.sabotage_skip_write =
          o.sabotage == FuzzSabotage::kCleanerSkipsFlush;
      return recover ? ShardedBackend::recover(nvm, disk, s)
                     : ShardedBackend::format(nvm, disk, s);
    }
    case StackKind::kNvLogClassic:
    case StackKind::kNvLogTinca:
    case StackKind::kNvLogSharded: {
      NvLogStackedConfig c;
      c.log_bytes = kFuzzLogBytes;      // 512 KB log in front of the cache
      c.log.segment_bytes = 64 * 1024;  // 7 segments → frequent wrap + drain
      c.inner = o.kind == StackKind::kNvLogClassic ? NvLogInner::kClassic
                : o.kind == StackKind::kNvLogSharded ? NvLogInner::kSharded
                                                     : NvLogInner::kTinca;
      c.classic.journal_blocks = o.journal_blocks;  // same data area as Classic
      c.classic.cache.io = o.retry;
      c.shards = o.shards;
      c.tinca.ring_bytes = o.ring_bytes;
      c.tinca.num_streams = o.streams;
      c.tinca.io = o.retry;
      // The inner cache keeps its own threshold cleaner on the harness'
      // settings; the *log* cleaner (segment drains) is the one the stepped
      // campaigns arm and crash-sweep.
      c.tinca.cleaner.mode = o.cleaner;
      c.tinca.cleaner.low_water_pct = o.cleaner_low_water_pct;
      c.tinca.cleaner.high_water_pct = o.cleaner_high_water_pct;
      c.tinca.cleaner.sabotage_skip_write =
          o.sabotage == FuzzSabotage::kCleanerSkipsFlush;
      c.cleaner.mode = o.cleaner;
      c.cleaner.low_water_pct = o.cleaner_low_water_pct;
      c.cleaner.high_water_pct = o.cleaner_high_water_pct;
      c.cleaner.sabotage_skip_write =
          o.sabotage == FuzzSabotage::kCleanerSkipsFlush;
      c.log.sabotage_skip_commit_flush =
          o.sabotage == FuzzSabotage::kNvLogSkipsCommitFlush;
      c.log.sabotage_skip_watermark_flush =
          o.sabotage == FuzzSabotage::kSkipWatermarkRecordFlush;
      return recover ? NvLogStackedBackend::recover(nvm, disk, c)
                     : NvLogStackedBackend::format(nvm, disk, c);
    }
  }
  TINCA_ENSURE(false, "unknown StackKind");
  return nullptr;
}

/// Fold the backend's retry/quarantine/degradation counters into `rep`.
inline void fuzz_collect(const FuzzOptions& o, TxnBackend& be,
                         FuzzReport& rep) {
  const auto add = [&rep](std::uint64_t retries, std::uint64_t quarantined,
                          std::uint64_t degraded) {
    rep.io_retries += retries;
    rep.io_quarantined += quarantined;
    rep.io_degraded_writes += degraded;
  };
  switch (o.kind) {
    case StackKind::kTinca: {
      const core::TincaCacheStats& s =
          static_cast<TincaBackend&>(be).cache().stats();
      add(s.io_retries, s.io_quarantined, s.io_degraded_writes);
      break;
    }
    case StackKind::kClassic:
    case StackKind::kClassicNoJournal: {
      const classic::FlashCacheStats& s =
          static_cast<ClassicBackend&>(be).stack().cache().stats();
      add(s.io_retries, s.io_quarantined, s.io_degraded_writes);
      break;
    }
    case StackKind::kUbj: {
      const ubj::UbjStats& s = static_cast<UbjBackend&>(be).store().stats();
      add(s.io_retries, s.io_quarantined, s.io_degraded_writes);
      break;
    }
    case StackKind::kShardedTinca: {
      const core::TincaCacheStats s =
          static_cast<ShardedBackend&>(be).sharded().aggregated_stats();
      add(s.io_retries, s.io_quarantined, s.io_degraded_writes);
      break;
    }
    case StackKind::kNvLogClassic:
    case StackKind::kNvLogTinca:
    case StackKind::kNvLogSharded: {
      // The log tier retries nothing itself; fold in its inner stack's.
      FuzzOptions inner = o;
      inner.kind = StackKind::kShardedTinca;
      if (o.kind == StackKind::kNvLogClassic) inner.kind = StackKind::kClassic;
      if (o.kind == StackKind::kNvLogTinca) inner.kind = StackKind::kTinca;
      fuzz_collect(inner, static_cast<NvLogStackedBackend&>(be).inner(), rep);
      break;
    }
  }
}

/// Fold one schedule's disk-fault telemetry into the campaign totals.
inline void fuzz_fold_faults(blockdev::FaultStats& total,
                             const blockdev::FaultStats& f) {
  total.transient_read_errors += f.transient_read_errors;
  total.transient_write_errors += f.transient_write_errors;
  total.bad_sectors += f.bad_sectors;
  total.bad_sector_errors += f.bad_sector_errors;
  total.torn_writes += f.torn_writes;
  total.latency_spikes += f.latency_spikes;
}

}  // namespace detail

/// Machine-parseable reproduce tag appended to every violation message.
/// Re-running the same harness with these exact options replays the failing
/// schedule alone (schedule seeds depend only on seed + absolute index).
inline std::string fuzz_reproduce_tag(std::uint64_t campaign_seed,
                                      std::uint64_t schedule) {
  return "reproduce: seed=" + std::to_string(campaign_seed) +
         " first_schedule=" + std::to_string(schedule) + " schedules=1";
}

/// Parse a violation message's reproduce tag back into campaign options.
/// Returns false when the message carries no tag.
inline bool fuzz_parse_reproduce(const std::string& message,
                                 std::uint64_t* seed,
                                 std::uint32_t* first_schedule) {
  const auto grab = [&message](const char* key, std::uint64_t* out) {
    const std::size_t at = message.rfind(key);
    if (at == std::string::npos) return false;
    *out = std::strtoull(message.c_str() + at + std::strlen(key), nullptr, 10);
    return true;
  };
  std::uint64_t first = 0;
  if (!grab("reproduce: seed=", seed) || !grab(" first_schedule=", &first))
    return false;
  *first_schedule = static_cast<std::uint32_t>(first);
  return true;
}

/// The full schedule context embedded verbatim in every violation message:
/// campaign seed, schedule index and seed, the fault rates in force, and the
/// armed deterministic crash (if any).
inline std::string fuzz_schedule_tag(const FuzzOptions& o,
                                     std::uint64_t schedule,
                                     std::uint64_t schedule_seed,
                                     const std::string& armed) {
  return "schedule " + std::to_string(schedule) + " (schedule_seed=" +
         std::to_string(schedule_seed) + " faults[tr=" +
         std::to_string(o.transient_read_rate) + " tw=" +
         std::to_string(o.transient_write_rate) + " bad=" +
         std::to_string(o.bad_sector_rate) + " torn=" +
         std::to_string(o.torn_write_rate) + "] arm=" + armed + ")";
}

}  // namespace tinca::backend
