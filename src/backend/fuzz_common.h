// Shared schedule/seed/campaign machinery for the randomized fault-fuzz
// harnesses: the block-level harness (src/backend/fault_fuzz.h) and the
// file-system-level harness (src/fs/fs_fuzz.h) both derive their schedules
// from the same option block, map it onto a StackConfig for open_backend()
// (stack_builder.h), and report failures with the same reproduce-from-seed
// tag.
//
// Everything is a function of FuzzOptions::seed and the schedule index, so a
// failure anywhere reproduces from the printed "reproduce:" tag alone:
// re-run the campaign with the printed seed, first_schedule and schedules=1.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "backend/stack_builder.h"
#include "backend/txn_backend.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace tinca::backend {

/// Deliberate harness sabotage for oracle self-tests ("does the harness
/// actually catch a corruption?").  kNone in every real campaign.
enum class FuzzSabotage : std::uint8_t {
  kNone = 0,
  /// Commit one unrecorded update over a committed block right before
  /// verification — the recovered/live state then matches no acceptable
  /// history, and the harness must flag it.  Block-level harness only (the
  /// fs harness's block overwrites are fs::FsSabotage).
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
  /// 0 = size the device per kind (detail::fuzz_stack_config), small
  /// enough to force evictions.
  std::uint64_t nvm_bytes = 0;
  std::uint64_t disk_blocks = 1ull << 12;
  std::uint64_t ring_bytes = 64 * 1024;    ///< Tinca ring (per shard)
  std::uint64_t journal_blocks = 512;      ///< Classic journal reservation
  std::uint32_t shards = 2;                ///< sharded stacks only
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
    // Block level: commit_group() batches absorbed as one log txn run.  The
    // fs harness never calls commit_group() and +group arms only the bare
    // sharded stack's batcher, so at the fs level this row runs NvLogSharded
    // with the log cleaner off: segments drain only under backpressure.
    {StackKind::kNvLogSharded, cleaner::CleanerMode::kDisabled, true, 1, false,
     "NvLogSharded+group"},
};

namespace detail {

inline std::uint64_t fuzz_mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The StackConfig a campaign's stacks are opened with.  `cache_unit` is
/// the NVM given to one Tinca or UBJ cache (per shard on the sharded
/// stacks): small enough that the workload's block universe overcommits it,
/// so evictions and write-backs run under faults.  Classic always gets one
/// full 256-slot FlashCache set (1.5 MB), and the NvLog stacks carve their
/// 512 KB log out in front.  `o.nvm_bytes` != 0 overrides the total.
inline StackConfig fuzz_stack_config(const FuzzOptions& o,
                                     std::uint64_t cache_unit) {
  StackConfig cfg;
  cfg.kind = o.kind;
  cfg.nvm_profile = "nvdimm";
  cfg.disk_blocks = o.disk_blocks;
  cfg.disk_faults.transient_read_rate = o.transient_read_rate;
  cfg.disk_faults.transient_write_rate = o.transient_write_rate;
  cfg.disk_faults.bad_sector_rate = o.bad_sector_rate;
  cfg.disk_faults.torn_write_rate = o.torn_write_rate;
  cfg.disk_retry = o.retry;
  // Every cache runs its threshold cleaner on the campaign's settings.
  // Over an NvLog tier the inner cache keeps its own, and the *log* cleaner
  // (segment drains) is the one the stepped campaigns arm and crash-sweep.
  const auto arm = [&o](cleaner::CleanerConfig& c) {
    c.mode = o.cleaner;
    c.low_water_pct = o.cleaner_low_water_pct;
    c.high_water_pct = o.cleaner_high_water_pct;
    c.sabotage_skip_write = o.sabotage == FuzzSabotage::kCleanerSkipsFlush;
  };
  arm(cfg.tinca.cleaner);
  arm(cfg.ubj.cleaner);
  arm(cfg.nvlog.cleaner);
  cfg.tinca.ring_bytes = o.ring_bytes;
  cfg.tinca.num_streams = o.streams;
  cfg.classic.journal_blocks = o.journal_blocks;
  cfg.sharded.num_shards = o.shards;
  cfg.sharded.group_commit = o.group_commit;
  // The harnesses are single-threaded, so lingering for co-committers only
  // wastes wall clock; linger=0 keeps the full leader/batch commit path
  // (the code under test) without the wait.
  cfg.sharded.group_linger_us = 0;
  cfg.sharded.sabotage_skip_commit_record_flush =
      o.sabotage == FuzzSabotage::kSkipCommitRecordFlush;
  cfg.nvlog.log_bytes = 1ull << 19;         // 512 KB log
  cfg.nvlog.log.segment_bytes = 64 * 1024;  // 7 segments → frequent wrap
  cfg.nvlog.log.sabotage_skip_commit_flush =
      o.sabotage == FuzzSabotage::kNvLogSkipsCommitFlush;
  cfg.nvlog.log.sabotage_skip_watermark_flush =
      o.sabotage == FuzzSabotage::kSkipWatermarkRecordFlush;

  std::uint64_t cache = cache_unit;
  if (o.kind == StackKind::kClassic || o.kind == StackKind::kClassicNoJournal ||
      o.kind == StackKind::kNvLogClassic)
    cache = 3ull << 19;
  if (o.kind == StackKind::kShardedTinca || o.kind == StackKind::kNvLogSharded)
    cache = cache_unit * o.shards;
  cfg.nvm_bytes = o.nvm_bytes != 0 ? o.nvm_bytes
                                   : cache + (nvlog_stacked(o.kind)
                                                  ? cfg.nvlog.log_bytes
                                                  : 0);
  return cfg;
}

/// Fold the backend's retry/quarantine/degradation counters into `rep`.
/// Every cache registers them as `<prefix>io.{retries,quarantined,
/// degraded_writes}`; summing every registered copy covers each shard of a
/// sharded stack and the inner stack under an NvLog tier (the tier itself
/// retries nothing).
inline void fuzz_collect(const TxnBackend& be, FuzzReport& rep) {
  obs::MetricsRegistry reg;
  be.register_metrics(reg, "");
  const obs::Json doc = reg.to_json();
  for (const auto& [name, value] : doc.members()) {
    const std::string_view n = name;
    std::uint64_t* total =
        n.ends_with(".io.retries")           ? &rep.io_retries
        : n.ends_with(".io.quarantined")     ? &rep.io_quarantined
        : n.ends_with(".io.degraded_writes") ? &rep.io_degraded_writes
                                             : nullptr;
    if (total != nullptr) *total += static_cast<std::uint64_t>(value.num());
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
