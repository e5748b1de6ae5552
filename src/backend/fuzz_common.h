// The crash-campaign engine behind both randomized fault-fuzz harnesses: the
// block-level harness (src/backend/fault_fuzz.h) and the file-system-level
// harness (src/fs/fs_fuzz.h) are workloads it drives (DESIGN.md §10).  One
// schedule (CrashSchedule::run):
//   rig      SimClock → NvmDevice → MemBlockDevice ← FaultyBlockDevice and
//            the backend from open_backend(), behind a RecordingBackend;
//   run      the workload drives the shim and arms at most one power cut or
//            torn disk write where step counting should start;
//   settle   the schedule ended clean, crashed, with an IoError or wedged;
//            close any pinned snapshot, disarm, quiesce, collect counters;
//   recover  a crash loses a random share of unflushed lines; every
//            interrupted schedule recovers through open_backend(), and a
//            crashed one gets check_media() on every partition;
//   verify   the image oracle, then the workload's own oracle.
//
// Everything is a function of FuzzOptions::seed and the schedule index, so a
// failure anywhere reproduces from the printed "reproduce:" tag alone:
// re-run the campaign with the printed seed, first_schedule and schedules=1.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "backend/stack_builder.h"
#include "backend/txn_backend.h"
#include "common/bytes.h"
#include "common/rng.h"
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
  std::uint64_t txns_committed = 0;   ///< completed commits, all schedules
  /// Crash recoveries whose media check_media() verified (0 on stacks with
  /// no Tinca or NvLog partition).
  std::uint64_t media_checks = 0;
  std::uint64_t io_retries = 0;
  std::uint64_t io_quarantined = 0;
  std::uint64_t io_degraded_writes = 0;
  /// Background-cleaner work, each in its own unit: blocks the cache
  /// cleaners made clean (Tinca, UBJ, each shard, the cache behind a log)
  /// and log segments an NvLog tier's cleaner drained.  `*_armed`: the stack
  /// ran that cleaner (it registered its counters).
  std::uint64_t cleaner_retired = 0;
  std::uint64_t log_cleaner_retired = 0;
  bool cleaner_armed = false;
  bool log_cleaner_armed = false;
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
  // Every cleaner runs in the campaign's mode: each cache's (each shard's,
  // the one behind a log) and the NvLog tier's log cleaner.  Watermarks
  // 0/1 drain toward 0 % dirty whenever 1 % is, so every step has work; the
  // production 20/50 never fire here, as a small Tinca cache's dirty share
  // stays just under 50 % (DESIGN.md §11).
  const auto arm = [&o](cleaner::CleanerConfig& c) {
    c.mode = o.cleaner;
    c.low_water_pct = 0;
    c.high_water_pct = 1;
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

/// Fold the backend's retry/quarantine/degradation and cleaner counters
/// into `rep`.  Every cache registers them as `<prefix>io.{retries,
/// quarantined,degraded_writes}` and, when it runs a cleaner,
/// `<prefix>cleaner.retired`; an NvLog tier registers its log cleaner's
/// segment count as `nvlog.cleaner.retired`.  Summing every registered copy
/// covers each shard of a sharded stack and the inner stack under a tier.
inline void fuzz_collect(const TxnBackend& be, FuzzReport& rep) {
  obs::MetricsRegistry reg;
  be.register_metrics(reg, "");
  reg.for_each_value([&rep](std::string_view n, std::uint64_t value) {
    const bool log_cleaner = n.ends_with("nvlog.cleaner.retired");
    const bool cache_cleaner = !log_cleaner && n.ends_with("cleaner.retired");
    rep.log_cleaner_armed |= log_cleaner;
    rep.cleaner_armed |= cache_cleaner;
    std::uint64_t* total =
        n.ends_with(".io.retries")           ? &rep.io_retries
        : n.ends_with(".io.quarantined")     ? &rep.io_quarantined
        : n.ends_with(".io.degraded_writes") ? &rep.io_degraded_writes
        : log_cleaner                        ? &rep.log_cleaner_retired
        : cache_cleaner                      ? &rep.cleaner_retired
                                             : nullptr;
    if (total != nullptr) *total += value;
  });
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

// --- The engine --------------------------------------------------------------

/// Owns the backend under test (a remount swaps the instance) and
/// fingerprints every block committed through it — commit() reaches
/// commit_group() through the TxnBackend base — so the oracles know which
/// image each commit boundary is, without trusting the workload:
///   committed() : blkno → fingerprint as of the last *completed* commit
///   pending()   : the interrupted commit's blocks (later members winning)
///   universe()  : every block ever committed or attempted (the read set)
///   boundaries(): number of completed commits
/// Each completed commit is followed by one cleaner_step(); a crash inside
/// it lands with nothing pending, so only the committed image is acceptable.
class RecordingBackend final : public TxnBackend {
 public:
  /// Records the batch first: the backend may move the members' buffers out.
  void commit_group(std::span<GroupTxn> txns) override {
    pending_.clear();
    for (const GroupTxn& t : txns) {
      for (const auto& [blkno, data] : t.writes()) {
        pending_[blkno] = fingerprint(data);
        universe_.insert(blkno);
      }
    }
    real_->commit_group(txns);
    for (const auto& [blkno, fp] : pending_) committed_[blkno] = fp;
    pending_.clear();
    ++boundaries_;
    real_->cleaner_step();
  }

  void read_block(std::uint64_t blkno, std::span<std::byte> dst) override {
    real_->read_block(blkno, dst);
  }
  void flush() override { real_->flush(); }
  [[nodiscard]] std::uint64_t data_block_limit() const override {
    return real_->data_block_limit();
  }
  [[nodiscard]] std::uint64_t max_txn_blocks() const override {
    return real_->max_txn_blocks();
  }
  [[nodiscard]] std::string name() const override { return real_->name(); }

  /// The backend under test; reads and writes through it are not recorded.
  [[nodiscard]] TxnBackend& real() { return *real_; }
  void attach(std::unique_ptr<TxnBackend> real) { real_ = std::move(real); }

  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& committed()
      const {
    return committed_;
  }
  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& pending() const {
    return pending_;
  }
  [[nodiscard]] const std::set<std::uint64_t>& universe() const {
    return universe_;
  }
  [[nodiscard]] std::uint64_t boundaries() const { return boundaries_; }

  /// Sabotage hook: overwrite `blkno` on the backend *and* in the committed
  /// bookkeeping, so the image oracle stays green and only a workload's own
  /// oracle can notice.
  void sabotage_block(std::uint64_t blkno, std::span<const std::byte> data) {
    real_->begin();
    real_->stage(blkno, data);
    real_->commit();
    committed_[blkno] = fingerprint(data);
    universe_.insert(blkno);
  }

 private:
  std::unique_ptr<TxnBackend> real_;
  std::map<std::uint64_t, std::uint64_t> committed_;
  std::map<std::uint64_t, std::uint64_t> pending_;
  std::set<std::uint64_t> universe_;
  std::uint64_t boundaries_ = 0;
};

/// How one schedule's workload ended.
enum class ScheduleEnd : std::uint8_t { kClean, kCrashed, kIoError, kWedged };

/// The crash CrashSchedule::arm() sets.  Scripted arms (all but kRandom)
/// run fault-free, so step numbering is identical across a sweep's replays.
struct Arming {
  enum Kind : std::uint8_t {
    kRandom,  ///< the campaign lottery: crash_prob, then a point or torn step
    kCount,   ///< arm nothing, restart the step counters (a learning pass)
    kPoint,   ///< power cut at NVM persistence point `step`
    kTorn,    ///< torn disk write at disk-write site `step`
  };
  Kind kind = kRandom;
  std::uint64_t step = 0;
};

/// The constants that tell the workloads' schedules apart (DESIGN.md §10).
struct WorkloadShape {
  std::uint64_t cache_unit;  ///< NVM per Tinca/UBJ cache (fuzz_stack_config)
  std::uint64_t fault_salt;  ///< mixed into the schedule seed for disk faults
  std::uint64_t torn_range;  ///< random torn writes arm on sites [1, this]
};

class CrashSchedule;

/// A workload the engine drives through one schedule (one instance each).
class CrashWorkload {
 public:
  virtual ~CrashWorkload() = default;
  /// Drive s.shim(), calling s.arm() where step counting should start.
  /// Injected faults escape as exceptions.
  virtual void run(CrashSchedule& s) = 0;
  /// Prefix of the violation a non-wedge ContractViolation from run() gets.
  [[nodiscard]] virtual std::string failed_op() const { return {}; }
  /// After recovery: crash-free round trips and sabotage.  False skips
  /// verification.
  virtual bool before_verify(CrashSchedule& /*s*/) { return true; }
  /// After the image oracle accepted the committed image, or committed +
  /// pending when `with_pending`: check the workload's own model.
  virtual void verify(CrashSchedule& /*s*/, bool /*with_pending*/) {}
};

/// One schedule's rig and bookkeeping.  Workloads drive shim(), draw from
/// rng and report through violation(); run() does the rest.
class CrashSchedule {
 public:
  CrashSchedule(const FuzzOptions& o, const WorkloadShape& shape,
                std::uint64_t sched, std::uint64_t sseed, Arming arming,
                FuzzReport& report)
      : rng(sseed),
        opts(o),
        rep(report),
        seed(sseed),
        shape_(shape),
        cfg_(detail::fuzz_stack_config(o, shape.cache_unit)),
        sched_(sched),
        arming_(arming),
        nvm_(cfg_.nvm_bytes, nvm_profile_by_name(cfg_.nvm_profile), clock_),
        mem_(cfg_.disk_blocks),
        disk_(mem_, fault_config(), &clock_, &nvm_.injector) {
    ++rep.schedules;
    shim_.attach(open_backend(cfg_, nvm_, disk_, false));
  }

  Rng rng;
  const FuzzOptions& opts;
  FuzzReport& rep;
  const std::uint64_t seed;  ///< every draw of the schedule derives from it

  [[nodiscard]] RecordingBackend& shim() { return shim_; }
  /// The backend under test (the current instance after a remount).
  [[nodiscard]] TxnBackend& backend() { return shim_.real(); }
  [[nodiscard]] ScheduleEnd end() const { return end_; }
  /// Whether a crash or an IoError cut the workload short.
  [[nodiscard]] bool interrupted() const {
    return end_ == ScheduleEnd::kCrashed || end_ == ScheduleEnd::kIoError;
  }
  /// Whether the instance the workload ran on has been replaced.
  [[nodiscard]] bool remounted() const { return remounted_; }

  void arm() {
    switch (arming_.kind) {
      case Arming::kRandom:
        if (!rng.chance(opts.crash_prob)) return;
        if (rng.chance(0.5))
          arm_at(false, 1 + rng.below(opts.crash_point_range));
        else
          arm_at(true, 1 + rng.below(shape_.torn_range));
        return;
      case Arming::kCount:
        nvm_.injector.disarm();
        nvm_.injector.disarm_torn();
        return;
      case Arming::kPoint:
      case Arming::kTorn:
        arm_at(arming_.kind == Arming::kTorn, arming_.step);
        return;
    }
  }

  /// Count a violation; the first 16 messages are kept, each with the
  /// schedule's context and a reproduce tag (fuzz_parse_reproduce).
  void violation(const std::string& what) {
    ++rep.violations;
    if (rep.violation_messages.size() >= 16) return;
    const auto rate = [](double r) { return std::to_string(r); };
    rep.violation_messages.push_back(
        "schedule " + std::to_string(sched_) +
        " (schedule_seed=" + std::to_string(seed) +
        " faults[tr=" + rate(opts.transient_read_rate) +
        " tw=" + rate(opts.transient_write_rate) +
        " bad=" + rate(opts.bad_sector_rate) +
        " torn=" + rate(opts.torn_write_rate) + "] arm=" + armed_ + "): " +
        what + " | reproduce: seed=" + std::to_string(opts.seed) +
        " first_schedule=" + std::to_string(sched_) + " schedules=1");
  }

  // Snapshot oracle (DESIGN.md §12): reads through a snapshot pinned at a
  // commit boundary must keep returning that boundary's image while the
  // workload commits past it.  The workload sets the cadence.
  [[nodiscard]] bool snapshot_open() const { return snap_open_; }
  void open_snapshot() {
    snap_token_ = backend().snapshot_open();
    snap_frozen_ = shim_.committed();
    snap_open_ = true;
  }
  /// Read `probes` random universe blocks through the snapshot; false (a
  /// violation recorded) on the first wrong image.
  bool probe_snapshot(int probes) {
    const std::set<std::uint64_t>& u = shim_.universe();
    std::vector<std::byte> buf(blockdev::kBlockSize);
    for (int probe = 0; probe < probes && !u.empty(); ++probe) {
      auto it = u.begin();
      std::advance(it, static_cast<long>(rng.below(u.size())));
      backend().snapshot_read(snap_token_, *it, buf);
      if (fingerprint(buf) != expected_fp(snap_frozen_, nullptr, *it)) {
        violation("snapshot read of block " + std::to_string(*it) +
                  " is not the pinned commit-boundary image");
        return false;
      }
    }
    return true;
  }
  void close_snapshot() {
    snap_open_ = false;
    backend().snapshot_close(snap_token_);
  }

  /// Recover a fresh backend instance from the media; false (with "<what>
  /// failed: …" recorded) when that throws.
  bool remount(const std::string& what) {
    shim_.attach(nullptr);
    remounted_ = true;
    try {
      shim_.attach(open_backend(cfg_, nvm_, disk_, true));
      return true;
    } catch (const std::exception& e) {
      violation(what + " failed: " + e.what());
      return false;
    }
  }

  /// Run the schedule with workload `w`, folding the results into the
  /// report; never throws for injected faults.  Returns the injector steps
  /// {NVM points, torn disk-write sites} the workload passed since arm().
  std::pair<std::uint64_t, std::uint64_t> run(CrashWorkload& w) {
    try {
      w.run(*this);
    } catch (const nvm::CrashException&) {
      end_ = ScheduleEnd::kCrashed;
    } catch (const blockdev::IoError&) {
      end_ = ScheduleEnd::kIoError;  // unrecoverable read
    } catch (const ContractViolation& e) {
      if (std::string(e.what()).find("wedged") != std::string::npos)
        end_ = ScheduleEnd::kWedged;  // documented capacity degradation
      else
        violation(w.failed_op() + e.what());
    }
    const std::pair<std::uint64_t, std::uint64_t> steps{
        nvm_.injector.steps_seen(), nvm_.injector.torn_steps_seen()};

    // Settle: release any pin (pins defer writebacks), stop injecting *new*
    // faults (bad sectors keep failing), collect the I/O counters.
    if (snap_open_) {
      try {
        close_snapshot();
      } catch (const std::exception&) {
      }
    }
    nvm_.injector.disarm();
    nvm_.injector.disarm_torn();
    disk_.quiesce();
    detail::fuzz_collect(backend(), rep);
    rep.txns_committed += shim_.boundaries();

    // A wedge aborts mid-operation by design (what it leaves, recovery
    // reconciles: the crash schedules cover that).  A campaign drowning in
    // violations skips verification.
    if (end_ == ScheduleEnd::kWedged) ++rep.wedges;
    if (end_ != ScheduleEnd::kWedged && rep.violation_messages.size() < 16 &&
        recover() && w.before_verify(*this))
      verify(w);
    detail::fuzz_fold_faults(rep.faults, disk_.fault_stats());
    return steps;
  }

 private:
  blockdev::FaultConfig fault_config() const {
    blockdev::FaultConfig f = arming_.kind == Arming::kRandom
                                  ? cfg_.disk_faults
                                  : blockdev::FaultConfig{};
    f.seed = detail::fuzz_mix(seed, shape_.fault_salt);
    return f;
  }

  void arm_at(bool torn, std::uint64_t step) {
    if (torn)
      nvm_.injector.arm_torn(step);
    else
      nvm_.injector.arm(step);
    armed_ = (torn ? "torn@" : "point@") + std::to_string(step);
  }

  /// Cut power after a crash, then recover every interrupted schedule.
  bool recover() {
    static constexpr double kSurvive[] = {0.0, 0.3, 0.7, 1.0};
    if (end_ == ScheduleEnd::kCrashed) {
      ++rep.crashes;
      nvm_.crash(rng, kSurvive[rng.below(4)]);
    }
    if (end_ == ScheduleEnd::kIoError) ++rep.io_errors;
    return !interrupted() || remount("recovery");
  }

  void verify(CrashWorkload& w) {
    try {
      if (end_ == ScheduleEnd::kCrashed) {
        const MediaCheck mc = check_media(cfg_, nvm_);
        if (mc.partitions != 0) ++rep.media_checks;
        if (!mc.problems.empty())
          violation("media check: " + mc.problems.front());
      }
      // The image oracle: the committed history, or (after an interrupted
      // commit) committed + that commit — nothing in between.  A cross-shard
      // transaction is anchored to one atomic commit record (DESIGN.md
      // §15), so no shard-prefix image is acceptable either.
      std::string why;
      bool with_pending = false;
      if (!image_matches(nullptr, &why)) {
        with_pending = interrupted() && !shim_.pending().empty() &&
                       image_matches(&shim_.pending(), &why);
        if (!with_pending) {
          violation("recovered image matches no acceptable history (" + why +
                    ")");
          return;
        }
      }
      w.verify(*this, with_pending);
      // The recovered instance's retries while being verified count too.
      if (interrupted()) detail::fuzz_collect(backend(), rep);
    } catch (const std::exception& e) {
      violation(std::string("verification threw: ") + e.what());
    }
  }

  /// Whether the universe reads back as the committed image overlaid with
  /// `overlay`; `why` names the first mismatch.
  bool image_matches(const std::map<std::uint64_t, std::uint64_t>* overlay,
                     std::string* why) {
    std::vector<std::byte> got(blockdev::kBlockSize);
    for (const std::uint64_t blkno : shim_.universe()) {
      backend().read_block(blkno, got);
      if (fingerprint(got) != expected_fp(shim_.committed(), overlay, blkno)) {
        *why = "block " + std::to_string(blkno) + " mismatch";
        return false;
      }
    }
    return true;
  }

  /// `blkno`'s fingerprint in `overlay`, else in `base`, else an all-zero
  /// block's (never written).
  static std::uint64_t expected_fp(
      const std::map<std::uint64_t, std::uint64_t>& base,
      const std::map<std::uint64_t, std::uint64_t>* overlay,
      std::uint64_t blkno) {
    static const std::uint64_t zero_fp =
        fingerprint(std::vector<std::byte>(blockdev::kBlockSize));
    if (overlay != nullptr && overlay->contains(blkno))
      return overlay->at(blkno);
    const auto it = base.find(blkno);
    return it == base.end() ? zero_fp : it->second;
  }

  const WorkloadShape shape_;
  const StackConfig cfg_;
  const std::uint64_t sched_;
  const Arming arming_;
  std::string armed_ = "none";

  sim::SimClock clock_;
  nvm::NvmDevice nvm_;
  blockdev::MemBlockDevice mem_;
  blockdev::FaultyBlockDevice disk_;
  RecordingBackend shim_;

  ScheduleEnd end_ = ScheduleEnd::kClean;
  bool remounted_ = false;
  bool snap_open_ = false;
  std::uint64_t snap_token_ = 0;
  std::map<std::uint64_t, std::uint64_t> snap_frozen_;
};

/// The randomized campaign loop: schedule i of [first_schedule,
/// first_schedule + schedules) derives everything from fuzz_mix(seed, i) and
/// runs a fresh `workload()` under the random arming.
template <class MakeWorkload>
void run_fuzz_campaign(const FuzzOptions& o, const WorkloadShape& shape,
                       FuzzReport& rep, MakeWorkload workload) {
  const std::uint64_t last =
      static_cast<std::uint64_t>(o.first_schedule) + o.schedules;
  for (std::uint64_t sched = o.first_schedule; sched < last; ++sched) {
    CrashSchedule s(o, shape, sched, detail::fuzz_mix(o.seed, sched),
                    Arming{}, rep);
    auto w = workload();
    s.run(w);
  }
}

}  // namespace tinca::backend
