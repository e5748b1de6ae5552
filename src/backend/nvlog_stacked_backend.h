// TxnBackend stacking the NVM write-ahead tier (src/nvlog/) on top of an
// inner transactional stack: a journal-less Classic store (DESIGN.md §13),
// a full TincaCache, or a ShardedTinca front-end (§16).  Commits absorb
// into the log with one flush + fence; a cleaner::Cleaner drains sealed
// segments into the inner *through its commit_group path*, chunked to the
// inner's transaction capacity, and reads consult the log index before
// falling through.  Over Tinca or Sharded a whole coalesced chunk costs the
// inner one flush pass and one sfence (§14 fence economics), and the inner
// keeps its own crash consistency — a power cut inside an apply tears
// nothing.  The Classic inner runs WITHOUT its journal: the log tier *is*
// the write-ahead journal, so any BlockDevice-backed store gains crash
// consistency by being wrapped here.
//
// Sharded inners additionally get shard-affine parallel drains: the tier
// partitions a segment's coalesced run by `ShardedTinca::shard_of`, this
// sink drains the per-shard batches concurrently (modeled virtual time by
// default, real threads for the TSan stress), and the tier advances its
// persisted watermark only after drain_apply_shards returns — the barrier
// where EVERY shard's batch is durable.  Re-crash anywhere mid-drain is
// idempotent: the watermark still names the segment, recovery re-drains it,
// and last-writer-wins block applies make the replay harmless.
//
// Threading: the tier itself is single-threaded; every tier access here is
// serialized by `tier_mu_`, making `commit_group`, `read_block`,
// `drain_pass` and cleaner callbacks safe to call concurrently (the TSan
// stress drives several committers against a drainer).  The
// begin/stage/commit staging surface stays single-caller like every other
// backend.
#pragma once

#include <algorithm>
#include <exception>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "backend/classic_backend.h"
#include "backend/sharded_backend.h"
#include "backend/tinca_backend.h"
#include "backend/txn_backend.h"
#include "blockdev/io_status.h"
#include "cleaner/cleaner.h"
#include "nvlog/nvlog_tier.h"
#include "obs/trace.h"

namespace tinca::backend {

/// Which stack the log drains into.
enum class NvLogInner : std::uint8_t { kTinca, kSharded, kClassic };

/// Assembly parameters for the NvLog stacks.
struct NvLogStackedConfig {
  /// Leading bytes of the NVM device carved out for the log tier; the
  /// remainder backs the inner stack.
  std::uint64_t log_bytes = 8ull << 20;
  nvlog::NvLogConfig log;
  NvLogInner inner = NvLogInner::kTinca;
  /// Inner cache config (per shard when inner == kSharded).
  core::TincaConfig tinca;
  /// Inner store config for kClassic; `journaling` is forced off (the log
  /// replaces it).
  classic::ClassicConfig classic;
  /// Shard count for the kSharded inner.
  std::uint32_t shards = 4;
  /// Background drain driver; kDisabled leaves draining to backpressure
  /// and explicit flush().
  cleaner::CleanerConfig cleaner;
  /// Shard-affine parallel drains (kSharded only): per-shard batches are
  /// modeled as draining concurrently — the tier's drain_apply histogram
  /// records the barrier time (max over shards) instead of the sum.
  /// Execution stays deterministic; only the time model changes.
  bool parallel_drain = true;
  /// Drain each shard batch on a real std::thread (kSharded only; implies
  /// parallel semantics).  For the TSan stress — the modeled mode is what
  /// benches and fuzz use.
  bool drain_threads = false;
};

class NvLogStackedBackend final : public TxnBackend,
                                  public cleaner::CleanerClient,
                                  public nvlog::NvLogTier::DrainSink {
 public:
  static std::unique_ptr<NvLogStackedBackend> format(
      nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
      NvLogStackedConfig cfg = {}) {
    return std::unique_ptr<NvLogStackedBackend>(
        new NvLogStackedBackend(nvm, disk, std::move(cfg), /*recover=*/false));
  }

  static std::unique_ptr<NvLogStackedBackend> recover(
      nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
      NvLogStackedConfig cfg = {}) {
    return std::unique_ptr<NvLogStackedBackend>(
        new NvLogStackedBackend(nvm, disk, std::move(cfg), /*recover=*/true));
  }

  [[nodiscard]] bool supports_group_commit() const override { return true; }

  /// Thread-safe: concurrent committers serialize on the tier mutex.  A
  /// group of one is a plain absorb (nvlog.group_* count only real groups);
  /// larger groups merge into one log txn run sealed by one commit record.
  /// The tier takes the members' buffers over as its DRAM images.  A disk
  /// error inside a backpressure drain throws with nothing absorbed.
  void commit_group(std::span<GroupTxn> txns) override {
    TINCA_EXPECT(!txn_open(), "group commit with a transaction open");
    if (txns.empty()) return;
    {
      TINCA_TRACE_SPAN(trace_, site_commit_);
      const std::uint64_t limit = data_block_limit();
      for (const GroupTxn& t : txns)
        for (const auto& [blkno, data] : t.writes())
          TINCA_EXPECT(blkno < limit, "write past the data area");
      std::lock_guard<std::mutex> lock(tier_mu_);
      if (txns.size() > 1)
        tier_->absorb_commit_group(txns, *this);
      else if (!txns.front().empty())
        tier_->absorb_commit(txns.front().take(), *this);
    }
    trickle_collect();
  }

  void read_block(std::uint64_t blkno, std::span<std::byte> dst) override {
    {
      std::lock_guard<std::mutex> lock(tier_mu_);
      if (tier_->lookup(blkno, dst)) return;
    }
    inner_->read_block(blkno, dst);
  }

  void flush() override {
    {
      std::lock_guard<std::mutex> lock(tier_mu_);
      tier_->drain_all(*this);
    }
    inner_->flush();
  }

  /// Drain up to `max` sealed segments now (thread-safe).  The TSan stress
  /// drainer loops this against concurrent absorbers; returns the number of
  /// segments retired.
  std::uint64_t drain_pass(std::uint32_t max = 4) {
    std::vector<std::uint64_t> seqs;
    std::lock_guard<std::mutex> lock(tier_mu_);
    tier_->collect_drainable(max, seqs);
    std::uint64_t retired = 0;
    for (std::uint64_t s : seqs) {
      if (tier_->drain_segment(s, *this) ==
          nvlog::NvLogTier::DrainResult::kDrained)
        ++retired;
    }
    return retired;
  }

  void cleaner_step() override {
    if (cleaner_) cleaner_->step();
    inner_->cleaner_step();  // the inner cache's own threshold cleaner
  }

  [[nodiscard]] std::uint64_t data_block_limit() const override {
    return inner_->data_block_limit();
  }

  [[nodiscard]] std::uint64_t max_txn_blocks() const override {
    return std::min(tier_->max_txn_blocks(), inner_->max_txn_blocks());
  }

  [[nodiscard]] std::string name() const override {
    switch (cfg_.inner) {
      case NvLogInner::kTinca:
        return "NvLog-Tinca";
      case NvLogInner::kSharded:
        return "NvLog-Sharded";
      case NvLogInner::kClassic:
        return "NvLog-Classic";
    }
    return "NvLog";
  }

  void enable_tracing(bool on = true) override {
    trace_.enable(on);
    if (cleaner_) cleaner_->tracer().enable(on);
    inner_->enable_tracing(on);
  }

  void attach_trace_sink(obs::TraceSink* sink) override {
    trace_.attach_sink(sink);
    if (cleaner_) cleaner_->tracer().attach_sink(sink);
    inner_->attach_trace_sink(sink);
  }

  [[nodiscard]] const obs::Tracer* tracer() const override { return &trace_; }

  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const override {
    tier_->register_metrics(reg, prefix + "nvlog.");
    trace_.register_into(reg, prefix + "nvlog.lat.");
    if (cleaner_) cleaner_->register_metrics(reg, prefix + "nvlog.cleaner.");
    inner_->register_metrics(reg, prefix);
  }

  // --- DrainSink -----------------------------------------------------------

  void drain_apply(DrainBatch& blocks) override { apply_chunked(blocks); }

  [[nodiscard]] std::uint32_t drain_shard_count() const override {
    return sharded_ != nullptr ? sharded_->sharded().shard_count() : 1;
  }

  [[nodiscard]] std::uint32_t drain_shard_of(
      std::uint64_t blkno) const override {
    return sharded_ != nullptr ? sharded_->sharded().shard_of(blkno) : 0;
  }

  std::uint64_t drain_apply_shards(
      std::vector<DrainBatch>& shard_batches) override {
    if (cfg_.drain_threads) return drain_shards_threaded(shard_batches);
    // Deterministic mode: apply the shard batches one after another —
    // they touch disjoint shards, so order is immaterial — but model the
    // barrier time.  Each batch's cost lands on its shard's private clock
    // plus the shared (disk) clock; concurrent drains overlap those costs,
    // so the modeled apply duration is the longest batch (vs. the sum when
    // parallel_drain is off).  The injector point between batches is a
    // shard-batch boundary: the per-step crash sweeps cut there.
    std::uint64_t sum = 0;
    std::uint64_t longest = 0;
    bool first = true;
    for (std::uint32_t s = 0; s < shard_batches.size(); ++s) {
      if (shard_batches[s].empty()) continue;
      if (!first) nvm_.injector.point();  // CP: shard-batch boundary
      first = false;
      const std::uint64_t shard0 = sharded_->sharded().shard_clock(s).now();
      const std::uint64_t outer0 = nvm_.clock().now();
      apply_chunked(shard_batches[s]);
      const std::uint64_t d =
          (sharded_->sharded().shard_clock(s).now() - shard0) +
          (nvm_.clock().now() - outer0);
      sum += d;
      longest = std::max(longest, d);
    }
    return cfg_.parallel_drain ? longest : sum;
  }

  // --- CleanerClient (keys are log segment seqs) ---------------------------

  cleaner::CleanOutcome cleaner_clean(std::uint64_t key,
                                      std::uint64_t* io_retries) override {
    (void)io_retries;  // inner retries charge the inner's own counters
    try {
      std::lock_guard<std::mutex> lock(tier_mu_);
      switch (tier_->drain_segment(key, *this)) {
        case nvlog::NvLogTier::DrainResult::kDrained:
          return cleaner::CleanOutcome::kRetired;
        case nvlog::NvLogTier::DrainResult::kStale:
          return cleaner::CleanOutcome::kStale;
        case nvlog::NvLogTier::DrainResult::kPinned:
          return cleaner::CleanOutcome::kPinned;
      }
      return cleaner::CleanOutcome::kStale;
    } catch (const blockdev::IoError&) {
      return cleaner::CleanOutcome::kFailed;
    }
  }

  [[nodiscard]] std::uint64_t cleaner_dirty_blocks() const override {
    std::lock_guard<std::mutex> lock(tier_mu_);
    return tier_->live_records();
  }

  [[nodiscard]] std::uint64_t cleaner_capacity_blocks() const override {
    return tier_->record_capacity();
  }

  void cleaner_collect(std::uint32_t max,
                       std::vector<std::uint64_t>& out) override {
    std::lock_guard<std::mutex> lock(tier_mu_);
    tier_->collect_drainable(max, out);
  }

  /// The log tier, for stats and tests.
  [[nodiscard]] nvlog::NvLogTier& tier() { return *tier_; }
  /// The inner stack, for stats.
  [[nodiscard]] TxnBackend& inner() { return *inner_; }
  /// The inner as a ShardedBackend (nullptr unless inner == kSharded).
  [[nodiscard]] ShardedBackend* inner_sharded() { return sharded_; }

 private:
  NvLogStackedBackend(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
                      NvLogStackedConfig cfg, bool recover)
      : trace_(nvm.clock(), /*tid=*/0, "nvlog."), nvm_(nvm), cfg_(cfg) {
    TINCA_EXPECT(cfg.log_bytes % nvm::NvmDevice::kLineSize == 0 &&
                     cfg.log_bytes < nvm.size(),
                 "log carve-out must be line-aligned and leave cache room");
    log_view_ = std::make_unique<nvm::NvmDevice>(nvm, 0, cfg.log_bytes,
                                                 nvm.clock());
    store_view_ = std::make_unique<nvm::NvmDevice>(
        nvm, cfg.log_bytes, nvm.size() - cfg.log_bytes, nvm.clock());
    // The cleaner's oracle sabotage knob maps onto the tier's: "mark clean
    // without writing" is exactly a drain that skips its apply.
    cfg.log.sabotage_skip_drain_apply |= cfg.cleaner.sabotage_skip_write;
    switch (cfg.inner) {
      case NvLogInner::kTinca:
        inner_ = recover ? TincaBackend::recover(*store_view_, disk, cfg.tinca)
                         : TincaBackend::format(*store_view_, disk, cfg.tinca);
        break;
      case NvLogInner::kSharded: {
        shard::ShardedConfig sc;
        sc.num_shards = cfg.shards;
        sc.shard = cfg.tinca;
        std::unique_ptr<ShardedBackend> sharded =
            recover ? ShardedBackend::recover(*store_view_, disk, sc)
                    : ShardedBackend::format(*store_view_, disk, sc);
        sharded_ = sharded.get();
        inner_ = std::move(sharded);
        break;
      }
      case NvLogInner::kClassic:
        cfg.classic.journaling = false;
        inner_ = recover
                     ? ClassicBackend::recover(*store_view_, disk, cfg.classic)
                     : ClassicBackend::format(*store_view_, disk, cfg.classic);
        break;
    }
    tier_ = recover ? nvlog::NvLogTier::recover(*log_view_, cfg.log)
                    : nvlog::NvLogTier::format(*log_view_, cfg.log);
    if (cfg.cleaner.mode != cleaner::CleanerMode::kDisabled)
      cleaner_ = std::make_unique<cleaner::Cleaner>(cfg.cleaner, *this,
                                                    nvm.clock());
    site_commit_ = trace_.site("commit");
  }

  /// Apply one ascending batch through the inner's commit_group path,
  /// chunked to its transaction capacity: each chunk is ONE inner commit —
  /// one flush pass, one sfence (§14) on Tinca/Sharded — and durable on
  /// return.  The chunks take the drained payloads over (the whole batch
  /// when it fits one chunk), so a payload is copied once, out of the
  /// tier's DRAM image.
  /// A crash between chunks just replays the segment (the watermark has not
  /// advanced), and the inner's own commit protocol keeps each chunk
  /// atomic; the journal-less Classic inner makes each block durable on its
  /// own, which is all a replayable drain needs.
  void apply_chunked(DrainBatch& blocks) {
    const std::uint64_t chunk =
        std::max<std::uint64_t>(1, inner_->max_txn_blocks());
    for (std::size_t i = 0; i < blocks.size(); i += chunk) {
      const auto first = blocks.begin() + static_cast<std::ptrdiff_t>(i);
      const auto last = blocks.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(blocks.size(), i + chunk));
      // A batch that fits one chunk is taken whole, which empties `blocks`.
      GroupTxn g(blocks.size() <= chunk
                     ? std::move(blocks)
                     : DrainBatch(std::make_move_iterator(first),
                                  std::make_move_iterator(last)));
      inner_->commit_group(std::span<GroupTxn>(&g, 1));
    }
  }

  /// Real concurrency (TSan stress): one thread per non-empty shard batch.
  /// Safe because each batch's blocks home to one ShardedTinca shard (its
  /// own mutex, cache and clock) and the shared disk is behind
  /// LockedBlockDevice.  No injector points here — crash sweeps use the
  /// deterministic mode.  Returns 0: with real threads the wall time is
  /// genuine, so the tier's clock delta is the honest measure.
  std::uint64_t drain_shards_threaded(std::vector<DrainBatch>& shard_batches) {
    std::vector<std::thread> workers;
    std::vector<std::exception_ptr> errors(shard_batches.size());
    for (std::uint32_t s = 0; s < shard_batches.size(); ++s) {
      if (shard_batches[s].empty()) continue;
      workers.emplace_back([this, &shard_batches, &errors, s] {
        try {
          apply_chunked(shard_batches[s]);
        } catch (...) {
          errors[s] = std::current_exception();
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    return 0;
  }

  /// Feed freshly drainable segments to the background cleaner.
  void trickle_collect() {
    if (!cleaner_) return;
    std::vector<std::uint64_t> seqs;
    {
      std::lock_guard<std::mutex> lock(tier_mu_);
      tier_->collect_drainable(cleaner_->config().trickle_per_step, seqs);
    }
    for (std::uint64_t s : seqs) cleaner_->try_enqueue(s);
  }

  obs::Tracer trace_;
  obs::Tracer::Site* site_commit_ = nullptr;
  nvm::NvmDevice& nvm_;
  NvLogStackedConfig cfg_;
  std::unique_ptr<nvm::NvmDevice> log_view_;
  std::unique_ptr<nvm::NvmDevice> store_view_;
  std::unique_ptr<TxnBackend> inner_;
  /// inner_ when it is kSharded: the shard-affine drains partition by it.
  ShardedBackend* sharded_ = nullptr;
  std::unique_ptr<nvlog::NvLogTier> tier_;
  std::unique_ptr<cleaner::Cleaner> cleaner_;

  /// Serializes every tier_ access (the tier is single-threaded).  Sink
  /// callbacks run *inside* drain_segment while this is held; they touch
  /// only the inner stack, never the tier, so there is no recursion.
  mutable std::mutex tier_mu_;
};

}  // namespace tinca::backend
