// TxnBackend adapter over TincaCache.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/txn_backend.h"
#include "tinca/tinca_cache.h"

namespace tinca::backend {

/// Drives a TincaCache through the uniform transactional surface.
class TincaBackend final : public TxnBackend {
 public:
  /// Format a fresh Tinca cache over `nvm` backed by `disk`.
  static std::unique_ptr<TincaBackend> format(nvm::NvmDevice& nvm,
                                              blockdev::BlockDevice& disk,
                                              core::TincaConfig cfg = {}) {
    return std::unique_ptr<TincaBackend>(
        new TincaBackend(core::TincaCache::format(nvm, disk, cfg), disk));
  }

  /// Mount with crash recovery.
  static std::unique_ptr<TincaBackend> recover(nvm::NvmDevice& nvm,
                                               blockdev::BlockDevice& disk,
                                               core::TincaConfig cfg = {}) {
    return std::unique_ptr<TincaBackend>(
        new TincaBackend(core::TincaCache::recover(nvm, disk, cfg), disk));
  }

  [[nodiscard]] bool supports_group_commit() const override { return true; }

  void commit_group(std::span<GroupTxn> txns) override {
    TINCA_EXPECT(!txn_open(), "group commit with a transaction open");
    std::vector<core::Transaction*> members;
    members.reserve(txns.size());
    for (GroupTxn& t : txns) members.push_back(&t);
    cache_->commit_group(members);
  }

  void read_block(std::uint64_t blkno, std::span<std::byte> dst) override {
    cache_->read_block(blkno, dst);
  }

  void flush() override { cache_->flush_dirty(); }

  [[nodiscard]] std::uint64_t data_block_limit() const override {
    return disk_.block_count();
  }

  [[nodiscard]] std::uint64_t max_txn_blocks() const override {
    return cache_->max_txn_blocks();
  }

  [[nodiscard]] std::string name() const override { return "Tinca"; }

  void cleaner_step() override { cache_->cleaner_step(); }

  [[nodiscard]] bool supports_snapshots() const override { return true; }

  std::uint64_t snapshot_open() override {
    const std::uint64_t token = next_snap_++;
    snaps_.emplace(token, cache_->snapshot_pin());
    return token;
  }

  void snapshot_read(std::uint64_t token, std::uint64_t blkno,
                     std::span<std::byte> dst) override {
    const core::SnapshotPin& pin = snaps_.at(token);
    // A failed pin (registry full) degrades to a current read — same
    // contract as a reader that could not start a snapshot at all.
    if (pin.valid())
      cache_->snapshot_read(pin, blkno, dst);
    else
      cache_->read_block(blkno, dst);
  }

  void snapshot_close(std::uint64_t token) override {
    auto it = snaps_.find(token);
    TINCA_EXPECT(it != snaps_.end(), "close of an unknown snapshot token");
    cache_->snapshot_unpin(it->second);
    snaps_.erase(it);
  }

  void enable_tracing(bool on = true) override { cache_->enable_tracing(on); }

  void attach_trace_sink(obs::TraceSink* sink) override {
    cache_->attach_trace_sink(sink);
  }

  [[nodiscard]] const obs::Tracer* tracer() const override {
    return &cache_->tracer();
  }

  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const override {
    cache_->register_metrics(reg, prefix + "tinca.");
  }

  /// The underlying cache, for stats and tests.
  [[nodiscard]] core::TincaCache& cache() { return *cache_; }

 private:
  TincaBackend(std::unique_ptr<core::TincaCache> cache,
               blockdev::BlockDevice& disk)
      : cache_(std::move(cache)), disk_(disk) {}

  std::unique_ptr<core::TincaCache> cache_;
  blockdev::BlockDevice& disk_;
  std::unordered_map<std::uint64_t, core::SnapshotPin> snaps_;
  std::uint64_t next_snap_ = 1;
};

}  // namespace tinca::backend
