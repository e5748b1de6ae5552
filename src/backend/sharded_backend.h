// TxnBackend adapter over the sharded Tinca front-end.
//
// Lets MiniFs and every workload generator run unchanged on top of
// ShardedTinca: the backend surface is still one running transaction per
// caller, but distinct ShardedBackend users (or direct ShardedTinca users)
// may commit concurrently against the same sharded cache.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/txn_backend.h"
#include "shard/sharded_tinca.h"

namespace tinca::backend {

/// Drives a ShardedTinca through the uniform transactional surface.
class ShardedBackend final : public TxnBackend {
 public:
  /// Format every shard afresh over `nvm` backed by `disk`.
  static std::unique_ptr<ShardedBackend> format(nvm::NvmDevice& nvm,
                                                blockdev::BlockDevice& disk,
                                                shard::ShardedConfig cfg = {}) {
    return std::unique_ptr<ShardedBackend>(new ShardedBackend(
        shard::ShardedTinca::format(nvm, disk, cfg), disk));
  }

  /// Mount with per-shard crash recovery.
  static std::unique_ptr<ShardedBackend> recover(
      nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
      shard::ShardedConfig cfg = {}) {
    return std::unique_ptr<ShardedBackend>(new ShardedBackend(
        shard::ShardedTinca::recover(nvm, disk, cfg), disk));
  }

  [[nodiscard]] bool supports_group_commit() const override { return true; }

  /// A group of one goes through ShardedTinca::commit, so the per-shard
  /// batcher (ShardedConfig::group_commit) serves single transactions;
  /// larger groups commit as one deterministic commit_batch.
  void commit_group(std::span<GroupTxn> txns) override {
    TINCA_EXPECT(!txn_open(), "group commit with a transaction open");
    if (txns.size() == 1) {
      sharded_->commit(txns.front());
      return;
    }
    std::vector<shard::ShardedTxn*> members;
    members.reserve(txns.size());
    for (GroupTxn& t : txns) members.push_back(&t);
    sharded_->commit_batch(members);
  }

  void read_block(std::uint64_t blkno, std::span<std::byte> dst) override {
    sharded_->read_block(blkno, dst);
  }

  void flush() override { sharded_->flush_dirty(); }

  [[nodiscard]] std::uint64_t data_block_limit() const override {
    return disk_.block_count();
  }

  [[nodiscard]] std::uint64_t max_txn_blocks() const override {
    return sharded_->max_txn_blocks();
  }

  [[nodiscard]] std::string name() const override { return "ShardedTinca"; }

  void cleaner_step() override { sharded_->step_cleaners(); }

  [[nodiscard]] bool supports_snapshots() const override { return true; }

  std::uint64_t snapshot_open() override {
    const std::uint64_t token = next_snap_++;
    snaps_.emplace(token, sharded_->open_snapshot());
    return token;
  }

  void snapshot_read(std::uint64_t token, std::uint64_t blkno,
                     std::span<std::byte> dst) override {
    sharded_->snapshot_read(snaps_.at(token), blkno, dst);
  }

  void snapshot_close(std::uint64_t token) override {
    auto it = snaps_.find(token);
    TINCA_EXPECT(it != snaps_.end(), "close of an unknown snapshot token");
    sharded_->close_snapshot(it->second);
    snaps_.erase(it);
  }

  void enable_tracing(bool on = true) override { sharded_->enable_tracing(on); }

  void attach_trace_sink(obs::TraceSink* sink) override {
    sharded_->attach_trace_sink(sink);
  }

  [[nodiscard]] const obs::Tracer* tracer() const override {
    return &sharded_->tracer();
  }

  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const override {
    sharded_->register_metrics(reg, prefix + "sharded.");
  }

  /// The underlying sharded cache, for stats, tests and concurrent callers.
  [[nodiscard]] shard::ShardedTinca& sharded() { return *sharded_; }

 private:
  ShardedBackend(std::unique_ptr<shard::ShardedTinca> sharded,
                 blockdev::BlockDevice& disk)
      : sharded_(std::move(sharded)), disk_(disk) {}

  std::unique_ptr<shard::ShardedTinca> sharded_;
  blockdev::BlockDevice& disk_;
  std::unordered_map<std::uint64_t, shard::ShardedSnapshot> snaps_;
  std::uint64_t next_snap_ = 1;
};

}  // namespace tinca::backend
