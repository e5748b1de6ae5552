// TxnBackend adapter over the UBJ store (§5.4.4 comparison baseline).
#pragma once

#include <memory>

#include "backend/txn_backend.h"
#include "ubj/ubj_store.h"

namespace tinca::backend {

/// Drives a UbjStore through the uniform transactional surface.
class UbjBackend final : public TxnBackend {
 public:
  static std::unique_ptr<UbjBackend> format(nvm::NvmDevice& nvm,
                                            blockdev::BlockDevice& disk,
                                            ubj::UbjConfig cfg = {}) {
    return std::unique_ptr<UbjBackend>(
        new UbjBackend(ubj::UbjStore::format(nvm, disk, cfg), disk));
  }

  static std::unique_ptr<UbjBackend> recover(nvm::NvmDevice& nvm,
                                             blockdev::BlockDevice& disk,
                                             ubj::UbjConfig cfg = {}) {
    return std::unique_ptr<UbjBackend>(
        new UbjBackend(ubj::UbjStore::recover(nvm, disk, cfg), disk));
  }

  /// Each member is its own UBJ transaction (one sequence publication
  /// each), so a group is atomic per member only.
  void commit_group(std::span<GroupTxn> txns) override {
    TINCA_EXPECT(!txn_open(), "group commit with a transaction open");
    for (const GroupTxn& t : txns) store_->commit_txn(t.writes());
  }

  void read_block(std::uint64_t blkno, std::span<std::byte> dst) override {
    store_->read_block(blkno, dst);
  }

  void flush() override { store_->checkpoint_all(); }

  [[nodiscard]] std::uint64_t data_block_limit() const override {
    return disk_.block_count();
  }

  [[nodiscard]] std::uint64_t max_txn_blocks() const override {
    return store_->capacity_blocks() / 3;
  }

  [[nodiscard]] std::string name() const override { return "UBJ"; }

  void cleaner_step() override { store_->cleaner_step(); }

  void enable_tracing(bool on = true) override { store_->enable_tracing(on); }

  void attach_trace_sink(obs::TraceSink* sink) override {
    store_->attach_trace_sink(sink);
  }

  [[nodiscard]] const obs::Tracer* tracer() const override {
    return &store_->tracer();
  }

  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const override {
    store_->register_metrics(reg, prefix + "ubj.");
  }

  [[nodiscard]] ubj::UbjStore& store() { return *store_; }

 private:
  UbjBackend(std::unique_ptr<ubj::UbjStore> store, blockdev::BlockDevice& disk)
      : store_(std::move(store)), disk_(disk) {}

  std::unique_ptr<ubj::UbjStore> store_;
  blockdev::BlockDevice& disk_;
};

}  // namespace tinca::backend
