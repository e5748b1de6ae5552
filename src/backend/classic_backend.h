// TxnBackend adapter over the Classic (Ext4+JBD2+Flashcache) stack.
#pragma once

#include <memory>

#include "backend/txn_backend.h"
#include "classic/classic_stack.h"

namespace tinca::backend {

/// Drives a ClassicStack through the uniform transactional surface.
///
/// With `cfg.journaling = false` this doubles as the paper's "Ext4 without
/// journaling" ablation (no crash consistency, single writes).
class ClassicBackend final : public TxnBackend {
 public:
  static std::unique_ptr<ClassicBackend> format(nvm::NvmDevice& nvm,
                                                blockdev::BlockDevice& disk,
                                                classic::ClassicConfig cfg = {}) {
    return std::unique_ptr<ClassicBackend>(
        new ClassicBackend(classic::ClassicStack::format(nvm, disk, cfg)));
  }

  static std::unique_ptr<ClassicBackend> recover(
      nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
      classic::ClassicConfig cfg = {}) {
    return std::unique_ptr<ClassicBackend>(
        new ClassicBackend(classic::ClassicStack::recover(nvm, disk, cfg)));
  }

  /// Each member is its own ClassicStack commit (no shared flush or fence),
  /// so a group is atomic per member only, and only with the journal on.
  void commit_group(std::span<GroupTxn> txns) override {
    TINCA_EXPECT(!txn_open(), "group commit with a transaction open");
    for (GroupTxn& t : txns) stack_->commit(t);
  }

  void read_block(std::uint64_t blkno, std::span<std::byte> dst) override {
    stack_->read_block(blkno, dst);
  }

  void flush() override { stack_->flush_all(); }

  [[nodiscard]] std::uint64_t data_block_limit() const override {
    return stack_->data_block_limit();
  }

  [[nodiscard]] std::uint64_t max_txn_blocks() const override {
    // Bounded by the journal ring (Journal::commit's capacity check).
    return stack_->journaling() ? stack_->journal()->max_txn_blocks()
                                : UINT64_MAX;
  }

  [[nodiscard]] std::string name() const override {
    return stack_->journaling() ? "Classic" : "Classic-nojournal";
  }

  void enable_tracing(bool on = true) override {
    if (stack_->journal() != nullptr) stack_->journal()->tracer().enable(on);
  }

  void attach_trace_sink(obs::TraceSink* sink) override {
    if (stack_->journal() != nullptr) stack_->journal()->tracer().attach_sink(sink);
  }

  [[nodiscard]] const obs::Tracer* tracer() const override {
    return stack_->journal() != nullptr ? &stack_->journal()->tracer() : nullptr;
  }

  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const override {
    stack_->cache().register_metrics(reg, prefix + "flashcache.");
    if (stack_->journal() != nullptr)
      stack_->journal()->register_metrics(reg, prefix + "journal.");
  }

  /// The underlying stack, for stats and tests.
  [[nodiscard]] classic::ClassicStack& stack() { return *stack_; }

 private:
  explicit ClassicBackend(std::unique_ptr<classic::ClassicStack> stack)
      : stack_(std::move(stack)) {}

  std::unique_ptr<classic::ClassicStack> stack_;
};

}  // namespace tinca::backend
