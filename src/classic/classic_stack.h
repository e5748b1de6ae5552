// The assembled "Classic" competitor (paper §5.1).
//
// Three layers, matching the paper's baseline exactly:
//   top:    Ext4-style journaling (Journal, JBD2 semantics, data-journal
//           mode so both metadata and data achieve data consistency);
//   middle: FlashCache as the cache manager over NVM (block-format
//           metadata, synchronous updates);
//   bottom: the NVM device itself plus the backing disk.
//
// ClassicStack also provides the §3 ablation modes: journaling can be turned
// off ("Ext4 without journaling") and the cache's consistency costs can be
// relaxed via FlashCacheConfig, which the Fig 3 / Fig 4 benches sweep.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "blockdev/write_set.h"
#include "classic/flashcache.h"
#include "classic/journal.h"

namespace tinca::classic {

/// Configuration of the full Classic stack.
struct ClassicConfig {
  /// Run the journaling layer (Ext4 journal mode).  Off = the "without
  /// journaling" ablation: transactional writes go straight to the cache.
  bool journaling = true;
  /// Blocks reserved for the journal at the top of the disk address space.
  std::uint64_t journal_blocks = 8192;
  /// Checkpoint low-water fraction.
  double checkpoint_low_water = 0.25;
  /// Cache-layer tunables.
  FlashCacheConfig cache;
};

/// A transaction staged in DRAM for the Classic stack.
using ClassicTxn = blockdev::WriteSet;

/// Journal + FlashCache + disk, exposing the same transactional surface as
/// TincaCache so workloads can drive either stack.
class ClassicStack {
 public:
  /// Format cache and journal from scratch.
  static std::unique_ptr<ClassicStack> format(nvm::NvmDevice& nvm,
                                              blockdev::BlockDevice& disk,
                                              ClassicConfig cfg = {});

  /// Mount after restart/crash: Flashcache metadata scan + journal replay.
  static std::unique_ptr<ClassicStack> recover(nvm::NvmDevice& nvm,
                                               blockdev::BlockDevice& disk,
                                               ClassicConfig cfg = {});

  /// Begin a transaction.
  [[nodiscard]] ClassicTxn begin_txn() const { return {}; }

  /// Commit: with journaling, the write set goes to the journal as is
  /// (descriptor/log/commit blocks, checkpointed later); without, direct
  /// cache writes.
  void commit(ClassicTxn& txn);

  /// Abort a running transaction (nothing has been written).
  void abort(ClassicTxn& txn);

  /// Read a block: committed-but-unchckpointed data is served from the
  /// journal's pending buffers (the page cache), then the cache, then disk.
  void read_block(std::uint64_t disk_blkno, std::span<std::byte> dst);

  /// Checkpoint everything and write all dirty cache blocks to disk.
  void flush_all();

  /// Highest disk block usable for data (below the journal area).
  [[nodiscard]] std::uint64_t data_block_limit() const {
    return journal_base_;
  }

  [[nodiscard]] FlashCache& cache() { return *cache_; }
  [[nodiscard]] Journal* journal() { return journal_.get(); }
  [[nodiscard]] bool journaling() const { return cfg_.journaling; }

 private:
  ClassicStack(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
               ClassicConfig cfg);

  ClassicConfig cfg_;
  std::uint64_t journal_base_ = 0;
  std::unique_ptr<FlashCache> cache_;
  std::unique_ptr<Journal> journal_;
};

}  // namespace tinca::classic
