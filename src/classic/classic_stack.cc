#include "classic/classic_stack.h"

#include "common/expect.h"

namespace tinca::classic {

ClassicStack::ClassicStack(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
                           ClassicConfig cfg)
    : cfg_(cfg) {
  TINCA_EXPECT(disk.block_count() > cfg_.journal_blocks + 16,
               "disk too small for the journal area");
  journal_base_ = disk.block_count() - cfg_.journal_blocks;
  (void)nvm;  // bound via cache_ in format/recover
}

std::unique_ptr<ClassicStack> ClassicStack::format(nvm::NvmDevice& nvm,
                                                   blockdev::BlockDevice& disk,
                                                   ClassicConfig cfg) {
  auto s = std::unique_ptr<ClassicStack>(new ClassicStack(nvm, disk, cfg));
  FlashCacheConfig cache_cfg = cfg.cache;
  if (cfg.journaling) cache_cfg.hit_stats_boundary = s->journal_base_;
  s->cache_ = FlashCache::format(nvm, disk, cache_cfg);
  if (cfg.journaling) {
    JournalConfig jc;
    jc.base_blkno = s->journal_base_;
    jc.length_blocks = cfg.journal_blocks;
    jc.checkpoint_low_water = cfg.checkpoint_low_water;
    s->journal_ = Journal::format(*s->cache_, jc);
  }
  return s;
}

std::unique_ptr<ClassicStack> ClassicStack::recover(nvm::NvmDevice& nvm,
                                                    blockdev::BlockDevice& disk,
                                                    ClassicConfig cfg) {
  auto s = std::unique_ptr<ClassicStack>(new ClassicStack(nvm, disk, cfg));
  FlashCacheConfig cache_cfg = cfg.cache;
  if (cfg.journaling) cache_cfg.hit_stats_boundary = s->journal_base_;
  s->cache_ = FlashCache::recover(nvm, disk, cache_cfg);
  if (cfg.journaling) {
    JournalConfig jc;
    jc.base_blkno = s->journal_base_;
    jc.length_blocks = cfg.journal_blocks;
    jc.checkpoint_low_water = cfg.checkpoint_low_water;
    s->journal_ = Journal::recover(*s->cache_, jc);
  }
  return s;
}

void ClassicStack::commit(ClassicTxn& txn) {
  TINCA_EXPECT(txn.open(), "commit of a closed transaction");
  const std::vector<ClassicTxn::Write>& blocks = txn.writes();
  if (cfg_.journaling) {
    for (const auto& [blkno, data] : blocks)
      TINCA_EXPECT(blkno < journal_base_, "data write inside the journal area");
    if (!blocks.empty()) journal_->commit(blocks);
  } else {
    // No-journal ablation: single direct write per block, no consistency.
    for (const auto& [blkno, data] : blocks) cache_->write_block(blkno, data);
  }
  txn.close();
}

void ClassicStack::abort(ClassicTxn& txn) {
  TINCA_EXPECT(txn.open(), "abort of a closed transaction");
  txn.close();
}

void ClassicStack::read_block(std::uint64_t disk_blkno,
                              std::span<std::byte> dst) {
  if (journal_) {
    if (const auto* data = journal_->pending(disk_blkno)) {
      std::copy(data->begin(), data->end(), dst.begin());
      return;
    }
  }
  cache_->read_block(disk_blkno, dst);
}

void ClassicStack::flush_all() {
  if (journal_) journal_->checkpoint_all();
  cache_->flush_dirty();
}

}  // namespace tinca::classic
