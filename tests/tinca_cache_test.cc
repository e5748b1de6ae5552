// Functional tests for TincaCache: transactions, COW, role switch,
// replacement, read caching, write-back, restart recovery of clean state.
#include <gtest/gtest.h>

#include <vector>

#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "tinca/tinca_cache.h"

namespace tinca::core {
namespace {

constexpr std::size_t kNvmBytes = 2 << 20;  // small cache: forces eviction

struct Fixture {
  sim::SimClock clock;
  nvm::NvmDevice dev{kNvmBytes, pcm_profile(), clock};
  blockdev::MemBlockDevice disk{1 << 16};
  TincaConfig cfg;
  std::unique_ptr<TincaCache> cache;

  explicit Fixture(std::uint64_t ring_bytes = 4096) {
    cfg.ring_bytes = ring_bytes;
    cache = TincaCache::format(dev, disk, cfg);
  }

  std::vector<std::byte> block(std::uint64_t seed) const {
    std::vector<std::byte> b(kBlockSize);
    fill_pattern(b, seed);
    return b;
  }

  std::vector<std::byte> read(std::uint64_t blkno) {
    std::vector<std::byte> b(kBlockSize);
    cache->read_block(blkno, b);
    return b;
  }
};

TEST(TincaCache, CommitThenReadBack) {
  Fixture f;
  auto txn = f.cache->tinca_init_txn();
  txn.add(10, f.block(1));
  txn.add(20, f.block(2));
  f.cache->tinca_commit(txn);
  EXPECT_EQ(f.read(10), f.block(1));
  EXPECT_EQ(f.read(20), f.block(2));
  EXPECT_FALSE(txn.open());
}

TEST(TincaCache, CommittedBlocksAreBufferRoleAndDirty) {
  Fixture f;
  f.cache->write_block(5, f.block(9));
  const CacheEntry e = f.cache->entry_for(5);
  EXPECT_TRUE(e.valid);
  EXPECT_EQ(e.role, Role::kBuffer);
  EXPECT_TRUE(e.modified);
  EXPECT_EQ(e.prev_nvm, CacheEntry::kFresh);
}

TEST(TincaCache, WriteHitUsesCowAndKeepsPrev) {
  Fixture f;
  f.cache->write_block(5, f.block(1));
  const std::uint32_t first_nvm = f.cache->entry_for(5).curr_nvm;
  f.cache->write_block(5, f.block(2));
  const CacheEntry e = f.cache->entry_for(5);
  EXPECT_NE(e.curr_nvm, first_nvm);
  EXPECT_EQ(e.prev_nvm, first_nvm);  // stale after commit, but recorded
  EXPECT_EQ(f.read(5), f.block(2));
  EXPECT_EQ(f.cache->stats().cow_writes, 1u);
}

TEST(TincaCache, StagingSameBlockTwiceKeepsLatest) {
  Fixture f;
  auto txn = f.cache->tinca_init_txn();
  txn.add(3, f.block(1));
  txn.add(3, f.block(2));
  EXPECT_EQ(txn.block_count(), 1u);
  f.cache->tinca_commit(txn);
  EXPECT_EQ(f.read(3), f.block(2));
}

TEST(TincaCache, EmptyCommitSucceeds) {
  Fixture f;
  auto txn = f.cache->tinca_init_txn();
  f.cache->tinca_commit(txn);
  EXPECT_EQ(f.cache->stats().txns_committed, 1u);
}

TEST(TincaCache, AbortDiscardsRunningTxn) {
  Fixture f;
  auto txn = f.cache->tinca_init_txn();
  txn.add(7, f.block(1));
  f.cache->tinca_abort(txn);
  EXPECT_FALSE(f.cache->cached(7));
  EXPECT_EQ(f.cache->stats().txns_aborted, 1u);
  EXPECT_THROW(f.cache->tinca_commit(txn), ContractViolation);
}

TEST(TincaCache, DoubleCommitRejected) {
  Fixture f;
  auto txn = f.cache->tinca_init_txn();
  txn.add(1, f.block(1));
  f.cache->tinca_commit(txn);
  EXPECT_THROW(f.cache->tinca_commit(txn), ContractViolation);
}

TEST(TincaCache, OversizedTransactionRejected) {
  Fixture f;
  auto txn = f.cache->tinca_init_txn();
  for (std::uint64_t i = 0; i <= f.cache->max_txn_blocks(); ++i)
    txn.add(i, f.block(i));
  EXPECT_THROW(f.cache->tinca_commit(txn), ContractViolation);
}

// The 56-bit disk-block bound of the entry codec is checked at the top of
// batch_stage: a commit naming a larger block is rejected before any NVM
// store, and the cache commits normally afterwards.
TEST(TincaCache, DiskBlockPast56BitsRejectedBeforeAnyNvmStore) {
  Fixture f;
  f.cache->write_block(1, f.block(1));
  const nvm::NvmStats before = f.dev.stats();
  const std::uint64_t now = f.clock.now();

  auto txn = f.cache->tinca_init_txn();
  txn.add(2, f.block(2));
  txn.add(CacheEntry::kMaxDiskBlock + 1, f.block(3));
  EXPECT_THROW(f.cache->tinca_commit(txn), ContractViolation);

  const nvm::NvmStats after = f.dev.stats();
  EXPECT_EQ(after.stores, before.stores);
  EXPECT_EQ(after.bytes_stored, before.bytes_stored);
  EXPECT_EQ(after.clflush, before.clflush);
  EXPECT_EQ(after.sfence, before.sfence);
  EXPECT_EQ(after.atomic16, before.atomic16);
  EXPECT_EQ(after.lines_loaded, before.lines_loaded);
  EXPECT_EQ(f.clock.now(), now);
  EXPECT_FALSE(f.cache->cached(2));

  auto next = f.cache->tinca_init_txn();
  next.add(2, f.block(4));
  f.cache->tinca_commit(next);
  EXPECT_EQ(f.read(2), f.block(4));
  EXPECT_EQ(f.read(1), f.block(1));
}

TEST(TincaCache, ReadMissFillsCacheClean) {
  Fixture f;
  auto data = f.block(77);
  f.disk.write(123, data);
  EXPECT_EQ(f.read(123), data);
  EXPECT_TRUE(f.cache->cached(123));
  EXPECT_FALSE(f.cache->dirty(123));
  EXPECT_EQ(f.cache->stats().read_misses, 1u);
  EXPECT_EQ(f.read(123), data);
  EXPECT_EQ(f.cache->stats().read_hits, 1u);
}

TEST(TincaCache, ReadCachingCanBeDisabled) {
  Fixture f;
  TincaConfig cfg;
  cfg.ring_bytes = 4096;
  cfg.cache_reads = false;
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, pcm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 16);
  auto cache = TincaCache::format(dev, disk, cfg);
  std::vector<std::byte> buf(kBlockSize);
  disk.write(5, f.block(1));
  cache->read_block(5, buf);
  EXPECT_FALSE(cache->cached(5));
}

TEST(TincaCache, EvictionWritesDirtyVictimToDisk) {
  Fixture f;
  const std::uint64_t cap = f.cache->capacity_blocks();
  // Fill the cache beyond capacity with dirty blocks.
  for (std::uint64_t i = 0; i < cap + 10; ++i)
    f.cache->write_block(i, f.block(i));
  EXPECT_GT(f.cache->stats().evictions, 0u);
  EXPECT_GT(f.disk.stats().blocks_written, 0u);
  // Every evicted block must be readable with its committed contents.
  for (std::uint64_t i = 0; i < cap + 10; ++i)
    ASSERT_EQ(f.read(i), f.block(i)) << "block " << i;
}

TEST(TincaCache, LruOrderGovernsEviction) {
  Fixture f;
  const std::uint64_t cap = f.cache->capacity_blocks();
  for (std::uint64_t i = 0; i < cap - 2; ++i)
    f.cache->write_block(i, f.block(i));
  // Touch block 0 so it becomes MRU.
  (void)f.read(0);
  // Push enough new blocks to evict a few victims.
  for (std::uint64_t i = cap; i < cap + 4; ++i)
    f.cache->write_block(i, f.block(i));
  EXPECT_TRUE(f.cache->cached(0)) << "recently-touched block evicted";
}

TEST(TincaCache, FlushDirtyWritesBackEverything) {
  Fixture f;
  for (std::uint64_t i = 0; i < 16; ++i) f.cache->write_block(i, f.block(i));
  f.cache->flush_dirty();
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_FALSE(f.cache->dirty(i));
    std::vector<std::byte> got(kBlockSize);
    f.disk.read(i, got);
    EXPECT_EQ(got, f.block(i));
  }
}

TEST(TincaCache, CommitLeavesOnlyStagedPublishLines) {
  Fixture f;
  auto txn = f.cache->tinca_init_txn();
  for (std::uint64_t i = 0; i < 8; ++i) txn.add(i, f.block(i));
  f.cache->tinca_commit(txn);
  // Everything the commit claims durable is flushed before the fence; the
  // only dirty lines left are the lazily-published metadata (role-switch
  // entry lines + the commit-hint line), which the next batch sweeps out.
  // 8 entries span at most 3 entry-table lines (4 entries per 64 B line).
  EXPECT_LE(f.dev.dirty_lines(), 4u);
  f.cache->sync_metadata();
  EXPECT_EQ(f.dev.dirty_lines(), 0u);
}

TEST(TincaCache, RestartRecoversDirtyBlocks) {
  Fixture f;
  for (std::uint64_t i = 0; i < 12; ++i) f.cache->write_block(i, f.block(i));
  // Clean restart: mount a second instance on the same media.
  auto remounted = TincaCache::recover(f.dev, f.disk, f.cfg);
  for (std::uint64_t i = 0; i < 12; ++i) {
    std::vector<std::byte> got(kBlockSize);
    remounted->read_block(i, got);
    ASSERT_EQ(got, f.block(i)) << "block " << i;
    EXPECT_TRUE(remounted->dirty(i));
  }
  EXPECT_EQ(remounted->stats().recovered_entries, 12u);
}

TEST(TincaCache, RestartDropsCleanEntries) {
  Fixture f;
  f.disk.write(50, f.block(50));
  (void)f.read(50);  // clean fill
  f.cache->write_block(60, f.block(60));
  auto remounted = TincaCache::recover(f.dev, f.disk, f.cfg);
  EXPECT_FALSE(remounted->cached(50));
  EXPECT_TRUE(remounted->cached(60));
}

// What one mount charges the NVM after a power cut that lost a committed
// k-block batch's role switches, with `clean` written-back (clean, durable)
// entries in the table for the mount to drop.
struct MountCost {
  nvm::NvmStats nvm;
  std::uint64_t table_lines = 0;
  std::uint64_t dropped = 0;
};

MountCost mount_after_batch(std::uint64_t clean, std::uint64_t k) {
  Fixture f;
  for (std::uint64_t i = 0; i < clean; ++i)
    f.cache->write_block(1000 + i, f.block(1000 + i));
  f.cache->flush_dirty();
  f.cache->sync_metadata();
  auto txn = f.cache->tinca_init_txn();
  for (std::uint64_t i = 0; i < k; ++i) txn.add(i, f.block(i));
  f.cache->tinca_commit(txn);
  f.cache.reset();
  f.dev.crash_discard_all();

  const nvm::NvmStats before = f.dev.stats();
  auto m = TincaCache::recover(f.dev, f.disk, f.cfg);
  MountCost cost{f.dev.stats() - before,
                 (m->layout().num_blocks * 16 + 63) / 64,
                 m->stats().dropped_clean_entries};
  EXPECT_EQ(f.dev.dirty_lines(), 0u);
  EXPECT_EQ(m->stats().role_switches, k);
  for (std::uint64_t i = 0; i < k; ++i) {
    std::vector<std::byte> got(kBlockSize);
    m->read_block(i, got);
    EXPECT_EQ(got, f.block(i)) << "block " << i;
  }
  return cost;
}

TEST(TincaCache, MountReadsEachTableLineAndBatchBlockOnce) {
  constexpr std::uint64_t k = 8;
  const MountCost c = mount_after_batch(0, k);
  // Superblock identity (6 words) + the stream's hint and epoch words, the
  // whole table in one read, the batch's k block records + seal + the
  // first invalid slot, each newest-batch block's 64 lines once (the
  // placement check's fingerprint serves the roll-forward), and the ring
  // re-format's epoch word.
  EXPECT_EQ(c.nvm.lines_loaded,
            6 + 2 + c.table_lines + (k + 2) + k * (kBlockSize / 64) + 1);
}

TEST(TincaCache, MountFencesDoNotGrowWithCleanDrops) {
  constexpr std::uint64_t k = 4;
  const MountCost none = mount_after_batch(0, k);
  const MountCost some = mount_after_batch(40, k);
  EXPECT_EQ(none.dropped, 0u);
  EXPECT_EQ(some.dropped, 40u);
  // The drops are staged stores made durable by the mount's one flush pass
  // over the table, under its one fence.
  EXPECT_EQ(some.nvm.sfence, none.nvm.sfence);
  EXPECT_EQ(some.nvm.clflush, none.nvm.clflush);
}

TEST(TincaCache, RecoverRejectsForeignMedia) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, pcm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 16);
  EXPECT_THROW(TincaCache::recover(dev, disk, TincaConfig{.ring_bytes = 4096}),
               ContractViolation);
}

TEST(TincaCache, RecoverRejectsLayoutVersion3) {
  // v3 images seal FNV-1a block fingerprints in their ring records; under
  // v4's XXH64 check every committed batch would read as torn and be
  // revoked, so the mount must refuse the image instead.
  Fixture f;
  auto txn = f.cache->tinca_init_txn();
  txn.add(1, f.block(1));
  f.cache->tinca_commit(txn);
  f.cache.reset();
  EXPECT_EQ(Layout::kVersion, 4u);
  f.dev.atomic_store8(Layout::kVersionOff, 3);
  f.dev.persist(Layout::kVersionOff, 8);
  EXPECT_THROW(TincaCache::recover(f.dev, f.disk, f.cfg), ContractViolation);
}

TEST(TincaCache, RoleSwitchCountMatchesBlocks) {
  Fixture f;
  auto txn = f.cache->tinca_init_txn();
  for (std::uint64_t i = 0; i < 5; ++i) txn.add(i, f.block(i));
  f.cache->tinca_commit(txn);
  EXPECT_EQ(f.cache->stats().role_switches, 5u);
  EXPECT_EQ(f.cache->stats().blocks_committed, 5u);
}

TEST(TincaCache, BlocksPerTxnHistogramFeedsFig13) {
  Fixture f;
  for (int round = 0; round < 4; ++round) {
    auto txn = f.cache->tinca_init_txn();
    for (std::uint64_t i = 0; i < 3; ++i) txn.add(100 + i, f.block(i));
    f.cache->tinca_commit(txn);
  }
  const auto& h = f.cache->stats().blocks_per_txn;
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(TincaCache, PrevVersionPinnedDuringCommitNotLeaked) {
  Fixture f;
  f.cache->write_block(1, f.block(1));
  const std::uint64_t free_before = f.cache->free_blocks();
  f.cache->write_block(1, f.block(2));  // COW: transiently two versions
  // After commit the previous version's block must be reclaimed.
  EXPECT_EQ(f.cache->free_blocks(), free_before);
}

TEST(TincaCache, ClflushPerWriteFarBelowClassicLevels) {
  // Sanity bound for the Fig 7(b) mechanism: a committed 4 KB block costs
  // about 64 data-line flushes plus a handful of metadata flushes.
  Fixture f;
  const auto before = f.dev.stats().clflush;
  auto txn = f.cache->tinca_init_txn();
  for (std::uint64_t i = 0; i < 10; ++i) txn.add(i, f.block(i));
  f.cache->tinca_commit(txn);
  const double per_block =
      static_cast<double>(f.dev.stats().clflush - before) / 10.0;
  EXPECT_GE(per_block, 64.0);
  EXPECT_LE(per_block, 75.0);
}

}  // namespace
}  // namespace tinca::core
