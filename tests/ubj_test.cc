// Tests for the UBJ baseline (§5.4.4): functional behaviour, the memcpy-COW
// and txn-checkpoint properties the paper criticizes, and crash consistency
// of the commit-in-place protocol.
#include <gtest/gtest.h>

#include "backend/ubj_backend.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"

namespace tinca::ubj {
namespace {

constexpr std::size_t kNvmBytes = 2 << 20;

struct Fixture {
  sim::SimClock clock;
  nvm::NvmDevice dev{kNvmBytes, nvdimm_profile(), clock};
  blockdev::MemBlockDevice disk{1 << 14};
  UbjConfig cfg;
  std::unique_ptr<UbjStore> store;

  Fixture() { store = UbjStore::format(dev, disk, cfg); }

  std::vector<std::byte> block(std::uint64_t seed) const {
    std::vector<std::byte> b(blockdev::kBlockSize);
    fill_pattern(b, seed);
    return b;
  }

  void commit_one(std::uint64_t blkno, std::uint64_t seed) {
    store->commit_txn({{blkno, block(seed)}});
  }

  std::vector<std::byte> read(std::uint64_t blkno) {
    std::vector<std::byte> b(blockdev::kBlockSize);
    store->read_block(blkno, b);
    return b;
  }
};

TEST(UbjStore, CommitThenRead) {
  Fixture f;
  f.store->commit_txn({{10, f.block(1)}, {11, f.block(2)}});
  EXPECT_EQ(f.read(10), f.block(1));
  EXPECT_EQ(f.read(11), f.block(2));
  EXPECT_EQ(f.store->frozen_blocks(), 2u);
}

TEST(UbjStore, RewriteOfFrozenBlockTriggersMemcpyCow) {
  Fixture f;
  f.commit_one(5, 1);
  EXPECT_EQ(f.store->stats().frozen_cow_copies, 0u);
  f.commit_one(5, 2);  // block 5 is frozen: COW on the critical path
  EXPECT_EQ(f.store->stats().frozen_cow_copies, 1u);
  EXPECT_EQ(f.read(5), f.block(2));
  // Both copies occupy NVM until their transactions checkpoint.
  EXPECT_EQ(f.store->frozen_blocks(), 2u);
}

TEST(UbjStore, InPlaceUpdateOfCleanBlockIsCheap) {
  Fixture f;
  f.commit_one(5, 1);
  f.store->checkpoint_all();  // unfreezes: block 5 is now clean in cache
  EXPECT_EQ(f.store->frozen_blocks(), 0u);
  f.commit_one(5, 2);  // in-place: no COW
  EXPECT_EQ(f.store->stats().frozen_cow_copies, 0u);
  EXPECT_EQ(f.read(5), f.block(2));
}

TEST(UbjStore, CheckpointWritesWholeTransactionsToDisk) {
  Fixture f;
  f.store->commit_txn({{1, f.block(1)}, {2, f.block(2)}, {3, f.block(3)}});
  f.store->checkpoint_all();
  EXPECT_EQ(f.store->stats().checkpoint_writes, 3u);
  EXPECT_EQ(f.store->stats().checkpointed_txns, 1u);
  std::vector<std::byte> got(blockdev::kBlockSize);
  for (std::uint64_t b = 1; b <= 3; ++b) {
    f.disk.read(b, got);
    EXPECT_EQ(got, f.block(b));
  }
}

TEST(UbjStore, StaleFrozenCopiesAreStillCheckpointed) {
  // The inefficiency the paper contrasts with Tinca: a superseded frozen
  // copy still costs a disk write when its transaction checkpoints.
  Fixture f;
  f.commit_one(5, 1);
  f.commit_one(5, 2);
  f.store->checkpoint_all();
  EXPECT_EQ(f.store->stats().checkpoint_writes, 2u);
  EXPECT_EQ(f.store->stats().stale_checkpoint_writes, 1u);
  std::vector<std::byte> got(blockdev::kBlockSize);
  f.disk.read(5, got);
  EXPECT_EQ(got, f.block(2)) << "newest copy must win on disk";
}

TEST(UbjStore, SpacePressureTriggersCheckpointing) {
  Fixture f;
  const std::uint64_t cap = f.store->capacity_blocks();
  for (std::uint64_t i = 0; i < cap * 2; ++i) f.commit_one(i, i);
  EXPECT_GT(f.store->stats().checkpointed_txns, 0u);
  // Everything remains readable with the committed contents.
  for (std::uint64_t i = cap; i < cap * 2; i += 31)
    ASSERT_EQ(f.read(i), f.block(i)) << "block " << i;
}

TEST(UbjStore, ReadMissFillsCache) {
  Fixture f;
  f.disk.write(100, f.block(9));
  EXPECT_EQ(f.read(100), f.block(9));
  EXPECT_TRUE(f.store->cached(100));
  EXPECT_EQ(f.store->stats().read_misses, 1u);
  EXPECT_EQ(f.read(100), f.block(9));
  EXPECT_EQ(f.store->stats().read_hits, 1u);
}

TEST(UbjStore, RecoveryKeepsCommittedDropsWorking) {
  Fixture f;
  f.commit_one(1, 10);
  f.disk.write(50, f.block(50));
  (void)f.read(50);  // clean fill (unfrozen)
  f.dev.crash_discard_all();
  auto recovered = UbjStore::recover(f.dev, f.disk, f.cfg);
  std::vector<std::byte> got(blockdev::kBlockSize);
  recovered->read_block(1, got);
  EXPECT_EQ(got, f.block(10));
  EXPECT_FALSE(recovered->cached(50)) << "clean fills do not survive crashes";
  EXPECT_EQ(recovered->stats().recovered_entries, 1u);
}

TEST(UbjStore, CrashSweepCommitInPlaceIsAtomic) {
  // Sweep a crash through every step of a two-transaction history.
  std::uint64_t steps = 0;
  {
    Fixture f;
    f.dev.injector.disarm();
    f.store->commit_txn({{1, f.block(1)}, {2, f.block(2)}});
    f.store->commit_txn({{1, f.block(3)}, {4, f.block(4)}});
    steps = f.dev.injector.steps_seen();
  }
  ASSERT_GT(steps, 8u);
  Rng rng(7);
  for (std::uint64_t step = 1; step <= steps; ++step) {
    Fixture f;
    f.dev.injector.arm(step);
    int committed = 0;
    try {
      f.store->commit_txn({{1, f.block(1)}, {2, f.block(2)}});
      ++committed;
      f.store->commit_txn({{1, f.block(3)}, {4, f.block(4)}});
      ++committed;
    } catch (const nvm::CrashException&) {
    }
    f.dev.injector.disarm();
    f.dev.crash(rng, 0.5);
    auto rec = UbjStore::recover(f.dev, f.disk, f.cfg);

    std::vector<std::byte> b1(blockdev::kBlockSize), b2(blockdev::kBlockSize),
        b4(blockdev::kBlockSize);
    rec->read_block(1, b1);
    rec->read_block(2, b2);
    rec->read_block(4, b4);
    const auto zeros =
        fingerprint(std::vector<std::byte>(blockdev::kBlockSize, std::byte{0}));
    const bool txn1 = fingerprint(b2) == fingerprint(f.block(2));
    const bool txn2 = fingerprint(b4) == fingerprint(f.block(4));
    if (txn2) {
      ASSERT_TRUE(txn1) << "txn2 without txn1 at step " << step;
      ASSERT_EQ(fingerprint(b1), fingerprint(f.block(3)));
    } else if (txn1) {
      ASSERT_EQ(fingerprint(b1), fingerprint(f.block(1))) << "step " << step;
      ASSERT_EQ(fingerprint(b4), zeros);
    } else {
      ASSERT_EQ(fingerprint(b1), zeros) << "step " << step;
      ASSERT_EQ(fingerprint(b2), zeros);
    }
    (void)committed;
  }
}

TEST(UbjStore, InvalidBlockRejectsTheWholeTxnBeforeAnyStore) {
  // Block 2 is not 4 KB, so the commit must throw before block 1 reaches
  // NVM: not readable live, and not resurrected by a later crash + recovery.
  Fixture f;
  f.commit_one(1, 10);
  EXPECT_THROW(f.store->commit_txn({{1, f.block(11)},
                                    {2, std::vector<std::byte>(100)}}),
               ContractViolation);
  EXPECT_EQ(f.read(1), f.block(10));
  f.commit_one(3, 30);  // an unrelated commit, then a power cut
  f.dev.crash_discard_all();
  auto recovered = UbjStore::recover(f.dev, f.disk, f.cfg);
  std::vector<std::byte> got(blockdev::kBlockSize);
  recovered->read_block(1, got);
  EXPECT_EQ(got, f.block(10));
  recovered->read_block(3, got);
  EXPECT_EQ(got, f.block(30));
}

TEST(UbjBackend, SatisfiesTheBackendContractBasics) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  auto be = backend::UbjBackend::format(dev, disk);
  std::vector<std::byte> blk(blockdev::kBlockSize);
  fill_pattern(blk, 1);
  be->begin();
  be->stage(3, blk);
  be->commit();
  std::vector<std::byte> got(blockdev::kBlockSize);
  be->read_block(3, got);
  EXPECT_EQ(got, blk);
  be->begin();
  be->stage(4, blk);
  be->abort();
  be->read_block(4, got);
  EXPECT_EQ(got, std::vector<std::byte>(blockdev::kBlockSize, std::byte{0}));
  EXPECT_EQ(be->name(), "UBJ");
  be->flush();
  EXPECT_GT(disk.stats().blocks_written, 0u);
}

}  // namespace
}  // namespace tinca::ubj
