// Tests for the MVCC snapshot layer (DESIGN.md §12): the MvccTable version
// chains in isolation, then the TincaCache snapshot surface built on them —
// commit-boundary pinning, disk fallback with the write-defer rule, recovery
// baseline seeding, and the parked-block lifecycle when a pinned reader
// overlaps eviction pressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "common/expect.h"
#include "tinca/mvcc.h"
#include "tinca/tinca_cache.h"

namespace tinca::core {
namespace {

constexpr std::size_t kNvmBytes = 256 << 10;
constexpr std::uint64_t kDiskBlocks = 1 << 14;

TincaConfig small_cfg() { return TincaConfig{.ring_bytes = 4096}; }

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(kBlockSize);
  fill_pattern(b, seed);
  return b;
}

/// Commit single-block write transactions for distinct blocks until exactly
/// `leave_free` NVM data blocks remain free.
std::vector<std::uint64_t> fill_cache(TincaCache& cache,
                                      std::uint64_t leave_free) {
  std::vector<std::uint64_t> blocks;
  std::uint64_t next = 0;
  while (cache.free_blocks() > leave_free) {
    cache.write_block(next, block_of(next + 1));
    blocks.push_back(next++);
  }
  return blocks;
}

// --- MvccTable in isolation --------------------------------------------------

TEST(MvccTable, PinCapturesEpochAndResolvesNewestNotAbove) {
  MvccTable t(64);
  EXPECT_EQ(t.epoch(), 1u);

  t.publish(7, 10);  // visible at epoch 2
  t.bump();
  const SnapshotPin p2 = t.pin();
  ASSERT_TRUE(p2.valid());
  EXPECT_EQ(p2.epoch, 2u);

  t.publish(7, 11);  // epoch 3
  t.bump();
  t.publish(7, 12);  // epoch 4
  t.bump();

  // The old pin stops below the versions published after it...
  const VersionRec* rec = t.resolve(7, p2.epoch);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->epoch, 2u);
  EXPECT_EQ(rec->nvm_block, 10u);
  // ... while a fresh pin resolves to the newest.
  const SnapshotPin p4 = t.pin();
  EXPECT_EQ(p4.epoch, 4u);
  rec = t.resolve(7, p4.epoch);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->nvm_block, 12u);
  // A block never published resolves to nothing (disk fallback).
  EXPECT_EQ(t.resolve(8, p4.epoch), nullptr);

  t.unpin(p2);
  t.unpin(p4);
}

TEST(MvccTable, BaselineIsVisibleToEveryPossiblePin) {
  MvccTable t(64);
  t.publish_baseline(11, 50);  // epoch 1 <= every pin
  const SnapshotPin p = t.pin();
  ASSERT_TRUE(p.valid());
  const VersionRec* rec = t.resolve(11, p.epoch);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->epoch, 1u);
  EXPECT_EQ(rec->nvm_block, 50u);
  t.unpin(p);
}

TEST(MvccTable, TrimWaitsForTheOldestPin) {
  MvccTable t(64);
  t.publish(7, 10);
  t.bump();  // v@2
  const SnapshotPin pin = t.pin();
  t.publish(7, 11);
  t.bump();  // v@3
  t.publish(7, 12);
  t.bump();  // v@4
  EXPECT_EQ(t.live_versions(), 3u);

  std::vector<std::uint32_t> freed;
  t.reclaim(freed);
  // The pin at epoch 2 still reaches v@2: nothing may be trimmed.
  EXPECT_TRUE(freed.empty());
  EXPECT_EQ(t.live_versions(), 3u);
  ASSERT_NE(t.resolve(7, pin.epoch), nullptr);
  EXPECT_EQ(t.resolve(7, pin.epoch)->nvm_block, 10u);

  t.unpin(pin);
  t.reclaim(freed);
  // Floor rose to the current epoch: only the newest version survives and
  // the suffix's NVM blocks come back for reuse.
  EXPECT_EQ(t.live_versions(), 1u);
  EXPECT_EQ(freed, (std::vector<std::uint32_t>{11, 10}));
  EXPECT_EQ(t.stats.versions_trimmed.load(), 2u);
  EXPECT_EQ(t.resolve(7, t.epoch())->nvm_block, 12u);
}

TEST(MvccTable, RetiredChainUnlinksUnderPinAndFreesAfterUnpin) {
  MvccTable t(64);
  t.publish(9, 20);
  t.bump();  // v@2
  const SnapshotPin pin = t.pin();

  t.retire(9);
  EXPECT_EQ(t.retired_nodes(), 1u);
  // Still resolvable until reclamation decides otherwise.
  ASSERT_NE(t.resolve(9, pin.epoch), nullptr);

  std::vector<std::uint32_t> freed;
  t.reclaim(freed);
  // floor == head epoch: unlink is allowed (disk already holds the head's
  // bytes, readers fall back there) but the free must wait out the pin.
  EXPECT_EQ(t.resolve(9, pin.epoch), nullptr);
  EXPECT_TRUE(freed.empty());
  EXPECT_EQ(t.retired_nodes(), 1u);

  t.unpin(pin);
  t.reclaim(freed);
  EXPECT_EQ(freed, (std::vector<std::uint32_t>{20}));
  EXPECT_EQ(t.retired_nodes(), 0u);
  EXPECT_EQ(t.stats.nodes_freed.load(), 1u);
  EXPECT_EQ(t.live_versions(), 0u);
}

TEST(MvccTable, ReclaimWithEmptyRegistryFreesARetiredChainInOnePass) {
  // Regression: eviction on a full cache calls reclaim() once and must see
  // the NVM blocks of an unpinned retired chain immediately — unlink and
  // free used to be forced into separate passes even with no pins live.
  MvccTable t(64);
  t.publish(5, 30);
  t.bump();
  t.retire(5);
  std::vector<std::uint32_t> freed;
  t.reclaim(freed);
  EXPECT_EQ(freed, (std::vector<std::uint32_t>{30}));
  EXPECT_EQ(t.retired_nodes(), 0u);
}

TEST(MvccTable, ReCachedBlockShadowsItsRetiredChain) {
  MvccTable t(64);
  t.publish(3, 40);
  t.bump();  // v@2
  const SnapshotPin old_pin = t.pin();
  t.retire(3);         // evicted ...
  t.publish(3, 41);    // ... and re-cached: a fresh node in the same bucket
  t.bump();            // v@3

  // The old pin resolves through the retired chain; a new pin sees only the
  // fresh node.  Ownership follows the live chain.
  ASSERT_NE(t.resolve(3, old_pin.epoch), nullptr);
  EXPECT_EQ(t.resolve(3, old_pin.epoch)->nvm_block, 40u);
  EXPECT_EQ(t.resolve(3, t.epoch())->nvm_block, 41u);
  EXPECT_TRUE(t.owns(3, 41));
  EXPECT_FALSE(t.owns(3, 40));

  t.unpin(old_pin);
  std::vector<std::uint32_t> freed;
  t.reclaim(freed);
  EXPECT_EQ(freed, (std::vector<std::uint32_t>{40}));
  // Old history is gone; the live chain is untouched.
  EXPECT_EQ(t.resolve(3, 2), nullptr);
  EXPECT_EQ(t.resolve(3, t.epoch())->nvm_block, 41u);
}

TEST(MvccTable, ReFillBaselineLandsAtTheRetiredHeadEpoch) {
  // Regression: a block evicted under a pin and later re-cached gets a new
  // baseline from its disk bytes — which ARE the retired head's bytes (the
  // eviction writeback put them there).  Publishing that baseline at epoch 1
  // tied with the retired chain's own baseline, and resolve() kept the
  // first-found fresh rec, handing old pins the post-pin image.
  MvccTable t(64);
  t.publish(99, 10);
  t.bump();  // epoch 2
  const SnapshotPin pin = t.pin();
  ASSERT_EQ(pin.epoch, 2u);

  // Block 7: clean-fill baseline (block 40) + COW at epoch 3 (block 41).
  t.publish_baseline(7, 40);
  t.publish(7, 41);
  t.bump();  // epoch 3

  t.retire(7);  // evicted: disk now holds block 41's bytes
  std::vector<std::uint32_t> freed;
  t.reclaim(freed);
  EXPECT_TRUE(freed.empty());  // pin 2 < head 3: chain stays linked

  // Re-cached from disk: the new baseline carries the retired HEAD's bytes
  // and must land at its epoch, leaving pins below it to the retired chain.
  t.publish_baseline(7, 42);
  ASSERT_NE(t.resolve(7, pin.epoch), nullptr);
  EXPECT_EQ(t.resolve(7, pin.epoch)->nvm_block, 40u)
      << "old pin must keep resolving the retired chain's baseline";
  EXPECT_EQ(t.resolve(7, t.epoch())->nvm_block, 42u);
  // The retired generation still anchors the block at epoch 1: every pin is
  // covered in NVM, so the disk-write defer rule must not engage.
  EXPECT_EQ(t.oldest_live_epoch(7), 1u);

  t.publish(7, 43);
  t.bump();  // epoch 4
  EXPECT_EQ(t.resolve(7, pin.epoch)->nvm_block, 40u);

  t.unpin(pin);
  t.reclaim(freed);
  // Retired generation fully reclaimed, live chain trimmed to its head.
  std::sort(freed.begin(), freed.end());
  EXPECT_EQ(freed, (std::vector<std::uint32_t>{40, 41, 42}));
  EXPECT_EQ(t.retired_nodes(), 0u);
  EXPECT_EQ(t.resolve(7, t.epoch())->nvm_block, 43u);
}

TEST(MvccTable, LivePinAboveFreedLowSlotsHoldsTheFloor) {
  // Registry scans stop at one past the highest slot ever claimed — not at
  // the number of live pins: a pin left in slot 7 after slots 0-6 were
  // released must still hold the reclamation floor.
  MvccTable t(64);
  t.publish(7, 10);
  t.publish(9, 20);
  t.bump();  // both blocks at epoch 2
  std::vector<SnapshotPin> pins;
  for (int i = 0; i < 8; ++i) pins.push_back(t.pin());
  EXPECT_EQ(t.pin_scan_bound(), 8u);
  for (int i = 0; i < 7; ++i) t.unpin(pins[i]);
  const SnapshotPin old = pins[7];
  ASSERT_EQ(old.slot, 7u);
  ASSERT_EQ(old.epoch, 2u);

  t.publish(7, 11);
  t.publish(9, 21);
  t.bump();  // epoch 3
  t.publish(7, 12);
  t.bump();  // epoch 4
  t.retire(9);

  std::vector<std::uint32_t> freed;
  t.reclaim(freed);
  EXPECT_TRUE(t.any_pin());
  EXPECT_EQ(t.min_pin(), 2u);
  EXPECT_TRUE(freed.empty()) << "reclaim ignored the pin in slot 7";
  EXPECT_EQ(t.live_versions(), 5u);
  EXPECT_EQ(t.retired_nodes(), 1u);
  ASSERT_NE(t.resolve(7, old.epoch), nullptr);
  EXPECT_EQ(t.resolve(7, old.epoch)->nvm_block, 10u);
  ASSERT_NE(t.resolve(9, old.epoch), nullptr);
  EXPECT_EQ(t.resolve(9, old.epoch)->nvm_block, 20u);

  t.unpin(old);
  EXPECT_FALSE(t.any_pin());
  EXPECT_EQ(t.pin_scan_bound(), 8u) << "the scan bound only grows";
  t.reclaim(freed);
  // Block 7 trims to its head, block 9's retired chain is freed whole.
  std::sort(freed.begin(), freed.end());
  EXPECT_EQ(freed, (std::vector<std::uint32_t>{10, 11, 20, 21}));
  EXPECT_EQ(t.retired_nodes(), 0u);
  EXPECT_EQ(t.live_versions(), 1u);
  EXPECT_EQ(t.resolve(7, t.epoch())->nvm_block, 12u);
}

TEST(MvccTable, PinRegistryExhaustionFailsTheExtraPin) {
  MvccTable t(16);
  std::vector<SnapshotPin> pins;
  for (int i = 0; i < 256; ++i) {
    pins.push_back(t.pin());
    ASSERT_TRUE(pins.back().valid()) << "slot " << i;
  }
  const SnapshotPin extra = t.pin();
  EXPECT_FALSE(extra.valid());
  EXPECT_EQ(t.stats.lock_fallbacks.load(), 1u);
  for (const SnapshotPin& p : pins) t.unpin(p);
  EXPECT_TRUE(t.pin().valid());  // slots come back
}

// --- TincaCache snapshot surface ---------------------------------------------

TEST(TincaSnapshot, PinFreezesTheCommittedBoundary) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto cache = TincaCache::format(dev, disk, small_cfg());

  cache->write_block(7, block_of(1));
  const SnapshotPin pin = cache->snapshot_pin();
  ASSERT_TRUE(pin.valid());
  cache->write_block(7, block_of(2));

  std::vector<std::byte> got(kBlockSize);
  cache->snapshot_read(pin, 7, got);
  EXPECT_EQ(got, block_of(1)) << "snapshot must see the pinned boundary";
  cache->read_block(7, got);
  EXPECT_EQ(got, block_of(2)) << "ordinary reads see the newest commit";
  EXPECT_GE(cache->mvcc().stats.snapshot_reads.load(), 1u);
  cache->snapshot_unpin(pin);
}

TEST(TincaSnapshot, UnversionedBlockFallsBackToDiskAndDefersItsWriteback) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto cache = TincaCache::format(dev, disk, small_cfg());

  const SnapshotPin pin = cache->snapshot_pin();
  ASSERT_TRUE(pin.valid());
  cache->write_block(9, block_of(5));  // committed after the pin

  // No version <= the pin exists: the snapshot read falls through to disk,
  // which still holds the pre-transaction (zero) image.
  std::vector<std::byte> got(kBlockSize);
  EXPECT_FALSE(cache->snapshot_try_read(pin, 9, got));
  cache->snapshot_read(pin, 9, got);
  EXPECT_EQ(got, std::vector<std::byte>(kBlockSize));
  EXPECT_GE(cache->mvcc().stats.disk_fallbacks.load(), 1u);

  // The defer rule: while the pin lives, nothing may advance block 9 on
  // disk — flush_dirty must leave it dirty.
  cache->flush_dirty();
  EXPECT_EQ(cache->dirty_blocks(), 1u);
  cache->snapshot_read(pin, 9, got);
  EXPECT_EQ(got, std::vector<std::byte>(kBlockSize));

  cache->snapshot_unpin(pin);
  cache->flush_dirty();
  EXPECT_EQ(cache->dirty_blocks(), 0u);
  std::vector<std::byte> on_disk(kBlockSize);
  disk.read(9, on_disk);
  EXPECT_EQ(on_disk, block_of(5));
}

TEST(TincaSnapshot, RecoverySeedsBaselinesForDirtySurvivors) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  const TincaConfig cfg = small_cfg();
  auto cache = TincaCache::format(dev, disk, cfg);
  cache->write_block(3, block_of(1));
  cache->write_block(4, block_of(2));

  cache.reset();
  cache = TincaCache::recover(dev, disk, cfg);
  // Both dirty survivors got epoch-1 baseline chains: their committed bytes
  // live in NVM only, so a pinned reader must resolve them through the
  // chain, never through the (stale) disk.
  EXPECT_EQ(cache->mvcc().stats.recovery_seeded.load(), 2u);

  const SnapshotPin pin = cache->snapshot_pin();
  ASSERT_TRUE(pin.valid());
  cache->write_block(3, block_of(9));

  std::vector<std::byte> got(kBlockSize);
  ASSERT_TRUE(cache->snapshot_try_read(pin, 3, got));
  EXPECT_EQ(got, block_of(1));
  cache->read_block(3, got);
  EXPECT_EQ(got, block_of(9));
  cache->snapshot_unpin(pin);
}

TEST(TincaSnapshot, EvictionUnderAPinParksBlocksThenWedgesRecoverably) {
  // A live pin forbids recycling any chain-owned NVM block, so a completely
  // full cache under eviction pressure parks every victim in a retired
  // chain and finally wedges.  This test nails down that whole degradation:
  // the pinned reader keeps a consistent image throughout (chain first,
  // disk after the unlink), the wedge is a clean ContractViolation, and a
  // remount gets back to a fully working cache with no data loss.
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  const TincaConfig cfg = small_cfg();
  auto cache = TincaCache::format(dev, disk, cfg);

  const auto blocks = fill_cache(*cache, 0);
  ASSERT_GT(blocks.size(), 4u);
  const SnapshotPin pin = cache->snapshot_pin();
  ASSERT_TRUE(pin.valid());

  std::vector<std::byte> got(kBlockSize);
  ASSERT_TRUE(cache->snapshot_try_read(pin, blocks[0], got));
  EXPECT_EQ(got, block_of(blocks[0] + 1));

  // One more distinct block: eviction evicts victims but their blocks stay
  // pinned in retired chains, so no free block can materialize.
  EXPECT_THROW(cache->write_block(blocks.size(), block_of(999)),
               ContractViolation);
  EXPECT_GE(cache->mvcc().stats.nodes_retired.load(), 1u);

  // The pinned reader still sees the boundary image — the eviction wrote
  // the block back, so the disk fallback serves the same bytes.
  cache->snapshot_read(pin, blocks[0], got);
  EXPECT_EQ(got, block_of(blocks[0] + 1));

  cache->snapshot_unpin(pin);
  cache.reset();
  cache = TincaCache::recover(dev, disk, cfg);
  for (std::uint64_t b : blocks) {
    cache->read_block(b, got);
    ASSERT_EQ(got, block_of(b + 1)) << "blkno " << b;
  }
  cache->write_block(blocks.size(), block_of(999));  // space is back
  cache->read_block(blocks.size(), got);
  EXPECT_EQ(got, block_of(999));
}

TEST(TincaSnapshot, ReFillAfterEvictionDoesNotShadowAnOlderPin) {
  // Directed regression for the re-baseline snapshot-isolation hole: pin,
  // COW-commit a clean fill, evict it (writeback + retired chain), re-read
  // it through the locked path, COW-commit again.  The second commit's
  // baseline carries the *evicted head's* bytes; published at epoch 1 it
  // used to tie with the retired chain's baseline and capture the old pin
  // with post-pin content.
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto cache = TincaCache::format(dev, disk, small_cfg());

  const std::uint64_t kB = 10000;     // target block, distinctive disk bytes
  const std::uint64_t kSpare = 11000; // sacrificial clean fills
  const std::uint64_t kNew = 12000;   // write miss that evicts kB
  disk.write(kB, block_of(100));
  for (std::uint64_t s = 0; s < 3; ++s) disk.write(kSpare + s, block_of(50 + s));

  // Fill with committed blocks, flush them clean, then clean-fill the
  // target plus three spares.  The spares are chainless, so eviction can
  // recycle their NVM blocks even while the pin lives — everything else it
  // evicts parks in a retired chain.
  const auto filler = fill_cache(*cache, 5);
  ASSERT_GE(filler.size(), 1u);
  cache->flush_dirty();
  std::vector<std::byte> got(kBlockSize);
  for (std::uint64_t s = 0; s < 3; ++s) cache->read_block(kSpare + s, got);
  cache->read_block(kB, got);
  ASSERT_EQ(got, block_of(100));
  ASSERT_EQ(cache->free_blocks(), 1u);

  const SnapshotPin pin = cache->snapshot_pin();
  ASSERT_TRUE(pin.valid());
  ASSERT_GT(pin.epoch, 1u);

  // First COW over the clean fill: baseline (fill bytes) + new version.
  cache->write_block(kB, block_of(200));
  ASSERT_TRUE(cache->snapshot_try_read(pin, kB, got));
  ASSERT_EQ(got, block_of(100));
  ASSERT_EQ(cache->free_blocks(), 0u);

  // Line up eviction: target first, spares right behind it.
  for (std::uint64_t s = 0; s < 3; ++s) cache->read_block(kSpare + s, got);
  for (std::uint64_t b : filler) cache->read_block(b, got);

  // The write miss needs a free NVM block: evicts kB (writeback allowed —
  // its chain is anchored by the epoch-1 fill baseline, covering the pin)
  // into a retired chain, then recycles a spare for the new block.
  cache->write_block(kNew, block_of(300));
  EXPECT_FALSE(cache->cached(kB));
  EXPECT_GE(cache->mvcc().stats.nodes_retired.load(), 1u);
  std::vector<std::byte> on_disk(kBlockSize);
  disk.read(kB, on_disk);
  EXPECT_EQ(on_disk, block_of(200)) << "eviction wrote the head back";
  // The retired chain keeps serving the pin.
  ASSERT_TRUE(cache->snapshot_try_read(pin, kB, got));
  ASSERT_EQ(got, block_of(100));

  // Locked re-read fills kB from disk (the evicted head's bytes) ...
  cache->read_block(kB, got);
  ASSERT_EQ(got, block_of(200));
  // ... and the second COW publishes those bytes as the re-fill baseline.
  cache->write_block(kB, block_of(400));

  ASSERT_TRUE(cache->snapshot_try_read(pin, kB, got));
  EXPECT_EQ(got, block_of(100))
      << "old pin must keep the pre-pin image, not the re-fill baseline";
  cache->read_block(kB, got);
  EXPECT_EQ(got, block_of(400)) << "current reads see the newest commit";

  // After the pin goes away one commit's piggybacked reclaim frees the
  // retired generation whole.
  cache->snapshot_unpin(pin);
  cache->write_block(kB, block_of(500));
  EXPECT_EQ(cache->mvcc().retired_nodes(), 0u);
  cache->read_block(kB, got);
  EXPECT_EQ(got, block_of(500));
}

TEST(TincaSnapshot, CommitReclaimsVersionsNoPinNeeds) {
  // Without any reader pinned, the per-commit reclaim keeps chains at one
  // version: a write-hit stream must not grow memory or leak NVM blocks.
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto cache = TincaCache::format(dev, disk, small_cfg());

  cache->write_block(7, block_of(1));
  const std::uint64_t free_before = cache->free_blocks();
  for (std::uint64_t i = 0; i < 32; ++i)
    cache->write_block(7, block_of(100 + i));
  EXPECT_EQ(cache->mvcc().live_versions(), 1u);
  EXPECT_EQ(cache->free_blocks(), free_before);
  EXPECT_GE(cache->mvcc().stats.versions_trimmed.load(), 31u);
}

}  // namespace
}  // namespace tinca::core
