// Tests for the Tinca media verifier, including its use as a post-crash
// oracle: after a crash at any commit step, the raw (pre-recovery) media
// must still satisfy the structural invariants, and after recovery it must
// be fully clean.
#include <gtest/gtest.h>

#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "nvlog/log_meta.h"
#include "nvlog/nvlog_tier.h"
#include "tinca/tinca_cache.h"
#include "tinca/verify.h"

namespace tinca::core {
namespace {

constexpr std::size_t kNvmBytes = 1 << 20;
constexpr std::uint64_t kRing = 4096;

struct Fixture {
  sim::SimClock clock;
  nvm::NvmDevice dev{kNvmBytes, nvdimm_profile(), clock};
  blockdev::MemBlockDevice disk{1 << 14};
  std::unique_ptr<TincaCache> cache;

  Fixture() {
    cache = TincaCache::format(dev, disk, TincaConfig{.ring_bytes = kRing});
  }

  std::vector<std::byte> block(std::uint64_t seed) const {
    std::vector<std::byte> b(kBlockSize);
    fill_pattern(b, seed);
    return b;
  }
};

TEST(VerifyMedia, FreshDeviceIsClean) {
  Fixture f;
  const MediaReport r = verify_media(f.dev, f.cache->layout());
  EXPECT_TRUE(r.ok) << (r.problems.empty() ? "" : r.problems[0]);
  EXPECT_EQ(r.valid_entries, 0u);
  EXPECT_EQ(r.in_flight, 0u);
}

TEST(VerifyMedia, PopulatedDeviceIsClean) {
  Fixture f;
  for (std::uint64_t i = 0; i < 32; ++i) f.cache->write_block(i, f.block(i));
  const MediaReport r = verify_media(f.dev, f.cache->layout());
  EXPECT_TRUE(r.ok) << (r.problems.empty() ? "" : r.problems[0]);
  EXPECT_EQ(r.valid_entries, 32u);
  EXPECT_EQ(r.log_entries, 0u);
}

TEST(VerifyMedia, DetectsForeignDevice) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  const Layout layout = Layout::compute(kNvmBytes, kRing);
  const MediaReport r = verify_media(dev, layout);
  EXPECT_FALSE(r.ok);
}

TEST(VerifyMedia, DetectsRingCorruption) {
  Fixture f;
  // Forge a checksum-valid commit record at the scan start (index 0, hint 0)
  // whose batch_start does not seal the run before it — the one ring state
  // no crash can produce.
  const std::uint64_t epoch = f.dev.load8(Layout::kFormatEpochOff);
  const std::uint64_t w0 = 2u | (1u << 2);  // commit record, txn_count 1
  const std::uint64_t w1 = 0;
  const std::uint64_t w2 = 5;  // claims the batch started at index 5
  std::array<std::byte, Layout::kRingSlotBytes> raw{};
  store_le(raw.data(), w0, 8);
  store_le(raw.data() + 8, w1, 8);
  store_le(raw.data() + 16, w2, 8);
  store_le(raw.data() + 24, RingBuffer::checksum(w0, w1, w2, 0, epoch), 8);
  f.dev.store(f.cache->layout().ring_slot_off(0), raw);
  f.dev.persist(f.cache->layout().ring_slot_off(0), Layout::kRingSlotBytes);
  const MediaReport r = verify_media(f.dev, f.cache->layout());
  EXPECT_FALSE(r.ok);
}

TEST(VerifyMedia, DetectsDuplicateDiskMapping) {
  Fixture f;
  f.cache->write_block(5, f.block(1));
  // Forge a second entry for disk block 5 in an unused slot.
  CacheEntry forged;
  forged.valid = true;
  forged.role = Role::kBuffer;
  forged.modified = true;
  forged.disk_blkno = 5;
  forged.prev_nvm = CacheEntry::kFresh;
  forged.curr_nvm = 99;
  const std::uint64_t off = f.cache->layout().entry_off(200);
  f.dev.atomic_store16(off, forged.encode());
  f.dev.persist(off, 16);
  const MediaReport r = verify_media(f.dev, f.cache->layout());
  EXPECT_FALSE(r.ok);
}

TEST(VerifyMedia, DetectsSharedNvmBlock) {
  Fixture f;
  f.cache->write_block(5, f.block(1));
  const std::uint32_t owned = f.cache->entry_for(5).curr_nvm;
  CacheEntry forged;
  forged.valid = true;
  forged.disk_blkno = 77;
  forged.prev_nvm = CacheEntry::kFresh;
  forged.curr_nvm = owned;  // steals block 5's NVM block
  const std::uint64_t off = f.cache->layout().entry_off(201);
  f.dev.atomic_store16(off, forged.encode());
  f.dev.persist(off, 16);
  const MediaReport r = verify_media(f.dev, f.cache->layout());
  EXPECT_FALSE(r.ok);
}

TEST(VerifyMedia, DetectsOutOfRangePointer) {
  Fixture f;
  CacheEntry forged;
  forged.valid = true;
  forged.disk_blkno = 9;
  forged.prev_nvm = CacheEntry::kFresh;
  forged.curr_nvm = 0xFFFFFF;  // way past the data area
  const std::uint64_t off = f.cache->layout().entry_off(10);
  f.dev.atomic_store16(off, forged.encode());
  f.dev.persist(off, 16);
  const MediaReport r = verify_media(f.dev, f.cache->layout());
  EXPECT_FALSE(r.ok);
}

TEST(VerifyMedia, HoldsAtEveryCrashPointAndAfterRecovery) {
  // The strongest use: structural invariants must hold on the raw media
  // after a crash at *any* commit step (before recovery!), and recovery
  // must leave zero log entries and a closed ring.
  const Layout layout = Layout::compute(kNvmBytes, kRing);
  // Learn the step count.
  std::uint64_t steps = 0;
  {
    Fixture f;
    f.dev.injector.disarm();
    auto txn = f.cache->tinca_init_txn();
    for (std::uint64_t b = 0; b < 6; ++b) txn.add(b, f.block(b));
    f.cache->tinca_commit(txn);
    auto txn2 = f.cache->tinca_init_txn();
    for (std::uint64_t b = 0; b < 6; ++b) txn2.add(b + 3, f.block(b + 50));
    f.cache->tinca_commit(txn2);
    steps = f.dev.injector.steps_seen();
  }
  Rng rng(31);
  for (std::uint64_t step = 1; step <= steps; ++step) {
    Fixture f;
    f.dev.injector.arm(step);
    try {
      auto txn = f.cache->tinca_init_txn();
      for (std::uint64_t b = 0; b < 6; ++b) txn.add(b, f.block(b));
      f.cache->tinca_commit(txn);
      auto txn2 = f.cache->tinca_init_txn();
      for (std::uint64_t b = 0; b < 6; ++b) txn2.add(b + 3, f.block(b + 50));
      f.cache->tinca_commit(txn2);
    } catch (const nvm::CrashException&) {
    }
    f.dev.injector.disarm();
    f.dev.crash(rng, 0.5);

    const MediaReport raw = verify_media(f.dev, layout);
    ASSERT_TRUE(raw.ok) << "raw media corrupt after crash at step " << step
                        << ": " << (raw.problems.empty() ? "?" : raw.problems[0]);

    auto recovered =
        TincaCache::recover(f.dev, f.disk, TincaConfig{.ring_bytes = kRing});
    const MediaReport clean = verify_media(f.dev, layout);
    ASSERT_TRUE(clean.ok);
    ASSERT_EQ(clean.log_entries, 0u) << "log entry survived recovery, step " << step;
    ASSERT_EQ(clean.in_flight, 0u) << "ring left open by recovery, step " << step;
  }
}

// --- NvLog watermark-ring walk (verify_nvlog_media, DESIGN.md §16). ---

struct NvLogFixture {
  static constexpr std::size_t kLogBytes = 1 << 19;
  sim::SimClock clock;
  nvm::NvmDevice dev{kLogBytes, nvdimm_profile(), clock};
  struct Sink : nvlog::NvLogTier::DrainSink {
    void drain_apply(DrainBatch& blocks) override { (void)blocks; }
  } sink;
  nvlog::NvLogConfig cfg;
  std::unique_ptr<nvlog::NvLogTier> tier;
  std::uint64_t seed = 1;

  NvLogFixture() {
    cfg.segment_bytes = 64 * 1024;
    tier = nvlog::NvLogTier::format(dev, cfg);
  }

  /// Absorb one block and immediately drain everything: seals the active
  /// segment, recycles it, and persists one fresh watermark ring record —
  /// each call advances the watermark epoch by exactly one.
  void rotate_once() {
    std::vector<std::byte> b(blockdev::kBlockSize);
    fill_pattern(b, seed++);
    std::vector<blockdev::WriteSet::Write> blocks;
    blocks.emplace_back(seed, std::move(b));
    tier->absorb_commit(std::move(blocks), sink);
    tier->drain_all(sink);
  }

  void corrupt_slot(std::uint64_t slot) {
    std::array<std::byte, nvlog::kWatermarkSlotBytes> raw{};
    dev.load(nvlog::watermark_slot_off(slot), raw);
    raw[nvlog::kWmCrcAt] ^= std::byte{0xFF};
    dev.store(nvlog::watermark_slot_off(slot), raw);
    dev.persist(nvlog::watermark_slot_off(slot), raw.size());
  }
};

TEST(VerifyNvLogMedia, FreshFormatMountsEpochOne) {
  NvLogFixture f;
  const MediaReport r = verify_nvlog_media(f.dev);
  EXPECT_TRUE(r.ok) << (r.problems.empty() ? "" : r.problems[0]);
  EXPECT_EQ(r.wm_winning_epoch, 1u);
  EXPECT_EQ(r.wm_winning_slot, nvlog::watermark_slot_of(1, f.cfg.watermark_slots));
  EXPECT_EQ(r.wm_oldest_live_seq, 1u);
  EXPECT_EQ(r.wm_stale_records, 0u);
}

TEST(VerifyNvLogMedia, RotationReportsWinnerAndStaleRecords) {
  NvLogFixture f;
  for (int i = 0; i < 4; ++i) f.rotate_once();
  const std::uint64_t epoch = f.tier->watermark_epoch();
  ASSERT_EQ(epoch, 5u);  // format's epoch 1 + four advances

  const MediaReport r = verify_nvlog_media(f.dev);
  EXPECT_TRUE(r.ok) << (r.problems.empty() ? "" : r.problems[0]);
  EXPECT_EQ(r.wm_winning_epoch, epoch);
  EXPECT_EQ(r.wm_winning_slot,
            nvlog::watermark_slot_of(epoch, f.cfg.watermark_slots));
  EXPECT_EQ(r.wm_oldest_live_seq, f.tier->oldest_live_seq());
  // Earlier epochs still sit in their own slots, valid but outdated.
  EXPECT_EQ(r.wm_stale_records, epoch - 1);
}

TEST(VerifyNvLogMedia, TornWinnerFallsBackToPreviousEpoch) {
  NvLogFixture f;
  for (int i = 0; i < 4; ++i) f.rotate_once();
  const std::uint64_t epoch = f.tier->watermark_epoch();
  f.corrupt_slot(nvlog::watermark_slot_of(epoch, f.cfg.watermark_slots));

  // A torn record fails closed: the walk (like recovery) mounts the
  // previous epoch instead of flagging the device.
  const MediaReport r = verify_nvlog_media(f.dev);
  EXPECT_TRUE(r.ok) << (r.problems.empty() ? "" : r.problems[0]);
  EXPECT_EQ(r.wm_winning_epoch, epoch - 1);
  EXPECT_EQ(r.wm_stale_records, epoch - 2);
}

TEST(VerifyNvLogMedia, NoValidRecordIsFatal) {
  NvLogFixture f;
  for (std::uint64_t s = 0; s < f.cfg.watermark_slots; ++s) f.corrupt_slot(s);
  const MediaReport r = verify_nvlog_media(f.dev);
  EXPECT_FALSE(r.ok);
}

TEST(VerifyNvLogMedia, ReformatSaltsOutThePreviousLife) {
  NvLogFixture f;
  for (int i = 0; i < 4; ++i) f.rotate_once();
  // Reformat the same device: the nonce bump must invalidate every record
  // the previous life left in the ring, even though the bytes are intact.
  f.tier = nvlog::NvLogTier::format(f.dev, f.cfg);
  const MediaReport r = verify_nvlog_media(f.dev);
  EXPECT_TRUE(r.ok) << (r.problems.empty() ? "" : r.problems[0]);
  EXPECT_EQ(r.wm_winning_epoch, 1u);
  EXPECT_EQ(r.wm_stale_records, 0u);
}

}  // namespace
}  // namespace tinca::core
