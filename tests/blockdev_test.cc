// Unit tests for the block-device substrate.
#include <gtest/gtest.h>

#include <algorithm>

#include "blockdev/faulty_block_device.h"
#include "blockdev/latency_block_device.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "common/expect.h"
#include "common/rng.h"

namespace tinca::blockdev {
namespace {

std::vector<std::byte> block_with(std::uint64_t seed) {
  std::vector<std::byte> b(kBlockSize);
  tinca::fill_pattern(b, seed);
  return b;
}

TEST(MemBlockDevice, UnwrittenBlocksReadZero) {
  MemBlockDevice dev(100);
  std::vector<std::byte> buf(kBlockSize, std::byte{0xFF});
  dev.read(7, buf);
  for (std::byte b : buf) EXPECT_EQ(b, std::byte{0});
  // Still zeros once its neighbours hold the slab blocks around it.
  dev.write(6, block_with(6));
  dev.write(8, block_with(8));
  std::fill(buf.begin(), buf.end(), std::byte{0xFF});
  dev.read(7, buf);
  EXPECT_EQ(buf, std::vector<std::byte>(kBlockSize));
  dev.read(8, buf);
  EXPECT_EQ(buf, block_with(8));
}

TEST(MemBlockDevice, WriteReadRoundTrip) {
  MemBlockDevice dev(100);
  const auto data = block_with(1);
  dev.write(42, data);
  std::vector<std::byte> got(kBlockSize);
  dev.read(42, got);
  EXPECT_EQ(got, data);
}

TEST(MemBlockDevice, SparseResidency) {
  MemBlockDevice dev(1'000'000);
  dev.write(999'999, block_with(2));
  dev.write(0, block_with(3));
  EXPECT_EQ(dev.resident_blocks(), 2u);
  dev.write(0, block_with(4));  // a rewrite is not a first write
  EXPECT_EQ(dev.resident_blocks(), 2u);
  std::vector<std::byte> got(kBlockSize);
  dev.read(0, got);
  EXPECT_EQ(got, block_with(4));
  dev.read(999'999, got);  // the last block
  EXPECT_EQ(got, block_with(2));
}

TEST(MemBlockDevice, StatsCountIo) {
  MemBlockDevice dev(10);
  std::vector<std::byte> buf(kBlockSize);
  dev.write(1, buf);
  dev.write(2, buf);
  dev.read(1, buf);
  EXPECT_EQ(dev.stats().blocks_written, 2u);
  EXPECT_EQ(dev.stats().blocks_read, 1u);
}

TEST(MemBlockDevice, BoundsChecked) {
  MemBlockDevice dev(10);
  std::vector<std::byte> buf(kBlockSize);
  EXPECT_THROW(dev.write(10, buf), ContractViolation);
  EXPECT_THROW(dev.read(10, buf), ContractViolation);
  EXPECT_THROW(dev.read(11, buf), ContractViolation);
  std::vector<std::byte> small(8);
  EXPECT_THROW(dev.write(0, small), ContractViolation);
}

TEST(MemBlockDevice, FirstWritesCrossASlabBoundary) {
  // First writes in descending block order, so slab order differs from
  // block order; the 512th and 513th first writes straddle two slabs.
  const std::uint64_t n = MemBlockDevice::kSlabBlocks + 1;
  ASSERT_EQ(n, 513u);
  MemBlockDevice dev(2 * n);
  for (std::uint64_t i = 0; i < n; ++i) {
    dev.write(2 * n - 1 - i, block_with(i));
    EXPECT_EQ(dev.resident_blocks(), i + 1);
  }
  std::vector<std::byte> got(kBlockSize);
  for (std::uint64_t i = 0; i < n; ++i) {
    dev.read(2 * n - 1 - i, got);
    ASSERT_EQ(got, block_with(i)) << "first write #" << i + 1;
  }
  dev.read(0, got);  // never written
  EXPECT_EQ(got, std::vector<std::byte>(kBlockSize));
}

TEST(LatencyBlockDevice, SsdChargesPerBlock) {
  sim::SimClock clock;
  MemBlockDevice mem(100);
  LatencyBlockDevice dev(mem, ssd_profile(), clock);
  std::vector<std::byte> buf(kBlockSize);
  dev.write(0, buf);
  const auto p = ssd_profile();
  EXPECT_EQ(clock.now(), p.request_overhead_ns + p.write_block_ns);
}

TEST(LatencyBlockDevice, HddChargesSeekOnRandomAccess) {
  sim::SimClock clock;
  MemBlockDevice mem(1000);
  LatencyBlockDevice dev(mem, hdd_profile(), clock);
  std::vector<std::byte> buf(kBlockSize);
  dev.write(0, buf);           // first access: seek
  const sim::Ns after_first = clock.now();
  dev.write(1, buf);           // sequential: no seek
  const sim::Ns seq_cost = clock.now() - after_first;
  dev.write(500, buf);         // random: seek again
  const sim::Ns rnd_cost = clock.now() - after_first - seq_cost;
  EXPECT_GT(rnd_cost, seq_cost);
  EXPECT_EQ(rnd_cost - seq_cost, hdd_profile().seek_ns);
  EXPECT_EQ(dev.stats().seeks, 2u);
}

TEST(LatencyBlockDevice, PassesDataThrough) {
  sim::SimClock clock;
  MemBlockDevice mem(100);
  LatencyBlockDevice dev(mem, ssd_profile(), clock);
  const auto data = block_with(9);
  dev.write(5, data);
  std::vector<std::byte> got(kBlockSize);
  dev.read(5, got);
  EXPECT_EQ(got, data);
  EXPECT_EQ(dev.stats().blocks_written, 1u);
  EXPECT_EQ(dev.stats().blocks_read, 1u);
}

TEST(LatencyBlockDevice, HddRandomIsSlowerThanSsdRandom) {
  sim::SimClock c_ssd, c_hdd;
  MemBlockDevice m1(1000), m2(1000);
  LatencyBlockDevice ssd(m1, ssd_profile(), c_ssd);
  LatencyBlockDevice hdd(m2, hdd_profile(), c_hdd);
  std::vector<std::byte> buf(kBlockSize);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto blk = rng.below(1000);
    ssd.write(blk, buf);
    hdd.write(blk, buf);
  }
  EXPECT_GT(c_hdd.now(), 5 * c_ssd.now());
}

TEST(FaultyBlockDevice, DefaultConfigIsTransparent) {
  MemBlockDevice mem(64);
  FaultyBlockDevice dev(mem, {});
  const auto data = block_with(7);
  std::vector<std::byte> got(kBlockSize);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(dev.write(i % 64, data), IoStatus::kOk);
    EXPECT_EQ(dev.read(i % 64, got), IoStatus::kOk);
  }
  EXPECT_EQ(got, data);
  EXPECT_EQ(dev.fault_stats().transient_write_errors, 0u);
  EXPECT_EQ(dev.bad_sector_count(), 0u);
}

TEST(FaultyBlockDevice, MarkBadFailsWritesButReadsKeepLastGoodContents) {
  MemBlockDevice mem(64);
  FaultyBlockDevice dev(mem, {});
  const auto old_data = block_with(1);
  ASSERT_EQ(dev.write(5, old_data), IoStatus::kOk);
  dev.mark_bad(5);
  EXPECT_TRUE(dev.is_bad(5));
  EXPECT_EQ(dev.write(5, block_with(2)), IoStatus::kBadSector);
  std::vector<std::byte> got(kBlockSize);
  EXPECT_EQ(dev.read(5, got), IoStatus::kOk);
  EXPECT_EQ(got, old_data);  // the failed write never reached the media
  EXPECT_EQ(dev.fault_stats().bad_sectors, 1u);
  EXPECT_EQ(dev.fault_stats().bad_sector_errors, 1u);
}

TEST(FaultyBlockDevice, ScriptedTransientsFailExactlyNTimes) {
  MemBlockDevice mem(64);
  FaultyBlockDevice dev(mem, {});
  const auto data = block_with(3);
  std::vector<std::byte> got(kBlockSize);
  dev.fail_next_writes(2);
  EXPECT_EQ(dev.write(1, data), IoStatus::kTransient);
  EXPECT_EQ(dev.write(1, data), IoStatus::kTransient);
  EXPECT_EQ(dev.write(1, data), IoStatus::kOk);  // the retry that lands
  dev.fail_next_reads(1);
  EXPECT_EQ(dev.read(1, got), IoStatus::kTransient);
  EXPECT_EQ(dev.read(1, got), IoStatus::kOk);
  EXPECT_EQ(got, data);
  EXPECT_EQ(dev.fault_stats().transient_write_errors, 2u);
  EXPECT_EQ(dev.fault_stats().transient_read_errors, 1u);
}

TEST(FaultyBlockDevice, ScriptedTearLeavesHalfOldHalfNewAndCrashes) {
  MemBlockDevice mem(64);
  FaultyBlockDevice dev(mem, {});
  const auto old_data = block_with(1);
  const auto new_data = block_with(2);
  ASSERT_EQ(dev.write(9, old_data), IoStatus::kOk);
  dev.tear_write_after(2);
  ASSERT_EQ(dev.write(9, old_data), IoStatus::kOk);  // write 1: intact
  EXPECT_THROW(dev.write(9, new_data), nvm::CrashException);  // write 2 tears
  std::vector<std::byte> got(kBlockSize);
  ASSERT_EQ(mem.read(9, got), IoStatus::kOk);
  EXPECT_TRUE(std::equal(got.begin(), got.begin() + kBlockSize / 2,
                         new_data.begin()));
  EXPECT_TRUE(std::equal(got.begin() + kBlockSize / 2, got.end(),
                         old_data.begin() + kBlockSize / 2));
  EXPECT_EQ(dev.fault_stats().torn_writes, 1u);
}

TEST(FaultyBlockDevice, InjectorTornPointTearsDiskWrites) {
  MemBlockDevice mem(64);
  nvm::CrashInjector inj;
  FaultyBlockDevice dev(mem, {}, nullptr, &inj);
  const auto data = block_with(4);
  ASSERT_EQ(dev.write(0, data), IoStatus::kOk);
  inj.arm_torn(2);
  EXPECT_EQ(dev.write(0, data), IoStatus::kOk);  // torn step 1: passes
  EXPECT_THROW(dev.write(0, block_with(5)), nvm::CrashException);
  EXPECT_EQ(dev.fault_stats().torn_writes, 1u);
}

TEST(FaultyBlockDevice, RandomScheduleIsReproducibleFromSeed) {
  FaultConfig cfg;
  cfg.seed = 1234;
  cfg.transient_write_rate = 0.2;
  cfg.bad_sector_rate = 0.02;
  const auto data = block_with(6);
  std::vector<IoStatus> a, b;
  for (std::vector<IoStatus>* out : {&a, &b}) {
    MemBlockDevice mem(64);
    FaultyBlockDevice dev(mem, cfg);
    for (int i = 0; i < 300; ++i) out->push_back(dev.write(i % 64, data));
  }
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::find(a.begin(), a.end(), IoStatus::kTransient) != a.end());
}

TEST(FaultyBlockDevice, QuiesceStopsRandomFaultsButKeepsBadSectors) {
  FaultConfig cfg;
  cfg.seed = 9;
  cfg.transient_write_rate = 0.5;
  MemBlockDevice mem(64);
  FaultyBlockDevice dev(mem, cfg);
  const auto data = block_with(8);
  dev.mark_bad(3);
  dev.quiesce();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dev.write(10, data), IoStatus::kOk);
  EXPECT_EQ(dev.write(3, data), IoStatus::kBadSector);  // bad stays bad
}

}  // namespace
}  // namespace tinca::blockdev
