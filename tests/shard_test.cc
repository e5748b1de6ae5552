// Functional and concurrency tests for the sharded Tinca front-end.
//
// Covers: block→shard routing, cross-shard transactional round trips, clean
// remount, and a multi-threaded commit stress whose aftermath is crashed,
// recovered shard by shard, and checked both for data integrity and for
// structural media health (verify_media on every shard).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "shard/sharded_tinca.h"
#include "tinca/verify.h"

namespace tinca::shard {
namespace {

constexpr std::size_t kNvmBytes = 8 << 20;  // 2 MB per shard at 4 shards
constexpr std::uint64_t kDiskBlocks = 1 << 16;

ShardedConfig small_cfg(std::uint32_t shards = 4) {
  ShardedConfig cfg;
  cfg.num_shards = shards;
  cfg.shard.ring_bytes = 4096;
  return cfg;
}

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(core::kBlockSize);
  fill_pattern(b, seed);
  return b;
}

TEST(ShardRouting, StableInRangeAndSpreading) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto st = ShardedTinca::format(dev, disk, small_cfg());

  ASSERT_EQ(st->shard_count(), 4u);
  std::vector<std::uint64_t> per_shard(4, 0);
  for (std::uint64_t b = 0; b < 1000; ++b) {
    const std::uint32_t s = st->shard_of(b);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, st->shard_of(b)) << "routing must be deterministic";
    ++per_shard[s];
  }
  // A hash spreading 1000 sequential blocks over 4 shards should land well
  // away from empty on every shard (binomial tail makes <150 astronomically
  // unlikely for a decent mix).
  for (std::uint32_t s = 0; s < 4; ++s)
    EXPECT_GT(per_shard[s], 150u) << "shard " << s << " starved";
}

TEST(ShardedTinca, CrossShardTxnRoundTrip) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto st = ShardedTinca::format(dev, disk, small_cfg());

  // Pick blocks until every shard is represented in one transaction.
  std::map<std::uint32_t, std::uint64_t> rep;  // shard -> block
  for (std::uint64_t b = 0; rep.size() < 4; ++b) rep.try_emplace(st->shard_of(b), b);

  auto txn = st->init_txn();
  std::uint64_t seed = 100;
  std::map<std::uint64_t, std::uint64_t> want;  // block -> seed
  for (const auto& [s, b] : rep) {
    txn.add(b, block_of(seed));
    want[b] = seed++;
  }
  ASSERT_EQ(txn.block_count(), 4u);
  st->commit(txn);
  EXPECT_FALSE(txn.open());

  std::vector<std::byte> buf(core::kBlockSize);
  for (const auto& [b, s] : want) {
    EXPECT_TRUE(st->cached(b));
    EXPECT_TRUE(st->dirty(b));
    st->read_block(b, buf);
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(s))) << "block " << b;
  }
  const auto agg = st->aggregated_stats();
  // One front-end transaction becomes one sub-transaction per involved shard.
  EXPECT_EQ(agg.txns_committed, 4u);
  EXPECT_EQ(agg.blocks_committed, 4u);
}

TEST(ShardedTinca, RestagingABlockKeepsTheLatest) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto st = ShardedTinca::format(dev, disk, small_cfg());

  auto txn = st->init_txn();
  txn.add(7, block_of(1));
  txn.add(7, block_of(2));
  ASSERT_EQ(txn.block_count(), 1u);
  st->commit(txn);

  std::vector<std::byte> buf(core::kBlockSize);
  st->read_block(7, buf);
  EXPECT_EQ(fingerprint(buf), fingerprint(block_of(2)));
}

// Through the sharded front-end the 56-bit bound is the home shard's
// batch_stage check: nothing reaches any shard's NVM, and the next commit
// succeeds.  A cross-shard transaction whose out-of-range block homes to a
// higher shard than its valid block is rejected before the lower shard
// stages, so that shard's next commit is not refused.
TEST(ShardedTinca, DiskBlockPast56BitsRejectedBeforeAnyNvmStore) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto st = ShardedTinca::format(dev, disk, small_cfg());
  st->write_block(1, block_of(1));

  struct Snap {
    std::uint64_t stores, bytes, clflush, sfence, atomic16, now;
  };
  const auto snap = [&] {
    std::vector<Snap> v;
    for (std::uint32_t s = 0; s < st->shard_count(); ++s) {
      const nvm::NvmStats& n = st->shard_nvm(s).stats();
      v.push_back({n.stores, n.bytes_stored, n.clflush, n.sfence, n.atomic16,
                   st->shard_clock(s).now()});
    }
    const nvm::NvmStats& n = dev.stats();
    v.push_back({n.stores, n.bytes_stored, n.clflush, n.sfence, n.atomic16,
                 clock.now()});
    return v;
  };
  const auto expect_unmoved = [&](const std::vector<Snap>& before) {
    const std::vector<Snap> after = snap();
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(after[i].stores, before[i].stores) << i;
      EXPECT_EQ(after[i].bytes, before[i].bytes) << i;
      EXPECT_EQ(after[i].clflush, before[i].clflush) << i;
      EXPECT_EQ(after[i].sfence, before[i].sfence) << i;
      EXPECT_EQ(after[i].atomic16, before[i].atomic16) << i;
      EXPECT_EQ(after[i].now, before[i].now) << i;
    }
  };

  {
    const std::vector<Snap> before = snap();
    auto txn = st->init_txn();
    txn.add(core::CacheEntry::kMaxDiskBlock + 1, block_of(2));
    EXPECT_THROW(st->commit(txn), ContractViolation);
    expect_unmoved(before);
  }

  auto next = st->init_txn();
  next.add(2, block_of(3));
  st->commit(next);
  std::vector<std::byte> buf(core::kBlockSize);
  st->read_block(2, buf);
  EXPECT_EQ(fingerprint(buf), fingerprint(block_of(3)));
  st->read_block(1, buf);
  EXPECT_EQ(fingerprint(buf), fingerprint(block_of(1)));

  // Cross-shard: a valid block on shard 0, the out-of-range one on a higher
  // shard, which batch_stage reaches only after shard 0 has staged.
  std::uint64_t low = 3;
  while (st->shard_of(low) != 0) ++low;
  std::uint64_t high = core::CacheEntry::kMaxDiskBlock + 1;
  while (st->shard_of(high) == 0) ++high;
  {
    const std::vector<Snap> before = snap();
    auto txn = st->init_txn();
    txn.add(low, block_of(4));
    txn.add(high, block_of(5));
    EXPECT_THROW(st->commit(txn), ContractViolation);
    expect_unmoved(before);
  }

  auto retry = st->init_txn();
  retry.add(low, block_of(6));
  st->commit(retry);
  st->read_block(low, buf);
  EXPECT_EQ(fingerprint(buf), fingerprint(block_of(6)));
}

TEST(ShardedTinca, AbortDiscardsEverything) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto st = ShardedTinca::format(dev, disk, small_cfg());

  auto txn = st->init_txn();
  for (std::uint64_t b = 0; b < 8; ++b) txn.add(b, block_of(b + 1));
  st->abort(txn);
  EXPECT_FALSE(txn.open());
  for (std::uint64_t b = 0; b < 8; ++b) EXPECT_FALSE(st->cached(b));
  EXPECT_EQ(st->aggregated_stats().txns_committed, 0u);
}

TEST(ShardedTinca, CleanRemountKeepsCommittedData) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  std::map<std::uint64_t, std::uint64_t> want;
  {
    auto st = ShardedTinca::format(dev, disk, small_cfg());
    for (std::uint64_t t = 0; t < 10; ++t) {
      auto txn = st->init_txn();
      for (std::uint64_t b = 0; b < 5; ++b) {
        const std::uint64_t blk = t * 5 + b;
        txn.add(blk, block_of(blk + 1000));
        want[blk] = blk + 1000;
      }
      st->commit(txn);
    }
  }
  auto st = ShardedTinca::recover(dev, disk, small_cfg());
  std::vector<std::byte> buf(core::kBlockSize);
  for (const auto& [b, s] : want) {
    st->read_block(b, buf);
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(s))) << "block " << b;
  }
}

TEST(ShardedTinca, ConcurrentCommitStressThenCrashRecoversEveryShard) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 60;
  constexpr int kBlocksPerTxn = 4;

  // Each thread owns a disjoint key range; transactions mix fresh writes and
  // rewrites so COW chains and cross-shard commits both occur.  The map each
  // thread fills is the ground truth for its own keys.
  std::vector<std::map<std::uint64_t, std::uint64_t>> truth(kThreads);
  {
    auto st = ShardedTinca::format(dev, disk, small_cfg());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const std::uint64_t lo = static_cast<std::uint64_t>(t) * 4096;
        std::uint64_t seed = static_cast<std::uint64_t>(t) << 32;
        for (int i = 0; i < kTxnsPerThread; ++i) {
          auto txn = st->init_txn();
          std::vector<std::pair<std::uint64_t, std::uint64_t>> staged;
          for (int b = 0; b < kBlocksPerTxn; ++b) {
            // Half fresh keys, half rewrites of the thread's earlier keys.
            const std::uint64_t blk =
                lo + ((b % 2 == 0) ? static_cast<std::uint64_t>(i * kBlocksPerTxn + b)
                                   : static_cast<std::uint64_t>(b));
            staged.emplace_back(blk, ++seed);
            txn.add(blk, block_of(seed));
          }
          st->commit(txn);
          // Commit returned: the staged versions are durable.
          for (const auto& [blk, s] : staged) truth[t][blk] = s;
        }
      });
    }
    for (auto& th : threads) th.join();

    const auto agg = st->aggregated_stats();
    EXPECT_GE(agg.txns_committed,
              static_cast<std::uint64_t>(kThreads) * kTxnsPerThread);
  }

  // Power failure over the whole root device, then a full sharded recovery.
  Rng rng(42);
  dev.crash(rng, 0.5);
  auto st = ShardedTinca::recover(dev, disk, small_cfg());

  // Recovery must leave no unflushed state of its own.
  EXPECT_EQ(dev.dirty_lines(), 0u);

  // Every shard's media must be structurally sound.
  for (std::uint32_t s = 0; s < st->shard_count(); ++s) {
    const auto report =
        core::verify_media(st->shard_nvm(s), st->shard_cache(s).layout());
    EXPECT_TRUE(report.ok) << "shard " << s << ": "
                           << (report.problems.empty() ? "?" : report.problems[0]);
  }

  // All data whose commit returned before the crash must read back intact.
  std::vector<std::byte> buf(core::kBlockSize);
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& [blk, seed] : truth[t]) {
      st->read_block(blk, buf);
      EXPECT_EQ(fingerprint(buf), fingerprint(block_of(seed)))
          << "thread " << t << " block " << blk;
    }
  }
}

TEST(ShardedTinca, RacingCrossShardCommitsKeepTheirDirectoryRecords) {
  // Each round releases kThreads committers at once, every transaction
  // spanning two shards, so they race through commit-directory slot
  // acquisition; then the power fails.  Racing commits must never share an
  // in-flight slot: the later record would overwrite the earlier one and
  // recovery would roll an acknowledged transaction back.
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  constexpr int kThreads = 4;
  constexpr int kRounds = 32;
  auto st = ShardedTinca::format(dev, disk, small_cfg());
  std::map<std::uint64_t, std::uint64_t> truth;
  std::uint64_t next_blk = 0;
  std::uint64_t seed = 0;
  Rng rng(7);
  for (int r = 0; r < kRounds; ++r) {
    std::vector<ShardedTxn> txns;
    for (int t = 0; t < kThreads; ++t) {
      const std::uint64_t a = next_blk++;
      while (st->shard_of(next_blk) == st->shard_of(a)) ++next_blk;
      const std::uint64_t b = next_blk++;
      ShardedTxn& txn = txns.emplace_back(st->init_txn());
      for (const std::uint64_t blk : {a, b}) {
        txn.add(blk, block_of(++seed));
        truth[blk] = seed;
      }
    }
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) {
        }
        st->commit(txns[static_cast<std::size_t>(t)]);
      });
    }
    while (ready.load(std::memory_order_acquire) < kThreads) {
    }
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();

    dev.crash(rng, 0.5);
    st.reset();
    st = ShardedTinca::recover(dev, disk, small_cfg());
    std::vector<std::byte> buf(core::kBlockSize);
    for (const auto& [blk, s] : truth) {
      st->read_block(blk, buf);
      ASSERT_EQ(fingerprint(buf), fingerprint(block_of(s)))
          << "round " << r << " block " << blk;
    }
  }
}

TEST(ShardedTinca, ConcurrentDisjointReadersAndWriters) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto st = ShardedTinca::format(dev, disk, small_cfg());

  // Seed some blocks, then hammer them with concurrent single-block writers
  // and readers on disjoint keys; every read must observe some committed
  // version of its own key (the pattern check catches torn blocks).
  for (std::uint64_t b = 0; b < 64; ++b) st->write_block(b, block_of(b + 1));

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::byte> buf(core::kBlockSize);
      for (int i = 1; i <= 50; ++i) {
        const std::uint64_t blk = static_cast<std::uint64_t>(t) * 16 +
                                  static_cast<std::uint64_t>(i % 16);
        st->write_block(blk, block_of(blk + 1 + static_cast<std::uint64_t>(i) * 1000));
        st->read_block(blk, buf);
        const std::uint64_t got = fingerprint(buf);
        // The key is private to this thread, so the read must see the value
        // just written.
        EXPECT_EQ(got, fingerprint(block_of(blk + 1 + static_cast<std::uint64_t>(i) * 1000)));
      }
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace tinca::shard
