// Multi-reader / single-writer MVCC stress (DESIGN.md §12), built to run
// under ThreadSanitizer (ci.sh runs it in the TSan stage).
//
// One writer thread commits rounds of an 8-block transaction where every
// block carries the same round pattern; N reader threads concurrently take
// snapshots and issue lock-free read_block calls.  The invariant a snapshot
// must uphold is exactly the commit boundary: all 8 blocks read through one
// snapshot decode to the SAME round, and successive snapshots on one thread
// never travel backwards in time.  Plain reads must always decode to *some*
// committed round — any torn or recycled-mid-copy block surfaces as an
// unknown fingerprint.
//
// A second shape parks 64 registry slots on a helper thread, so the readers
// pin in slots >= 64, while the writer also evicts: each round adds a cold
// write and a burst of read misses, so retired chains are unlinked and freed
// under the readers' bucket walks and every reclaim scans to their slots.
//
// Failures are collected into shared state and asserted on the main thread
// (gtest assertions are not thread-safe off the main thread).  The NVM
// device is sized to hold every version the run can publish, so reclamation
// pressure can stall (a reader parked on a pin) without ever wedging the
// writer — the stress stays about ordering, not capacity.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "shard/sharded_tinca.h"

namespace tinca::shard {
namespace {

using core::kBlockSize;

constexpr std::size_t kNvmBytes = 16 << 20;  // every version fits: no wedge
constexpr std::uint64_t kGroupBlocks = 8;
constexpr std::uint64_t kRounds = 200;
constexpr int kReaders = 4;

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(kBlockSize);
  fill_pattern(b, seed);
  return b;
}

/// fingerprint -> round, for decoding what a read returned.  Round 0 is the
/// pre-history zero block.
std::unordered_map<std::uint64_t, std::uint64_t> make_round_table() {
  std::unordered_map<std::uint64_t, std::uint64_t> t;
  t[fingerprint(std::vector<std::byte>(kBlockSize, std::byte{0}))] = 0;
  for (std::uint64_t r = 1; r <= kRounds; ++r)
    t[fingerprint(block_of(r))] = r;
  return t;
}

/// Thread-safe failure sink: keeps the first detailed message and counts.
struct Violations {
  std::atomic<std::uint64_t> count{0};
  std::mutex mu;
  std::string first;

  void add(const std::string& msg) {
    if (count.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> lock(mu);
      first = msg;
    }
  }
};

/// Who else pins, and whether the writer also evicts.
struct StressShape {
  int parked_pins = 0;  ///< registry slots held by a parker thread
  /// Per round, one cold write-miss plus kFillReads read misses on an 8 MB
  /// cache.  8 MB still holds every version a stalled floor could retain
  /// (8 group blocks plus the cold block per round), so the read misses
  /// always find a clean victim: eviction pressure without a wedge.
  bool evict = false;
};
constexpr std::uint64_t kFillReads = 24;

void run_snapshot_stress(const StressShape& shape) {
  sim::SimClock clock;
  nvm::NvmDevice dev(shape.evict ? std::size_t{8} << 20 : kNvmBytes,
                     nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  ShardedConfig cfg;
  cfg.num_shards = 1;  // one shard: the snapshot boundary spans all blocks
  cfg.shard.ring_bytes = 64 << 10;
  auto sharded = ShardedTinca::format(dev, disk, cfg);
  core::TincaCache& cache = sharded->shard_cache(0);

  const auto round_of = make_round_table();
  Violations bad;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots_taken{0};

  // The parker claims the lowest slots before any reader starts, then keeps
  // re-taking each one in turn so its epochs (and the floor) move forward:
  // the readers' pins in the slots above are then what holds the floor.
  std::atomic<bool> parked{false};
  std::thread parker;
  if (shape.parked_pins > 0) {
    parker = std::thread([&] {
      std::vector<core::SnapshotPin> pins;
      for (int i = 0; i < shape.parked_pins; ++i)
        pins.push_back(cache.snapshot_pin());
      parked.store(true, std::memory_order_release);
      while (!done.load(std::memory_order_acquire)) {
        for (core::SnapshotPin& p : pins) {
          cache.snapshot_unpin(p);
          p = cache.snapshot_pin();
        }
        std::this_thread::yield();
      }
      for (const core::SnapshotPin& p : pins) cache.snapshot_unpin(p);
    });
    while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();
  }

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int rd = 0; rd < kReaders; ++rd) {
    readers.emplace_back([&, rd] {
      std::vector<std::byte> buf(kBlockSize);
      std::uint64_t last_round = 0;
      std::uint64_t plain_blkno = static_cast<std::uint64_t>(rd);
      while (!done.load(std::memory_order_acquire) || snapshots_taken < 50) {
        // One snapshot: all group blocks must decode to one round.
        ShardedSnapshot snap = sharded->open_snapshot();
        std::uint64_t round = ~std::uint64_t{0};
        for (std::uint64_t b = 0; b < kGroupBlocks; ++b) {
          sharded->snapshot_read(snap, b, buf);
          const auto it = round_of.find(fingerprint(buf));
          if (it == round_of.end()) {
            std::ostringstream os;
            os << "reader " << rd << ": snapshot block " << b
               << " is no committed image (torn/recycled read)";
            bad.add(os.str());
            round = ~std::uint64_t{0};
            break;
          }
          if (b == 0) {
            round = it->second;
          } else if (it->second != round) {
            std::ostringstream os;
            os << "reader " << rd << ": snapshot mixes round " << round
               << " (block 0) with round " << it->second << " (block " << b
               << ") — not a commit-boundary image";
            bad.add(os.str());
            break;
          }
        }
        sharded->close_snapshot(snap);
        if (round != ~std::uint64_t{0}) {
          if (round < last_round) {
            std::ostringstream os;
            os << "reader " << rd << ": snapshot went backwards, round "
               << round << " after " << last_round;
            bad.add(os.str());
          }
          last_round = round;
        }
        snapshots_taken.fetch_add(1, std::memory_order_relaxed);

        // One lock-free plain read: must decode to SOME committed round.
        sharded->read_block(plain_blkno % kGroupBlocks, buf);
        if (!round_of.contains(fingerprint(buf))) {
          std::ostringstream os;
          os << "reader " << rd << ": plain read of block "
             << plain_blkno % kGroupBlocks << " returned no committed image";
          bad.add(os.str());
        }
        ++plain_blkno;
      }
    });
  }

  // The single writer: kGroupBlocks-wide transactions, one round each, plus
  // the shape's eviction traffic on blocks the readers never touch.
  std::vector<std::byte> fill(kBlockSize);
  for (std::uint64_t r = 1; r <= kRounds; ++r) {
    ShardedTxn txn = sharded->init_txn();
    const auto data = block_of(r);
    for (std::uint64_t b = 0; b < kGroupBlocks; ++b) txn.add(b, data);
    sharded->commit(txn);
    if (!shape.evict) continue;
    sharded->write_block(kGroupBlocks + r, data);
    for (std::uint64_t i = 0; i < kFillReads; ++i)
      sharded->read_block(1024 + r * kFillReads + i, fill);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  if (parker.joinable()) parker.join();

  ASSERT_EQ(bad.count.load(), 0u) << bad.first;
  EXPECT_GE(snapshots_taken.load(), 50u);
  if (shape.parked_pins > 0) {
    EXPECT_GT(cache.mvcc().pin_scan_bound(),
              static_cast<std::uint32_t>(shape.parked_pins))
        << "no pin ever landed above the parked slots";
  }
  if (shape.evict) {
    EXPECT_GT(cache.stats().evictions, 0u);
  }

  // Quiesced: a final snapshot must read the last round everywhere.
  ShardedSnapshot snap = sharded->open_snapshot();
  std::vector<std::byte> buf(kBlockSize);
  for (std::uint64_t b = 0; b < kGroupBlocks; ++b) {
    sharded->snapshot_read(snap, b, buf);
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(kRounds))) << "blk " << b;
  }
  sharded->close_snapshot(snap);
}

TEST(MvccStress, SnapshotsSeeCommitBoundariesUnderConcurrentReaders) {
  run_snapshot_stress(StressShape{});
}

TEST(MvccStress, ReadersInHighRegistrySlotsUnderEvictionAndReclaim) {
  run_snapshot_stress(StressShape{.parked_pins = 64, .evict = true});
}

TEST(ShardedSnapshotRaii, AbandonedSnapshotReleasesItsPins) {
  // A snapshot dropped without close_snapshot() (early return, exception
  // from snapshot_read) must release its registry pins in the destructor —
  // a leaked pin silently blocks version trimming and writebacks forever.
  sim::SimClock clock;
  nvm::NvmDevice dev(4 << 20, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 12);
  ShardedConfig cfg;
  cfg.num_shards = 2;
  cfg.shard.ring_bytes = 4096;
  auto sharded = ShardedTinca::format(dev, disk, cfg);
  sharded->write_block(1, block_of(1));

  {
    ShardedSnapshot snap = sharded->open_snapshot();
    ASSERT_TRUE(snap.open());
    std::vector<std::byte> buf(kBlockSize);
    sharded->snapshot_read(snap, 1, buf);
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(1)));
    // No close_snapshot: destruction must release every shard's pin.
  }
  for (std::uint32_t s = 0; s < sharded->shard_count(); ++s)
    EXPECT_FALSE(sharded->shard_cache(s).mvcc().any_pin()) << "shard " << s;

  // A moved-from snapshot is closed and releases nothing; the explicit
  // close path still works on the destination.
  ShardedSnapshot a = sharded->open_snapshot();
  ShardedSnapshot b = std::move(a);
  EXPECT_FALSE(a.open());
  EXPECT_TRUE(b.open());
  sharded->close_snapshot(b);
  EXPECT_FALSE(b.open());
  for (std::uint32_t s = 0; s < sharded->shard_count(); ++s)
    EXPECT_FALSE(sharded->shard_cache(s).mvcc().any_pin()) << "shard " << s;
}

}  // namespace
}  // namespace tinca::shard
