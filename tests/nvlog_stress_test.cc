// Thread-safety stress for the deep-stacked NvLog tier (DESIGN.md §16),
// aimed at TSan (ci.sh runs it in the sanitizer stage): several absorber
// threads push committed transactions through NvLogStackedBackend's
// thread-safe commit_group() while a drainer loops drain_pass(), and the
// drains themselves run one real std::thread per shard batch
// (drain_threads=true) into the sharded inner.  The assertions at the end
// are plain single-threaded reads — the point of the test is that TSan
// stays silent while absorbers, the drainer and the per-shard drain workers
// interleave.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "backend/nvlog_stacked_backend.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"

namespace tinca {
namespace {

constexpr std::size_t kBlock = blockdev::kBlockSize;
constexpr std::size_t kLogBytes = 1 << 19;
constexpr std::size_t kNvmBytes = (2u << 19) + kLogBytes;

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(kBlock);
  fill_pattern(b, seed);
  return b;
}

TEST(NvLogStackedStress, ConcurrentAbsorbersAndThreadedParallelDrains) {
  constexpr int kAbsorbers = 4;
  constexpr int kTxnsPerAbsorber = 64;
  constexpr int kBlocksPerTxn = 4;

  sim::SimClock clock;
  nvm::NvmDevice nvm(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 12);
  backend::NvLogStackedConfig cfg;
  cfg.log_bytes = kLogBytes;
  cfg.log.segment_bytes = 64 * 1024;
  cfg.inner = backend::NvLogInner::kSharded;
  cfg.shards = 2;
  cfg.tinca.ring_bytes = 64 * 1024;
  cfg.drain_threads = true;  // real per-shard drain workers
  auto be = backend::NvLogStackedBackend::format(nvm, disk, cfg);

  // Each absorber owns a disjoint block range; the last write per block is
  // the one its own thread issued, so the final check needs no cross-thread
  // ordering assumptions.
  std::atomic<int> done{0};
  std::vector<std::thread> absorbers;
  absorbers.reserve(kAbsorbers);
  for (int a = 0; a < kAbsorbers; ++a) {
    absorbers.emplace_back([&, a] {
      for (int t = 0; t < kTxnsPerAbsorber; ++t) {
        backend::GroupTxn txn;
        for (int b = 0; b < kBlocksPerTxn; ++b) {
          const std::uint64_t blkno = static_cast<std::uint64_t>(
              a * 256 + (t * kBlocksPerTxn + b) % 64);
          txn.add(blkno, block_of(a * 1'000'000 + t * 100 + b));
        }
        be->commit_group(std::span<backend::GroupTxn>(&txn, 1));
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  std::thread drainer([&] {
    while (done.load(std::memory_order_acquire) < kAbsorbers) {
      if (be->drain_pass(2) == 0) std::this_thread::yield();
    }
  });

  for (std::thread& t : absorbers) t.join();
  drainer.join();

  be->flush();  // drain the tail single-threaded
  EXPECT_EQ(be->tier().live_records(), 0u);
  EXPECT_EQ(be->tier().stats().absorbed_txns,
            static_cast<std::uint64_t>(kAbsorbers) * kTxnsPerAbsorber);

  // Every absorber's final write per block must read back bit-exact.
  std::vector<std::byte> buf(kBlock);
  for (int a = 0; a < kAbsorbers; ++a) {
    for (int slot = 0; slot < 64; ++slot) {
      // Last txn t and position b that wrote this slot.
      int last_t = -1, last_b = -1;
      for (int t = 0; t < kTxnsPerAbsorber; ++t) {
        for (int b = 0; b < kBlocksPerTxn; ++b) {
          if ((t * kBlocksPerTxn + b) % 64 == slot) {
            last_t = t;
            last_b = b;
          }
        }
      }
      ASSERT_GE(last_t, 0);
      const std::uint64_t blkno = static_cast<std::uint64_t>(a * 256 + slot);
      be->read_block(blkno, buf);
      EXPECT_EQ(fingerprint(buf),
                fingerprint(block_of(a * 1'000'000 + last_t * 100 + last_b)))
          << "absorber " << a << " slot " << slot;
    }
  }
}

}  // namespace
}  // namespace tinca
