// Crash-consistency property tests for Tinca (paper §4.5, §5.1).
//
// Strategy: run a workload of transactions with the commit path instrumented
// by crash points.  For *every* step k, re-run with a crash armed at step k,
// simulate power loss (each unflushed cache line independently survives or
// not), recover, and assert the atomicity invariant:
//
//   every block of an in-flight transaction reads back its last committed
//   contents; every block of a completed transaction reads back the new
//   contents; nothing else changed.
//
// This is strictly stronger than the paper's pull-the-plug test because it
// covers every ordering window deterministically.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "tinca/tinca_cache.h"

namespace tinca::core {
namespace {

constexpr std::size_t kNvmBytes = 1 << 20;
constexpr std::uint64_t kRing = 4096;

using Expected = std::map<std::uint64_t, std::uint64_t>;  // blkno -> seed

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(kBlockSize);
  fill_pattern(b, seed);
  return b;
}

/// A deterministic little history of transactions.  Returns, per txn, the
/// (blkno, seed) set it writes.  Blocks repeat across txns to exercise COW.
std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
make_history(int txns, int blocks_per_txn) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> history;
  std::uint64_t seed = 1;
  for (int t = 0; t < txns; ++t) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> txn;
    for (int b = 0; b < blocks_per_txn; ++b) {
      // Mix of fresh blocks and rewrites of earlier ones.
      const std::uint64_t blkno =
          (b % 2 == 0) ? static_cast<std::uint64_t>(t * blocks_per_txn + b)
                       : static_cast<std::uint64_t>(b);
      txn.emplace_back(blkno, seed++);
    }
    history.push_back(std::move(txn));
  }
  return history;
}

/// Replays `history` against a fresh cache; crashes at injector step
/// `crash_step` (0 = never).  Returns the expected committed state.
struct RunResult {
  Expected committed;     // state if every txn before the crash committed
  std::size_t committed_txns = 0;  // commits that returned before the crash
  std::uint64_t steps = 0;  // crash points observed (when not crashing)
  bool crashed = false;
};

/// Disk-only blocks a history can read into the cache as clean fills: two
/// after each commit, at kFillBase + 2t and kFillBase + 2t + 1.
constexpr std::uint64_t kFillBase = 200;
constexpr std::uint64_t kFillSeed = 1000;

RunResult run_history(nvm::NvmDevice& dev, blockdev::MemBlockDevice& disk,
                      std::uint64_t crash_step, bool read_fills = false) {
  auto cache = TincaCache::format(dev, disk, TincaConfig{.ring_bytes = kRing});
  dev.injector.disarm();
  if (crash_step > 0) dev.injector.arm(crash_step);

  RunResult result;
  const auto history = make_history(6, 5);
  if (read_fills)
    for (std::uint64_t i = 0; i < 2 * history.size(); ++i)
      disk.write(kFillBase + i, block_of(kFillSeed + i));
  try {
    std::vector<std::byte> buf(kBlockSize);
    for (const auto& txn_spec : history) {
      auto txn = cache->tinca_init_txn();
      for (const auto& [blkno, seed] : txn_spec) txn.add(blkno, block_of(seed));
      cache->tinca_commit(txn);
      // The commit returned: everything in it is now expected state.
      for (const auto& [blkno, seed] : txn_spec) result.committed[blkno] = seed;
      ++result.committed_txns;
      if (read_fills) {
        const std::uint64_t t = result.committed_txns - 1;
        cache->read_block(kFillBase + 2 * t, buf);
        cache->read_block(kFillBase + 2 * t + 1, buf);
      }
    }
  } catch (const nvm::CrashException&) {
    result.crashed = true;
  }
  result.steps = dev.injector.steps_seen();
  dev.injector.disarm();
  return result;
}

Expected whole_universe() {
  Expected u;
  for (const auto& txn : make_history(6, 5))
    for (const auto& [blkno, seed] : txn) u[blkno] = seed;
  return u;
}

/// The atomicity invariant must hold for a crash at *every* step, under
/// every line-survival pattern.  Parameterized over survival probability.
class CrashSweep : public ::testing::TestWithParam<double> {};

TEST_P(CrashSweep, EveryStepRecoversConsistently) {
  // First, learn the number of crash points in a full run.
  sim::SimClock probe_clock;
  nvm::NvmDevice probe_dev(kNvmBytes, nvdimm_profile(), probe_clock);
  blockdev::MemBlockDevice probe_disk(1 << 16);
  const RunResult full = run_history(probe_dev, probe_disk, 0);
  ASSERT_FALSE(full.crashed);
  ASSERT_GT(full.steps, 100u);

  const Expected universe = whole_universe();
  const double survive = GetParam();
  Rng rng(static_cast<std::uint64_t>(survive * 1000) + 5);

  for (std::uint64_t step = 1; step <= full.steps; ++step) {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 16);
    const RunResult run = run_history(dev, disk, step);
    ASSERT_TRUE(run.crashed) << "step " << step << " did not crash";

    dev.crash(rng, survive);
    auto recovered = TincaCache::recover(dev, disk,
                                         TincaConfig{.ring_bytes = kRing});

    // Recovery must leave no unflushed state of its own (verification reads
    // below will add clean fills, so check this first).
    ASSERT_EQ(dev.dirty_lines(), 0u)
        << "recovery left unflushed state at step " << step;

    // The committed map from the crashed run reflects exactly the txns whose
    // commit call returned before the crash — but the *last* transaction may
    // also have committed durably if the crash hit after Tail was published
    // (between publish and return).  Accept either: the recovered state must
    // match `run.committed` or `run.committed + next txn`.
    const auto history = make_history(6, 5);
    std::vector<Expected> acceptable;
    acceptable.push_back(run.committed);
    // The in-flight transaction may also have landed durably if the crash
    // hit between Tail publication and the commit call returning.
    if (run.committed_txns < history.size()) {
      Expected with_next = run.committed;
      for (const auto& [blkno, seed] : history[run.committed_txns])
        with_next[blkno] = seed;
      acceptable.push_back(with_next);
    }

    bool ok = false;
    std::string last_err;
    for (const Expected& exp : acceptable) {
      bool match = true;
      std::vector<std::byte> buf(kBlockSize);
      for (const auto& [blkno, _] : universe) {
        recovered->read_block(blkno, buf);
        auto it = exp.find(blkno);
        const std::uint64_t want =
            it != exp.end() ? fingerprint(block_of(it->second))
                            : fingerprint(std::vector<std::byte>(kBlockSize, std::byte{0}));
        if (fingerprint(buf) != want) {
          match = false;
          break;
        }
      }
      if (match) {
        ok = true;
        break;
      }
    }
    ASSERT_TRUE(ok) << "inconsistent recovery after crash at step " << step
                    << " (survive=" << survive << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(SurvivalPatterns, CrashSweep,
                         ::testing::Values(0.0, 0.3, 0.7, 1.0));

TEST(TincaCrash, RecoveryIsIdempotentUnderRepeatedCrashes) {
  // Crash during the run, then crash *during recovery* at every recovery
  // step, recover again, and check consistency still holds.  The history
  // reads clean fills between commits, so the mounts' step 7 sheds clean
  // entries in between revoke points: a crash there can lose those staged
  // drops, and the next mount must redo them.
  sim::SimClock probe_clock;
  nvm::NvmDevice probe_dev(kNvmBytes, nvdimm_profile(), probe_clock);
  blockdev::MemBlockDevice probe_disk(1 << 16);
  const RunResult full = run_history(probe_dev, probe_disk, 0, true);
  const Expected universe = whole_universe();

  Rng rng(77);
  std::uint64_t dropped = 0;
  // Sample a spread of crash steps (full sweep of the cross product would
  // be quadratic).
  for (std::uint64_t step = 7; step <= full.steps; step += 13) {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 16);
    const RunResult run = run_history(dev, disk, step, true);
    ASSERT_TRUE(run.crashed);
    dev.crash(rng, 0.5);

    // First recovery attempt, crashed at recovery step 1, 2, ... until a
    // recovery completes.
    std::unique_ptr<TincaCache> recovered;
    for (std::uint64_t rstep = 1; rstep < 100 && !recovered; ++rstep) {
      dev.injector.arm(rstep);
      try {
        recovered = TincaCache::recover(dev, disk,
                                        TincaConfig{.ring_bytes = kRing});
      } catch (const nvm::CrashException&) {
        dev.crash(rng, 0.5);
      }
    }
    dev.injector.disarm();
    if (!recovered)
      recovered = TincaCache::recover(dev, disk, TincaConfig{.ring_bytes = kRing});
    dropped += recovered->stats().dropped_clean_entries;

    // The final mount left nothing staged: a power cut right after it,
    // before any read adds a fill, loses none of its drops, so a second
    // mount finds no clean entry to shed, keeps the same entries and reads
    // the same blocks.  Snapshot reads take the first mount's view without
    // filling the cache.
    ASSERT_EQ(dev.dirty_lines(), 0u) << "step " << step;
    std::vector<std::byte> buf(kBlockSize);
    std::vector<std::uint64_t> blocks;
    for (const auto& [blkno, _] : universe) blocks.push_back(blkno);
    for (std::uint64_t i = 0; i < 2 * run.committed_txns; ++i)
      blocks.push_back(kFillBase + i);
    std::map<std::uint64_t, std::uint64_t> first_view;  // blkno -> fp
    const SnapshotPin pin = recovered->snapshot_pin();
    ASSERT_TRUE(pin.valid());
    for (std::uint64_t blkno : blocks) {
      recovered->snapshot_read(pin, blkno, buf);
      first_view[blkno] = fingerprint(buf);
    }
    recovered->snapshot_unpin(pin);
    const std::uint64_t kept = recovered->stats().recovered_entries;
    recovered.reset();
    dev.crash_discard_all();
    recovered =
        TincaCache::recover(dev, disk, TincaConfig{.ring_bytes = kRing});
    EXPECT_EQ(recovered->stats().dropped_clean_entries, 0u) << "step " << step;
    EXPECT_EQ(recovered->stats().revoked_blocks, 0u) << "step " << step;
    EXPECT_EQ(recovered->stats().recovered_entries, kept) << "step " << step;
    for (std::uint64_t blkno : blocks) {
      recovered->read_block(blkno, buf);
      ASSERT_EQ(fingerprint(buf), first_view[blkno])
          << "block " << blkno << " changed across a remount at step "
          << step;
    }

    // All committed-before-crash data must still be intact (the final txn
    // may or may not have landed, as in the sweep test), and every fill
    // reads back its disk copy.
    for (std::uint64_t i = 0; i < 2 * run.committed_txns; ++i)
      ASSERT_EQ(first_view[kFillBase + i], fingerprint(block_of(kFillSeed + i)))
          << "fill " << kFillBase + i << " after repeated crashes at step "
          << step;
    for (const auto& [blkno, seed] : run.committed) {
      recovered->read_block(blkno, buf);
      const auto history = make_history(6, 5);
      // Accept the committed seed or any later seed for this block from the
      // immediately-following transaction.
      bool acceptable = fingerprint(buf) == fingerprint(block_of(seed));
      if (!acceptable) {
        for (const auto& txn : history)
          for (const auto& [b2, s2] : txn)
            if (b2 == blkno && s2 > seed &&
                fingerprint(buf) == fingerprint(block_of(s2)))
              acceptable = true;
      }
      ASSERT_TRUE(acceptable)
          << "block " << blkno << " corrupted after repeated crashes at step "
          << step;
    }
  }
  EXPECT_GT(dropped, 0u) << "no mount of the sweep shed a clean fill";
}

TEST(TincaCrash, WriteMissAbortedMidCommitIsDiscardedWholly) {
  // Directed sweep over the revoke-marker blind spot: a WRITE-MISS block
  // has prev_nvm == kFresh, so the marker encoding (prev == curr) cannot
  // represent its rollback — revoke_slot must instead discard the whole
  // entry.  Crash a single-block write-miss commit at every injector step
  // and assert recovery leaves exactly one of two states: the block fully
  // committed (Tail already published) or not cached at all with the disk
  // untouched.  No step may yield a half-alive entry, and no step may trip
  // the revoke-marker precondition (prev != kFresh) during recovery.
  constexpr std::uint64_t kBlkno = 42;

  sim::SimClock probe_clock;
  nvm::NvmDevice probe_dev(kNvmBytes, nvdimm_profile(), probe_clock);
  blockdev::MemBlockDevice probe_disk(1 << 16);
  std::uint64_t steps = 0;
  {
    auto cache = TincaCache::format(probe_dev, probe_disk,
                                    TincaConfig{.ring_bytes = kRing});
    auto txn = cache->tinca_init_txn();
    txn.add(kBlkno, block_of(7));
    cache->tinca_commit(txn);
    steps = probe_dev.injector.steps_seen();
  }
  ASSERT_GT(steps, 3u);

  Rng rng(4242);
  for (const double survive : {0.0, 0.5, 1.0}) {
    for (std::uint64_t step = 1; step <= steps; ++step) {
      sim::SimClock clock;
      nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
      blockdev::MemBlockDevice disk(1 << 16);
      auto cache =
          TincaCache::format(dev, disk, TincaConfig{.ring_bytes = kRing});
      dev.injector.arm(step);
      bool crashed = false;
      try {
        auto txn = cache->tinca_init_txn();
        txn.add(kBlkno, block_of(7));
        cache->tinca_commit(txn);
      } catch (const nvm::CrashException&) {
        crashed = true;
      }
      dev.injector.disarm();
      if (!crashed) continue;  // step beyond the commit: nothing to check

      dev.crash(rng, survive);
      auto recovered =
          TincaCache::recover(dev, disk, TincaConfig{.ring_bytes = kRing});

      // Inspect the cache state BEFORE reading (read_block would fill the
      // cache on a miss and mask a ghost entry).
      const bool resident = recovered->cached(kBlkno);
      std::vector<std::byte> got(kBlockSize);
      recovered->read_block(kBlkno, got);
      const bool committed = fingerprint(got) == fingerprint(block_of(7));
      const bool discarded =
          fingerprint(got) ==
          fingerprint(std::vector<std::byte>(kBlockSize, std::byte{0}));
      ASSERT_TRUE(committed || discarded)
          << "half-alive write-miss block after crash at step " << step
          << " (survive=" << survive << ")";
      // A discarded write miss must leave no cache ghost: the entry is
      // invalidated whole, never kept as a revoke marker.
      if (discarded) {
        EXPECT_FALSE(resident) << "step " << step << " survive " << survive;
      }
      // Write-back cache, single txn: the commit path must never have
      // touched the disk, whichever way recovery resolved the crash.
      std::vector<std::byte> raw(kBlockSize);
      disk.read(kBlkno, raw);
      EXPECT_EQ(raw, std::vector<std::byte>(kBlockSize))
          << "disk advanced during an aborted write-miss commit, step "
          << step;
    }
  }
}

TEST(TincaCrash, RollForwardIgnoresSupersededRecords) {
  // Recovery's scan window holds the last two committed batches (a batch's
  // new hint rides the next batch's flush pass).  Commit B = v200, then
  // B = v300: reclaim frees v200's NVM block, and the LIFO pool hands it to
  // the next commit {B = v200's bytes, C}, which copies B on write straight
  // back into it.  A cut that keeps that staged entry line but loses the
  // hint leaves a log-role entry over a block whose bytes match the v200
  // record — which is not B's newest.  Rolling it forward revives B from
  // the in-flight transaction without C.  Sweep every cut point under 16
  // line-survival lotteries: B and C must come back both old or both new.
  constexpr std::uint64_t kB = 5;
  constexpr std::uint64_t kC = 9;
  const auto version = [](std::uint64_t v) {
    std::vector<std::byte> b(kBlockSize, std::byte{0});
    std::fill_n(b.begin(), 64, static_cast<std::byte>(v));  // one line
    return b;
  };
  const auto commit = [&](TincaCache& cache,
                          std::initializer_list<std::pair<std::uint64_t,
                                                          std::uint64_t>> w) {
    auto txn = cache.tinca_init_txn();
    for (const auto& [blkno, v] : w) txn.add(blkno, version(v));
    cache.tinca_commit(txn);
    cache.mvcc_reclaim();
  };
  // Runs the history on a fresh device, cutting power at `crash_step` of
  // the last commit (0 = never); returns whether it crashed.
  const auto run = [&](nvm::NvmDevice& dev, blockdev::MemBlockDevice& disk,
                       std::uint64_t crash_step) {
    auto cache =
        TincaCache::format(dev, disk, TincaConfig{.ring_bytes = kRing});
    for (const std::uint64_t v : {100, 200, 300}) commit(*cache, {{kB, v}});
    dev.injector.disarm();
    if (crash_step != 0) dev.injector.arm(crash_step);
    try {
      commit(*cache, {{kB, 200}, {kC, 1}});
    } catch (const nvm::CrashException&) {
      return true;
    }
    return false;
  };

  std::uint64_t steps = 0;
  {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 16);
    ASSERT_FALSE(run(dev, disk, 0));
    steps = dev.injector.steps_seen();
  }
  ASSERT_GT(steps, 10u);

  const std::vector<std::byte> zero(kBlockSize, std::byte{0});
  for (std::uint64_t lottery = 1; lottery <= 16; ++lottery) {
    for (std::uint64_t step = 1; step <= steps; ++step) {
      sim::SimClock clock;
      nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
      blockdev::MemBlockDevice disk(1 << 16);
      ASSERT_TRUE(run(dev, disk, step)) << "step " << step;
      Rng rng(lottery);
      dev.crash(rng, 0.5);
      auto recovered =
          TincaCache::recover(dev, disk, TincaConfig{.ring_bytes = kRing});
      std::vector<std::byte> b(kBlockSize);
      std::vector<std::byte> c(kBlockSize);
      recovered->read_block(kB, b);
      recovered->read_block(kC, c);
      const bool before = b == version(300) && c == zero;
      const bool after = b == version(200) && c == version(1);
      EXPECT_TRUE(before || after)
          << "half of the in-flight transaction survived: step " << step
          << ", lottery Rng(" << lottery << ")";
    }
  }
}

TEST(TincaCrash, KillBeforeAnyCommitIsHarmless) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 16);
  {
    auto cache = TincaCache::format(dev, disk, TincaConfig{.ring_bytes = kRing});
    auto txn = cache->tinca_init_txn();
    txn.add(1, block_of(1));
    // Process dies before commit: staged data simply evaporates.
  }
  dev.crash_discard_all();
  auto recovered =
      TincaCache::recover(dev, disk, TincaConfig{.ring_bytes = kRing});
  EXPECT_FALSE(recovered->cached(1));
  EXPECT_EQ(recovered->stats().revoked_blocks, 0u);
}

}  // namespace
}  // namespace tinca::core
