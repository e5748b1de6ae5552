// Directed group-commit tests (DESIGN.md §14).
//
// The randomized harnesses (fault_fuzz_test, fs_fuzz_test) cover group
// commit statistically; these tests pin each pipeline cut point by name:
//
//   - a batch staged but not sealed rolls back every member;
//   - a cut at ANY persistence point inside commit_group() leaves either
//     none of the batch or all of it (exhaustive crash-point sweep);
//   - an acked batch survives total loss of unflushed lines (the publish
//     hint is lazy, the commit record is not);
//   - the sharded commit_batch is atomic across shards at every cut point
//     (the §15 cross-stream commit record: all shard portions or none);
//   - an aborted transaction never disturbs batched commits around it;
//   - concurrent committers drain through the per-shard batcher without
//     losing a transaction (the TSan stress in ci.sh).
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "backend/nvlog_stacked_backend.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "shard/sharded_tinca.h"
#include "tinca/tinca_cache.h"
#include "tinca/verify.h"

namespace tinca::core {
namespace {

constexpr std::size_t kNvmBytes = 1 << 20;
constexpr std::uint64_t kRing = 4096;

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(kBlockSize);
  fill_pattern(b, seed);
  return b;
}

// One fixed three-member batch with cross-member overlaps, committed on top
// of a five-block base transaction.  Last writer wins in member order, so
// the merged image is {10→5, 11→3, 12→4} plus the base blocks.
using Spec = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
const std::vector<Spec> kBase = {{{0, 100}, {1, 101}, {2, 102}, {3, 103},
                                  {4, 104}}};
const std::vector<Spec> kBatch = {{{10, 1}, {11, 2}},
                                  {{11, 3}, {12, 4}},
                                  {{10, 5}}};

std::map<std::uint64_t, std::uint64_t> expected_of(
    const std::vector<Spec>& specs) {
  std::map<std::uint64_t, std::uint64_t> out;
  for (const Spec& s : specs)
    for (const auto& [blkno, seed] : s) out[blkno] = seed;
  return out;
}

void commit_specs_grouped(TincaCache& cache, const std::vector<Spec>& specs) {
  std::vector<Transaction> staged;
  staged.reserve(specs.size());
  for (const Spec& s : specs) {
    staged.emplace_back(cache.tinca_init_txn());
    for (const auto& [blkno, seed] : s) staged.back().add(blkno, block_of(seed));
  }
  std::vector<Transaction*> ptrs;
  for (Transaction& t : staged) ptrs.push_back(&t);
  cache.commit_group(ptrs);
}

bool state_matches(TincaCache& cache,
                   const std::map<std::uint64_t, std::uint64_t>& expect,
                   const std::vector<std::uint64_t>& universe,
                   std::string* why) {
  std::vector<std::byte> buf(kBlockSize);
  const std::vector<std::byte> zero(kBlockSize, std::byte{0});
  for (const std::uint64_t blkno : universe) {
    cache.read_block(blkno, buf);
    const auto it = expect.find(blkno);
    const std::vector<std::byte> want =
        it == expect.end() ? zero : block_of(it->second);
    if (buf != want) {
      *why = "block " + std::to_string(blkno) + " mismatch";
      return false;
    }
  }
  return true;
}

TEST(GroupCommit, MergesLwwWithOneFenceAndCountsStats) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  auto cache = TincaCache::format(dev, disk, TincaConfig{.ring_bytes = kRing});
  commit_specs_grouped(*cache, kBase);

  const std::uint64_t fences_before = cache->stats().commit_fences;
  commit_specs_grouped(*cache, kBatch);

  std::string why;
  EXPECT_TRUE(state_matches(*cache, expected_of({kBase[0], kBatch[0],
                                                 kBatch[1], kBatch[2]}),
                            {0, 1, 2, 3, 4, 10, 11, 12}, &why))
      << why;
  const TincaCacheStats& s = cache->stats();
  EXPECT_EQ(s.txns_committed, 1u + 3u);
  EXPECT_EQ(s.commit_batches, 2u);
  EXPECT_EQ(s.commit_batch_size.max(), 3u);
  // Blocks 10 and 11 were each superseded once inside the batch.
  EXPECT_EQ(s.group_merged_writes, 2u);
  // The whole three-member batch sealed with a single fence.
  EXPECT_EQ(s.commit_fences, fences_before + 1);
}

TEST(GroupCommit, SingleMemberBatchEqualsPlainCommit) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  auto cache = TincaCache::format(dev, disk, TincaConfig{.ring_bytes = kRing});
  commit_specs_grouped(*cache, {kBase[0]});
  std::string why;
  EXPECT_TRUE(state_matches(*cache, expected_of(kBase), {0, 1, 2, 3, 4}, &why))
      << why;
  EXPECT_EQ(cache->stats().txns_committed, 1u);
  EXPECT_EQ(cache->stats().commit_batches, 1u);
}

TEST(GroupCommit, BatchOfEmptyTransactionsClosesThemAll) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  auto cache = TincaCache::format(dev, disk, TincaConfig{.ring_bytes = kRing});
  auto a = cache->tinca_init_txn();
  auto b = cache->tinca_init_txn();
  std::vector<Transaction*> ptrs = {&a, &b};
  cache->commit_group(ptrs);
  EXPECT_EQ(cache->stats().txns_committed, 2u);
  EXPECT_EQ(cache->stats().blocks_committed, 0u);
}

// Runs base + grouped batch with a crash armed at `crash_step` (0 = never).
// Returns whether commit_group returned before any crash, and the total
// persistence-point count when unarmed.
struct GroupRun {
  bool batch_acked = false;
  bool crashed = false;
  std::uint64_t steps = 0;
};

GroupRun run_grouped_history(nvm::NvmDevice& dev,
                             blockdev::MemBlockDevice& disk,
                             std::uint64_t crash_step) {
  auto cache = TincaCache::format(dev, disk, TincaConfig{.ring_bytes = kRing});
  GroupRun r;
  try {
    commit_specs_grouped(*cache, kBase);
    dev.injector.disarm();
    if (crash_step > 0) dev.injector.arm(crash_step);
    commit_specs_grouped(*cache, kBatch);
    r.batch_acked = true;
  } catch (const nvm::CrashException&) {
    r.crashed = true;
  }
  r.steps = dev.injector.steps_seen();
  dev.injector.disarm();
  return r;
}

// The tentpole crash property: for EVERY persistence point inside the
// batched commit pipeline (COW installs, batch seal, every flushed range,
// the commit record), a power cut leaves either none of the batch or all of
// it.  No member-prefix, no torn merge — and the media stays structurally
// sound.  This is the enforcing test for the per-cut rows of the DESIGN.md
// §14 crash matrix.
TEST(GroupCommitCrash, EveryCutPointIsAllOrNothingForTheBatch) {
  const std::vector<std::uint64_t> universe = {0, 1, 2, 3, 4, 10, 11, 12};
  const auto base_state = expected_of(kBase);
  const auto full_state =
      expected_of({kBase[0], kBatch[0], kBatch[1], kBatch[2]});

  // Dry run to learn the pipeline's step count.
  std::uint64_t steps = 0;
  {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 14);
    const GroupRun dry = run_grouped_history(dev, disk, 0);
    ASSERT_TRUE(dry.batch_acked);
    steps = dry.steps;
  }
  ASSERT_GT(steps, 4u) << "pipeline exposes too few cut points to sweep";

  std::uint64_t rolled_back = 0;
  std::uint64_t survived = 0;
  Rng rng(20260808);
  for (std::uint64_t k = 1; k <= steps; ++k) {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 14);
    const GroupRun r = run_grouped_history(dev, disk, k);
    ASSERT_TRUE(r.crashed) << "step " << k << " did not crash";
    dev.crash(rng, 0.5);  // each unflushed line independently survives
    auto cache = TincaCache::recover(dev, disk, TincaConfig{.ring_bytes = kRing});
    std::string why_base;
    std::string why_full;
    const bool is_base = state_matches(*cache, base_state, universe, &why_base);
    const bool is_full = state_matches(*cache, full_state, universe, &why_full);
    ASSERT_TRUE(is_base || is_full)
        << "cut at step " << k << " split the batch: vs-base " << why_base
        << ", vs-full " << why_full;
    rolled_back += is_base && !is_full ? 1 : 0;
    survived += is_full && !is_base ? 1 : 0;
    const MediaReport mr = verify_media(dev, cache->layout());
    ASSERT_TRUE(mr.ok) << "step " << k << ": "
                       << (mr.problems.empty() ? "not ok" : mr.problems[0]);
  }
  // The sweep must have seen both fates, or it proved nothing.
  EXPECT_GT(rolled_back, 0u) << "no cut ever rolled the batch back";
  EXPECT_GT(survived, 0u) << "no cut ever landed after the commit point";
}

// The earliest cut (first persistence point in the batch) must always roll
// back every member — nothing of the batch was sealed yet.
TEST(GroupCommitCrash, BatchStagedButNotSealedRollsBackAllMembers) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  const GroupRun r = run_grouped_history(dev, disk, 1);
  ASSERT_TRUE(r.crashed);
  Rng rng(7);
  dev.crash(rng, 0.5);
  auto cache = TincaCache::recover(dev, disk, TincaConfig{.ring_bytes = kRing});
  std::string why;
  EXPECT_TRUE(state_matches(*cache, expected_of(kBase),
                            {0, 1, 2, 3, 4, 10, 11, 12}, &why))
      << why;
}

// After commit_group() returns, the batch is durable even though the
// publish hint is still lazily staged: drop EVERY unflushed line (the
// harshest possible cut between durable-ack and the next hint sweep) and
// the whole batch must still recover.  An unacked batch may never surface;
// an acked one may never vanish.
TEST(GroupCommitCrash, AckedBatchSurvivesTotalDirtyLineLoss) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  const GroupRun r = run_grouped_history(dev, disk, 0);
  ASSERT_TRUE(r.batch_acked);
  dev.crash_discard_all();
  auto cache = TincaCache::recover(dev, disk, TincaConfig{.ring_bytes = kRing});
  std::string why;
  EXPECT_TRUE(state_matches(
      *cache, expected_of({kBase[0], kBatch[0], kBatch[1], kBatch[2]}),
      {0, 1, 2, 3, 4, 10, 11, 12}, &why))
      << why;
  EXPECT_GT(cache->stats().recovered_entries, 0u);
}

}  // namespace
}  // namespace tinca::core

namespace tinca::shard {
namespace {

using core::kBlockSize;

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(kBlockSize);
  fill_pattern(b, seed);
  return b;
}

ShardedConfig grouped_cfg(std::uint32_t linger_us = 0) {
  ShardedConfig cfg;
  cfg.num_shards = 2;
  cfg.group_commit = true;
  cfg.group_linger_us = linger_us;
  cfg.shard.ring_bytes = 4096;
  return cfg;
}

// An aborted transaction rolls back only its own blocks: commits batched
// around it (before, after, same shard or not) are untouched.
TEST(ShardedGroupCommit, AbortRollsBackOnlyItsOwnBlocks) {
  sim::SimClock clock;
  nvm::NvmDevice dev(1 << 20, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  auto st = ShardedTinca::format(dev, disk, grouped_cfg());

  auto pre = st->init_txn();
  pre.add(1, block_of(11));
  pre.add(2, block_of(12));
  st->commit(pre);

  auto doomed = st->init_txn();
  doomed.add(1, block_of(666));
  st->abort(doomed);

  auto after = st->init_txn();
  after.add(2, block_of(22));
  st->commit(after);

  std::vector<std::byte> buf(kBlockSize);
  st->read_block(1, buf);
  EXPECT_EQ(buf, block_of(11)) << "abort leaked into a committed block";
  st->read_block(2, buf);
  EXPECT_EQ(buf, block_of(22));
}

// The deterministic multi-transaction batch: members spanning both shards
// commit per-shard all-or-nothing, and the batch stats land in the
// aggregate.
TEST(ShardedGroupCommit, CommitBatchSpansShardsAndCountsBatches) {
  sim::SimClock clock;
  nvm::NvmDevice dev(1 << 20, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  auto st = ShardedTinca::format(dev, disk, grouped_cfg());

  std::vector<ShardedTxn> members;
  for (std::uint64_t m = 0; m < 3; ++m) {
    members.emplace_back(st->init_txn());
    members.back().add(100 + m, block_of(100 + m));
    members.back().add(200 + m, block_of(200 + m));
  }
  std::vector<ShardedTxn*> ptrs;
  for (ShardedTxn& t : members) ptrs.push_back(&t);
  st->commit_batch(ptrs);

  std::vector<std::byte> buf(kBlockSize);
  for (std::uint64_t m = 0; m < 3; ++m) {
    st->read_block(100 + m, buf);
    EXPECT_EQ(buf, block_of(100 + m));
    st->read_block(200 + m, buf);
    EXPECT_EQ(buf, block_of(200 + m));
  }
  // Each member contributes one sub-transaction per shard its blocks hash
  // to, so the aggregate txn count is the number of (member, shard) pairs.
  std::uint64_t expect_subtxns = 0;
  for (std::uint64_t m = 0; m < 3; ++m)
    expect_subtxns +=
        st->shard_of(100 + m) == st->shard_of(200 + m) ? 1 : 2;
  const core::TincaCacheStats agg = st->aggregated_stats();
  EXPECT_EQ(agg.txns_committed, expect_subtxns);
  EXPECT_GT(agg.commit_batches, 0u);
  EXPECT_GT(agg.commit_batch_size.max(), 1u);
}

// Crash sweep over commit_batch: a cut at any persistence point leaves the
// batch all-or-nothing ACROSS shards — the cross-stream commit record
// (DESIGN.md §15) retired the old ascending-shard prefix contract, so a
// recovered state carrying one shard's portion without the others is a bug.
TEST(ShardedGroupCommitCrash, CommitBatchCutsAreAtomicAcrossShards) {
  // Member writes: shard portions are {100+m} and {200+m} per member; find
  // the shard of each block dynamically since the hash is opaque.
  const auto run = [](nvm::NvmDevice& dev, blockdev::MemBlockDevice& disk,
                      std::uint64_t crash_step, bool* crashed) {
    auto st = ShardedTinca::format(dev, disk, grouped_cfg());
    auto pre = st->init_txn();
    pre.add(100, block_of(1));
    st->commit(pre);
    dev.injector.disarm();
    if (crash_step > 0) dev.injector.arm(crash_step);
    *crashed = false;
    try {
      std::vector<ShardedTxn> members;
      for (std::uint64_t m = 0; m < 3; ++m) {
        members.emplace_back(st->init_txn());
        members.back().add(100 + m, block_of(10 + m));
        members.back().add(200 + m, block_of(20 + m));
      }
      std::vector<ShardedTxn*> ptrs;
      for (ShardedTxn& t : members) ptrs.push_back(&t);
      st->commit_batch(ptrs);
    } catch (const nvm::CrashException&) {
      *crashed = true;
    }
    const std::uint64_t steps = dev.injector.steps_seen();
    dev.injector.disarm();
    return steps;
  };

  std::uint64_t steps = 0;
  {
    sim::SimClock clock;
    nvm::NvmDevice dev(1 << 20, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 14);
    bool crashed = false;
    steps = run(dev, disk, 0, &crashed);
    ASSERT_FALSE(crashed);
  }

  Rng rng(20260808);
  for (std::uint64_t k = 1; k <= steps; ++k) {
    sim::SimClock clock;
    nvm::NvmDevice dev(1 << 20, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 14);
    bool crashed = false;
    run(dev, disk, k, &crashed);
    ASSERT_TRUE(crashed) << "step " << k;
    dev.crash(rng, 0.5);
    auto st = ShardedTinca::recover(dev, disk, grouped_cfg());

    // Acceptable states: base, or base + the WHOLE batch.  Nothing between.
    std::map<std::uint64_t, std::uint64_t> state = {{100, 1}};
    std::vector<std::map<std::uint64_t, std::uint64_t>> candidates = {state};
    for (std::uint64_t m = 0; m < 3; ++m) {
      state[100 + m] = 10 + m;
      state[200 + m] = 20 + m;
    }
    candidates.push_back(state);

    std::vector<std::byte> buf(kBlockSize);
    const std::vector<std::byte> zero(kBlockSize, std::byte{0});
    bool ok = false;
    for (const auto& cand : candidates) {
      bool all = true;
      for (std::uint64_t blkno : {100ull, 101ull, 102ull, 200ull, 201ull,
                                  202ull}) {
        st->read_block(blkno, buf);
        const auto it = cand.find(blkno);
        if (buf != (it == cand.end() ? zero : block_of(it->second))) {
          all = false;
          break;
        }
      }
      ok |= all;
      if (ok) break;
    }
    ASSERT_TRUE(ok) << "cut at step " << k
                    << " left a non-atomic cross-shard batch state";
  }
}

// Concurrency stress for the per-shard leader/follower batcher: many
// threads commit single-shard transactions through the grouped path while
// lingering leaders coalesce them.  Every transaction must land, nothing
// may be lost or duplicated, and the run must be race-free (ci.sh runs this
// suite under ThreadSanitizer).
TEST(ShardedGroupCommitStress, ConcurrentCommittersAllLandThroughBatcher) {
  sim::SimClock clock;
  nvm::NvmDevice dev(1 << 21, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  ShardedConfig cfg = grouped_cfg(/*linger_us=*/200);
  cfg.shard.ring_bytes = 64 * 1024;
  auto st = ShardedTinca::format(dev, disk, cfg);

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 40;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&st, w] {
      for (int t = 0; t < kTxnsPerThread; ++t) {
        const std::uint64_t blkno =
            1000 + static_cast<std::uint64_t>(w) * kTxnsPerThread + t;
        auto txn = st->init_txn();
        txn.add(blkno, block_of(blkno));
        st->commit(txn);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::vector<std::byte> buf(kBlockSize);
  for (std::uint64_t blkno = 1000; blkno < 1000 + kThreads * kTxnsPerThread;
       ++blkno) {
    st->read_block(blkno, buf);
    ASSERT_EQ(buf, block_of(blkno)) << "block " << blkno;
  }
  const core::TincaCacheStats agg = st->aggregated_stats();
  EXPECT_EQ(agg.txns_committed,
            static_cast<std::uint64_t>(kThreads) * kTxnsPerThread);
  EXPECT_GT(agg.commit_batches, 0u);
  EXPECT_LE(agg.commit_batches, agg.txns_committed);
}

}  // namespace
}  // namespace tinca::shard

namespace tinca::backend {
namespace {

using core::kBlockSize;

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(kBlockSize);
  fill_pattern(b, seed);
  return b;
}

NvLogStackedConfig nvlog_cfg() {
  NvLogStackedConfig cfg;
  cfg.log_bytes = 1 << 19;
  cfg.log.segment_bytes = 64 * 1024;
  cfg.inner = NvLogInner::kClassic;
  return cfg;
}

GroupTxn member_of(std::vector<std::pair<std::uint64_t, std::uint64_t>> spec) {
  GroupTxn t;
  for (const auto& [blkno, seed] : spec) {
    const std::vector<std::byte> b = block_of(seed);
    t.add(blkno, b);
  }
  return t;
}

// One group absorb: one log record run, one commit record, LWW-merged
// members, and the group counters ticking.
TEST(NvLogGroupCommit, GroupAbsorbMergesMembersWithOneCommitRecord) {
  sim::SimClock clock;
  nvm::NvmDevice dev(1 << 21, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  auto be = NvLogStackedBackend::format(dev, disk, nvlog_cfg());

  std::vector<GroupTxn> batch;
  batch.push_back(member_of({{10, 1}, {11, 2}}));
  batch.push_back(member_of({{11, 3}, {12, 4}}));
  batch.push_back(member_of({{10, 5}}));
  be->commit_group(batch);

  std::vector<std::byte> buf(kBlockSize);
  be->read_block(10, buf);
  EXPECT_EQ(buf, block_of(5));
  be->read_block(11, buf);
  EXPECT_EQ(buf, block_of(3));
  be->read_block(12, buf);
  EXPECT_EQ(buf, block_of(4));

  const nvlog::NvLogStats& s = be->tier().stats();
  EXPECT_EQ(s.group_absorbs, 1u);
  EXPECT_EQ(s.group_absorbed_txns, 3u);
  EXPECT_EQ(s.group_merged_records, 2u);
  EXPECT_EQ(s.absorbed_txns, 1u);  // the merged batch is one log txn run
}

// Crash sweep through the group absorb: at every persistence point inside
// commit_group() the recovered log presents either no member or the whole
// merged batch.
TEST(NvLogGroupCommitCrash, GroupAbsorbCutsAreAllOrNothing) {
  const auto run = [](nvm::NvmDevice& dev, blockdev::MemBlockDevice& disk,
                      std::uint64_t crash_step, bool* crashed) {
    auto be = NvLogStackedBackend::format(dev, disk, nvlog_cfg());
    be->begin();
    const std::vector<std::byte> pre = block_of(99);
    be->stage(10, pre);
    be->commit();
    dev.injector.disarm();
    if (crash_step > 0) dev.injector.arm(crash_step);
    *crashed = false;
    try {
      std::vector<GroupTxn> batch;
      batch.push_back(member_of({{10, 1}, {11, 2}}));
      batch.push_back(member_of({{11, 3}, {12, 4}}));
      batch.push_back(member_of({{10, 5}}));
      be->commit_group(batch);
    } catch (const nvm::CrashException&) {
      *crashed = true;
    }
    const std::uint64_t steps = dev.injector.steps_seen();
    dev.injector.disarm();
    return steps;
  };

  std::uint64_t steps = 0;
  {
    sim::SimClock clock;
    nvm::NvmDevice dev(1 << 21, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 14);
    bool crashed = false;
    steps = run(dev, disk, 0, &crashed);
    ASSERT_FALSE(crashed);
  }
  ASSERT_GT(steps, 1u);

  std::uint64_t rolled_back = 0;
  std::uint64_t survived = 0;
  Rng rng(20260808);
  for (std::uint64_t k = 1; k <= steps; ++k) {
    sim::SimClock clock;
    nvm::NvmDevice dev(1 << 21, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 14);
    bool crashed = false;
    run(dev, disk, k, &crashed);
    ASSERT_TRUE(crashed) << "step " << k;
    dev.crash(rng, 0.5);
    auto be = NvLogStackedBackend::recover(dev, disk, nvlog_cfg());

    std::vector<std::byte> buf(kBlockSize);
    be->read_block(10, buf);
    const bool has_batch = buf == block_of(5);
    if (!has_batch) {
      ASSERT_EQ(buf, block_of(99)) << "step " << k << ": block 10 torn";
      be->read_block(11, buf);
      ASSERT_EQ(buf, std::vector<std::byte>(kBlockSize, std::byte{0}))
          << "step " << k << ": partial batch surfaced";
      ++rolled_back;
    } else {
      be->read_block(11, buf);
      ASSERT_EQ(buf, block_of(3)) << "step " << k;
      be->read_block(12, buf);
      ASSERT_EQ(buf, block_of(4)) << "step " << k;
      ++survived;
    }
  }
  EXPECT_GT(rolled_back, 0u);
  EXPECT_GT(survived, 0u);
}

}  // namespace
}  // namespace tinca::backend
