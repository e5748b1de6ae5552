// Deep-stacked NvLog tier tests (DESIGN.md §16): the write-ahead log
// draining into the REAL transactional stacks — a full TincaCache or the
// sharded front-end — through their commit_group path, with shard-affine
// parallel drains and the rotating watermark record ring.
//
// The centerpiece is a per-step crash sweep over a multi-shard history with
// periodic flushes: the injector steps through every NVM store point —
// absorb fences, shard-batch boundaries inside a partitioned drain, the
// watermark-record cut, and the inner cache's own commit protocol — then
// re-crashes mid-drain after the first recovery to prove the replay is
// idempotent against an inner that already applied some chunks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "backend/nvlog_stacked_backend.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "nvlog/log_meta.h"
#include "obs/metrics.h"
#include "tinca/verify.h"

namespace tinca {
namespace {

constexpr std::size_t kBlock = blockdev::kBlockSize;
constexpr std::uint64_t kSegBytes = 64 * 1024;
constexpr std::size_t kLogBytes = 1 << 19;
// Log carve-out + two 512 KB shard slices (the Tinca inner just gets both).
constexpr std::size_t kNvmBytes = (2u << 19) + kLogBytes;

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(kBlock);
  fill_pattern(b, seed);
  return b;
}

backend::NvLogStackedConfig stacked_cfg(backend::NvLogInner inner) {
  backend::NvLogStackedConfig cfg;
  cfg.log_bytes = kLogBytes;
  cfg.log.segment_bytes = kSegBytes;
  cfg.inner = inner;
  cfg.shards = 2;
  cfg.tinca.ring_bytes = 64 * 1024;
  return cfg;
}

using Expected = std::map<std::uint64_t, std::uint64_t>;

/// Eight txns of four blocks each; odd positions rewrite low blocks so the
/// history both spreads across shards and exercises coalescing.
std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
sweep_history() {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> h;
  std::uint64_t seed = 1;
  for (int t = 0; t < 8; ++t) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> txn;
    for (int b = 0; b < 4; ++b) {
      const std::uint64_t blkno =
          (b % 2 == 0) ? static_cast<std::uint64_t>(t * 4 + b)
                       : static_cast<std::uint64_t>(b);
      txn.emplace_back(blkno, seed++);
    }
    h.push_back(std::move(txn));
  }
  return h;
}

struct SweepRun {
  Expected committed;
  std::size_t committed_txns = 0;
  std::uint64_t steps = 0;
  bool crashed = false;
};

SweepRun run_sweep(nvm::NvmDevice& nvm, blockdev::MemBlockDevice& disk,
                   const backend::NvLogStackedConfig& cfg,
                   std::uint64_t crash_step) {
  auto be = backend::NvLogStackedBackend::format(nvm, disk, cfg);
  nvm.injector.disarm();
  if (crash_step > 0) nvm.injector.arm(crash_step);
  SweepRun r;
  const auto history = sweep_history();
  try {
    for (std::size_t t = 0; t < history.size(); ++t) {
      be->begin();
      for (const auto& [blkno, seed] : history[t]) {
        const auto data = block_of(seed);
        be->stage(blkno, data);
      }
      be->commit();
      for (const auto& [blkno, seed] : history[t]) r.committed[blkno] = seed;
      ++r.committed_txns;
      // Periodic flushes drain through the inner's commit_group path, so
      // the sweep cuts inside partitioned drains and watermark advances.
      if (t % 3 == 2) be->flush();
    }
    be->flush();
  } catch (const nvm::CrashException&) {
    r.crashed = true;
  }
  r.steps = nvm.injector.steps_seen();
  nvm.injector.disarm();
  return r;
}

bool state_matches(backend::NvLogStackedBackend& be,
                   const std::vector<Expected>& acceptable,
                   const Expected& universe) {
  std::vector<std::byte> buf(kBlock);
  const auto zero = fingerprint(std::vector<std::byte>(kBlock, std::byte{0}));
  for (const Expected& exp : acceptable) {
    bool match = true;
    for (const auto& [blkno, _] : universe) {
      be.read_block(blkno, buf);
      auto it = exp.find(blkno);
      const std::uint64_t want =
          it != exp.end() ? fingerprint(block_of(it->second)) : zero;
      if (fingerprint(buf) != want) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

std::vector<Expected> acceptable_states(const SweepRun& run) {
  std::vector<Expected> acceptable{run.committed};
  const auto history = sweep_history();
  if (run.committed_txns < history.size()) {
    Expected with_next = run.committed;
    for (const auto& [blkno, seed] : history[run.committed_txns])
      with_next[blkno] = seed;
    acceptable.push_back(with_next);
  }
  return acceptable;
}

class NvLogStackedCrash
    : public ::testing::TestWithParam<backend::NvLogInner> {};

TEST_P(NvLogStackedCrash, EveryStepRecoversAndReCrashMidDrainIsIdempotent) {
  const backend::NvLogStackedConfig cfg = stacked_cfg(GetParam());

  // Learn the step count with a disarmed probe run.
  sim::SimClock probe_clock;
  nvm::NvmDevice probe_nvm(kNvmBytes, nvdimm_profile(), probe_clock);
  blockdev::MemBlockDevice probe_disk(1 << 12);
  const SweepRun full = run_sweep(probe_nvm, probe_disk, cfg, 0);
  ASSERT_FALSE(full.crashed);
  ASSERT_GT(full.steps, 50u);

  Expected universe;
  for (const auto& txn : sweep_history())
    for (const auto& [blkno, seed] : txn) universe[blkno] = seed;

  Rng rng(7);
  for (std::uint64_t step = 1; step <= full.steps; ++step) {
    sim::SimClock clock;
    nvm::NvmDevice nvm(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 12);
    const SweepRun run = run_sweep(nvm, disk, cfg, step);
    ASSERT_TRUE(run.crashed) << "step " << step << " did not crash";
    nvm.crash(rng, 0.5);

    // The raw log metadata must already be mountable: the watermark ring
    // always holds at least one valid record, torn or not.
    {
      nvm::NvmDevice logv(nvm, 0, kLogBytes, clock);
      const core::MediaReport mr = core::verify_nvlog_media(logv);
      ASSERT_TRUE(mr.ok) << "step " << step << ": "
                         << (mr.problems.empty() ? "?" : mr.problems[0]);
      ASSERT_GE(mr.wm_winning_epoch, 1u);
    }

    const auto acceptable = acceptable_states(run);
    {
      auto rec = backend::NvLogStackedBackend::recover(nvm, disk, cfg);
      ASSERT_TRUE(state_matches(*rec, acceptable, universe))
          << "inconsistent recovery after crash at step " << step;

      // Re-crash mid-drain: a rotating second cut lands on every drain
      // window over the sweep — coalesce, shard-batch boundaries, inner
      // commit_group steps, watermark-record cut.
      nvm.injector.arm(step % 7 + 1);
      try {
        rec->flush();
      } catch (const nvm::CrashException&) {
      }
      nvm.injector.disarm();
    }
    nvm.crash(rng, 0.5);

    // Second recovery must land in the same acceptable set: the inner may
    // have applied some chunks twice, but last-writer-wins block applies
    // make the replay invisible to reads.
    auto rec2 = backend::NvLogStackedBackend::recover(nvm, disk, cfg);
    ASSERT_TRUE(state_matches(*rec2, acceptable, universe))
        << "re-crash mid-drain broke recovery at step " << step;
    rec2->flush();
    EXPECT_EQ(rec2->tier().live_records(), 0u);
    ASSERT_TRUE(state_matches(*rec2, acceptable, universe))
        << "post-drain state diverged at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(BothInners, NvLogStackedCrash,
                         ::testing::Values(backend::NvLogInner::kTinca,
                                           backend::NvLogInner::kSharded),
                         [](const auto& pinfo) {
                           return pinfo.param == backend::NvLogInner::kTinca
                                      ? "Tinca"
                                      : "Sharded";
                         });

TEST(NvLogStacked, RoundtripThroughBothInners) {
  for (const backend::NvLogInner inner :
       {backend::NvLogInner::kTinca, backend::NvLogInner::kSharded}) {
    sim::SimClock clock;
    nvm::NvmDevice nvm(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 12);
    auto be =
        backend::NvLogStackedBackend::format(nvm, disk, stacked_cfg(inner));
    EXPECT_EQ(be->name(), inner == backend::NvLogInner::kTinca
                              ? "NvLog-Tinca"
                              : "NvLog-Sharded");

    for (std::uint64_t t = 0; t < 12; ++t) {
      be->begin();
      for (std::uint64_t b = 0; b < 4; ++b) {
        const auto data = block_of(t * 4 + b + 1);
        be->stage(t * 16 + b, data);
      }
      be->commit();
    }

    std::vector<std::byte> buf(kBlock);
    be->read_block(17, buf);  // still log-resident
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(6)));

    be->flush();  // everything drains into the inner cache
    EXPECT_EQ(be->tier().live_records(), 0u);
    be->read_block(17, buf);
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(6)));
    be->read_block(11 * 16 + 3, buf);
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(48)));
  }
}

// A segment drain larger than the inner's transaction capacity is split
// into ⌈n / chunk⌉ inner commits, each taking its share of the drained
// payloads; every block reads back afterwards.
TEST(NvLogStacked, DrainLargerThanTheInnerTxnSplitsIntoChunks) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 12);
  backend::NvLogStackedConfig cfg = stacked_cfg(backend::NvLogInner::kTinca);
  cfg.log.segment_bytes = 128 * 1024;  // 31 block records per segment
  cfg.tinca.ring_bytes = 4096;
  cfg.tinca.num_streams = 8;  // 16-record stream rings: 15-block commits
  auto be = backend::NvLogStackedBackend::format(nvm, disk, cfg);
  const std::uint64_t chunk = be->inner().max_txn_blocks();
  const std::uint64_t n = 2 * chunk + 1;
  ASSERT_EQ(chunk, 15u);

  // Distinct blocks in transactions of at most 5, all in the first segment.
  for (std::uint64_t b = 0; b < n;) {
    be->begin();
    for (const std::uint64_t end = std::min(n, b + 5); b < end; ++b) {
      const auto data = block_of(b + 1);
      be->stage(b * 3, data);
    }
    be->commit();
  }
  obs::MetricsRegistry reg;
  be->register_metrics(reg, "");
  const std::uint64_t batches = reg.value("tinca.commit.batches");

  be->flush();
  const nvlog::NvLogStats& st = be->tier().stats();
  EXPECT_EQ(st.drain_batches, 1u);  // one segment ...
  EXPECT_EQ(st.drained_records, n);  // ... draining all n blocks
  EXPECT_EQ(reg.value("tinca.commit.batches") - batches,
            (n + chunk - 1) / chunk);
  std::vector<std::byte> buf(kBlock);
  for (std::uint64_t b = 0; b < n; ++b) {
    be->read_block(b * 3, buf);
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(b + 1))) << b;
  }
}

TEST(NvLogStacked, ShardedDrainsArePartitionedAndParallelismShortensThem) {
  // Same workload twice over the sharded inner: modeled-parallel drains
  // must record shorter apply times than sequential ones (max over shards
  // vs. their sum), without changing a single byte of the outcome.
  std::uint64_t parallel_ns = 0, sequential_ns = 0;
  std::uint64_t parallel_fp = 0, sequential_fp = 0;
  for (const bool parallel : {true, false}) {
    sim::SimClock clock;
    nvm::NvmDevice nvm(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 12);
    backend::NvLogStackedConfig cfg = stacked_cfg(backend::NvLogInner::kSharded);
    cfg.parallel_drain = parallel;
    auto be = backend::NvLogStackedBackend::format(nvm, disk, cfg);

    for (std::uint64_t t = 0; t < 24; ++t) {
      be->begin();
      for (std::uint64_t b = 0; b < 8; ++b) {
        const auto data = block_of(t * 8 + b + 1);
        be->stage(t * 8 + b, data);  // contiguous => spans both shards
      }
      be->commit();
    }
    be->flush();

    const nvlog::NvLogStats& st = be->tier().stats();
    EXPECT_GT(st.partitioned_drains, 0u);
    EXPECT_GT(st.shard_batches, st.partitioned_drains);
    const std::uint64_t total = st.drain_apply.sum();
    std::vector<std::byte> buf(kBlock);
    std::uint64_t fp = 0;
    for (std::uint64_t b = 0; b < 24 * 8; ++b) {
      be->read_block(b, buf);
      fp ^= fingerprint(buf) * (b + 1);
    }
    if (parallel) {
      parallel_ns = total;
      parallel_fp = fp;
    } else {
      sequential_ns = total;
      sequential_fp = fp;
    }
  }
  EXPECT_EQ(parallel_fp, sequential_fp);
  EXPECT_GT(sequential_ns, 0u);
  EXPECT_LT(parallel_ns, sequential_ns);
}

TEST(NvLogStacked, TornWinningWatermarkFallsBackToAnOlderRecord) {
  // Corrupt the record recovery would mount: adjudication falls back to an
  // older epoch, whose stale watermark merely re-drains segments already
  // applied — committed data must come back bit-exact.
  sim::SimClock clock;
  nvm::NvmDevice nvm(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 12);
  const backend::NvLogStackedConfig cfg =
      stacked_cfg(backend::NvLogInner::kSharded);

  Expected committed;
  {
    auto be = backend::NvLogStackedBackend::format(nvm, disk, cfg);
    std::uint64_t seed = 1;
    for (std::uint64_t t = 0; t < 10; ++t) {
      be->begin();
      for (std::uint64_t b = 0; b < 4; ++b) {
        const std::uint64_t blkno = t * 4 + b;
        const auto data = block_of(seed);
        be->stage(blkno, data);
        committed[blkno] = seed;
        ++seed;
      }
      be->commit();
      if (t % 2 == 1) be->flush();  // several watermark advances
    }
    ASSERT_GT(be->tier().watermark_epoch(), 2u);

    // Tear the winning slot (the log view starts at device offset 0).
    const std::uint64_t slot = nvlog::watermark_slot_of(
        be->tier().watermark_epoch(), cfg.log.watermark_slots);
    std::array<std::byte, nvlog::kWatermarkSlotBytes> raw{};
    nvm.load(nvlog::watermark_slot_off(slot), raw);
    raw[nvlog::kWmCrcAt] ^= std::byte{0xFF};
    nvm.store(nvlog::watermark_slot_off(slot), raw);
    nvm.persist(nvlog::watermark_slot_off(slot), raw.size());
  }

  auto rec = backend::NvLogStackedBackend::recover(nvm, disk, cfg);
  std::vector<std::byte> buf(kBlock);
  for (const auto& [blkno, seed] : committed) {
    rec->read_block(blkno, buf);
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(seed)))
        << "block " << blkno;
  }
}

TEST(NvLogStacked, MetricsIncludeTierAndInner) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 12);
  auto be = backend::NvLogStackedBackend::format(
      nvm, disk, stacked_cfg(backend::NvLogInner::kSharded));
  obs::MetricsRegistry reg;
  be->register_metrics(reg, "");
  EXPECT_TRUE(reg.has("nvlog.absorbed_txns"));
  EXPECT_TRUE(reg.has("nvlog.meta_line_wear"));
  EXPECT_TRUE(reg.has("nvlog.watermark_records"));
  EXPECT_NE(reg.histogram("nvlog.drain_apply"), nullptr);
}

}  // namespace
}  // namespace tinca
