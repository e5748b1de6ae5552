// File-system-level fault-fuzz sweeps (DESIGN.md §10): random MiniFs op
// histories × disk faults × power cuts × every stack kind, verified against
// an in-DRAM reference model and the strengthened fsck().
//
// Reproduce a failure by re-running with the seed the assertion prints:
//   TINCA_FS_FUZZ_SEED=<seed> TINCA_FS_FUZZ_SCHEDULES=<n> ./fs_fuzz_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "fs/fs_fuzz.h"

namespace tinca::fs {
namespace {

using backend::StackKind;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtoull(v, nullptr, 0);
}

std::string describe(const FsFuzzReport& rep) {
  std::string s = "schedules=" + std::to_string(rep.schedules) +
                  " ops=" + std::to_string(rep.ops_executed) +
                  " txns=" + std::to_string(rep.txns_committed) +
                  " crashes=" + std::to_string(rep.crashes) +
                  " remounts=" + std::to_string(rep.clean_remounts) +
                  " fscks=" + std::to_string(rep.fsck_runs) +
                  " dirty=" + std::to_string(rep.fsck_dirty) +
                  " wedges=" + std::to_string(rep.wedges) + "\n";
  for (const std::string& m : rep.violation_messages) s += "  " + m + "\n";
  return s;
}

class FsFuzz : public ::testing::TestWithParam<StackKind> {};

TEST_P(FsFuzz, RandomizedHistoriesRecoverToAnFsyncBoundary) {
  FsFuzzOptions opts;
  opts.kind = GetParam();
  opts.seed = env_u64("TINCA_FS_FUZZ_SEED", 20260806);
  opts.schedules =
      static_cast<std::uint32_t>(env_u64("TINCA_FS_FUZZ_SCHEDULES", 30));

  const FsFuzzReport rep = run_fs_fuzz(opts);
  EXPECT_EQ(rep.violations, 0u)
      << describe(rep) << "reproduce: TINCA_FS_FUZZ_SEED=" << opts.seed
      << " TINCA_FS_FUZZ_SCHEDULES=" << opts.schedules;
  EXPECT_EQ(rep.fsck_dirty, 0u) << describe(rep);

  // The campaign must actually have exercised what it verifies.
  EXPECT_EQ(rep.schedules, opts.schedules);
  EXPECT_GT(rep.crashes, 0u) << describe(rep);
  EXPECT_GT(rep.fsck_runs, 0u) << describe(rep);
  EXPECT_GT(rep.txns_committed, 0u) << describe(rep);
}

TEST_P(FsFuzz, CrashPointSweepCoversOneCompoundCommit) {
  FsFuzzOptions opts;
  opts.kind = GetParam();
  opts.seed = env_u64("TINCA_FS_FUZZ_SEED", 11);

  // Stride keeps Debug+ASan runtime sane; CI's bench gate runs stride 1.
  const FsFuzzReport rep = run_fs_crash_sweep(
      opts, static_cast<std::uint32_t>(env_u64("TINCA_FS_SWEEP_STRIDE", 7)));
  EXPECT_EQ(rep.violations, 0u) << describe(rep);
  EXPECT_EQ(rep.fsck_dirty, 0u) << describe(rep);
  EXPECT_GT(rep.sweep_points, 0u) << describe(rep);
  EXPECT_GT(rep.crashes, 0u) << describe(rep);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FsFuzz,
                         ::testing::Values(StackKind::kTinca,
                                           StackKind::kClassic,
                                           StackKind::kUbj,
                                           StackKind::kShardedTinca,
                                           StackKind::kNvLogClassic,
                                           StackKind::kNvLogTinca,
                                           StackKind::kNvLogSharded),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case StackKind::kTinca: return "Tinca";
                             case StackKind::kClassic: return "Classic";
                             case StackKind::kUbj: return "Ubj";
                             case StackKind::kShardedTinca: return "Sharded";
                             case StackKind::kNvLogClassic: return "NvLog";
                             case StackKind::kNvLogTinca: return "NvLogTinca";
                             case StackKind::kNvLogSharded:
                               return "NvLogSharded";
                             default: return "Other";
                           }
                         });

// The full file-system campaign with the background cleaner armed in
// deterministic stepped mode: every committed MiniFs operation is followed
// by a cleaner quantum, so power cuts land mid-drain under a real
// metadata/data workload.  Recovery must still land on an fsync boundary.
class FsFuzzCleaner : public ::testing::TestWithParam<StackKind> {};

TEST_P(FsFuzzCleaner, CleanerArmedHistoriesRecoverToAnFsyncBoundary) {
  FsFuzzOptions opts;
  opts.kind = GetParam();
  opts.cleaner = cleaner::CleanerMode::kStepped;
  opts.seed = env_u64("TINCA_FS_FUZZ_SEED", 20260806);
  opts.schedules =
      static_cast<std::uint32_t>(env_u64("TINCA_FS_FUZZ_SCHEDULES", 30));

  const FsFuzzReport rep = run_fs_fuzz(opts);
  EXPECT_EQ(rep.violations, 0u)
      << describe(rep) << "reproduce: TINCA_FS_FUZZ_SEED=" << opts.seed
      << " TINCA_FS_FUZZ_SCHEDULES=" << opts.schedules << " (cleaner armed)";
  EXPECT_EQ(rep.fsck_dirty, 0u) << describe(rep);
  EXPECT_GT(rep.crashes, 0u) << describe(rep);
  EXPECT_GT(rep.fsck_runs, 0u) << describe(rep);
}

INSTANTIATE_TEST_SUITE_P(CleanerBackends, FsFuzzCleaner,
                         ::testing::Values(StackKind::kTinca,
                                           StackKind::kUbj,
                                           StackKind::kShardedTinca,
                                           StackKind::kNvLogClassic,
                                           StackKind::kNvLogTinca,
                                           StackKind::kNvLogSharded),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case StackKind::kTinca: return "Tinca";
                             case StackKind::kUbj: return "Ubj";
                             case StackKind::kShardedTinca: return "Sharded";
                             case StackKind::kNvLogClassic: return "NvLog";
                             case StackKind::kNvLogTinca: return "NvLogTinca";
                             case StackKind::kNvLogSharded:
                               return "NvLogSharded";
                             default: return "Other";
                           }
                         });

// --- Oracle self-tests: the harness must catch corruption it didn't cause.

// Multi-stream sharded stack under the file-system workload (DESIGN.md
// §15): per-shard commit streams, cross-shard compound commits anchored to
// the atomic commit record, and an oracle with NO shard-prefix exemption —
// every recovered image must be an fsync boundary, full stop.
TEST(FsFuzzMultiStream, StreamedShardedHistoriesRecoverToAnFsyncBoundary) {
  FsFuzzOptions opts;
  opts.kind = StackKind::kShardedTinca;
  opts.streams = 2;
  opts.seed = env_u64("TINCA_FS_FUZZ_SEED", 20260807);
  opts.schedules =
      static_cast<std::uint32_t>(env_u64("TINCA_FS_FUZZ_SCHEDULES", 30));

  const FsFuzzReport rep = run_fs_fuzz(opts);
  EXPECT_EQ(rep.violations, 0u)
      << describe(rep) << "reproduce: TINCA_FS_FUZZ_SEED=" << opts.seed
      << " TINCA_FS_FUZZ_SCHEDULES=" << opts.schedules << " (streams=2)";
  EXPECT_EQ(rep.fsck_dirty, 0u) << describe(rep);
  EXPECT_GT(rep.crashes, 0u) << describe(rep);
  EXPECT_GT(rep.fsck_runs, 0u) << describe(rep);
}

// The fs-level commit-record self-test: a sharded stack that skips the
// record's clflush loses acked cross-shard compound commits on a power cut,
// and the image/tree oracle must notice the rollback past an acknowledged
// fsync boundary.
TEST(FsFuzzSabotage, SkippedCommitRecordFlushIsCaught) {
  FsFuzzOptions opts;
  opts.kind = StackKind::kShardedTinca;
  opts.streams = 2;
  opts.sabotage = backend::FuzzSabotage::kSkipCommitRecordFlush;
  opts.seed = 409;
  opts.schedules = 20;
  opts.crash_prob = 0.9;  // the lie only shows when the power goes out
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.0;

  const FsFuzzReport rep = run_fs_fuzz(opts);
  EXPECT_GT(rep.violations + rep.fsck_dirty, 0u)
      << "oracle has no teeth: a commit record staged without its flush "
         "went unnoticed\n"
      << describe(rep);
}

// A cleaner that marks cache blocks clean WITHOUT their pre-writeback disk
// flush: stale disk data then surfaces through the file system after
// evictions or a remount, and the tree-vs-model comparison (or fsck) must
// notice.  Fault-free and crash-free so the cleaner's lie is the only
// anomaly in play.
TEST(FsFuzzSabotage, CleanerSkippingFlushIsCaught) {
  FsFuzzOptions opts;
  opts.kind = StackKind::kTinca;
  opts.cleaner = cleaner::CleanerMode::kStepped;
  // Aggressive watermarks: the cleaner "cleans" (i.e. lies about) blocks on
  // every schedule, so stale disk data is guaranteed to exist.
  opts.cleaner_low_water_pct = 0;
  opts.cleaner_high_water_pct = 1;
  opts.sabotage = backend::FuzzSabotage::kCleanerSkipsFlush;
  opts.seed = 407;
  opts.schedules = 8;
  opts.ops_per_schedule = 120;  // enough writes to evict lying-clean blocks
  opts.crash_prob = 0.0;
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.0;

  const FsFuzzReport rep = run_fs_fuzz(opts);
  EXPECT_GT(rep.violations + rep.fsck_dirty, 0u)
      << "oracle has no teeth: a cleaner that skips the pre-writeback "
         "flush went unnoticed\n"
      << describe(rep);
}

// The same drain-side lie on the NVM write-ahead stack: segments marked
// clean without their records ever reaching the backing store, so stale
// store data surfaces through the file system once the log index forgets
// them.  The fs-level oracle must notice on the new stack too.
TEST(FsFuzzSabotage, NvLogDrainSkippingApplyIsCaught) {
  FsFuzzOptions opts;
  opts.kind = StackKind::kNvLogClassic;
  opts.cleaner = cleaner::CleanerMode::kStepped;
  opts.cleaner_low_water_pct = 0;
  opts.cleaner_high_water_pct = 1;
  opts.sabotage = backend::FuzzSabotage::kCleanerSkipsFlush;
  opts.seed = 408;
  opts.schedules = 8;
  opts.ops_per_schedule = 120;
  opts.crash_prob = 0.0;
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.0;

  const FsFuzzReport rep = run_fs_fuzz(opts);
  EXPECT_GT(rep.violations + rep.fsck_dirty, 0u)
      << "oracle has no teeth: an NvLog drain that skips its apply "
         "went unnoticed\n"
      << describe(rep);
}

// A committed data (or directory) block is silently replaced behind the
// harness's block-image bookkeeping; only the tree-vs-model comparison or
// fsck's structural checks can notice.  Crash-free schedules so every
// schedule self-tests.
TEST(FsFuzzSabotage, CorruptedDataBlockIsCaught) {
  FsFuzzOptions opts;
  opts.kind = StackKind::kTinca;
  opts.seed = 404;
  opts.schedules = 4;
  opts.crash_prob = 0.0;
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.0;
  opts.fs_sabotage = FsSabotage::kCorruptData;

  const FsFuzzReport rep = run_fs_fuzz(opts);
  EXPECT_GT(rep.violations, 0u)
      << "oracle has no teeth: corrupted data went unnoticed\n"
      << describe(rep);
}

// Bits flipped in the block-allocation bitmap: the tree still reads fine,
// so only fsck's bitmap cross-check (leak / free-but-used) can notice.
TEST(FsFuzzSabotage, CorruptedBitmapIsCaughtByFsck) {
  FsFuzzOptions opts;
  opts.kind = StackKind::kTinca;
  opts.seed = 405;
  opts.schedules = 4;
  opts.crash_prob = 0.0;
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.0;
  opts.fs_sabotage = FsSabotage::kCorruptBitmap;

  const FsFuzzReport rep = run_fs_fuzz(opts);
  EXPECT_GT(rep.fsck_dirty, 0u)
      << "fsck has no teeth: a corrupted allocation bitmap came back clean\n"
      << describe(rep);
}

// A forced violation must reproduce from the printed message alone: parse
// the embedded "reproduce:" tag and re-run exactly that one schedule.
TEST(FsFuzzSabotage, ViolationReproducesFromPrintedSeed) {
  FsFuzzOptions opts;
  opts.kind = StackKind::kTinca;
  opts.seed = 406;
  opts.schedules = 6;
  opts.crash_prob = 0.0;
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.0;
  opts.fs_sabotage = FsSabotage::kCorruptData;

  const FsFuzzReport first = run_fs_fuzz(opts);
  ASSERT_GT(first.violations, 0u) << describe(first);
  ASSERT_FALSE(first.violation_messages.empty());

  std::uint64_t seed = 0;
  std::uint32_t first_schedule = 0;
  ASSERT_TRUE(backend::fuzz_parse_reproduce(first.violation_messages.front(),
                                            &seed, &first_schedule))
      << first.violation_messages.front();

  FsFuzzOptions replay = opts;
  replay.seed = seed;
  replay.first_schedule = first_schedule;
  replay.schedules = 1;
  const FsFuzzReport again = run_fs_fuzz(replay);
  EXPECT_GT(again.violations, 0u)
      << "printed reproduce tag did not replay the violation\n"
      << describe(again);
}

}  // namespace
}  // namespace tinca::fs
