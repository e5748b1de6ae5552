// Randomized fault-fuzz sweeps (DESIGN.md §9): disk faults × power cuts ×
// every backend kind, verified against the §6 recovery invariants.
//
// Reproduce a failure by re-running with the seed the assertion prints:
//   TINCA_FUZZ_SEED=<seed> TINCA_FUZZ_SCHEDULES=<n> ./fault_fuzz_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "backend/fault_fuzz.h"

namespace tinca::backend {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtoull(v, nullptr, 0);
}

std::string describe(const FuzzReport& rep) {
  std::string s = "schedules=" + std::to_string(rep.schedules) +
                  " crashes=" + std::to_string(rep.crashes) +
                  " remounts=" + std::to_string(rep.clean_remounts) +
                  " retries=" + std::to_string(rep.io_retries) +
                  " quarantined=" + std::to_string(rep.io_quarantined) +
                  " wedges=" + std::to_string(rep.wedges) +
                  " media_checks=" + std::to_string(rep.media_checks) +
                  " cleaner_retired=" + std::to_string(rep.cleaner_retired) +
                  " log_cleaner_retired=" +
                  std::to_string(rep.log_cleaner_retired) +
                  "\n";
  for (const std::string& m : rep.violation_messages) s += "  " + m + "\n";
  return s;
}

class FaultFuzz : public ::testing::TestWithParam<StackKind> {};

TEST_P(FaultFuzz, RandomizedSchedulesUpholdRecoveryInvariants) {
  FuzzOptions opts;
  opts.kind = GetParam();
  opts.seed = env_u64("TINCA_FUZZ_SEED", 20260806);
  opts.schedules =
      static_cast<std::uint32_t>(env_u64("TINCA_FUZZ_SCHEDULES", 120));

  const FuzzReport rep = run_fault_fuzz(opts);
  EXPECT_EQ(rep.violations, 0u)
      << describe(rep) << "reproduce: TINCA_FUZZ_SEED=" << opts.seed
      << " TINCA_FUZZ_SCHEDULES=" << opts.schedules;

  // The campaign must actually have exercised the machinery it verifies,
  // the post-crash media check included wherever there is media to check.
  EXPECT_EQ(rep.schedules, opts.schedules);
  EXPECT_GT(rep.crashes, 0u) << describe(rep);
  EXPECT_GT(rep.faults.transient_write_errors, 0u) << describe(rep);
  EXPECT_GT(rep.io_retries, 0u) << describe(rep);
  if (has_checked_media(opts.kind)) {
    EXPECT_GT(rep.media_checks, 0u) << describe(rep);
  } else {
    EXPECT_EQ(rep.media_checks, 0u) << describe(rep);
  }
}

TEST_P(FaultFuzz, BadSectorStormQuarantinesAndDegrades) {
  FuzzOptions opts;
  opts.kind = GetParam();
  opts.seed = env_u64("TINCA_FUZZ_SEED", 7);
  opts.schedules = 40;
  opts.bad_sector_rate = 0.05;  // a disk dying in fast-forward
  opts.torn_write_rate = 0.0;
  opts.crash_prob = 0.25;

  const FuzzReport rep = run_fault_fuzz(opts);
  EXPECT_EQ(rep.violations, 0u)
      << describe(rep) << "reproduce: TINCA_FUZZ_SEED=" << opts.seed;
  EXPECT_GT(rep.faults.bad_sectors, 0u) << describe(rep);
  EXPECT_GT(rep.io_quarantined, 0u) << describe(rep);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FaultFuzz,
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

// The same randomized campaign with the background cleaner armed in
// deterministic stepped mode: every commit is followed by a cleaner
// quantum, so power cuts land mid-drain as often as mid-commit.  The §6
// invariant must hold unchanged — a block leaves the dirty set only after
// its disk write is durable, so a cut mid-drain just re-cleans on recovery.
class FaultFuzzCleaner : public ::testing::TestWithParam<StackKind> {};

TEST_P(FaultFuzzCleaner, CleanerArmedSchedulesUpholdRecoveryInvariants) {
  FuzzOptions opts;
  opts.kind = GetParam();
  opts.cleaner = cleaner::CleanerMode::kStepped;
  opts.seed = env_u64("TINCA_FUZZ_SEED", 20260806);
  opts.schedules =
      static_cast<std::uint32_t>(env_u64("TINCA_FUZZ_SCHEDULES", 120));

  const FuzzReport rep = run_fault_fuzz(opts);
  EXPECT_EQ(rep.violations, 0u)
      << describe(rep) << "reproduce: TINCA_FUZZ_SEED=" << opts.seed
      << " TINCA_FUZZ_SCHEDULES=" << opts.schedules << " (cleaner armed)";
  EXPECT_EQ(rep.schedules, opts.schedules);
  EXPECT_GT(rep.crashes, 0u) << describe(rep);
  EXPECT_GT(rep.faults.transient_write_errors, 0u) << describe(rep);
  // Every cleaner the stack runs did work, each counted on its own: the
  // cache's (every kind here but NvLog-over-Classic has one) and an NvLog
  // tier's log cleaner.
  EXPECT_EQ(rep.cleaner_armed, opts.kind != StackKind::kNvLogClassic);
  EXPECT_EQ(rep.log_cleaner_armed, nvlog_stacked(opts.kind));
  if (rep.cleaner_armed) {
    EXPECT_GT(rep.cleaner_retired, 0u)
        << "the armed cache cleaner never retired a block\n" << describe(rep);
  }
  if (rep.log_cleaner_armed) {
    EXPECT_GT(rep.log_cleaner_retired, 0u)
        << "the armed log cleaner never drained a segment\n" << describe(rep);
  }
}

INSTANTIATE_TEST_SUITE_P(CleanerBackends, FaultFuzzCleaner,
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

// Oracle self-test for the cleaner: a cleaner that marks blocks clean
// WITHOUT the pre-writeback disk flush leaks stale disk data into reads
// after eviction or remount, and the campaign must flag it.  Fault-free,
// crash-free schedules: the cleaner's lie is the only anomaly in play.
TEST(FaultFuzzScripted, CleanerSkippingFlushIsCaught) {
  FuzzOptions opts;
  opts.kind = StackKind::kTinca;
  opts.cleaner = cleaner::CleanerMode::kStepped;
  opts.sabotage = FuzzSabotage::kCleanerSkipsFlush;
  opts.seed = 515151;
  opts.schedules = 12;
  opts.txns_per_schedule = 40;  // deep schedules: drain + evict + remount
  opts.crash_prob = 0.0;
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.0;

  const FuzzReport rep = run_fault_fuzz(opts);
  EXPECT_GT(rep.violations, 0u)
      << "oracle has no teeth: a cleaner that skips the pre-writeback "
         "flush went unnoticed\n"
      << describe(rep);
}

// Oracle self-test for the NVM write-ahead tier: an absorb path that
// acknowledges commits WITHOUT its clflush + sfence loses them on a power
// cut, and the campaign's recovery oracle must flag the missing state.
// Crash-heavy, fault-free schedules: the skipped flush is the only bug.
TEST(FaultFuzzScripted, NvLogSkippingCommitFlushIsCaught) {
  FuzzOptions opts;
  opts.kind = StackKind::kNvLogClassic;
  opts.sabotage = FuzzSabotage::kNvLogSkipsCommitFlush;
  opts.seed = 616161;
  opts.schedules = 20;
  opts.crash_prob = 0.6;  // the lie only shows when the power goes out
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.0;

  const FuzzReport rep = run_fault_fuzz(opts);
  EXPECT_GT(rep.violations, 0u)
      << "oracle has no teeth: an NvLog absorb that skips its commit "
         "flush went unnoticed\n"
      << describe(rep);
}

// And the drain-side lie on the same stack: the cleaner sabotage knob maps
// onto a drain that marks segments clean without applying them, so reads
// that fall through to the backing store see stale data.
TEST(FaultFuzzScripted, NvLogDrainSkippingApplyIsCaught) {
  FuzzOptions opts;
  opts.kind = StackKind::kNvLogClassic;
  opts.cleaner = cleaner::CleanerMode::kStepped;
  opts.sabotage = FuzzSabotage::kCleanerSkipsFlush;
  opts.seed = 525252;
  opts.schedules = 12;
  opts.txns_per_schedule = 40;  // deep schedules: drain + remount
  opts.crash_prob = 0.0;
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.0;

  const FuzzReport rep = run_fault_fuzz(opts);
  EXPECT_GT(rep.violations, 0u)
      << "oracle has no teeth: an NvLog drain that skips its apply "
         "went unnoticed\n"
      << describe(rep);
}

// Oracle self-test for the watermark record ring (DESIGN.md §16): a tier
// that stores watermark records WITHOUT their flush mounts a stale
// watermark after a power cut.  The stale oldest_live_seq is harmless
// until the log WRAPS — once a drained segment has been recycled and
// re-acquired, the stale watermark chains recovery from a segment whose
// header now carries a different seq, the scan finds nothing, and every
// committed log-resident txn is lost.  Deep, crash-heavy, fault-free
// schedules force that wrap; the oracle must flag the losses.
TEST(FaultFuzzScripted, SkippedWatermarkFlushIsCaught) {
  FuzzOptions opts;
  opts.kind = StackKind::kNvLogTinca;
  opts.cleaner = cleaner::CleanerMode::kStepped;
  opts.sabotage = FuzzSabotage::kSkipWatermarkRecordFlush;
  opts.seed = 818181;
  opts.schedules = 40;
  opts.txns_per_schedule = 40;
  opts.max_blocks_per_txn = 24;   // fat txns wrap the 7-segment log fast
  opts.crash_prob = 0.8;          // the lie only shows when the power goes out
  opts.crash_point_range = 4000;  // ...and only on cuts AFTER the wrap
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.0;

  const FuzzReport rep = run_fault_fuzz(opts);
  EXPECT_GT(rep.violations, 0u)
      << "oracle has no teeth: watermark records stored without their "
         "flush went unnoticed\n"
      << describe(rep);
}

// Multi-stream campaigns (DESIGN.md §15): per-shard commit streams with
// cross-shard transactions anchored to the atomic commit record, with and
// without the group batcher.  The oracle carries NO shard-prefix exemption
// any more — a half-applied cross-shard transaction at any cut is a
// violation — so these runs prove the record really is the commit point.
TEST(FaultFuzzScripted, MultiStreamShardedSchedulesUpholdInvariants) {
  FuzzOptions opts;
  opts.kind = StackKind::kShardedTinca;
  opts.streams = 2;
  opts.seed = env_u64("TINCA_FUZZ_SEED", 20260807);
  opts.schedules =
      static_cast<std::uint32_t>(env_u64("TINCA_FUZZ_SCHEDULES", 120));

  const FuzzReport rep = run_fault_fuzz(opts);
  EXPECT_EQ(rep.violations, 0u)
      << describe(rep) << "reproduce: TINCA_FUZZ_SEED=" << opts.seed
      << " TINCA_FUZZ_SCHEDULES=" << opts.schedules;
  EXPECT_GT(rep.crashes, 0u) << describe(rep);
}

// The same streams on a bare Tinca cache: after every crash the harness
// re-reads the media through the layout the cache was formatted with, so
// the structural check must agree with a multi-stream superblock.
TEST(FaultFuzzScripted, MultiStreamTincaSchedulesUpholdInvariants) {
  FuzzOptions opts;
  opts.kind = StackKind::kTinca;
  opts.streams = 2;
  opts.seed = env_u64("TINCA_FUZZ_SEED", 20260807);
  opts.schedules =
      static_cast<std::uint32_t>(env_u64("TINCA_FUZZ_SCHEDULES", 120));

  const FuzzReport rep = run_fault_fuzz(opts);
  EXPECT_EQ(rep.violations, 0u)
      << describe(rep) << "reproduce: TINCA_FUZZ_SEED=" << opts.seed
      << " TINCA_FUZZ_SCHEDULES=" << opts.schedules;
  EXPECT_GT(rep.crashes, 0u) << describe(rep);
}

TEST(FaultFuzzScripted, MultiStreamGroupCommitSchedulesUpholdInvariants) {
  FuzzOptions opts;
  opts.kind = StackKind::kShardedTinca;
  opts.streams = 2;
  opts.group_commit = true;
  opts.seed = env_u64("TINCA_FUZZ_SEED", 20260807);
  opts.schedules =
      static_cast<std::uint32_t>(env_u64("TINCA_FUZZ_SCHEDULES", 120));

  const FuzzReport rep = run_fault_fuzz(opts);
  EXPECT_EQ(rep.violations, 0u)
      << describe(rep) << "reproduce: TINCA_FUZZ_SEED=" << opts.seed
      << " TINCA_FUZZ_SCHEDULES=" << opts.schedules;
  EXPECT_GT(rep.crashes, 0u) << describe(rep);
}

// Oracle self-test for the cross-stream commit record: a sharded stack
// that stages the record WITHOUT its clflush rolls back acknowledged
// cross-shard transactions on a power cut, and the (prefix-exemption-free)
// oracle must flag the missing state.  Crash-heavy, fault-free schedules:
// the skipped flush is the only bug in play.
TEST(FaultFuzzScripted, SkippedCommitRecordFlushIsCaught) {
  FuzzOptions opts;
  opts.kind = StackKind::kShardedTinca;
  opts.streams = 2;
  opts.sabotage = FuzzSabotage::kSkipCommitRecordFlush;
  opts.seed = 717171;
  opts.schedules = 40;
  opts.crash_prob = 0.8;  // the lie only shows when the power goes out
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.0;

  const FuzzReport rep = run_fault_fuzz(opts);
  EXPECT_GT(rep.violations, 0u)
      << "oracle has no teeth: a commit record staged without its flush "
         "went unnoticed\n"
      << describe(rep);
}

// A hand-scripted torn write through the full stack: the Nth disk write
// tears (half new, half old), the machine dies, and recovery must still
// present exactly the committed history — the §9 "torn write" row.
TEST(FaultFuzzScripted, TornDiskWriteNeverSplitsACommit) {
  FuzzOptions opts;
  opts.kind = StackKind::kTinca;
  opts.seed = 99;
  opts.schedules = 60;
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.08;  // tearing is the only fault in play
  opts.crash_prob = 0.0;        // all crashes come from torn writes

  const FuzzReport rep = run_fault_fuzz(opts);
  EXPECT_EQ(rep.violations, 0u) << describe(rep);
  EXPECT_GT(rep.faults.torn_writes, 0u) << describe(rep);
  EXPECT_EQ(rep.crashes, rep.faults.torn_writes) << describe(rep);
}

// Every violation message embeds a machine-parseable reproduce tag (seed +
// absolute schedule index).  Sabotage a campaign so the oracle fires, parse
// the tag out of the first message, and replay exactly that one schedule —
// the violation must come back.  This is the contract debugging relies on.
TEST(FaultFuzzScripted, ViolationReproducesFromItsPrintedTag) {
  FuzzOptions opts;
  opts.kind = StackKind::kTinca;
  opts.seed = 424242;
  opts.schedules = 8;
  opts.crash_prob = 0.0;  // sabotage targets crash-free schedules
  opts.transient_read_rate = 0.0;
  opts.transient_write_rate = 0.0;
  opts.bad_sector_rate = 0.0;
  opts.torn_write_rate = 0.0;
  opts.sabotage = FuzzSabotage::kCorruptCommitted;

  const FuzzReport first = run_fault_fuzz(opts);
  ASSERT_GT(first.violations, 0u) << "sabotage failed to trip the oracle";
  ASSERT_FALSE(first.violation_messages.empty());

  std::uint64_t seed = 0;
  std::uint32_t first_schedule = 0;
  ASSERT_TRUE(fuzz_parse_reproduce(first.violation_messages.front(), &seed,
                                   &first_schedule))
      << "no reproduce tag in: " << first.violation_messages.front();
  EXPECT_EQ(seed, opts.seed);

  FuzzOptions replay = opts;
  replay.seed = seed;
  replay.first_schedule = first_schedule;
  replay.schedules = 1;
  const FuzzReport second = run_fault_fuzz(replay);
  EXPECT_GT(second.violations, 0u)
      << "replaying seed=" << seed << " first_schedule=" << first_schedule
      << " did not reproduce the violation";
  ASSERT_FALSE(second.violation_messages.empty());
  // The replayed schedule carries the same schedule tag (same schedule seed).
  EXPECT_NE(second.violation_messages.front().find(
                "schedule " + std::to_string(first_schedule) + " "),
            std::string::npos)
      << second.violation_messages.front();
}

}  // namespace
}  // namespace tinca::backend
