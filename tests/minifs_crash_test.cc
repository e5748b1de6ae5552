// Whole-system crash consistency: MiniFs over Tinca, with power failures
// injected at every commit-path step of a file-system workload; after
// recovery the file system must pass fsck and contain exactly the fsynced
// state (data consistency, §2.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "backend/classic_backend.h"
#include "backend/stack_builder.h"
#include "backend/tinca_backend.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "fs/minifs.h"

namespace tinca::fs {
namespace {

constexpr std::size_t kNvmBytes = 8 << 20;
constexpr std::uint64_t kDiskBlocks = 1 << 14;
constexpr std::uint64_t kRing = 64 * 1024;

std::vector<std::byte> bytes_of(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> b(n);
  fill_pattern(b, seed);
  return b;
}

/// A deterministic FS workload: each phase is fsynced, so after any crash
/// the recovered FS must contain all completed phases and nothing from the
/// in-flight one (or the in-flight one completely, if its commit landed).
struct Phase {
  std::string path;
  std::size_t size;
  std::uint64_t seed;
};

std::vector<Phase> phases() {
  return {
      {"/a", 6000, 1},  {"/b", 12000, 2}, {"/c", 60000, 3},
      {"/a2", 3000, 4}, {"/d", 9000, 5},  {"/e", 20000, 6},
  };
}

/// Runs the workload, crashing at injector step `crash_step` (0 = never).
/// Returns how many phases were fully fsynced before the crash.
int run_fs_workload(nvm::NvmDevice& dev, blockdev::MemBlockDevice& disk,
                    std::uint64_t crash_step, std::uint64_t* steps_out) {
  auto be = backend::TincaBackend::format(dev, disk,
                                          core::TincaConfig{.ring_bytes = kRing});
  MiniFsConfig cfg;
  cfg.group_commit_ops = 4;
  auto fsys = MiniFs::mkfs(*be, cfg);
  dev.injector.disarm();
  if (crash_step) dev.injector.arm(crash_step);

  int completed = 0;
  try {
    for (const Phase& p : phases()) {
      fsys->create(p.path);
      fsys->write(p.path, 0, bytes_of(p.size, p.seed));
      fsys->fsync();
      ++completed;
    }
  } catch (const nvm::CrashException&) {
    completed = -completed - 1;  // negative marks "crashed after N phases"
  }
  if (steps_out) *steps_out = dev.injector.steps_seen();
  dev.injector.disarm();
  return completed;
}

TEST(MiniFsCrash, SweepEveryCommitStep) {
  // Learn the step count from a clean run.
  std::uint64_t total_steps = 0;
  {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(kDiskBlocks);
    ASSERT_EQ(run_fs_workload(dev, disk, 0, &total_steps),
              static_cast<int>(phases().size()));
  }
  ASSERT_GT(total_steps, 50u);

  Rng rng(2024);
  // Sweep every step (stride 1 would be exhaustive but slow under the full
  // FS; stride 3 still covers every protocol window across phases).
  for (std::uint64_t step = 1; step <= total_steps; step += 3) {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(kDiskBlocks);
    const int marker = run_fs_workload(dev, disk, step, nullptr);
    ASSERT_LT(marker, 0) << "armed run did not crash at step " << step;
    const int completed = -marker - 1;

    dev.crash(rng, 0.5);
    auto be = backend::TincaBackend::recover(
        dev, disk, core::TincaConfig{.ring_bytes = kRing});
    auto fsys = MiniFs::mount(*be);

    // fsck must pass on the recovered committed state.
    const FsckReport report = fsys->fsck();
    ASSERT_TRUE(report.ok) << "fsck failed after crash at step " << step << ": "
                           << (report.problems.empty() ? "?" : report.problems[0]);

    // All fully-fsynced phases must be present and intact.
    const auto all = phases();
    for (int i = 0; i < completed; ++i) {
      ASSERT_TRUE(fsys->exists(all[i].path))
          << all[i].path << " lost after crash at step " << step;
      std::vector<std::byte> got(all[i].size);
      ASSERT_EQ(fsys->read(all[i].path, 0, got), all[i].size);
      ASSERT_EQ(fingerprint(got), fingerprint(bytes_of(all[i].size, all[i].seed)))
          << all[i].path << " corrupted after crash at step " << step;
    }
    // Phases after the in-flight one must not exist at all.
    for (std::size_t i = completed + 1; i < all.size(); ++i)
      ASSERT_FALSE(fsys->exists(all[i].path));
  }
}

TEST(MiniFsCrash, CrashBetweenFsyncsLosesOnlyStagedOps) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  auto be = backend::TincaBackend::format(dev, disk,
                                          core::TincaConfig{.ring_bytes = kRing});
  {
    MiniFsConfig cfg;
    cfg.group_commit_ops = 1000;  // nothing auto-commits
    auto fsys = MiniFs::mkfs(*be, cfg);
    fsys->create("/committed");
    fsys->write("/committed", 0, bytes_of(5000, 1));
    fsys->fsync();
    fsys->create("/lost");
    fsys->write("/lost", 0, bytes_of(5000, 2));
    // no fsync; process dies here
  }
  dev.crash_discard_all();
  auto be2 = backend::TincaBackend::recover(
      dev, disk, core::TincaConfig{.ring_bytes = kRing});
  auto fsys = MiniFs::mount(*be2);
  EXPECT_TRUE(fsys->exists("/committed"));
  EXPECT_FALSE(fsys->exists("/lost"));
  EXPECT_TRUE(fsys->fsck().ok);
}

TEST(MiniFsCrash, ClassicBackendSweepMatchesTincaGuarantees) {
  // The paper's premise is identical data consistency on both stacks; sweep
  // the same FS workload over the Classic (journal) backend.
  auto run_classic = [](nvm::NvmDevice& dev, blockdev::MemBlockDevice& disk,
                        std::uint64_t crash_step, std::uint64_t* steps_out) {
    classic::ClassicConfig ccfg;
    ccfg.journal_blocks = 512;
    auto be = backend::ClassicBackend::format(dev, disk, ccfg);
    MiniFsConfig cfg;
    cfg.group_commit_ops = 4;
    auto fsys = MiniFs::mkfs(*be, cfg);
    dev.injector.disarm();
    if (crash_step) dev.injector.arm(crash_step);
    int completed = 0;
    try {
      for (const Phase& p : phases()) {
        fsys->create(p.path);
        fsys->write(p.path, 0, bytes_of(p.size, p.seed));
        fsys->fsync();
        ++completed;
      }
    } catch (const nvm::CrashException&) {
      completed = -completed - 1;
    }
    if (steps_out) *steps_out = dev.injector.steps_seen();
    dev.injector.disarm();
    return completed;
  };

  std::uint64_t total_steps = 0;
  {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(kDiskBlocks);
    ASSERT_EQ(run_classic(dev, disk, 0, &total_steps),
              static_cast<int>(phases().size()));
  }
  Rng rng(99);
  // The Classic path has far more crash points (every flashcache write);
  // sample with a stride that still covers each protocol phase.
  for (std::uint64_t step = 1; step <= total_steps; step += 17) {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(kDiskBlocks);
    const int marker = run_classic(dev, disk, step, nullptr);
    ASSERT_LT(marker, 0);
    const int completed = -marker - 1;
    dev.crash(rng, 0.5);

    classic::ClassicConfig ccfg;
    ccfg.journal_blocks = 512;
    auto be = backend::ClassicBackend::recover(dev, disk, ccfg);
    auto fsys = MiniFs::mount(*be);
    ASSERT_TRUE(fsys->fsck().ok) << "Classic fsck failed at step " << step;
    const auto all = phases();
    for (int i = 0; i < completed; ++i) {
      ASSERT_TRUE(fsys->exists(all[i].path)) << "step " << step;
      std::vector<std::byte> got(all[i].size);
      ASSERT_EQ(fsys->read(all[i].path, 0, got), all[i].size);
      ASSERT_EQ(fingerprint(got),
                fingerprint(bytes_of(all[i].size, all[i].seed)))
          << all[i].path << " corrupted (Classic) at step " << step;
    }
  }
}

TEST(MiniFsCrash, RepeatedCrashRecoverCyclesConverge) {
  sim::SimClock clock;
  nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(kDiskBlocks);
  Rng rng(5);

  auto be = backend::TincaBackend::format(dev, disk,
                                          core::TincaConfig{.ring_bytes = kRing});
  {
    auto fsys = MiniFs::mkfs(*be);
    fsys->create("/base");
    fsys->write("/base", 0, bytes_of(30000, 7));
    fsys->fsync();
  }
  be.reset();

  // Ten crash/recover/extend cycles; state must stay consistent throughout.
  for (int cycle = 0; cycle < 10; ++cycle) {
    dev.crash(rng, 0.5);
    auto be2 = backend::TincaBackend::recover(
        dev, disk, core::TincaConfig{.ring_bytes = kRing});
    auto fsys = MiniFs::mount(*be2);
    ASSERT_TRUE(fsys->fsck().ok) << "cycle " << cycle;
    std::vector<std::byte> got(30000);
    ASSERT_EQ(fsys->read("/base", 0, got), 30000u);
    ASSERT_EQ(fingerprint(got), fingerprint(bytes_of(30000, 7)));
    fsys->create("/cycle" + std::to_string(cycle));
    fsys->fsync();
  }
}

// ---------------------------------------------------------------------------
// Directed crash-point sweeps for the two weakest structural ops: rename
// (two directories mutated in one compound commit) and truncate (blocks
// freed back out of the single-indirect area).  Every injector step inside
// the op's commit is swept; recovery must always land on exactly the old or
// exactly the new state, with a clean fsck.
// ---------------------------------------------------------------------------

TEST(MiniFsCrash, RenameIsNeverTornAcrossTheCommitBoundary) {
  constexpr std::size_t kSize = 20000;
  constexpr std::uint64_t kSeed = 77;

  // One run: committed setup, then rename /d0/a → /d1/b committed by an
  // fsync with the injector armed at `crash_step` (0 = never, learn steps).
  const auto run = [&](nvm::NvmDevice& dev, blockdev::MemBlockDevice& disk,
                       std::uint64_t crash_step, std::uint64_t* steps_out) {
    auto be = backend::TincaBackend::format(
        dev, disk, core::TincaConfig{.ring_bytes = kRing});
    MiniFsConfig cfg;
    cfg.group_commit_ops = 1000;  // only explicit fsync commits
    auto fsys = MiniFs::mkfs(*be, cfg);
    fsys->mkdir("/d0");
    fsys->mkdir("/d1");
    fsys->create("/d0/a");
    fsys->write("/d0/a", 0, bytes_of(kSize, kSeed));
    fsys->fsync();
    dev.injector.disarm();
    if (crash_step) dev.injector.arm(crash_step);
    bool crashed = false;
    try {
      fsys->rename("/d0/a", "/d1/b");
      fsys->fsync();
    } catch (const nvm::CrashException&) {
      crashed = true;
    }
    if (steps_out) *steps_out = dev.injector.steps_seen();
    dev.injector.disarm();
    return crashed;
  };

  std::uint64_t total_steps = 0;
  {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(kDiskBlocks);
    ASSERT_FALSE(run(dev, disk, 0, &total_steps));
  }
  ASSERT_GT(total_steps, 0u);

  Rng rng(42);
  for (std::uint64_t step = 1; step <= total_steps; ++step) {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(kDiskBlocks);
    ASSERT_TRUE(run(dev, disk, step, nullptr))
        << "armed run did not crash at step " << step;
    dev.crash(rng, 0.5);

    auto be = backend::TincaBackend::recover(
        dev, disk, core::TincaConfig{.ring_bytes = kRing});
    auto fsys = MiniFs::mount(*be);
    const FsckReport report = fsys->fsck();
    ASSERT_TRUE(report.ok) << "fsck dirty after crash at step " << step
                           << ": " << report.summary();

    // Exactly one of the two names survives — never both, never neither.
    const bool old_there = fsys->exists("/d0/a");
    const bool new_there = fsys->exists("/d1/b");
    ASSERT_NE(old_there, new_there)
        << "rename torn at step " << step << " (old=" << old_there
        << " new=" << new_there << ")";
    const std::string path = old_there ? "/d0/a" : "/d1/b";
    std::vector<std::byte> got(kSize);
    ASSERT_EQ(fsys->read(path, 0, got), kSize);
    ASSERT_EQ(fingerprint(got), fingerprint(bytes_of(kSize, kSeed)))
        << path << " corrupted by crash at step " << step;
  }
}

TEST(MiniFsCrash, TruncateOutOfIndirectBlockNeverLeaks) {
  constexpr std::size_t kBigSize = 100 * 1024;  // 25 blocks → single-indirect
  constexpr std::size_t kSmallSize = 8 * 1024;  // back to 2 direct blocks
  constexpr std::uint64_t kSeed = 88;

  const auto run = [&](nvm::NvmDevice& dev, blockdev::MemBlockDevice& disk,
                       std::uint64_t crash_step, std::uint64_t* steps_out) {
    auto be = backend::TincaBackend::format(
        dev, disk, core::TincaConfig{.ring_bytes = kRing});
    MiniFsConfig cfg;
    cfg.group_commit_ops = 1000;
    auto fsys = MiniFs::mkfs(*be, cfg);
    fsys->create("/big");
    fsys->write("/big", 0, bytes_of(kBigSize, kSeed));
    fsys->fsync();
    dev.injector.disarm();
    if (crash_step) dev.injector.arm(crash_step);
    bool crashed = false;
    try {
      fsys->truncate("/big", kSmallSize);
      fsys->fsync();
    } catch (const nvm::CrashException&) {
      crashed = true;
    }
    if (steps_out) *steps_out = dev.injector.steps_seen();
    dev.injector.disarm();
    return crashed;
  };

  std::uint64_t total_steps = 0;
  {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(kDiskBlocks);
    ASSERT_FALSE(run(dev, disk, 0, &total_steps));
  }
  ASSERT_GT(total_steps, 0u);

  Rng rng(43);
  for (std::uint64_t step = 1; step <= total_steps; ++step) {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(kDiskBlocks);
    ASSERT_TRUE(run(dev, disk, step, nullptr))
        << "armed run did not crash at step " << step;
    dev.crash(rng, 0.5);

    auto be = backend::TincaBackend::recover(
        dev, disk, core::TincaConfig{.ring_bytes = kRing});
    auto fsys = MiniFs::mount(*be);

    // fsck's bitmap cross-check and block-past-EOF rule prove the indirect
    // block and its leaves were freed atomically with the size change.
    const FsckReport report = fsys->fsck();
    ASSERT_TRUE(report.ok) << "fsck dirty after crash at step " << step
                           << ": " << report.summary();

    const std::uint64_t size = fsys->file_size("/big");
    ASSERT_TRUE(size == kBigSize || size == kSmallSize)
        << "truncate half-applied at step " << step << ": size " << size;
    std::vector<std::byte> got(size);
    ASSERT_EQ(fsys->read("/big", 0, got), size);
    const auto want = bytes_of(kBigSize, kSeed);
    ASSERT_EQ(fingerprint(got),
              fingerprint(std::span<const std::byte>(want.data(), size)))
        << "content corrupted by crash at step " << step;
  }
}

// ---------------------------------------------------------------------------
// First-fit reuse inside one compound transaction: the remove that frees a
// file's blocks and the create that takes them back commit together.  A cut
// at any crash point or inside any NVM store of that commit must recover
// exactly the tree from before it or the tree after it.
// ---------------------------------------------------------------------------

class MiniFsReuseCrash : public ::testing::TestWithParam<backend::StackKind> {
 protected:
  static constexpr std::size_t kKeepSize = 9000;
  static constexpr std::size_t kOldSize = 20000;  // 5 blocks
  static constexpr std::size_t kNewSize = 17000;  // 5 blocks
  enum class Cut { kPoint, kTorn };

  struct Run {
    bool crashed = false;
    std::uint64_t points = 0;  // crash points the transaction passed
    std::uint64_t torn = 0;    // NVM stores it made (torn points)
    std::vector<std::uint64_t> old_blocks, new_blocks;
  };

  static backend::StackConfig stack_config() {
    backend::StackConfig cfg;
    cfg.kind = GetParam();
    cfg.tinca.ring_bytes = kRing;
    cfg.sharded.num_shards = 2;
    cfg.nvlog.log_bytes = 1 << 20;
    return cfg;
  }

  // Committed direct block pointers of inode `ino` (128 B inodes: type,
  // size, then 12 direct pointers), up to its first hole.
  static std::vector<std::uint64_t> direct_blocks(backend::TxnBackend& be,
                                                  const MiniFs& fsys,
                                                  std::uint64_t ino) {
    std::vector<std::byte> blk(4096);
    be.read_block(fsys.geometry().itable_start + ino / 32, blk);
    std::vector<std::uint64_t> out;
    for (std::uint64_t d = 0; d < 12; ++d) {
      const std::uint64_t b = load_le(blk.data() + (ino % 32) * 128 + 16 + d * 8, 8);
      if (b == 0) break;
      out.push_back(b);
    }
    return out;
  }

  // Commits /keep and /old, then one transaction that removes /old and
  // creates /new, with the `cut` counter armed at `step` (0 = never).
  static Run run(nvm::NvmDevice& dev, blockdev::MemBlockDevice& disk, Cut cut,
                 std::uint64_t step) {
    auto be = backend::open_backend(stack_config(), dev, disk, false);
    MiniFsConfig cfg;
    cfg.group_commit_ops = 1000;  // only explicit fsync commits
    auto fsys = MiniFs::mkfs(*be, cfg);
    fsys->create("/keep");  // inode 1
    fsys->write("/keep", 0, bytes_of(kKeepSize, 1));
    fsys->create("/old");  // inode 2
    fsys->write("/old", 0, bytes_of(kOldSize, 2));
    fsys->fsync();
    Run r;
    if (step == 0) r.old_blocks = direct_blocks(*be, *fsys, 2);

    dev.injector.disarm();
    dev.injector.disarm_torn();
    if (step != 0 && cut == Cut::kPoint) dev.injector.arm(step);
    if (step != 0 && cut == Cut::kTorn) dev.injector.arm_torn(step);
    try {
      fsys->remove("/old");
      fsys->create("/new");  // takes inode 2 back
      fsys->write("/new", 0, bytes_of(kNewSize, 3));
      fsys->fsync();
    } catch (const nvm::CrashException&) {
      r.crashed = true;
    }
    r.points = dev.injector.steps_seen();
    r.torn = dev.injector.torn_steps_seen();
    dev.injector.disarm();
    dev.injector.disarm_torn();
    if (step == 0) r.new_blocks = direct_blocks(*be, *fsys, 2);
    return r;
  }

  static void expect_file(MiniFs& fsys, const std::string& path,
                          std::size_t size, std::uint64_t seed,
                          const std::string& where) {
    ASSERT_EQ(fsys.file_size(path), size) << path << where;
    std::vector<std::byte> got(size);
    ASSERT_EQ(fsys.read(path, 0, got), size) << path << where;
    ASSERT_EQ(fingerprint(got), fingerprint(bytes_of(size, seed)))
        << path << " corrupted" << where;
  }

  // Cuts the transaction at every step of `cut`'s counter; returns how many
  // cuts recovered the tree from after it.
  static std::uint64_t sweep(Cut cut, std::uint64_t steps, std::uint64_t seed) {
    Rng rng(seed);
    std::uint64_t new_trees = 0;
    for (std::uint64_t step = 1; step <= steps; ++step) {
      const std::string where =
          std::string(cut == Cut::kPoint ? " at crash point " : " at torn store ") +
          std::to_string(step);
      sim::SimClock clock;
      nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
      blockdev::MemBlockDevice disk(kDiskBlocks);
      EXPECT_TRUE(run(dev, disk, cut, step).crashed) << "no cut" << where;
      dev.crash(rng, 0.5);

      auto be = backend::open_backend(stack_config(), dev, disk, true);
      auto fsys = MiniFs::mount(*be);
      const FsckReport report = fsys->fsck();
      EXPECT_TRUE(report.ok) << "fsck dirty" << where << ": " << report.summary();

      std::vector<std::string> names = fsys->list("/");
      std::sort(names.begin(), names.end());
      const bool old_tree = names == std::vector<std::string>{"keep", "old"};
      const bool new_tree = names == std::vector<std::string>{"keep", "new"};
      EXPECT_TRUE(old_tree || new_tree) << "torn tree" << where;
      expect_file(*fsys, "/keep", kKeepSize, 1, where);
      if (old_tree) expect_file(*fsys, "/old", kOldSize, 2, where);
      if (new_tree) expect_file(*fsys, "/new", kNewSize, 3, where);
      new_trees += new_tree ? 1 : 0;
    }
    return new_trees;
  }
};

TEST_P(MiniFsReuseCrash, EveryCutRecoversTheOldOrTheNewTree) {
  Run clean;
  {
    sim::SimClock clock;
    nvm::NvmDevice dev(kNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(kDiskBlocks);
    clean = run(dev, disk, Cut::kPoint, 0);
  }
  ASSERT_FALSE(clean.crashed);
  // The transaction really reuses /old's blocks for /new.
  ASSERT_EQ(clean.old_blocks.size(), 5u);
  ASSERT_EQ(clean.new_blocks, clean.old_blocks);
  ASSERT_GT(clean.points, 0u);
  ASSERT_GT(clean.torn, 0u);

  // The point sweep passes the commit point: its last cuts keep the new tree.
  const std::uint64_t new_after_points = sweep(Cut::kPoint, clean.points, 71);
  EXPECT_GT(new_after_points, 0u);
  EXPECT_LT(new_after_points, clean.points);
  sweep(Cut::kTorn, clean.torn, 72);
}

INSTANTIATE_TEST_SUITE_P(Stacks, MiniFsReuseCrash,
                         ::testing::Values(backend::StackKind::kTinca,
                                           backend::StackKind::kNvLogSharded),
                         [](const auto& pinfo) {
                           return pinfo.param == backend::StackKind::kTinca
                                      ? "Tinca"
                                      : "NvLogSharded";
                         });

}  // namespace
}  // namespace tinca::fs
