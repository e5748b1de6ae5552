// Tests for the uniform TxnBackend surface and the stack builder: every
// stack must satisfy the same behavioural contract, including the running
// transaction the TxnBackend base class owns for all of them.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "backend/stack_builder.h"
#include "common/bytes.h"
#include "nvm/crash.h"
#include "tinca/cache_entry.h"

namespace tinca::backend {
namespace {

StackConfig small_config(StackKind kind) {
  StackConfig cfg;
  cfg.kind = kind;
  cfg.nvm_bytes = 8 << 20;
  cfg.disk_blocks = 1 << 14;
  cfg.classic.journal_blocks = 512;
  cfg.tinca.ring_bytes = 64 * 1024;
  cfg.nvlog.log_bytes = 1 << 20;
  return cfg;
}

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(blockdev::kBlockSize);
  fill_pattern(b, seed);
  return b;
}

/// Contract tests parameterized over every backend kind.
class BackendContract : public ::testing::TestWithParam<StackKind> {};

TEST_P(BackendContract, CommitMakesDataReadable) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  be.begin();
  be.stage(10, block_of(1));
  be.stage(11, block_of(2));
  be.commit();
  std::vector<std::byte> got(blockdev::kBlockSize);
  be.read_block(10, got);
  EXPECT_EQ(got, block_of(1));
  be.read_block(11, got);
  EXPECT_EQ(got, block_of(2));
}

TEST_P(BackendContract, AbortLeavesNoTrace) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  be.begin();
  be.stage(5, block_of(9));
  be.abort();
  std::vector<std::byte> got(blockdev::kBlockSize);
  be.read_block(5, got);
  EXPECT_EQ(got, std::vector<std::byte>(blockdev::kBlockSize, std::byte{0}));
}

TEST_P(BackendContract, DoubleBeginRejected) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  be.begin();
  EXPECT_THROW(be.begin(), ContractViolation);
  be.abort();
}

TEST_P(BackendContract, StageWithoutBeginRejected) {
  Stack stack(small_config(GetParam()));
  EXPECT_THROW(stack.backend().stage(1, block_of(1)), ContractViolation);
  EXPECT_THROW(stack.backend().commit(), ContractViolation);
}

TEST_P(BackendContract, FlushPushesToDisk) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  be.begin();
  be.stage(20, block_of(7));
  be.commit();
  be.flush();
  EXPECT_GT(stack.disk_blocks_written(), 0u);
}

TEST_P(BackendContract, RewriteKeepsLatest) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  for (std::uint64_t v = 1; v <= 10; ++v) {
    be.begin();
    be.stage(3, block_of(v));
    be.commit();
  }
  std::vector<std::byte> got(blockdev::kBlockSize);
  be.read_block(3, got);
  EXPECT_EQ(got, block_of(10));
}

TEST_P(BackendContract, MaxTxnBlocksIsPositive) {
  Stack stack(small_config(GetParam()));
  EXPECT_GT(stack.backend().max_txn_blocks(), 16u);
}

TEST_P(BackendContract, RestageInOneTxnKeepsLatestBytes) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  be.begin();
  be.stage(3, block_of(1));
  be.stage(4, block_of(2));
  be.stage(3, block_of(3));
  be.commit();
  std::vector<std::byte> got(blockdev::kBlockSize);
  be.read_block(3, got);
  EXPECT_EQ(got, block_of(3));
  be.read_block(4, got);
  EXPECT_EQ(got, block_of(2));
}

TEST_P(BackendContract, StageRejectsPartialBlocks) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  be.begin();
  EXPECT_THROW(be.stage(1, std::vector<std::byte>(100)), ContractViolation);
  be.abort();
}

TEST_P(BackendContract, CommitGroupWithTxnOpenRejected) {
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  be.begin();
  be.stage(1, block_of(1));
  std::vector<GroupTxn> batch(1);
  batch[0].add(2, block_of(2));
  EXPECT_THROW(be.commit_group(batch), ContractViolation);
  be.abort();
}

TEST_P(BackendContract, EmptyCommitIsNoOp) {
  Stack stack(small_config(GetParam()));
  obs::MetricsRegistry reg;
  stack.register_metrics(reg);
  const std::string before = reg.to_json_text();
  auto& be = stack.backend();
  be.begin();
  be.commit();
  EXPECT_EQ(reg.to_json_text(), before);
  be.begin();  // the empty commit closed the transaction
  be.abort();
}

TEST_P(BackendContract, ThrowingCommitLeavesNoTxnOpen) {
  // A power cut at the first persistence point makes commit() throw on
  // every stack; per txn_backend.h the transaction is closed regardless.
  Stack stack(small_config(GetParam()));
  auto& be = stack.backend();
  be.begin();
  be.stage(1, block_of(1));
  stack.nvm().injector.arm(1);
  EXPECT_THROW(be.commit(), nvm::CrashException);
  stack.nvm().injector.disarm();
  EXPECT_NO_THROW(be.begin());
  be.abort();
}

TEST_P(BackendContract, CommittedBlocksSurviveRemountAndLostLines) {
  // The remount contract, through the same factory the fuzz harnesses use:
  // committed data outlives a backend dropped without flush(), both on a
  // clean recover() and after the NVM loses every unflushed line.
  const StackConfig cfg = small_config(GetParam());
  sim::SimClock clock;
  nvm::NvmDevice nvm(cfg.nvm_bytes, nvm_profile_by_name(cfg.nvm_profile),
                     clock);
  blockdev::MemBlockDevice disk(cfg.disk_blocks);
  std::map<std::uint64_t, std::uint64_t> want;  // blkno → pattern seed
  {
    std::unique_ptr<TxnBackend> be = open_backend(cfg, nvm, disk, false);
    // Three multi-block transactions, each rewriting half of the last one.
    for (std::uint64_t t = 0; t < 3; ++t) {
      be->begin();
      for (std::uint64_t b = 10 + 2 * t; b < 14 + 2 * t; ++b) {
        be->stage(b, block_of(100 * t + b));
        want[b] = 100 * t + b;
      }
      be->commit();
    }
  }
  const auto expect_committed = [&](const char* when) {
    std::unique_ptr<TxnBackend> be = open_backend(cfg, nvm, disk, true);
    std::vector<std::byte> got(blockdev::kBlockSize);
    for (const auto& [blkno, seed] : want) {
      be->read_block(blkno, got);
      EXPECT_EQ(got, block_of(seed)) << "block " << blkno << " " << when;
    }
  };
  expect_committed("after a clean remount");
  nvm.crash_discard_all();
  expect_committed("after losing every unflushed line");
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendContract,
                         ::testing::Values(StackKind::kTinca,
                                           StackKind::kClassic,
                                           StackKind::kClassicNoJournal,
                                           StackKind::kUbj,
                                           StackKind::kShardedTinca,
                                           StackKind::kNvLogClassic,
                                           StackKind::kNvLogTinca,
                                           StackKind::kNvLogSharded),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case StackKind::kTinca: return "Tinca";
                             case StackKind::kClassic: return "Classic";
                             case StackKind::kClassicNoJournal:
                               return "ClassicNoJournal";
                             case StackKind::kUbj: return "Ubj";
                             case StackKind::kShardedTinca: return "Sharded";
                             case StackKind::kNvLogClassic: return "NvLog";
                             case StackKind::kNvLogTinca: return "NvLogTinca";
                             case StackKind::kNvLogSharded:
                               return "NvLogSharded";
                           }
                           return "Unknown";
                         });

/// check_media() over every kind with Tinca or NvLog media: clean after a
/// few overlapping transactions.  Then an out-of-range prev_nvm planted in
/// one valid entry of the last Tinca partition — shard 1, the store behind
/// the log, or the whole device — is reported against exactly that
/// partition, while every committed block still reads back: the data oracle
/// cannot see this fault.
class CheckMedia : public ::testing::TestWithParam<StackKind> {};

TEST_P(CheckMedia, ReportsNothingOnCleanMediaAndLocatesAPlantedFault) {
  const StackKind kind = GetParam();
  ASSERT_TRUE(has_checked_media(kind));
  const bool stacked = nvlog_stacked(kind);
  const bool sharded =
      kind == StackKind::kShardedTinca || kind == StackKind::kNvLogSharded;
  StackConfig cfg = small_config(kind);
  cfg.sharded.num_shards = 2;
  Stack stack(cfg);
  TxnBackend& be = stack.backend();
  std::map<std::uint64_t, std::uint64_t> want;  // blkno → pattern seed
  for (std::uint64_t t = 0; t < 4; ++t) {
    be.begin();
    for (std::uint64_t b = 10 + 3 * t; b < 16 + 3 * t; ++b) {
      be.stage(b, block_of(100 * t + b));
      want[b] = 100 * t + b;
    }
    be.commit();
  }
  const MediaCheck clean = check_media(cfg, stack.nvm());
  EXPECT_EQ(clean.partitions, (stacked ? 1u : 0u) +
                                  (sharded                           ? 2u
                                   : kind == StackKind::kNvLogClassic ? 0u
                                                                      : 1u));
  EXPECT_TRUE(clean.problems.empty()) << clean.problems.front();
  if (kind == StackKind::kNvLogClassic) return;  // no Tinca partition

  // Drain any log into its store, so the store's entry table is populated.
  be.flush();
  std::uint64_t off = stacked ? cfg.nvlog.log_bytes : 0;
  std::uint64_t bytes = stack.nvm().size() - off;
  std::string name = stacked ? "store" : "tinca";
  if (sharded) {
    bytes = shard::ShardedTinca::partition_bytes(bytes, 2);
    off += bytes;  // shard 1
    name = stacked ? "store shard 1" : "shard 1";
  }
  const core::Layout layout = core::Layout::compute(
      bytes, cfg.tinca.ring_bytes, cfg.tinca.num_streams);
  nvm::NvmDevice part(stack.nvm(), off, bytes, stack.clock());
  bool planted = false;
  for (std::uint32_t slot = 0; slot < layout.num_blocks && !planted; ++slot) {
    std::array<std::byte, 16> raw{};
    part.load(layout.entry_off(slot), raw);
    core::CacheEntry e = core::CacheEntry::decode(raw);
    if (!e.valid) continue;
    e.prev_nvm = static_cast<std::uint32_t>(layout.num_blocks) + 7;
    part.store(layout.entry_off(slot), e.encode());
    planted = true;
  }
  ASSERT_TRUE(planted) << name << " holds no valid entry";

  const MediaCheck bad = check_media(cfg, stack.nvm());
  ASSERT_EQ(bad.problems.size(), 1u);
  EXPECT_EQ(bad.problems[0].rfind(name + ": slot ", 0), 0u) << bad.problems[0];
  EXPECT_NE(bad.problems[0].find("previous NVM block out of range"),
            std::string::npos)
      << bad.problems[0];
  std::vector<std::byte> got(blockdev::kBlockSize);
  for (const auto& [blkno, seed] : want) {
    be.read_block(blkno, got);
    EXPECT_EQ(got, block_of(seed)) << "block " << blkno;
  }
}

INSTANTIATE_TEST_SUITE_P(MediaKinds, CheckMedia,
                         ::testing::Values(StackKind::kTinca,
                                           StackKind::kShardedTinca,
                                           StackKind::kNvLogClassic,
                                           StackKind::kNvLogTinca,
                                           StackKind::kNvLogSharded),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case StackKind::kTinca: return "Tinca";
                             case StackKind::kShardedTinca: return "Sharded";
                             case StackKind::kNvLogClassic: return "NvLog";
                             case StackKind::kNvLogTinca: return "NvLogTinca";
                             case StackKind::kNvLogSharded:
                               return "NvLogSharded";
                             default: return "Other";
                           }
                         });

TEST(CheckMedia, ClassicAndUbjHaveNoCheckedPartition) {
  for (const StackKind kind :
       {StackKind::kClassic, StackKind::kClassicNoJournal, StackKind::kUbj}) {
    EXPECT_FALSE(has_checked_media(kind));
    const StackConfig cfg = small_config(kind);
    Stack stack(cfg);
    EXPECT_EQ(check_media(cfg, stack.nvm()).partitions, 0u);
  }
}

/// Minimal concrete backend that captures what commit() hands to
/// commit_group(), to pin the staging the base class owns.
class CapturingBackend final : public TxnBackend {
 public:
  void commit_group(std::span<GroupTxn> txns) override {
    TINCA_EXPECT(!txn_open(), "group commit with a transaction open");
    for (GroupTxn& t : txns) groups.push_back(std::move(t));
    if (fail_next) {
      fail_next = false;
      throw std::runtime_error("commit failed");
    }
  }
  void read_block(std::uint64_t, std::span<std::byte>) override {}
  void flush() override {}
  [[nodiscard]] std::uint64_t data_block_limit() const override { return 64; }
  [[nodiscard]] std::uint64_t max_txn_blocks() const override { return 64; }
  [[nodiscard]] std::string name() const override { return "capture"; }

  std::vector<GroupTxn> groups;
  bool fail_next = false;
};

TEST(TxnBackendStaging, RestageKeepsFirstPositionAndLatestBytes) {
  CapturingBackend be;
  be.begin();
  be.stage(5, block_of(1));
  be.stage(7, block_of(2));
  be.stage(5, block_of(3));
  be.commit();
  ASSERT_EQ(be.groups.size(), 1u);
  const auto& w = be.groups[0].writes();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].first, 5u);
  EXPECT_EQ(w[0].second, block_of(3));
  EXPECT_EQ(w[1].first, 7u);
  EXPECT_EQ(w[1].second, block_of(2));
}

TEST(TxnBackendStaging, EmptyCommitAndAbortReachNoBackend) {
  CapturingBackend be;
  be.begin();
  be.commit();
  be.begin();
  be.stage(1, block_of(1));
  be.abort();
  EXPECT_TRUE(be.groups.empty());
}

TEST(TxnBackendStaging, ThrowingCommitClosesTheTxnAndHandsWritesOver) {
  CapturingBackend be;
  be.fail_next = true;
  be.begin();
  be.stage(1, block_of(1));
  EXPECT_THROW(be.commit(), std::runtime_error);
  ASSERT_EQ(be.groups.size(), 1u);  // the writes went to commit_group()
  EXPECT_THROW(be.abort(), ContractViolation);  // nothing left open
  be.begin();
  be.stage(2, block_of(2));
  be.commit();
  ASSERT_EQ(be.groups.size(), 2u);
  ASSERT_EQ(be.groups[1].writes().size(), 1u);
  EXPECT_EQ(be.groups[1].writes()[0].first, 2u);
}

TEST(StackBuilder, NamesIdentifyBackends) {
  EXPECT_EQ(Stack(small_config(StackKind::kTinca)).name(), "Tinca");
  EXPECT_EQ(Stack(small_config(StackKind::kClassic)).name(), "Classic");
  EXPECT_EQ(Stack(small_config(StackKind::kClassicNoJournal)).name(),
            "Classic-nojournal");
  EXPECT_EQ(Stack(small_config(StackKind::kUbj)).name(), "UBJ");
  EXPECT_EQ(Stack(small_config(StackKind::kShardedTinca)).name(),
            "ShardedTinca");
  EXPECT_EQ(Stack(small_config(StackKind::kNvLogClassic)).name(),
            "NvLog-Classic");
  EXPECT_EQ(Stack(small_config(StackKind::kNvLogTinca)).name(), "NvLog-Tinca");
  EXPECT_EQ(Stack(small_config(StackKind::kNvLogSharded)).name(),
            "NvLog-Sharded");
}

TEST(StackBuilder, ProfilesAreApplied) {
  StackConfig cfg = small_config(StackKind::kTinca);
  cfg.nvm_profile = "sttram";
  cfg.disk_profile = "hdd";
  Stack stack(cfg);
  EXPECT_EQ(stack.nvm().profile().name, "STT-RAM");
}

TEST(StackBuilder, TincaWritesCostFewerFlushesThanClassic) {
  // The paper's core claim at the unit scale (Fig 7(b) mechanism).
  Stack tinca(small_config(StackKind::kTinca));
  Stack classic(small_config(StackKind::kClassic));
  for (auto* stack : {&tinca, &classic}) {
    auto& be = stack->backend();
    for (std::uint64_t i = 0; i < 64; ++i) {
      be.begin();
      be.stage(i, block_of(i));
      be.commit();
    }
    be.flush();
  }
  EXPECT_LT(tinca.clflush_count() * 2, classic.clflush_count())
      << "Tinca should need less than half of Classic's flushes";
  EXPECT_LT(tinca.disk_blocks_written(), classic.disk_blocks_written());
}

}  // namespace
}  // namespace tinca::backend
