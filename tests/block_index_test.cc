// Tests for BlockIndex, TincaCache's flat disk-block → slot table: probe runs
// that wrap past the last cell, backward-shift deletion at every position of
// a run, first-mapping-wins inserts, the capacity contract, and a seeded
// differential run against std::unordered_map.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/expect.h"
#include "tinca/block_index.h"

namespace tinca::core {
namespace {

/// The first `n` keys (ascending) whose home cell is `cell`.
std::vector<std::uint64_t> keys_homing_at(const BlockIndex& idx,
                                          std::uint64_t cell, std::size_t n) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < n; ++k)
    if (idx.home(k) == cell) keys.push_back(k);
  return keys;
}

/// A run that starts on the table's last cell and wraps: three keys homing
/// at the last cell, then two homing at cell 0 (displaced behind them).
std::vector<std::uint64_t> wrapping_run(const BlockIndex& idx) {
  std::vector<std::uint64_t> run =
      keys_homing_at(idx, idx.cell_count() - 1, 3);
  for (std::uint64_t k : keys_homing_at(idx, 0, 2)) run.push_back(k);
  return run;
}

TEST(BlockIndex, ProbeRunWrapsFromTheLastCellToCellZero) {
  BlockIndex idx(8);
  ASSERT_EQ(idx.cell_count(), 16u);
  const std::vector<std::uint64_t> run = wrapping_run(idx);
  for (std::uint32_t i = 0; i < run.size(); ++i)
    ASSERT_TRUE(idx.emplace(run[i], 100 + i));
  EXPECT_EQ(idx.size(), run.size());
  for (std::uint32_t i = 0; i < run.size(); ++i)
    EXPECT_EQ(idx.find(run[i]), 100 + i) << "key " << run[i];
  // A key homing at cell 0 that was never inserted misses past the run.
  EXPECT_EQ(idx.find(keys_homing_at(idx, 0, 3)[2]), BlockIndex::kNone);
}

TEST(BlockIndex, ErasingAnyMemberOfAWrappedRunKeepsTheOthersFindable) {
  // First, a middle and the last member of the run, each on a fresh table.
  for (const std::size_t victim : {std::size_t{0}, std::size_t{2},
                                   std::size_t{4}}) {
    BlockIndex idx(8);
    const std::vector<std::uint64_t> run = wrapping_run(idx);
    for (std::uint32_t i = 0; i < run.size(); ++i)
      ASSERT_TRUE(idx.emplace(run[i], 100 + i));
    ASSERT_TRUE(idx.erase(run[victim]));
    EXPECT_FALSE(idx.erase(run[victim])) << "double erase must miss";
    EXPECT_EQ(idx.size(), run.size() - 1);
    for (std::uint32_t i = 0; i < run.size(); ++i) {
      if (i == victim)
        EXPECT_EQ(idx.find(run[i]), BlockIndex::kNone);
      else
        EXPECT_EQ(idx.find(run[i]), 100 + i)
            << "key " << run[i] << " lost after erasing member " << victim;
    }
    // The freed cell is reusable and the table still holds every key.
    ASSERT_TRUE(idx.emplace(run[victim], 7));
    EXPECT_EQ(idx.find(run[victim]), 7u);
  }
}

TEST(BlockIndex, InsertingAnExistingKeyKeepsItsFirstSlot) {
  BlockIndex idx(4);
  EXPECT_TRUE(idx.emplace(42, 1));
  EXPECT_FALSE(idx.emplace(42, 2));
  EXPECT_EQ(idx.find(42), 1u);
  EXPECT_EQ(idx.at(42), 1u);
  EXPECT_EQ(idx.size(), 1u);
}

TEST(BlockIndex, InsertPastCapacityThrows) {
  BlockIndex idx(4);
  for (std::uint32_t k = 0; k < 4; ++k) ASSERT_TRUE(idx.emplace(k * 1000, k));
  EXPECT_THROW(idx.emplace(5000, 9), ContractViolation);
  // A full table still answers duplicates (first mapping) without throwing.
  EXPECT_FALSE(idx.emplace(0, 9));
  EXPECT_EQ(idx.size(), 4u);
  EXPECT_THROW((void)idx.at(5000), ContractViolation);
}

TEST(BlockIndex, RandomOperationsAgreeWithUnorderedMap) {
  constexpr std::uint64_t kCapacity = 512;
  constexpr std::uint64_t kKeySpace = 2048;  // hits and misses both common
  constexpr int kOps = 200'000;
  BlockIndex idx(kCapacity);
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  std::mt19937_64 rng(20261018);
  bool reached_full = false;

  for (int op = 0; op < kOps; ++op) {
    // Alternate growth-biased and shrink-biased phases so the table swings
    // between empty and completely full.
    const bool grow = (op / 5000) % 2 == 0;
    const std::uint64_t key = rng() % kKeySpace;
    const unsigned dice = static_cast<unsigned>(rng() % 100);
    if (dice < (grow ? 60u : 5u)) {
      const auto slot = static_cast<std::uint32_t>(rng() % 100'000);
      if (ref.size() == kCapacity && !ref.contains(key)) {
        EXPECT_THROW(idx.emplace(key, slot), ContractViolation);
        reached_full = true;
      } else {
        const bool fresh = ref.emplace(key, slot).second;
        ASSERT_EQ(idx.emplace(key, slot), fresh) << "op " << op;
      }
    } else if (dice < 80u) {
      ASSERT_EQ(idx.erase(key), ref.erase(key) == 1) << "op " << op;
    } else {
      const auto it = ref.find(key);
      ASSERT_EQ(idx.find(key), it == ref.end() ? BlockIndex::kNone : it->second)
          << "op " << op;
    }
    ASSERT_EQ(idx.size(), ref.size());
    if (op % 10'000 == 0) {
      std::unordered_map<std::uint64_t, std::uint32_t> seen;
      idx.for_each([&](std::uint64_t k, std::uint32_t s) { seen.emplace(k, s); });
      ASSERT_EQ(seen, ref) << "op " << op;
    }
  }
  EXPECT_TRUE(reached_full) << "the run never filled the table";
  for (std::uint64_t k = 0; k < kKeySpace; ++k) {
    const auto it = ref.find(k);
    EXPECT_EQ(idx.find(k), it == ref.end() ? BlockIndex::kNone : it->second);
  }
  idx.clear();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_FALSE(idx.contains(ref.begin()->first));
}

}  // namespace
}  // namespace tinca::core
