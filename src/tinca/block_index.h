// DRAM-resident disk-block index over entry slots (paper §4.6).
//
// The hash-table half of Tinca's rebuildable replacement bookkeeping (the
// LRU list is slot_lru.h): disk block number → entry slot.  A cache never
// indexes more blocks than it has entry slots, so the table is sized once —
// a power of two at least twice that capacity — and never rehashes.  Cells
// are 16 B {disk block, slot} pairs probed linearly from a multiplicative
// hash; erase shifts the rest of the probe run back instead of leaving a
// tombstone, so probe runs stay as short after millions of evictions as on
// a freshly built table.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/expect.h"

namespace tinca::core {

/// Fixed-capacity open-addressing map from disk block to entry slot.
class BlockIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFF'FFFFu;  ///< "no slot" / empty

  /// Room for `capacity` keys; inserting one more throws ContractViolation.
  explicit BlockIndex(std::uint64_t capacity)
      : cells_(std::bit_ceil(std::max<std::uint64_t>(2, capacity * 2))),
        capacity_(capacity),
        mask_(cells_.size() - 1),
        shift_(64 - std::countr_zero(cells_.size())) {}

  /// Slot indexed under `key`, or kNone.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const {
    for (std::uint64_t i = home(key);; i = (i + 1) & mask_) {
      const Cell& c = cells_[i];
      if (c.slot == kNone) return kNone;
      if (c.key == key) return c.slot;
    }
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    return find(key) != kNone;
  }

  /// Slot indexed under `key`, which must be present.
  [[nodiscard]] std::uint32_t at(std::uint64_t key) const {
    const std::uint32_t slot = find(key);
    TINCA_ENSURE(slot != kNone, "block index lookup of an unindexed block");
    return slot;
  }

  /// Index `key` → `slot`.  An existing key keeps its first slot and the
  /// call returns false (std::unordered_map::emplace semantics).
  bool emplace(std::uint64_t key, std::uint32_t slot) {
    TINCA_EXPECT(slot != kNone, "block index slot out of range");
    std::uint64_t i = home(key);
    for (; cells_[i].slot != kNone; i = (i + 1) & mask_)
      if (cells_[i].key == key) return false;
    TINCA_EXPECT(size_ < capacity_, "block index over capacity");
    cells_[i] = Cell{key, slot};
    ++size_;
    return true;
  }

  /// Remove `key`; returns whether it was present.  Backward-shift delete:
  /// every later member of the probe run whose home lies at or before the
  /// hole moves into it, so lookups never need tombstones.
  bool erase(std::uint64_t key) {
    std::uint64_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (cells_[hole].slot == kNone) return false;
      if (cells_[hole].key == key) break;
    }
    for (std::uint64_t j = (hole + 1) & mask_; cells_[j].slot != kNone;
         j = (j + 1) & mask_) {
      const std::uint64_t from_home = (j - home(cells_[j].key)) & mask_;
      if (from_home >= ((j - hole) & mask_)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole] = Cell{};
    --size_;
    return true;
  }

  void clear() {
    cells_.assign(cells_.size(), Cell{});
    size_ = 0;
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// Visit every (key, slot) pair, in cell order (callers must not depend
  /// on it).
  template <typename F>
  void for_each(F&& f) const {
    for (const Cell& c : cells_)
      if (c.slot != kNone) f(c.key, c.slot);
  }

  /// Table geometry, for tests that build colliding probe runs.
  [[nodiscard]] std::uint64_t cell_count() const { return cells_.size(); }
  [[nodiscard]] std::uint64_t home(std::uint64_t key) const {
    return (key * 0x9E37'79B9'7F4A'7C15ULL) >> shift_;
  }

 private:
  struct Cell {
    std::uint64_t key = 0;
    std::uint32_t slot = kNone;
  };
  static_assert(sizeof(Cell) == 16);

  std::vector<Cell> cells_;
  std::uint64_t capacity_;
  std::uint64_t size_ = 0;
  std::uint64_t mask_;
  int shift_;  ///< 64 - log2(cells): home() keeps the hash's top bits
};

}  // namespace tinca::core
