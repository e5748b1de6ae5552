// RAM-backed sparse block store.
//
// Backing "disks" in the experiments are hundreds of thousands of blocks of
// which only the written subset matters, so memory stays bounded by the
// touched working set: a flat index maps each block number to its 4 KB
// block, and blocks are packed in first-write order into 2 MB slabs
// (common/media_alloc.h, on huge pages like the NVM images).  A block enters
// the index only once its first full 4 KB write has filled it, so slabs are
// never zero-filled; unindexed blocks read as zeros, matching a freshly
// trimmed device.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "blockdev/block_device.h"
#include "common/expect.h"
#include "common/media_alloc.h"

namespace tinca::blockdev {

/// In-memory sparse block device; no latency model (wrap with
/// LatencyBlockDevice for timed experiments).
class MemBlockDevice final : public BlockDevice {
 public:
  /// Blocks per slab: one 2 MB huge page.
  static constexpr std::size_t kSlabBlocks = kHugePageBytes / kBlockSize;

  explicit MemBlockDevice(std::uint64_t block_count)
      : block_count_(block_count), index_(block_count, nullptr) {}

  [[nodiscard]] std::uint64_t block_count() const override {
    return block_count_;
  }

  IoStatus read(std::uint64_t blkno, std::span<std::byte> dst) override {
    TINCA_EXPECT(blkno < block_count_, "read beyond device");
    TINCA_EXPECT(dst.size() == kBlockSize, "short read buffer");
    const std::byte* block = index_[blkno];
    if (block == nullptr) {
      std::memset(dst.data(), 0, kBlockSize);
    } else {
      std::memcpy(dst.data(), block, kBlockSize);
    }
    ++stats_.blocks_read;
    return IoStatus::kOk;
  }

  IoStatus write(std::uint64_t blkno, std::span<const std::byte> src) override {
    TINCA_EXPECT(blkno < block_count_, "write beyond device");
    TINCA_EXPECT(src.size() == kBlockSize, "short write buffer");
    std::byte*& block = index_[blkno];
    if (block == nullptr) block = fresh_block();
    std::memcpy(block, src.data(), kBlockSize);
    ++stats_.blocks_written;
    return IoStatus::kOk;
  }

  [[nodiscard]] const BlockStats& stats() const override { return stats_; }

  /// Number of materialized (ever-written) blocks.
  [[nodiscard]] std::size_t resident_blocks() const { return resident_; }

 private:
  struct SlabFree {
    void operator()(std::byte* p) const {
      media_deallocate(p, kSlabBlocks * kBlockSize);
    }
  };

  /// Next unused block of the newest slab, opening a slab every
  /// kSlabBlocks first writes.  Its bytes are uninitialized.
  std::byte* fresh_block() {
    const std::size_t in_slab = resident_ % kSlabBlocks;
    if (in_slab == 0)
      slabs_.emplace_back(static_cast<std::byte*>(
          media_allocate(kSlabBlocks * kBlockSize)));
    ++resident_;
    return slabs_.back().get() + in_slab * kBlockSize;
  }

  std::uint64_t block_count_;
  std::vector<std::byte*> index_;  ///< block → its bytes; null = unwritten
  std::vector<std::unique_ptr<std::byte[], SlabFree>> slabs_;
  std::size_t resident_ = 0;
  BlockStats stats_;
};

}  // namespace tinca::blockdev
