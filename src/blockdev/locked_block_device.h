// Mutex-serialized adapter over any BlockDevice.
//
// MemBlockDevice and LatencyBlockDevice are single-threaded by design (slab
// allocation on first writes, shared latency clock).  The sharded Tinca
// front-end drives one backing disk from several committing threads at once
// — writebacks and read misses from different shards target disjoint disk
// blocks, but the device's internal bookkeeping still needs serialization.  This adapter provides it
// at the device boundary so the inner models stay simple.
//
// Disk I/O is off the commit hot path in write-back mode (only evictions,
// cleaning and misses reach the disk), so the single mutex is not a
// scalability concern; shards never hold another shard's lock while calling
// in here, so lock ordering stays acyclic (shard mutex → disk mutex).
#pragma once

#include <mutex>

#include "blockdev/block_device.h"

namespace tinca::blockdev {

/// Thread-safe wrapper: serializes every read/write on one mutex.
class LockedBlockDevice final : public BlockDevice {
 public:
  explicit LockedBlockDevice(BlockDevice& inner) : inner_(inner) {}

  [[nodiscard]] std::uint64_t block_count() const override {
    return inner_.block_count();
  }

  IoStatus read(std::uint64_t blkno, std::span<std::byte> dst) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.read(blkno, dst);
  }

  IoStatus write(std::uint64_t blkno, std::span<const std::byte> src) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_.write(blkno, src);
  }

  /// Counters of the wrapped device.  Only stable once concurrent users have
  /// quiesced (joined); the reference aliases the inner device's live stats.
  [[nodiscard]] const BlockStats& stats() const override {
    return inner_.stats();
  }

 private:
  BlockDevice& inner_;
  std::mutex mu_;
};

}  // namespace tinca::blockdev
