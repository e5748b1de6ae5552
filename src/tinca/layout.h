// Tinca's NVM space layout (paper Fig 5, extended for group commit and
// multi-stream commit — DESIGN.md §14/§15).
//
//   [ superblock | per-stream rings | cache entry table | data blocks ... ]
//
// The superblock keeps the format identity, a monotonic **format epoch**
// (bumped at every format *and* every recovery so ring records from an
// earlier life can never validate again), one lazily-persisted **commit
// hint** per stream — a monotonic ring index below which everything on that
// stream is known fully durable and role-switched — and the **commit
// directory** (DESIGN.md §15): 32 cache-line-sized slots holding atomic
// cross-stream commit records, each naming the set of streams a multi-shard
// transaction spans.  Format v3 splits v2's single record ring into
// `num_streams` equal per-stream rings over the ONE shared entry table:
// every stream appends 32 B self-validating records (block records + batch
// commit records) to its own ring with its own hint line, so concurrent
// commit streams share no metadata cache line.  The commit point of a batch
// is still the single fence of its flush pass.  The entry table holds one
// 16 B entry per data block; the rest of the device is 4 KB cached data
// blocks.  Format v4 keeps v3's layout; only the block fingerprint sealed in
// ring block records changed (FNV-1a to XXH64, common/bytes.h), so a v3
// image is refused at mount instead of having its committed batches fail
// the new check and be revoked as torn.
#pragma once

#include <cstdint>

#include "common/expect.h"

namespace tinca::core {

/// Cached block size (§4.2: the data area is managed in 4 KB units).
constexpr std::uint64_t kBlockSize = 4096;

/// Computed byte offsets for every region of the NVM device.
struct Layout {
  static constexpr std::uint64_t kMagic = 0x54494E43'41434845ULL;  // "TINCACHE"
  static constexpr std::uint64_t kVersion = 4;

  /// Bytes per ring record (one block record or one batch commit record).
  static constexpr std::uint64_t kRingSlotBytes = 32;

  /// Upper bound on commit streams per cache: the per-stream hint lines must
  /// fit between offset 64 and the commit directory at 2048.
  static constexpr std::uint32_t kMaxStreams = 16;

  // Superblock field offsets (each identity field is 8 B; every commit hint
  // gets a private cache line so flushing one never drags another along).
  static constexpr std::uint64_t kMagicOff = 0;
  static constexpr std::uint64_t kVersionOff = 8;
  static constexpr std::uint64_t kNumBlocksOff = 16;
  static constexpr std::uint64_t kRingCapacityOff = 24;
  static constexpr std::uint64_t kFormatEpochOff = 32;
  static constexpr std::uint64_t kNumStreamsOff = 40;
  /// Stream 0's commit hint (v2's single hint field kept this offset).
  static constexpr std::uint64_t kCommitHintOff = 64;
  static constexpr std::uint64_t kSuperblockBytes = kBlockSize;

  /// Commit directory (DESIGN.md §15): 32 slots of one cache line each in
  /// the superblock's second half.  A slot holds one atomic cross-stream
  /// commit record; a 64 B store never spans two lines, so a crash keeps
  /// either the whole old record or the whole new one.
  static constexpr std::uint64_t kDirOff = 2048;
  static constexpr std::uint64_t kDirSlots = 32;
  static constexpr std::uint64_t kDirSlotBytes = 64;

  /// Byte offset of stream `s`'s commit-hint line.
  static constexpr std::uint64_t stream_hint_off(std::uint32_t s) {
    return kCommitHintOff + static_cast<std::uint64_t>(s) * 64;
  }

  /// Byte offset of commit-directory slot `i`.
  static constexpr std::uint64_t dir_slot_off(std::uint64_t i) {
    return kDirOff + i * kDirSlotBytes;
  }

  std::uint64_t ring_off = 0;        ///< byte offset of the ring region
  std::uint64_t ring_capacity = 0;   ///< TOTAL 32 B ring records, all streams
  std::uint32_t num_streams = 1;     ///< per-stream rings over the ring region
  std::uint64_t stream_capacity = 0; ///< records per stream ring
  std::uint64_t entry_table_off = 0; ///< byte offset of the entry table
  std::uint64_t num_blocks = 0;      ///< data blocks == entry slots
  std::uint64_t data_off = 0;        ///< byte offset of the data area
  std::uint64_t total_bytes = 0;     ///< device size this layout was built for

  /// Compute a layout for a device of `device_bytes` with a ring region of
  /// `ring_bytes` (both multiples of 4 KB) split into `num_streams` equal
  /// per-stream rings.  Requires room for at least 8 data blocks.
  static Layout compute(std::uint64_t device_bytes, std::uint64_t ring_bytes,
                        std::uint32_t num_streams = 1) {
    TINCA_EXPECT(device_bytes % kBlockSize == 0, "device size not 4 KB aligned");
    TINCA_EXPECT(ring_bytes % kBlockSize == 0 && ring_bytes > 0,
                 "ring size not 4 KB aligned");
    TINCA_EXPECT(num_streams >= 1 && num_streams <= kMaxStreams,
                 "stream count out of range");
    Layout l;
    l.total_bytes = device_bytes;
    l.ring_off = kSuperblockBytes;
    l.ring_capacity = ring_bytes / kRingSlotBytes;
    l.num_streams = num_streams;
    l.stream_capacity = l.ring_capacity / num_streams;
    TINCA_EXPECT(l.stream_capacity >= 4,
                 "ring too small for this many streams");
    l.entry_table_off = l.ring_off + ring_bytes;

    const std::uint64_t remaining = device_bytes - l.entry_table_off;
    // Each data block costs 4 KB of data + 16 B of entry (+ table padding).
    std::uint64_t n = remaining / (kBlockSize + 16);
    // Shrink until the 4 KB-aligned entry table plus data fits.
    while (n > 0) {
      const std::uint64_t table_bytes = round_up(n * 16, kBlockSize);
      if (l.entry_table_off + table_bytes + n * kBlockSize <= device_bytes) break;
      --n;
    }
    TINCA_EXPECT(n >= 8, "NVM device too small for a usable cache");
    l.num_blocks = n;
    l.data_off = l.entry_table_off + round_up(n * 16, kBlockSize);
    return l;
  }

  /// Byte offset of entry slot `i`.
  [[nodiscard]] std::uint64_t entry_off(std::uint64_t i) const {
    TINCA_EXPECT(i < num_blocks, "entry slot out of range");
    return entry_table_off + i * 16;
  }

  /// Byte offset of data block `i`.
  [[nodiscard]] std::uint64_t data_block_off(std::uint64_t i) const {
    TINCA_EXPECT(i < num_blocks, "data block out of range");
    return data_off + i * kBlockSize;
  }

  /// Byte offset of stream `s`'s ring record for (monotonic) index `idx`.
  [[nodiscard]] std::uint64_t ring_slot_off(std::uint32_t stream,
                                            std::uint64_t idx) const {
    TINCA_EXPECT(stream < num_streams, "stream out of range");
    return ring_off + (static_cast<std::uint64_t>(stream) * stream_capacity +
                       idx % stream_capacity) *
                          kRingSlotBytes;
  }

  /// Stream-0 shorthand (the single-stream common case).
  [[nodiscard]] std::uint64_t ring_slot_off(std::uint64_t idx) const {
    return ring_slot_off(0, idx);
  }

 private:
  static std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
    return (v + align - 1) / align * align;
  }
};

}  // namespace tinca::core
