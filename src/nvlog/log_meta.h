// On-media codec for the NvLog tier's metadata region (DESIGN.md §16).
//
// The first 4 KB of a formatted log hold its identity and durable drain
// state:
//
//   [0, 64)              superblock — geometry + format nonce, checksummed
//   [64, 64 + slots·64)  watermark record ring — one 64 B record per slot
//   [ring end, 4096)     unused (segments start at kLogMetaBytes)
//
// Before PR 10 the drain watermarks (`oldest_live_seq`, `drained_upto_lsn`)
// lived on ONE fixed line at offset 64, rewritten on every drained-prefix
// advance — after the data-area wear fix that line was the hottest NVM line
// left, and a serialization point on every drain.  The ring retires it:
// each advance writes a fresh 64 B record into slot `epoch % slots`, so the
// write load spreads over the whole ring and recovery *adjudicates* instead
// of trusting one line — it scans every slot and mounts the record with the
// highest valid epoch.
//
// Two corruption defenses make the adjudication sound:
//   - Each record carries a checksum over all its fields (epoch included),
//     so a torn record fails closed and an *older* record wins.  Mounting a
//     stale watermark is always safe: the tier merely re-drains segments it
//     had already applied (drains are idempotent — last-writer-wins blocks).
//   - The checksum is salted with the superblock's `format_nonce`, which
//     increments on every reformat of the same device.  Records from a
//     previous life of the log therefore never validate, even when the
//     geometry (and thus the slot positions) is identical.
//
// This header is shared by the tier itself (nvlog_tier.cc) and by the
// fsck-style `core::verify_nvlog_media` walk (src/tinca/verify.cc); it is
// header-only on purpose so the core verifier needs no link dependency on
// the nvlog library.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.h"

namespace tinca::nvlog {

constexpr std::uint64_t kLogSuperMagic = 0x4E564C4F47535550ULL;  // "NVLOGSUP"
constexpr std::uint64_t kLogWmMagic = 0x4E564C4F47574D4BULL;     // "NVLOGWMK"
// v2: watermark record ring.  v3: every checksum is XXH64 (was FNV-1a), so a
// v2 log is refused at mount rather than read as all-torn.
constexpr std::uint64_t kLogVersion = 3;

/// Segments start here; everything below is the metadata region.
constexpr std::uint64_t kLogMetaBytes = 4096;

constexpr std::uint64_t kLogSuperBytes = 64;
constexpr std::uint64_t kWatermarkBase = 64;
constexpr std::uint64_t kWatermarkSlotBytes = 64;
/// The ring must fit between the superblock and the first segment.
constexpr std::uint32_t kMaxWatermarkSlots =
    static_cast<std::uint32_t>((kLogMetaBytes - kWatermarkBase) /
                               kWatermarkSlotBytes);  // 63

// Superblock fields (byte offsets within the 64 B line).
constexpr std::size_t kSupMagicAt = 0;
constexpr std::size_t kSupVersionAt = 8;
constexpr std::size_t kSupSegBytesAt = 16;
constexpr std::size_t kSupNumSegsAt = 24;
constexpr std::size_t kSupWmSlotsAt = 32;
constexpr std::size_t kSupNonceAt = 40;   // format generation (salts the ring)
constexpr std::size_t kSupCrcAt = 48;     // fingerprint of bytes [0, 48)

// Watermark record fields (byte offsets within the 64 B record).
constexpr std::size_t kWmMagicAt = 0;
constexpr std::size_t kWmEpochAt = 8;     // monotone advance counter
constexpr std::size_t kWmOldestAt = 16;   // oldest_live_seq
constexpr std::size_t kWmDrainedAt = 24;  // drained_upto_lsn
constexpr std::size_t kWmSaltAt = 32;     // copy of the superblock nonce
constexpr std::size_t kWmCrcAt = 40;      // fingerprint of bytes [0, 40)

struct LogSuperblock {
  std::uint64_t segment_bytes = 0;
  std::uint64_t num_segments = 0;
  std::uint64_t watermark_slots = 0;
  std::uint64_t format_nonce = 0;
};

inline void encode_superblock(std::span<std::byte> dst,
                              const LogSuperblock& sb) {
  store_le(dst.data() + kSupMagicAt, kLogSuperMagic, 8);
  store_le(dst.data() + kSupVersionAt, kLogVersion, 8);
  store_le(dst.data() + kSupSegBytesAt, sb.segment_bytes, 8);
  store_le(dst.data() + kSupNumSegsAt, sb.num_segments, 8);
  store_le(dst.data() + kSupWmSlotsAt, sb.watermark_slots, 8);
  store_le(dst.data() + kSupNonceAt, sb.format_nonce, 8);
  store_le(dst.data() + kSupCrcAt,
           fingerprint(std::span<const std::byte>(dst.data(), kSupCrcAt)), 8);
}

[[nodiscard]] inline bool decode_superblock(std::span<const std::byte> src,
                                            LogSuperblock* out) {
  if (load_le(src.data() + kSupMagicAt, 8) != kLogSuperMagic) return false;
  if (load_le(src.data() + kSupCrcAt, 8) !=
      fingerprint(src.subspan(0, kSupCrcAt)))
    return false;
  if (load_le(src.data() + kSupVersionAt, 8) != kLogVersion) return false;
  out->segment_bytes = load_le(src.data() + kSupSegBytesAt, 8);
  out->num_segments = load_le(src.data() + kSupNumSegsAt, 8);
  out->watermark_slots = load_le(src.data() + kSupWmSlotsAt, 8);
  out->format_nonce = load_le(src.data() + kSupNonceAt, 8);
  return out->watermark_slots >= 1 &&
         out->watermark_slots <= kMaxWatermarkSlots;
}

struct WatermarkRecord {
  std::uint64_t epoch = 0;
  std::uint64_t oldest_live_seq = 0;
  std::uint64_t drained_upto_lsn = 0;
};

/// The slot an epoch's record lands in — successive advances rotate.
[[nodiscard]] inline std::uint64_t watermark_slot_of(std::uint64_t epoch,
                                                     std::uint64_t slots) {
  return epoch % slots;
}

[[nodiscard]] inline std::uint64_t watermark_slot_off(std::uint64_t slot) {
  return kWatermarkBase + slot * kWatermarkSlotBytes;
}

inline void encode_watermark(std::span<std::byte> dst,
                             const WatermarkRecord& rec, std::uint64_t salt) {
  store_le(dst.data() + kWmMagicAt, kLogWmMagic, 8);
  store_le(dst.data() + kWmEpochAt, rec.epoch, 8);
  store_le(dst.data() + kWmOldestAt, rec.oldest_live_seq, 8);
  store_le(dst.data() + kWmDrainedAt, rec.drained_upto_lsn, 8);
  store_le(dst.data() + kWmSaltAt, salt, 8);
  store_le(dst.data() + kWmCrcAt,
           fingerprint(std::span<const std::byte>(dst.data(), kWmCrcAt)), 8);
}

[[nodiscard]] inline bool decode_watermark(std::span<const std::byte> src,
                                           std::uint64_t salt,
                                           WatermarkRecord* out) {
  if (load_le(src.data() + kWmMagicAt, 8) != kLogWmMagic) return false;
  if (load_le(src.data() + kWmCrcAt, 8) !=
      fingerprint(src.subspan(0, kWmCrcAt)))
    return false;
  if (load_le(src.data() + kWmSaltAt, 8) != salt) return false;
  out->epoch = load_le(src.data() + kWmEpochAt, 8);
  out->oldest_live_seq = load_le(src.data() + kWmOldestAt, 8);
  out->drained_upto_lsn = load_le(src.data() + kWmDrainedAt, 8);
  return true;
}

}  // namespace tinca::nvlog
