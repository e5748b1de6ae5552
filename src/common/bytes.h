// Little-endian field codecs for persistent structures.
//
// Persistent layouts (cache entries, journal blocks, MiniFs metadata) are
// defined byte-by-byte rather than by struct overlay, so the on-"media"
// format is independent of host padding/alignment and the 7-byte disk block
// number field of a Tinca cache entry (paper Fig 5) can be expressed exactly.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/expect.h"

namespace tinca {

/// Write `value`'s low `nbytes` bytes little-endian at `dst`.
inline void store_le(std::byte* dst, std::uint64_t value, std::size_t nbytes) {
  TINCA_EXPECT(nbytes <= 8, "store_le width");
  for (std::size_t i = 0; i < nbytes; ++i) {
    dst[i] = static_cast<std::byte>(value & 0xFF);
    value >>= 8;
  }
}

/// Read `nbytes` little-endian bytes at `src` into a uint64.
inline std::uint64_t load_le(const std::byte* src, std::size_t nbytes) {
  TINCA_EXPECT(nbytes <= 8, "load_le width");
  std::uint64_t value = 0;
  for (std::size_t i = nbytes; i-- > 0;) {
    value = (value << 8) | static_cast<std::uint64_t>(src[i]);
  }
  return value;
}

/// Fill a span with a repeating byte pattern derived from `seed` — used by
/// tests and workload generators to create verifiable block payloads.
inline void fill_pattern(std::span<std::byte> dst, std::uint64_t seed) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1;
  std::size_t i = 0;
  while (i + 8 <= dst.size()) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(dst.data() + i, &x, 8);
    i += 8;
  }
  for (; i < dst.size(); ++i) dst[i] = static_cast<std::byte>(x >> ((i % 8) * 8));
}

// Media byte order: every codec here writes little-endian, and
// NvmDevice::atomic_store8 / load8 and fingerprint() move 8 B words with
// memcpy, which is the same thing only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "persistent layouts assume a little-endian host");

namespace detail {

constexpr std::uint64_t kXxhPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kXxhPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kXxhPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kXxhPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kXxhPrime5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t xxh_read64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);  // one load; a byte loop is not folded into one
  return v;
}

inline std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kXxhPrime2;
  return std::rotl(acc, 31) * kXxhPrime1;
}

inline std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t v) {
  h ^= xxh_round(0, v);
  return h * kXxhPrime1 + kXxhPrime4;
}

}  // namespace detail

/// XXH64 (seed 0) over a span: the block fingerprint sealed into Tinca ring
/// block records, and the checksum of every NvLog record, segment header,
/// superblock and watermark record.  Four independent lanes consume 32 B
/// per step, so 4 KB costs a few hundred ns instead of one dependent
/// multiply per byte.  Byte-exact with the reference XXH64.
inline std::uint64_t fingerprint(std::span<const std::byte> data) {
  using namespace detail;
  const std::byte* p = data.data();
  const std::byte* const end = p + data.size();
  std::uint64_t h = kXxhPrime5;
  if (data.size() >= 32) {
    std::uint64_t v1 = kXxhPrime1 + kXxhPrime2;
    std::uint64_t v2 = kXxhPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kXxhPrime1;
    do {
      v1 = xxh_round(v1, xxh_read64(p));
      v2 = xxh_round(v2, xxh_read64(p + 8));
      v3 = xxh_round(v3, xxh_read64(p + 16));
      v4 = xxh_round(v4, xxh_read64(p + 24));
      p += 32;
    } while (end - p >= 32);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge(h, v1);
    h = xxh_merge(h, v2);
    h = xxh_merge(h, v3);
    h = xxh_merge(h, v4);
  }
  h += data.size();
  for (; end - p >= 8; p += 8) {
    h ^= xxh_round(0, xxh_read64(p));
    h = std::rotl(h, 27) * kXxhPrime1 + kXxhPrime4;
  }
  if (end - p >= 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, p, 4);
    h ^= static_cast<std::uint64_t>(w) * kXxhPrime1;
    h = std::rotl(h, 23) * kXxhPrime2 + kXxhPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint64_t>(*p) * kXxhPrime5;
    h = std::rotl(h, 11) * kXxhPrime1;
  }
  h ^= h >> 33;
  h *= kXxhPrime2;
  h ^= h >> 29;
  h *= kXxhPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace tinca
