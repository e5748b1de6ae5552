// Byte-addressable NVM emulation with cache-line-granular persistence.
//
// The paper's prototype puts NVDIMM on the memory bus and reaches it with
// regular stores followed by clflush + sfence (§2.1).  The crash-consistency
// hazard it defends against is precisely: *a store is not durable until its
// cache line has been flushed, and unflushed lines may reach the media in any
// order or not at all*.  NvmDevice reproduces those semantics:
//
//   - `store()` writes into a volatile image and marks the covered 64 B
//     lines dirty (they live in the simulated CPU cache);
//   - `clflush()` copies dirty lines to the persistent image, charging the
//     NVM technology's write latency per line (Table 1 / §5.1 delays);
//   - `crash()` keeps each still-dirty line with an independent coin flip —
//     modelling arbitrary writeback order at the moment of power loss — and
//     then resets the volatile image to the persistent one;
//   - `atomic_store8` / `atomic_store16` model the 8 B native atomic store
//     and LOCK cmpxchg16b (§2.1): they require natural alignment, which also
//     guarantees the value never straddles a line, so it cannot tear.
//
// A device can also be opened as a **sub-range view** (see the view
// constructor): the view shares the root device's media images — so a crash
// of the root is a crash of every view — but carries its own SimClock and
// operation counters.  Views over disjoint ranges may be driven from
// different threads concurrently; that is what the sharded front-end
// (src/shard/) builds on.  The only cross-view shared mutable state is the
// dirty-line count (atomic) and the per-line dirty bits / wear counters,
// which disjoint views never alias.  Each store()/clflush() call updates the
// count once, with the number of lines it dirtied or cleaned.  The dirty
// map keeps one byte per line on purpose: views are only line-aligned, so
// two views driven from different threads can own lines of the same 64-line
// word (e.g. the commit-directory view and shard 0's stream-hint lines), and
// a packed bitmap would need an atomic read-modify-write per word.
//
// The images (and the per-line maps) sit on 2 MB pages (common/media_alloc.h),
// as the paper's NVDIMM sits behind the kernel's large-page direct map: every
// store, flush and write-back touches them at random, and on 4 KB pages those
// host copies miss the TLB.  Page size changes no modeled number.
//
// Latency is charged to a SimClock (see common/sim_clock.h); operation counts
// are accumulated in NvmStats, which the benches report as the paper's
// "normalized quantity of clflush" metric.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/latency.h"
#include "common/media_alloc.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "nvm/crash.h"

namespace tinca::nvm {

/// Operation counters for one NVM device (or one view of it).
struct NvmStats {
  std::uint64_t stores = 0;          ///< store() calls
  std::uint64_t bytes_stored = 0;    ///< bytes passed to store()/atomics
  std::uint64_t clflush = 0;         ///< cache-line flushes issued
  std::uint64_t sfence = 0;          ///< fences issued
  std::uint64_t lines_loaded = 0;    ///< lines charged on load()
  std::uint64_t atomic8 = 0;         ///< 8 B atomic stores
  std::uint64_t atomic16 = 0;        ///< 16 B atomic stores
  std::uint64_t crashes = 0;         ///< simulated power failures

  /// Difference of two snapshots (for per-phase accounting).
  NvmStats operator-(const NvmStats& rhs) const {
    NvmStats d;
    d.stores = stores - rhs.stores;
    d.bytes_stored = bytes_stored - rhs.bytes_stored;
    d.clflush = clflush - rhs.clflush;
    d.sfence = sfence - rhs.sfence;
    d.lines_loaded = lines_loaded - rhs.lines_loaded;
    d.atomic8 = atomic8 - rhs.atomic8;
    d.atomic16 = atomic16 - rhs.atomic16;
    d.crashes = crashes - rhs.crashes;
    return d;
  }

  /// Sum of two snapshots (aggregating per-shard views).
  NvmStats operator+(const NvmStats& rhs) const {
    NvmStats s;
    s.stores = stores + rhs.stores;
    s.bytes_stored = bytes_stored + rhs.bytes_stored;
    s.clflush = clflush + rhs.clflush;
    s.sfence = sfence + rhs.sfence;
    s.lines_loaded = lines_loaded + rhs.lines_loaded;
    s.atomic8 = atomic8 + rhs.atomic8;
    s.atomic16 = atomic16 + rhs.atomic16;
    s.crashes = crashes + rhs.crashes;
    return s;
  }
};

/// Emulated NVM DIMM, or a sub-range view of one.
class NvmDevice {
  CrashInjector injector_storage_;  ///< backing for `injector` (root devices);
                                    ///< declared first so the public reference
                                    ///< below binds to constructed storage

 public:
  static constexpr std::size_t kLineSize = 64;

  /// Root device; `size` must be a multiple of the cache-line size.
  NvmDevice(std::size_t size, NvmProfile profile, sim::SimClock& clock);

  /// Sub-range view of `parent` covering `[base, base + bytes)`.  The view
  /// shares the parent's media (stores/flushes/crashes are visible both
  /// ways) and its crash injector, but charges latency to `clock` and keeps
  /// its own operation counters.  `base` and `bytes` must be line-aligned.
  NvmDevice(NvmDevice& parent, std::uint64_t base, std::size_t bytes,
            sim::SimClock& clock);

  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  /// Device (or view) capacity in bytes.
  [[nodiscard]] std::size_t size() const { return span_; }

  /// Whether this is a sub-range view rather than a root device.
  [[nodiscard]] bool is_view() const { return root_ != this; }

  /// Byte offset of this view within the root device (0 for a root).
  [[nodiscard]] std::uint64_t base() const { return base_; }

  /// Regular store: visible immediately, durable only after clflush+sfence.
  void store(std::uint64_t off, std::span<const std::byte> src);

  /// Load bytes (sees the latest stored values, flushed or not).
  void load(std::uint64_t off, std::span<std::byte> dst) const;

  /// The CPU-visible bytes of [off, off+len), flushed or not, without a
  /// copy.  Range-checked and charged exactly like load() of `len` bytes.
  /// The span stays valid and unchanged until the next store to the range
  /// (or a crash of the root device); write-backs hand it straight to the
  /// disk instead of bouncing through a buffer.
  [[nodiscard]] std::span<const std::byte> read_view(std::uint64_t off,
                                                     std::size_t len) const;

  /// Load without charging read latency — for DRAM-side bookkeeping reads
  /// (e.g. recovery-time full scans are charged; LRU probes are not).
  void load_nocharge(std::uint64_t off, std::span<std::byte> dst) const;

  /// Flush every cache line covering [off, off+len) to the media.
  void clflush(std::uint64_t off, std::size_t len);

  /// Store fence.
  void sfence();

  /// Convenience: clflush + sfence over a range.
  void persist(std::uint64_t off, std::size_t len) {
    clflush(off, len);
    sfence();
  }

  /// 8 B atomic store; `off` must be 8-aligned.
  void atomic_store8(std::uint64_t off, std::uint64_t value);

  /// 16 B atomic store (models LOCK cmpxchg16b); `off` must be 16-aligned.
  void atomic_store16(std::uint64_t off, std::span<const std::byte, 16> value);

  /// 8 B load; `off` must be 8-aligned.  Charged as one line read.
  [[nodiscard]] std::uint64_t load8(std::uint64_t off) const;

  /// Simulated power failure: each dirty (unflushed) line independently
  /// survives with probability `survive_prob` (modelling arbitrary hardware
  /// writeback order), all other dirty lines revert to their last flushed
  /// contents, and the CPU cache empties.  Root device only — power loss
  /// does not respect partition boundaries.
  void crash(Rng& rng, double survive_prob = 0.5);

  /// Power failure in which *no* unflushed line survives (worst case).
  void crash_discard_all();

  /// Number of currently dirty (unflushed) lines on the whole root device —
  /// tests assert on this to prove the implementation flushed everything it
  /// claims to have.
  [[nodiscard]] std::size_t dirty_lines() const {
    return root_->dirty_count_.load(std::memory_order_relaxed);
  }

  /// Wear statistics: media writes per cache line.  PCM/ReRAM endure only
  /// 10^6–10^8 writes per cell (Table 1), which is why the paper counts
  /// write amplification as a *lifetime* problem, not just a speed problem.
  struct WearReport {
    std::uint64_t total_line_writes = 0;  ///< media line writes overall
    std::uint64_t max_line_writes = 0;    ///< hottest line
    double mean_line_writes = 0.0;        ///< average over all lines
    std::uint64_t lines_touched = 0;      ///< lines ever written
  };

  /// Compute the wear report over the whole root device (O(lines)).
  [[nodiscard]] WearReport wear() const;

  /// Wear report restricted to `[off, off + len)` of this device/view —
  /// the hook wear-aware allocators rank candidate regions with.  `off` and
  /// `len` must be line-aligned and inside the view.
  [[nodiscard]] WearReport wear(std::uint64_t off, std::size_t len) const;

  /// Operation counters of this device/view.
  [[nodiscard]] const NvmStats& stats() const { return stats_; }

  /// Technology profile in force.
  [[nodiscard]] const NvmProfile& profile() const { return profile_; }

  /// Virtual clock the device charges to.
  [[nodiscard]] sim::SimClock& clock() { return clock_; }

  /// Crash injector consulted by *clients* at their crash points; views
  /// alias the root's injector so the whole stack above one physical device
  /// shares one sequence of crash points.
  CrashInjector& injector;

 private:
  /// Mark lines [first, last] dirty; one dirty-count update per call.
  void mark_dirty(std::size_t first, std::size_t last);

  NvmDevice* root_;        ///< self for a root device
  std::uint64_t base_;     ///< offset of this view within the root
  std::size_t span_;       ///< bytes addressable through this handle
  NvmProfile profile_;
  sim::SimClock& clock_;
  MediaVector<std::byte> volatile_;    ///< CPU-visible image (root only)
  MediaVector<std::byte> persistent_;  ///< media image (root only)
  MediaVector<std::uint8_t> dirty_;    ///< per-line dirty bit (root only)
  MediaVector<std::uint32_t> line_writes_;  ///< media writes per line (root)
  std::atomic<std::size_t> dirty_count_ = 0;
  NvmStats stats_;
};

}  // namespace tinca::nvm
