// Lock-free snapshot reads: per-block version chains pinned by a commit
// epoch (single writer / concurrent readers — DESIGN.md §12).
//
// The paper's entry already holds a two-deep version history (prev/cur,
// §4.3); MvccTable extends that pair into a short immutable chain per disk
// block, kept entirely in DRAM next to the cache's other rebuildable
// bookkeeping (index, LRU, free monitors — §4.6).  The contract:
//
//   * ONE writer — the thread holding the shard mutex — performs every
//     mutation: version publication at commit, node retirement at eviction,
//     trimming and freeing during reclamation.  No CAS loops anywhere.
//   * ANY number of readers traverse concurrently with acquire loads only.
//     A reader pins a commit epoch (pin()) and resolves each block to the
//     newest version with epoch <= its pin; data blocks referenced by a
//     chain are immutable (COW never rewrites them) and are returned to the
//     free pool only when no live pin could still reach them.
//
// Epoch protocol.  `commit_epoch` starts at 1 and is bumped by the writer
// AFTER the per-shard Tail publication, so a version rec carrying epoch E+1
// becomes visible exactly when the transaction that wrote it is durable.
// Readers therefore observe committed-boundary snapshots by construction: a
// mid-commit transaction's recs exist but carry a future epoch.
//
// Pin registry.  A fixed array of atomic epoch slots (0 = free).  The pin
// handshake is the standard seq_cst epoch-based-reclamation dance:
//
//     do { e = epoch.load(); slot.store(e); } while (epoch.load() != e);
//
// Sequential consistency gives the reclaimer a clean either/or: either the
// reclaimer's registry scan sees the pin (and keeps everything epoch e may
// need), or the reader's re-load sees a newer epoch and retries with it.  A
// full registry fails the pin; callers fall back to the locked read path.
// Scans cover only the slots below `pin_hwm_`, one past the highest slot
// ever claimed: a reader raises it after its claim and before its
// handshake, so a scan that stops below the reader's slot read the bound
// before the reader loaded any epoch — the reader pins at or above that
// scan's epoch, exactly as if it had claimed the slot after the scan.
//
// Reclamation (single writer, piggybacked on the cleaner quantum and on
// commits) trims a chain suffix v_i, v_{i-1}, ... when min_pin >= e_{i+1}:
// every live pin then stops its walk at v_{i+1} or newer and never loads the
// trimmed recs, so their memory and NVM blocks are reusable immediately.
// Whole chains of evicted blocks are retired in two phases: unlink from the
// bucket once min_pin >= the head's epoch (disk already holds the head's
// data, so late readers fall back to disk and read the same bytes), then
// free once min_pin has advanced *past* the unlink epoch or the registry has
// drained — any reader that could have found the node before the unlink has
// unpinned by then.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/expect.h"

namespace tinca::core {

/// Aggregated MVCC counters.  Readers bump these without the shard lock, so
/// everything is a relaxed atomic; register_metrics exports them as gauges.
struct MvccStats {
  std::atomic<std::uint64_t> snapshot_reads{0};     ///< resolved via a chain
  std::atomic<std::uint64_t> disk_fallbacks{0};     ///< no version <= pin
  std::atomic<std::uint64_t> lock_fallbacks{0};     ///< pin registry full
  std::atomic<std::uint64_t> pin_retries{0};        ///< epoch moved mid-pin
  std::atomic<std::uint64_t> versions_published{0};
  std::atomic<std::uint64_t> versions_trimmed{0};
  std::atomic<std::uint64_t> nodes_retired{0};      ///< chains of evicted blocks
  std::atomic<std::uint64_t> nodes_freed{0};
  std::atomic<std::uint64_t> recovery_seeded{0};    ///< chains rebuilt at mount
};

/// One committed version of one disk block.  Immutable after publication
/// except `older`, which only ever steps toward null (suffix trimming).
struct VersionRec {
  std::uint64_t epoch = 0;       ///< commit epoch this version became visible
  std::uint32_t nvm_block = 0;   ///< NVM data block holding the bytes
  std::atomic<VersionRec*> older{nullptr};
};

/// Per-disk-block chain head, hanging off a hash bucket.  `chain` is newest
/// first (descending epoch).  `next` links the bucket's node list.  The two
/// plain bools are writer-side bookkeeping, never read concurrently.
struct BlockNode {
  std::uint64_t disk_blkno = 0;
  std::atomic<VersionRec*> chain{nullptr};
  std::atomic<BlockNode*> next{nullptr};
  bool in_multi = false;  ///< on the reclaimer's multi-version worklist
  bool retired = false;   ///< block evicted; chain frozen, awaiting reclaim
};

/// Snapshot handle returned by MvccTable::pin().
struct SnapshotPin {
  static constexpr std::uint32_t kNoSlot = 0xFFFF'FFFFu;
  std::uint32_t slot = kNoSlot;  ///< registry slot, kNoSlot = pin failed
  std::uint64_t epoch = 0;       ///< pinned commit epoch

  [[nodiscard]] bool valid() const { return slot != kNoSlot; }
};

/// The version-chain table for one TincaCache (one shard).
class MvccTable {
 public:
  /// `expected_blocks` sizes the bucket array (rounded up to a power of 2).
  explicit MvccTable(std::uint64_t expected_blocks) {
    std::uint64_t n = 16;
    while (n < expected_blocks * 2) n <<= 1;
    buckets_ = std::vector<std::atomic<BlockNode*>>(n);
    mask_ = n - 1;
  }

  ~MvccTable() {
    for (auto& head : buckets_) {
      BlockNode* node = head.load(std::memory_order_relaxed);
      while (node != nullptr) {
        BlockNode* next = node->next.load(std::memory_order_relaxed);
        destroy_node(node);
        node = next;
      }
    }
    // Retired nodes stay in their bucket until reclamation unlinks them —
    // the bucket walk above already freed those, so only unlinked ones are
    // left to us.
    for (const Retired& r : retired_)
      if (r.unlinked) destroy_node(r.node);
  }

  MvccTable(const MvccTable&) = delete;
  MvccTable& operator=(const MvccTable&) = delete;

  // --- Reader side (lock-free) ---------------------------------------------

  /// Current commit epoch (acquire).
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Pin the current epoch.  Lock-free; fails (slot == kNoSlot) only when
  /// every registry slot is taken — callers then use the locked read path.
  [[nodiscard]] SnapshotPin pin() {
    for (std::uint32_t s = 0; s < kPinSlots; ++s) {
      std::uint64_t expect = 0;
      if (!pins_[s].compare_exchange_strong(expect, kClaiming,
                                            std::memory_order_seq_cst))
        continue;
      // Slot claimed: cover it in reclaimer scans, then run the epoch
      // handshake (see file comment).
      std::uint32_t hwm = pin_hwm_.load(std::memory_order_seq_cst);
      while (hwm <= s &&
             !pin_hwm_.compare_exchange_weak(hwm, s + 1,
                                             std::memory_order_seq_cst)) {
      }
      std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
      for (;;) {
        pins_[s].store(e, std::memory_order_seq_cst);
        const std::uint64_t again = epoch_.load(std::memory_order_seq_cst);
        if (again == e) break;
        stats.pin_retries.fetch_add(1, std::memory_order_relaxed);
        e = again;
      }
      return SnapshotPin{s, e};
    }
    stats.lock_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return SnapshotPin{};
  }

  /// Release a pin obtained from pin().
  void unpin(const SnapshotPin& p) {
    if (!p.valid()) return;
    TINCA_EXPECT(p.slot < kPinSlots, "unpin of an out-of-range slot");
    pins_[p.slot].store(0, std::memory_order_seq_cst);
  }

  /// Resolve `disk_blkno` to the newest version with epoch <= `snap_epoch`,
  /// or nullptr (caller falls back to disk).  Caller must hold a pin whose
  /// epoch is >= snap_epoch for the whole resolve+copy window.
  ///
  /// A block evicted and later re-cached has TWO nodes in its bucket: the
  /// retired chain (old versions, kept for pinned readers) shadowed by the
  /// fresh one at the bucket head.  The best version across all of them
  /// wins, so old pins keep resolving through the retired chain.
  [[nodiscard]] const VersionRec* resolve(std::uint64_t disk_blkno,
                                          std::uint64_t snap_epoch) const {
    const VersionRec* best = nullptr;
    const BlockNode* node =
        buckets_[bucket_of(disk_blkno)].load(std::memory_order_acquire);
    for (; node != nullptr; node = node->next.load(std::memory_order_acquire)) {
      if (node->disk_blkno != disk_blkno) continue;
      const VersionRec* rec = node->chain.load(std::memory_order_acquire);
      while (rec != nullptr && rec->epoch > snap_epoch)
        rec = rec->older.load(std::memory_order_acquire);
      if (rec != nullptr && (best == nullptr || rec->epoch > best->epoch))
        best = rec;
    }
    return best;
  }

  /// Bucket lookup (acquire walk); safe concurrently with writer mutation.
  [[nodiscard]] const BlockNode* find(std::uint64_t disk_blkno) const {
    const BlockNode* node =
        buckets_[bucket_of(disk_blkno)].load(std::memory_order_acquire);
    while (node != nullptr && node->disk_blkno != disk_blkno)
      node = node->next.load(std::memory_order_acquire);
    return node;
  }

  // --- Writer side (caller holds the shard lock) ---------------------------

  /// Publish `nvm_block` as the version of `disk_blkno` for epoch
  /// `epoch() + 1`.  Called after the ring Tail publication, before bump().
  void publish(std::uint64_t disk_blkno, std::uint32_t nvm_block) {
    publish_at(disk_blkno, nvm_block,
               epoch_.load(std::memory_order_relaxed) + 1);
  }

  /// Publish a *baseline* version: the block's committed bytes as they
  /// stood when the cache (re-)filled them from disk (clean fill or
  /// recovery survivor).  Normally published at epoch 1, which is <= every
  /// possible pin, so any reader resolves to it rather than falling through
  /// to a disk whose content a concurrent cleaning may be advancing.
  ///
  /// When retired chains for the block still hang in the bucket (evicted
  /// while a pinned reader kept them resolvable), the fill bytes are
  /// exactly the newest retired head's bytes — its eviction writeback put
  /// them on disk, and an uncached block's disk content never advances — so
  /// the baseline is published at that head's epoch instead.  An epoch-1
  /// rec on the fresh node would tie with the retired chain's own baseline
  /// and capture old pins with post-pin bytes (snapshot-isolation
  /// violation).  Must only be called when the block has no live chain.
  void publish_baseline(std::uint64_t disk_blkno, std::uint32_t nvm_block) {
    TINCA_EXPECT(find_mutable(disk_blkno) == nullptr,
                 "baseline publish over a live chain");
    std::uint64_t at = 1;
    for (const BlockNode* node =
             buckets_[bucket_of(disk_blkno)].load(std::memory_order_relaxed);
         node != nullptr; node = node->next.load(std::memory_order_relaxed)) {
      if (node->disk_blkno != disk_blkno) continue;
      const VersionRec* head = node->chain.load(std::memory_order_relaxed);
      if (head != nullptr && head->epoch > at) at = head->epoch;
    }
    publish_at(disk_blkno, nvm_block, at);
  }

  /// Make every version published since the last bump visible to new pins.
  /// Called once per committed transaction, after its Tail publication.
  void bump() { epoch_.fetch_add(1, std::memory_order_seq_cst); }

  /// The evicted block's chain stays resolvable (pinned readers may still
  /// need an old version); reclamation unlinks and frees it once no pin can
  /// reach it.  No-op when the block has no chain.
  void retire(std::uint64_t disk_blkno) {
    BlockNode* node = find_mutable(disk_blkno);
    if (node == nullptr) return;
    node->retired = true;
    if (node->in_multi) {
      // The retired pass owns it now; drop it from the multi worklist.
      node->in_multi = false;
      multi_nodes_.erase(
          std::find(multi_nodes_.begin(), multi_nodes_.end(), node));
    }
    retired_.push_back(Retired{node, /*unlinked=*/false, /*unlink_epoch=*/0});
    stats.nodes_retired.fetch_add(1, std::memory_order_relaxed);
  }

  /// Whether `disk_blkno` currently has a live (non-retired) chain whose
  /// newest version is `nvm_block` — the ownership test the cache runs
  /// before returning an NVM block to the free pool.
  [[nodiscard]] bool owns(std::uint64_t disk_blkno,
                          std::uint32_t nvm_block) const {
    const BlockNode* node = find(disk_blkno);
    if (node == nullptr) return false;
    const VersionRec* rec = node->chain.load(std::memory_order_relaxed);
    while (rec != nullptr) {
      if (rec->nvm_block == nvm_block) return true;
      rec = rec->older.load(std::memory_order_relaxed);
    }
    return false;
  }

  /// Oldest version epoch still resolvable for `disk_blkno` across ALL of
  /// its chains — the live one and any retired generations still linked —
  /// or 0 when the block has no chain at all.  Writer side: the cache's
  /// disk-write defer rule — a pin below this epoch resolves to nothing in
  /// NVM and depends on the CURRENT disk content, so the disk must not be
  /// advanced while such a pin lives.  Retired chains count because they
  /// keep covering old pins in NVM: a re-fill baseline published at the
  /// retired head's epoch must not make the live chain alone look like it
  /// strands pins the retired generation still serves.
  [[nodiscard]] std::uint64_t oldest_live_epoch(
      std::uint64_t disk_blkno) const {
    std::uint64_t oldest = 0;
    const BlockNode* node =
        buckets_[bucket_of(disk_blkno)].load(std::memory_order_relaxed);
    for (; node != nullptr; node = node->next.load(std::memory_order_relaxed)) {
      if (node->disk_blkno != disk_blkno) continue;
      const VersionRec* rec = node->chain.load(std::memory_order_relaxed);
      while (rec != nullptr) {
        if (oldest == 0 || rec->epoch < oldest) oldest = rec->epoch;
        rec = rec->older.load(std::memory_order_relaxed);
      }
    }
    return oldest;
  }

  /// Minimum pinned epoch across the registry, or `epoch()` when no reader
  /// is pinned (the floor keeps reclamation monotone and never infinite).
  [[nodiscard]] std::uint64_t min_pin() const {
    std::uint64_t m = epoch_.load(std::memory_order_seq_cst);
    const std::uint32_t hwm = pin_hwm_.load(std::memory_order_seq_cst);
    for (std::uint32_t s = 0; s < hwm; ++s) {
      const std::uint64_t p = pins_[s].load(std::memory_order_seq_cst);
      if (p != 0 && p != kClaiming && p < m) m = p;
    }
    return m;
  }

  /// Whether any registry slot is currently pinned (or mid-claim).
  [[nodiscard]] bool any_pin() const {
    const std::uint32_t hwm = pin_hwm_.load(std::memory_order_seq_cst);
    for (std::uint32_t s = 0; s < hwm; ++s)
      if (pins_[s].load(std::memory_order_seq_cst) != 0) return true;
    return false;
  }

  /// One reclamation pass (writer only).  Trims chain suffixes no pin can
  /// reach and advances retired chains through unlink → free.  Freed NVM
  /// blocks are appended to `freed_nvm_blocks` for the cache to return to
  /// its free monitor.
  void reclaim(std::vector<std::uint32_t>& freed_nvm_blocks) {
    if (multi_nodes_.empty() && retired_.empty()) return;
    const std::uint64_t floor = min_pin();

    // Suffix-trim multi-version chains: rec v_i (with newer neighbour
    // v_{i+1}) is unreachable once min_pin >= e_{i+1}.
    for (std::size_t i = 0; i < multi_nodes_.size(); ) {
      BlockNode* node = multi_nodes_[i];
      VersionRec* keep = node->chain.load(std::memory_order_relaxed);
      trim_after(keep, floor, freed_nvm_blocks);
      if (keep == nullptr ||
          keep->older.load(std::memory_order_relaxed) == nullptr) {
        node->in_multi = false;  // single-version again: off the worklist
        multi_nodes_[i] = multi_nodes_.back();
        multi_nodes_.pop_back();
      } else {
        ++i;
      }
    }

    // Retired chains.  Unlink once every pin is >= the head's epoch — disk
    // then holds data every pinned and future reader accepts (the eviction
    // writeback put the head's bytes there, and the disk-write defer rule
    // keeps it from advancing while an older pin lives).  Free one epoch
    // after the unlink: a reader that found the node before the unlink
    // carries a pin <= unlink_epoch, so min_pin > unlink_epoch (or an empty
    // registry) proves nobody can still be traversing it.
    for (std::size_t i = 0; i < retired_.size(); ) {
      Retired& r = retired_[i];
      if (!r.unlinked) {
        VersionRec* head = r.node->chain.load(std::memory_order_relaxed);
        trim_after(head, floor, freed_nvm_blocks);
        if (head == nullptr || floor >= head->epoch) {
          unlink(r.node);
          r.unlinked = true;
          r.unlink_epoch = epoch_.load(std::memory_order_relaxed);
        }
      }
      // Unlink and free may happen in the SAME pass: with the registry
      // empty there is no traversal to wait out, and eviction on a full
      // cache depends on the block coming back in one reclaim call.
      if (r.unlinked && (!any_pin() || min_pin() > r.unlink_epoch)) {
        free_node(r.node, freed_nvm_blocks);
        retired_[i] = retired_.back();
        retired_.pop_back();
      } else {
        ++i;
      }
    }
  }

  [[nodiscard]] std::uint64_t live_versions() const { return live_versions_; }
  [[nodiscard]] std::uint64_t retired_nodes() const { return retired_.size(); }
  /// Registry scan bound: one past the highest slot any pin() has claimed.
  [[nodiscard]] std::uint32_t pin_scan_bound() const {
    return pin_hwm_.load(std::memory_order_seq_cst);
  }

  /// Mutable: reader-side paths (const) bump these relaxed counters.
  mutable MvccStats stats;

 private:
  static constexpr std::uint32_t kPinSlots = 256;
  /// Registry slot value while a reader is mid-handshake.  any_pin() counts
  /// it as pinned (conservative), but min_pin() deliberately skips it: the
  /// store/re-check handshake forces a claiming reader to retry after any
  /// epoch bump, so the pin it eventually lands on is >= every floor the
  /// reclaimer could have computed while the slot still read kClaiming —
  /// ignoring the slot can never let a trim strand that reader.
  static constexpr std::uint64_t kClaiming = ~std::uint64_t{0};

  struct Retired {
    BlockNode* node;
    bool unlinked;
    std::uint64_t unlink_epoch;
  };

  [[nodiscard]] std::size_t bucket_of(std::uint64_t disk_blkno) const {
    std::uint64_t x = disk_blkno + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x & mask_);
  }

  [[nodiscard]] BlockNode* find_mutable(std::uint64_t disk_blkno) {
    // A retired (evicted) chain still sits in its bucket until reclamation
    // unlinks it, but it must no longer be found by the *writer*: a re-cached
    // block gets a fresh node so the old chain's history stays frozen.
    BlockNode* node =
        buckets_[bucket_of(disk_blkno)].load(std::memory_order_relaxed);
    while (node != nullptr &&
           (node->disk_blkno != disk_blkno || node->retired))
      node = node->next.load(std::memory_order_relaxed);
    return node;
  }

  void publish_at(std::uint64_t disk_blkno, std::uint32_t nvm_block,
                  std::uint64_t at_epoch) {
    BlockNode* node = find_mutable(disk_blkno);
    if (node == nullptr) {
      node = new BlockNode;
      node->disk_blkno = disk_blkno;
      auto& head = buckets_[bucket_of(disk_blkno)];
      node->next.store(head.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      head.store(node, std::memory_order_release);  // now reader-reachable
    }
    auto* rec = new VersionRec;
    rec->epoch = at_epoch;
    rec->nvm_block = nvm_block;
    VersionRec* old_head = node->chain.load(std::memory_order_relaxed);
    TINCA_EXPECT(old_head == nullptr || at_epoch > old_head->epoch,
                 "version published out of epoch order");
    rec->older.store(old_head, std::memory_order_relaxed);
    node->chain.store(rec, std::memory_order_release);
    if (old_head != nullptr && !node->in_multi) {
      node->in_multi = true;
      multi_nodes_.push_back(node);
    }
    ++live_versions_;
    stats.versions_published.fetch_add(1, std::memory_order_relaxed);
  }

  /// Trim every rec older than `keep`'s successor chain that no pin with
  /// epoch >= floor can reach: walking from `keep`, cut at the first rec
  /// whose *newer* neighbour has epoch <= floor.
  void trim_after(VersionRec* keep, std::uint64_t floor,
                  std::vector<std::uint32_t>& freed) {
    VersionRec* newer = keep;
    while (newer != nullptr) {
      VersionRec* rec = newer->older.load(std::memory_order_relaxed);
      if (rec != nullptr && newer->epoch <= floor) {
        newer->older.store(nullptr, std::memory_order_release);
        while (rec != nullptr) {
          VersionRec* next = rec->older.load(std::memory_order_relaxed);
          freed.push_back(rec->nvm_block);
          delete rec;
          --live_versions_;
          stats.versions_trimmed.fetch_add(1, std::memory_order_relaxed);
          rec = next;
        }
        return;
      }
      newer = rec;
    }
  }

  /// Remove `node` from its bucket list (writer only; readers mid-walk keep
  /// a consistent view because the node itself is not freed yet).
  void unlink(BlockNode* node) {
    auto& head = buckets_[bucket_of(node->disk_blkno)];
    BlockNode* cur = head.load(std::memory_order_relaxed);
    if (cur == node) {
      head.store(node->next.load(std::memory_order_relaxed),
                 std::memory_order_release);
      return;
    }
    while (cur != nullptr) {
      BlockNode* next = cur->next.load(std::memory_order_relaxed);
      if (next == node) {
        cur->next.store(node->next.load(std::memory_order_relaxed),
                        std::memory_order_release);
        return;
      }
      cur = next;
    }
    TINCA_ENSURE(false, "retired MVCC node vanished from its bucket");
  }

  void free_node(BlockNode* node, std::vector<std::uint32_t>& freed) {
    VersionRec* rec = node->chain.load(std::memory_order_relaxed);
    while (rec != nullptr) {
      VersionRec* next = rec->older.load(std::memory_order_relaxed);
      freed.push_back(rec->nvm_block);
      delete rec;
      --live_versions_;
      rec = next;
    }
    delete node;
    stats.nodes_freed.fetch_add(1, std::memory_order_relaxed);
  }

  static void destroy_node(BlockNode* node) {
    VersionRec* rec = node->chain.load(std::memory_order_relaxed);
    while (rec != nullptr) {
      VersionRec* next = rec->older.load(std::memory_order_relaxed);
      delete rec;
      rec = next;
    }
    delete node;
  }

  std::vector<std::atomic<BlockNode*>> buckets_;
  std::uint64_t mask_ = 0;
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> pins_[kPinSlots]{};
  /// One past the highest slot pin() ever claimed; only grows.  A slot at or
  /// above it has never held an epoch, so scans stop there.
  std::atomic<std::uint32_t> pin_hwm_{0};
  std::vector<BlockNode*> multi_nodes_;  ///< nodes with >= 2 versions
  std::vector<Retired> retired_;
  std::uint64_t live_versions_ = 0;
};

}  // namespace tinca::core
