// Sharded, thread-safe front-end over N independent TincaCache shards.
//
// The paper's Tinca admits a single committing transaction at a time (§4.4):
// one ring, one Head/Tail pair, one global ordering of commits.  That is
// faithful for reproducing Fig 7–13 but caps throughput at one core.
// ShardedTinca partitions both address spaces so unrelated transactions
// commit in parallel:
//
//   * the NVM device is split into `num_shards` equal, 4 KB-aligned
//     sub-range views (NvmDevice view constructor); each shard formats and
//     recovers a complete private Tinca layout — superblock, ring, entry
//     table, data area — inside its partition;
//   * the disk block space is partitioned by a hash of the disk block
//     number; every block has exactly one home shard, so shards never share
//     a cache entry, an NVM block, a ring slot or a disk block;
//   * each shard pairs its TincaCache with one mutex and one SimClock, so a
//     single-shard transaction — the common case — takes one lock and runs
//     the paper's commit protocol unchanged.
//
// Cross-shard transactions acquire the locks of every involved shard in
// ascending shard-id order (a global total order, hence no deadlocks), then
// commit ATOMICALLY across shards (DESIGN.md §15): each involved shard
// stages one anchored batch on one of its commit streams, every batch is
// flushed, and the whole set becomes durable through ONE cross-stream
// commit record — a single 64 B line in shard 0's commit directory naming
// the participating (shard, stream) pairs, flushed in the same pass and
// covered by the same single sfence.  Recovery keeps the anchored batches
// only when the record landed AND every participant's batch survived, so a
// crash anywhere in the protocol is all-or-nothing for the transaction —
// the old ascending-shard-prefix contract is retired.
//
// The shared backing disk is serialized behind a LockedBlockDevice; shards
// only reach it for misses, evictions and flushes, never while holding
// another shard's lock.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "blockdev/locked_block_device.h"
#include "obs/trace.h"
#include "tinca/tinca_cache.h"

namespace tinca::shard {

/// Tunables for a ShardedTinca instance.
struct ShardedConfig {
  /// Number of independent shards (NVM partitions).  Must divide the device
  /// into partitions large enough for a usable Tinca layout each.
  std::uint32_t num_shards = 4;
  /// Per-shard Tinca configuration (ring size is per shard).
  core::TincaConfig shard;
  /// Leader/follower group commit (DESIGN.md §14): concurrent single-shard
  /// committers targeting the same shard batch into one coalesced ring
  /// append, one flush pass and one fence.  Cross-shard transactions always
  /// take the legacy ascending-lock path.
  bool group_commit = false;
  /// How long (wall-clock µs) a batch leader lingers for followers before
  /// closing its batch.  0 closes the batch as soon as the queue drains.
  std::uint32_t group_linger_us = 50;
  /// The leader closes a batch early once this many transactions are queued
  /// (bounds commit latency under bursts).
  std::uint32_t group_max_batch = 32;
  /// Fault-injection self-test hook: skip the clflush of the cross-stream
  /// commit record.  A sabotaged stack must FAIL the crash oracles (an acked
  /// cross-shard transaction rolls back), proving the record's flush is
  /// what the atomicity argument actually rests on.
  bool sabotage_skip_commit_record_flush = false;
};

/// A running sharded transaction: blocks staged in DRAM, possibly spanning
/// several shards.  Created by ShardedTinca::init_txn(); not thread-safe
/// itself (one owner thread), but distinct transactions commit concurrently.
using ShardedTxn = blockdev::WriteSet;

class ShardedTinca;

/// A pinned multi-shard read snapshot: one commit-epoch pin per shard,
/// captured together at open_snapshot().  Consistency is per shard — each
/// shard's pin freezes a committed boundary of that shard's history, the
/// same per-shard atomicity commit() provides (DESIGN.md §7/§12).  Reads
/// against a snapshot never take a shard mutex unless a shard's pin
/// registry was full at open time.  One owner thread.
///
/// RAII: the destructor releases any still-held pins, so an early return or
/// an exception between open and close (snapshot_read can throw IoError)
/// cannot leak registry pins — a leaked pin silently blocks version
/// trimming and defers writebacks forever.  Move-only: a copy would
/// double-release its slots.  Must not outlive the ShardedTinca that
/// opened it.
class ShardedSnapshot {
 public:
  ShardedSnapshot() = default;
  ~ShardedSnapshot() { release(); }

  ShardedSnapshot(ShardedSnapshot&& other) noexcept
      : open_(other.open_), owner_(other.owner_),
        pins_(std::move(other.pins_)) {
    other.open_ = false;
    other.owner_ = nullptr;
    other.pins_.clear();
  }
  ShardedSnapshot& operator=(ShardedSnapshot&& other) noexcept {
    if (this != &other) {
      release();
      open_ = other.open_;
      owner_ = other.owner_;
      pins_ = std::move(other.pins_);
      other.open_ = false;
      other.owner_ = nullptr;
      other.pins_.clear();
    }
    return *this;
  }
  ShardedSnapshot(const ShardedSnapshot&) = delete;
  ShardedSnapshot& operator=(const ShardedSnapshot&) = delete;

  /// Whether the snapshot is open (pins held).
  [[nodiscard]] bool open() const { return open_; }

  /// The epoch pinned on shard `s` (diagnostic/test hook).
  [[nodiscard]] std::uint64_t epoch(std::uint32_t s) const {
    return pins_[s].epoch;
  }

 private:
  friend class ShardedTinca;
  void release() noexcept;  // unpin everything; idempotent

  bool open_ = false;
  ShardedTinca* owner_ = nullptr;         ///< set by open_snapshot()
  std::vector<core::SnapshotPin> pins_;  ///< indexed by shard id
};

/// The sharded transactional NVM cache front-end.  All public methods are
/// thread-safe; per-shard mutexes serialize only the shards a call touches.
class ShardedTinca {
 public:
  /// Format every shard's partition afresh (like mkfs on each).
  static std::unique_ptr<ShardedTinca> format(nvm::NvmDevice& nvm,
                                              blockdev::BlockDevice& disk,
                                              ShardedConfig cfg = {});

  /// Mount an existing sharded cache, running crash recovery per shard.
  /// `cfg` geometry (shard count, ring size) must match the format call.
  static std::unique_ptr<ShardedTinca> recover(nvm::NvmDevice& nvm,
                                               blockdev::BlockDevice& disk,
                                               ShardedConfig cfg = {});

  /// Stops any running cleaner threads before the shards go away.
  ~ShardedTinca();

  /// Bytes of each shard's partition on a `device_bytes` device: equal 4 KB-
  /// aligned partitions, shard s at offset s × this, the tail remainder
  /// (< one partition) unused.  A pure function of (device size, shard
  /// count), so recovery and offline media checks reconstruct the geometry
  /// without any extra metadata.
  static std::uint64_t partition_bytes(std::uint64_t device_bytes,
                                       std::uint32_t num_shards) {
    return device_bytes / num_shards / core::kBlockSize * core::kBlockSize;
  }

  // --- Background cleaners (DESIGN.md §11) ---------------------------------
  //
  // With cfg.shard.cleaner.mode != kDisabled, every shard owns a private
  // cleaner, but all of them pull from ONE shared Pacer (created here unless
  // the caller supplied one): each step deposits a fair slice of the global
  // batch budget, so N hot shards do not multiply the background write rate
  // by N.

  /// Stepped mode: run one cleaner quantum on every shard, locking each
  /// shard's mutex.  No-op for shards without a cleaner.
  void step_cleaners();

  /// Thread mode: spawn each shard's cleaner thread, serialized against
  /// foreground commits via the shard mutex.
  void start_cleaner_threads();

  /// Stop and join all cleaner threads (idempotent; implied by destruction).
  void stop_cleaner_threads();

  // --- Transactional primitives -------------------------------------------

  /// Initiate a running transaction (DRAM staging only).
  [[nodiscard]] ShardedTxn init_txn() const { return ShardedTxn(); }

  /// Durably commit `txn`.  Single-shard transactions take one lock and the
  /// paper's exact protocol; cross-shard transactions lock ascending, stage
  /// one anchored batch per involved shard and commit them all atomically
  /// through one cross-stream commit record (DESIGN.md §15).
  void commit(ShardedTxn& txn);

  /// Commit several running transactions as one deterministic batch
  /// (DESIGN.md §14): per involved shard, every member's portion joins that
  /// shard's single batch — one coalesced ring append, one flush pass, and
  /// one fence for the WHOLE batch.  A batch spanning several shards commits
  /// atomically across all of them through one cross-stream commit record
  /// (§15).  Single-threaded entry point (no batcher, no lingering) for
  /// backends and fuzz harnesses that form batches themselves.  Every member
  /// is closed on return; its staged buffers are handed over to the shard
  /// caches, so after a throw a member can only be aborted.
  void commit_batch(std::span<ShardedTxn* const> txns);

  /// Abort a running transaction; staged blocks are discarded.
  void abort(ShardedTxn& txn);

  // --- Cached block I/O ----------------------------------------------------

  /// Read one block through its home shard.  Clean hits on committed blocks
  /// take the LOCK-FREE fast path: an epoch pin plus a version-chain lookup
  /// under acquire/release atomics, no shard mutex (DESIGN.md §12).  Blocks
  /// without a chain version (uncached, or clean read fills) fall back to
  /// the locked path, which fills the cache and updates the LRU.
  void read_block(std::uint64_t disk_blkno, std::span<std::byte> dst);

  /// The pre-MVCC read path: always acquires the home shard's mutex.  Kept
  /// public as the baseline for bench_mvcc_reads and for callers that need
  /// the LRU touched unconditionally.
  void read_block_locked(std::uint64_t disk_blkno, std::span<std::byte> dst);

  // --- Snapshot reads (MVCC, DESIGN.md §12) --------------------------------

  /// Pin every shard's current commit epoch.  Lock-free; a shard whose pin
  /// registry is full is marked in the snapshot and its reads degrade to
  /// the locked path (counted in that shard's mvcc.lock_fallbacks).  A
  /// seqlock against the cross-shard publish window guarantees the pins
  /// never straddle a cross-stream commit: a snapshot either sees ALL of an
  /// atomic cross-shard transaction or none of it (DESIGN.md §15).
  [[nodiscard]] ShardedSnapshot open_snapshot();

  /// Read `disk_blkno` as of the snapshot.  Lock-free on shards with a
  /// valid pin: version-chain hit or a disk fallback through the serialized
  /// shared disk, never the shard mutex.
  void snapshot_read(const ShardedSnapshot& snap, std::uint64_t disk_blkno,
                     std::span<std::byte> dst);

  /// Release all pins now, ahead of the snapshot's destructor (which
  /// releases whatever is still held).  Calling it twice is a contract
  /// violation; letting the destructor do the work is not.
  void close_snapshot(ShardedSnapshot& snap);

  /// Convenience: durably write one block as a single-block transaction.
  void write_block(std::uint64_t disk_blkno, std::span<const std::byte> data);

  /// Write every shard's dirty blocks back to disk.
  void flush_dirty();

  // --- Introspection -------------------------------------------------------

  /// Home shard of a disk block (stable hash of the block number).
  [[nodiscard]] std::uint32_t shard_of(std::uint64_t disk_blkno) const;

  /// Number of shards.
  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Whether `disk_blkno` is cached (in its home shard).
  [[nodiscard]] bool cached(std::uint64_t disk_blkno);

  /// Whether `disk_blkno` is cached and dirty.
  [[nodiscard]] bool dirty(std::uint64_t disk_blkno);

  /// Largest per-shard transaction this cache can commit; a transaction
  /// whose blocks all hash to one shard is bounded by that shard alone, so
  /// the conservative global bound is the per-shard bound.
  [[nodiscard]] std::uint64_t max_txn_blocks() const;

  /// Sum of all shards' cache stats (counters and the per-txn histogram).
  /// Only stable while no commits are in flight.
  [[nodiscard]] core::TincaCacheStats aggregated_stats() const;

  // --- Observability (src/obs/) --------------------------------------------

  /// Wall-clock tracer for the cross-shard commit phases: shard.lock_wait
  /// (mutex acquisition — lock convoys show up here), shard.publish (the
  /// per-shard sub-commit loop) and shard.commit (the whole call).  Host
  /// time base, one Chrome track per calling thread.
  [[nodiscard]] obs::Tracer& tracer() { return trace_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return trace_; }

  /// Enable span recording on the front-end and every shard cache.
  void enable_tracing(bool on = true);

  /// Attach one sink to the front-end and all shard caches, and name each
  /// shard's virtual-time Chrome track ("shard <s>").  nullptr detaches.
  void attach_trace_sink(obs::TraceSink* sink);

  /// Register the front-end span histograms plus every shard's metrics
  /// (under "<prefix>shard<i>.") into `reg`.
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const;

  /// Direct shard access for tests and benches (callers synchronize).
  [[nodiscard]] core::TincaCache& shard_cache(std::uint32_t s) {
    return *shards_[s]->cache;
  }
  [[nodiscard]] nvm::NvmDevice& shard_nvm(std::uint32_t s) {
    return *shards_[s]->view;
  }
  [[nodiscard]] sim::SimClock& shard_clock(std::uint32_t s) {
    return *shards_[s]->clock;
  }

 private:
  friend class ShardedSnapshot;  // release() unpins through shards_

  /// One committer's slot in a shard's group-commit queue.  Lives on the
  /// committer's stack; `done` and `error` are written by the batch leader
  /// and read by the owner, both under the shard's batcher mutex.
  struct GroupWaiter {
    ShardedTxn* txn;
    bool done = false;
    std::exception_ptr error{};
  };

  struct Shard {
    std::unique_ptr<sim::SimClock> clock;
    std::unique_ptr<nvm::NvmDevice> view;
    /// Declared before `cache`: the cache's cleaner thread locks this mutex,
    /// so it must outlive the cache during destruction.
    mutable std::mutex mu;
    std::unique_ptr<core::TincaCache> cache;
    /// Group-commit batcher (DESIGN.md §14).  `bmu` guards the queue and
    /// the leader flag; waiters sleep on `bcv` until the leader marks them
    /// done.  Never held while `mu` is being acquired with waiters blocked —
    /// the leader drops it around every cache call.
    std::mutex bmu;
    std::condition_variable bcv;
    std::deque<GroupWaiter*> queue;
    bool leader_active = false;
  };

  ShardedTinca(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
               ShardedConfig cfg, bool do_format);

  /// The one shard every block of `txn` homes to; nullopt when it spans
  /// shards or is empty.
  [[nodiscard]] std::optional<std::uint32_t> home_shard(
      const ShardedTxn& txn) const;

  /// The leader/follower batched commit path for a single-shard transaction
  /// (cfg.group_commit on).  Blocks until the caller's transaction is
  /// durable or rethrows the batch's failure.
  void commit_grouped(std::uint32_t sid, ShardedTxn& txn);

  /// Per-shard shares of a batch in ascending shard order, hence lock
  /// order: shard id → the members (or pieces of them) committing there,
  /// in member order.
  using XShardGroups = std::map<std::uint32_t, std::vector<core::Transaction*>>;

  /// Atomic cross-shard commit (DESIGN.md §15): one anchored batch per
  /// involved shard, one commit-directory record, ONE fence.  `groups` must
  /// span at least two shards; `member_count` is the number of member
  /// transactions (recorded in the commit record).
  void commit_across_shards(const XShardGroups& groups,
                            std::uint64_t member_count);

  /// Allocate a free commit-directory slot and a fresh nonzero commit id.
  /// Retires slots whose anchored batches every participant's durable hint
  /// has passed; when none is retirable, forces hint syncs on the blocking
  /// shards (dir_mu_ dropped first — shard mutexes are only ever taken as
  /// leaves).  Called holding NO shard locks.
  std::uint64_t dir_acquire_slot(std::uint32_t& cid_out);

  blockdev::LockedBlockDevice disk_;
  ShardedConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Cross-stream commit directory state (DESIGN.md §15).  The directory
  // region lives in shard 0's superblock; this dedicated view (own clock and
  // op counters, shared media and injector) touches ONLY the directory
  // lines, which shard 0's cache never writes after format — so dir stores
  // under dir_mu_ never race shard 0's own commits.
  std::unique_ptr<sim::SimClock> dir_clock_;
  std::unique_ptr<nvm::NvmDevice> dir_view_;
  std::uint64_t dir_epoch_ = 0;  ///< shard 0's format epoch (record salt)
  /// Guards the slot table, the id counter and dir_view_'s stores.
  mutable std::mutex dir_mu_;
  std::uint32_t next_commit_id_ = 1;
  /// What blocks a slot's reuse: recovery stops scanning an anchored batch
  /// only once its stream's durable hint passed the batch's end.
  struct DirDep {
    std::uint32_t shard;
    std::uint32_t stream;
    std::uint64_t end;  ///< ring index one past the batch's seal record
  };
  struct DirSlot {
    bool used = false;
    /// Empty while the owning commit is in flight.  Such a slot must not be
    /// retired: a concurrent cross-shard commit would reuse it and overwrite
    /// a record whose batches recovery still has to adjudicate.
    std::vector<DirDep> deps;
  };
  std::array<DirSlot, core::Layout::kDirSlots> dir_slots_;
  /// Seqlock over the cross-shard publish window: odd while a cross-stream
  /// commit is publishing its per-shard epoch bumps, so open_snapshot()
  /// never pins a cut that splits an atomic transaction.
  std::atomic<std::uint64_t> xshard_seq_{0};

  obs::Tracer trace_{"shard."};  ///< wall-clock tracer (many threads)
  obs::Tracer::Site* ts_commit_ = trace_.site("commit");
  obs::Tracer::Site* ts_lock_wait_ = trace_.site("lock_wait");
  obs::Tracer::Site* ts_publish_ = trace_.site("publish");
};

}  // namespace tinca::shard
