// Uniform transactional block-store interface.
//
// The file system and all workload generators drive the storage stack
// through this surface so every experiment can swap Tinca for Classic (or
// the §3 ablation variants) without touching workload code.  The model is
// one open transaction at a time — matching both JBD2's running transaction
// and Tinca's running transaction — staged in DRAM until commit().
//
// The base class owns that running transaction: begin/stage/commit/abort
// are implemented once here, and commit() hands the staged set to
// commit_group() as a group of one.  Concrete backends implement
// commit_group(), reads, flush and snapshots; only forwarding decorators
// (harness shims) override the four transaction calls.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "blockdev/write_set.h"
#include "common/expect.h"

namespace tinca::obs {
class MetricsRegistry;
class TraceSink;
class Tracer;
}  // namespace tinca::obs

namespace tinca::backend {

/// One member of a group commit: a whole transaction's write set, staged in
/// DRAM and handed to commit_group() at once.  Across the members of one
/// group, later members win.
using GroupTxn = blockdev::WriteSet;

/// Abstract transactional block backend (4 KB blocks).
class TxnBackend {
 public:
  virtual ~TxnBackend() = default;

  /// Open the running transaction.  At most one may be open.
  virtual void begin() {
    TINCA_EXPECT(!open_, "transaction already open");
    open_ = true;
  }

  /// Stage a whole 4 KB block into the running transaction.  Restaging a
  /// block keeps its first-staged position and its latest bytes.
  virtual void stage(std::uint64_t blkno, std::span<const std::byte> data) {
    TINCA_EXPECT(open_, "stage without begin");
    staged_.add(blkno, data);
  }

  /// Durably commit the running transaction (atomic all-or-nothing) as a
  /// commit_group() of one; an empty transaction commits nothing.
  ///
  /// Throw contract: the transaction is closed before its writes are handed
  /// over, so a throw leaves no transaction open and the staged writes gone.
  /// Whether they became durable is then settled as after a crash — all of
  /// them or none — so a caller treats the outcome as unknown until it
  /// remounts, and may begin() the next transaction.
  virtual void commit() {
    TINCA_EXPECT(open_, "commit without begin");
    GroupTxn txn = std::exchange(staged_, {});
    open_ = false;
    if (!txn.empty()) commit_group(std::span<GroupTxn>(&txn, 1));
  }

  /// Abort the running transaction; staged updates are discarded without
  /// reaching the backend.
  virtual void abort() {
    TINCA_EXPECT(open_, "abort without begin");
    open_ = false;
    staged_ = {};
  }

  // --- Group commit (DESIGN.md §14) ----------------------------------------

  /// Whether commit_group() amortizes durability work (flush passes,
  /// fences) across the batch and makes the batch atomic as a unit.
  [[nodiscard]] virtual bool supports_group_commit() const { return false; }

  /// Durably commit every transaction in `txns` as one batch, consuming the
  /// members (their block buffers may be moved out).  Backends that support
  /// group commit make the batch all-or-nothing — a transaction spanning
  /// several persistence streams (shards) is anchored to one atomic
  /// cross-stream commit record, so a crash either keeps all of its writes or
  /// none — and pay one flush pass + one fence per stream touched; the others
  /// commit the members back to back, each atomic on its own.  No
  /// transaction may be open when this is called.
  ///
  /// Every concrete backend overrides this.  The default replays each member
  /// through begin/stage/commit, for forwarding decorators that override
  /// those four calls instead.
  virtual void commit_group(std::span<GroupTxn> txns) {
    for (GroupTxn& t : txns) {
      begin();
      for (const auto& [blkno, data] : t.writes()) stage(blkno, data);
      commit();
    }
  }

  /// Read a block.  Sees all *committed* data (staged-but-uncommitted data
  /// is the caller's to overlay — the file system's page cache does).
  virtual void read_block(std::uint64_t blkno, std::span<std::byte> dst) = 0;

  /// Push everything down to the disk (unmount path).
  virtual void flush() = 0;

  /// Number of data blocks addressable by callers (the Classic backend
  /// reserves its journal area above this limit).
  [[nodiscard]] virtual std::uint64_t data_block_limit() const = 0;

  /// Largest number of blocks one transaction may contain.
  [[nodiscard]] virtual std::uint64_t max_txn_blocks() const = 0;

  /// Human-readable backend name for bench output.
  [[nodiscard]] virtual std::string name() const = 0;

  /// One background-cleaner pacing quantum (DESIGN.md §11).  Harness loops
  /// call this between transactions; backends without a cleaner (or with it
  /// disabled) treat it as a no-op, so callers need not special-case.
  virtual void cleaner_step() {}

  // --- Snapshot reads (MVCC backends, DESIGN.md §12) -----------------------
  // Backends over version-chained caches pin a committed boundary and serve
  // reads as of that boundary without blocking (or being blocked by)
  // writers.  The defaults degrade to plain current reads so uninstrumented
  // backends keep compiling; harnesses gate snapshot assertions on
  // supports_snapshots().

  /// Whether snapshot_open() pins a real committed-boundary snapshot.
  [[nodiscard]] virtual bool supports_snapshots() const { return false; }

  /// Open a read snapshot pinned at the current committed boundary and
  /// return an opaque token for snapshot_read()/snapshot_close().  Multiple
  /// snapshots may be open at once.
  virtual std::uint64_t snapshot_open() { return 0; }

  /// Read `blkno` as of the snapshot.  Default: a plain current read.
  virtual void snapshot_read(std::uint64_t /*token*/, std::uint64_t blkno,
                             std::span<std::byte> dst) {
    read_block(blkno, dst);
  }

  /// Release the snapshot's pins.  Must be called once per snapshot_open().
  virtual void snapshot_close(std::uint64_t /*token*/) {}

  // --- Observability (src/obs/) --------------------------------------------
  // Default implementations are no-ops so backends without instrumentation
  // keep compiling; every shipped backend overrides them.

  /// Turn per-op span recording on/off across the backend's layers.
  virtual void enable_tracing(bool /*on*/ = true) {}

  /// Attach a Chrome-trace sink to every tracer in the backend (nullptr
  /// detaches).  Implies enable_tracing(true) when non-null.
  virtual void attach_trace_sink(obs::TraceSink* /*sink*/) {}

  /// The backend's principal tracer — the one whose commit-latency
  /// histogram a bench should report.  nullptr when uninstrumented.
  [[nodiscard]] virtual const obs::Tracer* tracer() const { return nullptr; }

  /// Register every layer's counters, gauges and span histograms into `reg`
  /// under `prefix`.  The registry must not outlive the backend.
  virtual void register_metrics(obs::MetricsRegistry& /*reg*/,
                                const std::string& /*prefix*/) const {}

 protected:
  /// Whether begin() opened a transaction that is not yet committed or
  /// aborted (commit_group() overrides reject a call while one is).
  [[nodiscard]] bool txn_open() const { return open_; }

 private:
  bool open_ = false;
  GroupTxn staged_;  ///< the running transaction, in first-staged order
};

}  // namespace tinca::backend
