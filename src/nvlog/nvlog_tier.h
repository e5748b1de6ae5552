// Transparent NVM write-ahead tier: log-structured staging for any
// BlockDevice-backed store (DESIGN.md §13).
//
// The Tinca cache (src/tinca/) is crash-consistent but owns its entry-table
// layout; NvLogTier is the general-purpose alternative in the NVLog/NVCache
// mold (PAPERS.md): a segment-structured, append-only write-ahead log carved
// out of an NvmDevice range that absorbs fsync-heavy small writes with one
// flush + fence per commit and drains them to the backing store as
// coalesced, ascending batches on a background cadence.
//
// Persistent layout of the log range (all offsets line-aligned):
//
//   [0, 64)        superblock line: magic, version, segment_bytes,
//                  num_segments, watermark_slots, format nonce, checksum —
//                  written once at format (src/nvlog/log_meta.h)
//   [64, 64+S·64)  watermark record ring (DESIGN.md §16): S = watermark_slots
//                  epoch-salted, checksummed 64 B records; each drained-
//                  prefix advance writes (oldest_live_seq, drained_upto_lsn)
//                  into slot epoch % S, and recovery mounts the record with
//                  the highest valid epoch — a torn record fails its
//                  checksum and the previous record wins (safe: the tier
//                  merely re-drains already-applied segments)
//   [4096, ...)    num_segments segments of segment_bytes each
//
// Each segment opens with a 64 B header (magic, seq, checksum) written when
// the segment is acquired; `seq` increases monotonically over the log's
// lifetime, so a recycled segment's stale records — whose headers carry the
// *previous* generation's seq — can never validate against the new header.
// Records follow from offset 64:
//
//   block record   64 B header + 4096 B payload (one disk block image)
//   commit record  64 B header, no payload — seals the txn's record run
//
// A record header stamps magic, the segment seq (epoch), its lsn (global
// append order), the lsn of the txn's first record, type, disk blkno, a
// payload fingerprint and a header checksum.  A record is valid iff the
// checksums pass AND its seq equals the containing segment header's seq AND
// its lsn is monotonically increasing over the scan — lsns are never
// reused, so stale remnants (which always carry lower lsns than the stream
// that overwrote them) can never splice into the valid prefix, and a txn
// counts only when a commit record closes its exact lsn run (see
// recover()).
//
// Crash argument (same shape as DESIGN.md §4): commit() stores the txn's
// block records plus one commit record, then issues a single clflush pass
// over the appended range and one sfence.  Until that fence the media may
// hold any subset of the appended lines; recovery replays only complete
// txns (record run closed by a valid commit record), so a torn commit is
// all-or-nothing.  Draining applies a segment's still-live records to the
// backing store as one durable batch *before* the persisted oldest_live_seq
// advances past it, so a crash mid-drain merely replays the segment —
// idempotent, nothing lost, something possibly written twice.
//
// Outside recovery the log is write-only.  Each live index entry keeps its
// record's 4 KB image in DRAM — the absorbed write's own buffer, taken over
// at commit, or the payload recover() verified — and lookups and drains
// copy from it.  The images are bounded by the log (one per live record),
// and only the record stays the durable copy: every store, flush and fence
// is the same as if drains read the log back, so crash outcomes cannot
// differ.  Debug builds compare every served image with its record.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "blockdev/write_set.h"
#include "common/histogram.h"
#include "nvm/nvm_device.h"

namespace tinca::obs {
class MetricsRegistry;
}

namespace tinca::nvlog {

/// Tier tunables (embedded in the NvLog backend's config).
struct NvLogConfig {
  /// Bytes per log segment (line-aligned, at least header + one block
  /// record).  Smaller segments drain sooner; larger ones coalesce more.
  std::uint64_t segment_bytes = 256 * 1024;
  /// Watermark record ring slots (DESIGN.md §16).  Each drained-prefix
  /// advance writes one 64 B record into slot epoch % watermark_slots, so
  /// the metadata write load spreads over `watermark_slots` lines instead
  /// of hammering one.  1 reproduces the legacy single-hot-line behaviour;
  /// the ring must fit the 4 KB metadata region (max 63).
  std::uint32_t watermark_slots = 32;
  /// Oracle self-test only (fuzz harness): commit() returns WITHOUT its
  /// clflush + sfence.  The recovery oracle must catch the lost txns.
  bool sabotage_skip_commit_flush = false;
  /// Oracle self-test only: drain marks segments clean WITHOUT applying
  /// their records to the backing store (the log-tier analogue of the
  /// cleaner's sabotage_skip_write).  Stale backing-store data then leaks
  /// into reads and the oracle must flag it.
  bool sabotage_skip_drain_apply = false;
  /// Oracle self-test only: watermark records are stored but never
  /// flushed.  A crash then mounts a stale watermark whose oldest_live_seq
  /// may name a segment that was recycled AND re-acquired — the chain scan
  /// finds a seq gap right at its head and every younger committed txn is
  /// lost.  The recovery oracle must catch that.
  bool sabotage_skip_watermark_flush = false;
};

/// Tier counters (registered under "nvlog.").
struct NvLogStats {
  std::uint64_t absorbed_txns = 0;      ///< commits absorbed by the log
  std::uint64_t absorbed_records = 0;   ///< block records appended
  std::uint64_t absorbed_bytes = 0;     ///< payload bytes appended
  std::uint64_t drained_records = 0;    ///< records applied to the store
  std::uint64_t coalesced_records = 0;  ///< records superseded before drain
  std::uint64_t drain_batches = 0;      ///< segment drains performed
  std::uint64_t segments_sealed = 0;
  std::uint64_t segments_recycled = 0;
  std::uint64_t backpressure_drains = 0;  ///< foreground forced drains
  std::uint64_t absorb_rollbacks = 0;     ///< failed commits left as orphans
  std::uint64_t recovery_replayed = 0;    ///< records re-indexed at mount
  std::uint64_t recovery_discarded = 0;   ///< torn/incomplete tail records
  std::uint64_t log_hits = 0;             ///< reads served from the log
  // Group commit (DESIGN.md §14).
  std::uint64_t group_absorbs = 0;        ///< absorb_commit_group calls
  std::uint64_t group_absorbed_txns = 0;  ///< member txns absorbed in groups
  std::uint64_t group_merged_records = 0; ///< writes absorbed by LWW merging
  // Stacked sinks + parallel drains (DESIGN.md §16).
  std::uint64_t watermark_records = 0;     ///< ring records written
  std::uint64_t partitioned_drains = 0;    ///< drains split by inner shard
  std::uint64_t shard_batches = 0;         ///< per-shard batches handed out
  /// Seal-to-drain latency per segment (virtual ns): how far the drain
  /// runs behind the foreground.
  Histogram drain_lag;
  /// Duration of the drain *apply* phase per segment (virtual ns).  When
  /// the sink drains shard batches concurrently it reports the modeled
  /// barrier time (max over shards); sequential sinks report the sum.
  Histogram drain_apply;
};

/// The append-only staging log.  Single-threaded like every per-cache
/// structure in this repository; the owner serializes absorb/drain/reads.
class NvLogTier {
 public:
  /// Where drained batches go.  The backend implements this over its inner
  /// transactional store; `drain_apply` must return only once the batch is
  /// durable (that ordering is the whole crash-safety contract of draining).
  class DrainSink {
   public:
    /// One coalesced record run, ascending by blkno, whole 4 KB payloads.
    using DrainBatch = std::vector<blockdev::WriteSet::Write>;

    virtual ~DrainSink() = default;

    /// Apply `blocks` — ascending by blkno, whole 4 KB payloads — durably.
    /// The sink may take the payloads (or the whole batch) over.
    virtual void drain_apply(DrainBatch& blocks) = 0;

    // Shard-affine parallel drains (DESIGN.md §16).  A sink over a sharded
    // inner exposes its partition so the tier can split a segment's
    // coalesced run into per-shard batches and the sink can drain them
    // concurrently.  The tier advances the persisted watermark only after
    // drain_apply_shards returns, i.e. strictly after the barrier where
    // EVERY shard's batch is durable — a crash anywhere inside the apply
    // re-drains the whole segment (idempotent, last-writer-wins blocks).

    /// Number of inner shards (1 = unsharded; partitioning disabled).
    [[nodiscard]] virtual std::uint32_t drain_shard_count() const { return 1; }

    /// Home shard of a block (must match the inner's placement).
    [[nodiscard]] virtual std::uint32_t drain_shard_of(
        std::uint64_t blkno) const {
      (void)blkno;
      return 0;
    }

    /// Apply one batch per shard (indexed by shard, empty batches allowed);
    /// each batch stays ascending and may be taken over like drain_apply's.
    /// Returns only once every batch is durable.  The return value is the
    /// modeled apply duration in virtual ns (max over shards when the sink
    /// drains them concurrently, sum when sequential) recorded in
    /// NvLogStats::drain_apply; 0 means "no model — use the clock delta the
    /// apply actually charged".
    virtual std::uint64_t drain_apply_shards(
        std::vector<DrainBatch>& shard_batches) {
      for (DrainBatch& b : shard_batches)
        if (!b.empty()) drain_apply(b);
      return 0;
    }
  };

  /// Outcome of one drain attempt (mirrors cleaner::CleanOutcome).
  enum class DrainResult : std::uint8_t {
    kDrained = 0,  ///< segment applied durably and marked drained
    kStale = 1,    ///< segment already drained or recycled
    kPinned = 2,   ///< contains uncommitted records — retry later
  };

  /// Format the log range from scratch (writes only the superblock lines).
  static std::unique_ptr<NvLogTier> format(nvm::NvmDevice& nvm,
                                           NvLogConfig cfg = {});

  /// Mount after restart/crash: validate the superblock, walk the segment
  /// chain from oldest_live_seq, replay the valid record prefix (complete
  /// txns only) into the DRAM index.  Writes nothing to NVM, so recovery is
  /// idempotent under re-crash.
  static std::unique_ptr<NvLogTier> recover(nvm::NvmDevice& nvm,
                                            NvLogConfig cfg = {});

  NvLogTier(const NvLogTier&) = delete;
  NvLogTier& operator=(const NvLogTier&) = delete;

  /// Durably absorb one committed transaction: append a block record per
  /// entry plus one commit record, then one clflush pass + one sfence.
  /// The 4 KB buffers are taken over as the records' DRAM images.
  /// Runs foreground backpressure drains through `sink` when the log is
  /// full.  On failure (disk error inside a backpressure drain) the
  /// half-appended records are flushed and left behind as orphans — no
  /// commit record ever closes their run, so recovery discards them; the
  /// caller may keep committing into the same log.
  void absorb_commit(std::vector<blockdev::WriteSet::Write>&& blocks,
                     DrainSink& sink);

  /// Durably absorb a *batch* of committed transactions (DESIGN.md §14),
  /// consuming the members: their writes are merged last-writer-wins in
  /// member order (a block keeps its newest member's buffer), then
  /// appended as ONE record run sealed by ONE commit record — one clflush
  /// pass and one sfence for the whole batch.  A block written by several
  /// members costs a single record.  All-or-nothing per batch: recovery
  /// surfaces either every member transaction or none of them.
  void absorb_commit_group(std::span<blockdev::WriteSet> txns,
                           DrainSink& sink);

  /// Copy the newest absorbed-but-undrained image of `blkno` (from DRAM);
  /// false when the log holds none (caller falls through to the backing
  /// store).
  bool lookup(std::uint64_t blkno, std::span<std::byte> dst);

  /// Whether the log holds a live image of `blkno` (no read charged).
  [[nodiscard]] bool contains(std::uint64_t blkno) const {
    return index_.contains(blkno);
  }

  /// Append up to `max` drainable segment seqs, oldest first — the cleaner
  /// pull hook (sealed segments whose records are all committed).
  void collect_drainable(std::uint32_t max,
                         std::vector<std::uint64_t>& out) const;

  /// Drain the segment with this seq: coalesce (skip superseded records),
  /// copy the survivors' images, sort ascending, apply through `sink`, then
  /// drop the survivors from the index and advance the persisted drained
  /// prefix over every leading drained segment.  A throwing apply leaves
  /// the index, images included, as it was.
  DrainResult drain_segment(std::uint64_t seq, DrainSink& sink);

  /// Seal the active segment and drain everything (unmount path).
  void drain_all(DrainSink& sink);

  /// Largest transaction absorb_commit() accepts: (num_segments - 1) full
  /// segments of block records, minus one so the commit record always fits.
  [[nodiscard]] std::uint64_t max_txn_blocks() const;

  /// Live (absorbed, undrained) block records in the index.
  [[nodiscard]] std::uint64_t live_records() const { return index_.size(); }

  /// Total block-record capacity of the log.
  [[nodiscard]] std::uint64_t record_capacity() const {
    return num_segments_ * records_per_segment();
  }

  [[nodiscard]] std::uint64_t num_segments() const { return num_segments_; }
  [[nodiscard]] std::uint64_t free_segments() const;
  [[nodiscard]] std::uint64_t sealed_segments() const;
  [[nodiscard]] std::uint64_t oldest_live_seq() const {
    return oldest_live_seq_;
  }

  /// Epoch of the newest watermark record written (ring slot rotation
  /// counter; recovery resumes from the highest valid epoch it mounted).
  [[nodiscard]] std::uint64_t watermark_epoch() const { return wm_epoch_; }

  [[nodiscard]] const NvLogStats& stats() const { return stats_; }
  [[nodiscard]] const NvLogConfig& config() const { return cfg_; }

  /// Register every counter, the drain-lag histogram and the occupancy
  /// gauges under `prefix` (e.g. "nvlog.").
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) const;

  /// Test hook: NVM byte range of the newest live record for `blkno` —
  /// (header offset, total record bytes) within the log range.  Lets the
  /// torn-tail tests corrupt a precise record without knowing the layout.
  [[nodiscard]] std::optional<std::pair<std::uint64_t, std::uint64_t>>
  record_range(std::uint64_t blkno) const;

 private:
  /// One record's DRAM bookkeeping (rebuilt by recover()).
  struct RecordMeta {
    std::uint64_t off;    ///< header offset within the segment
    std::uint64_t lsn;
    std::uint64_t blkno;  ///< block records only
    bool is_commit;
  };

  enum class SegState : std::uint8_t { kFree, kActive, kSealed, kDrained };

  struct SegmentMeta {
    SegState state = SegState::kFree;
    std::uint64_t seq = 0;
    std::uint64_t write_off = 0;  ///< next append offset within the segment
    std::uint64_t max_lsn = 0;    ///< highest record lsn present
    std::uint64_t seal_ns = 0;    ///< virtual time of sealing (drain lag)
    /// Free segments only: total_line_writes of the segment, filled by the
    /// first pick that finds it free and dropped when it is acquired.
    /// Nothing flushes a free segment, so the value cannot go stale.
    std::optional<std::uint64_t> free_wear;
    std::vector<RecordMeta> records;
  };

  /// The newest live record of a block, and its image.
  struct IndexLoc {
    std::uint32_t seg;       ///< segment index
    std::uint64_t off;       ///< record header offset within the segment
    std::uint64_t lsn;
    /// The record's 4 KB payload in DRAM, which lookups and drains copy.
    std::vector<std::byte> image;
  };

  NvLogTier(nvm::NvmDevice& nvm, NvLogConfig cfg);

  [[nodiscard]] std::uint64_t segment_base(std::uint32_t idx) const;
  [[nodiscard]] std::uint64_t records_per_segment() const;

  /// Make the active segment able to take `bytes` more record bytes,
  /// sealing / acquiring / force-draining as needed.
  void ensure_room(std::uint64_t bytes, DrainSink& sink);

  /// Claim the least-worn free segment, write + persist its header with the
  /// next seq, make it active.
  void acquire_segment(DrainSink& sink);

  void seal_active();

  /// Advance oldest_live_seq_ over the leading drained segments, recycle
  /// them, and persist the new value.
  void advance_drained_prefix();

  /// Write + persist the next watermark record into its ring slot
  /// (DESIGN.md §16): epoch++, slot = epoch % watermark_slots.
  void persist_watermark();

  /// Append one record into the active segment (room guaranteed); collects
  /// the stored range into `flush_ranges_`.  `txn_first_lsn` stamps the
  /// record's txn field (the lsn of the txn's first record), which recovery
  /// uses to fence a commit record off stale remnants with matching offsets.
  /// Returns the index location of the appended record.
  IndexLoc append_record(bool is_commit, std::uint64_t txn_first_lsn,
                         std::uint64_t blkno,
                         std::span<const std::byte> payload);

  /// Debug builds: fail unless `loc.image` equals its record's payload on
  /// NVM (read without a charge).  No-op under NDEBUG.
  void check_image(const IndexLoc& loc) const;

  /// Segment index holding `seq`, or nullopt.
  [[nodiscard]] std::optional<std::uint32_t> find_seq(std::uint64_t seq) const;

  nvm::NvmDevice& nvm_;
  NvLogConfig cfg_;
  std::uint64_t num_segments_ = 0;

  std::vector<SegmentMeta> segs_;
  std::optional<std::uint32_t> active_;       ///< index into segs_
  std::unordered_map<std::uint64_t, IndexLoc> index_;  ///< blkno → newest
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t committed_lsn_ = 0;  ///< lsn of the last durable commit rec
  std::uint64_t oldest_live_seq_ = 1;
  /// Highest lsn inside the recycled prefix (persisted with
  /// oldest_live_seq_).  Recovery treats lsns at or below this as
  /// legitimately gone — a committed txn may span segments, and its older
  /// segments can be drained and recycled while newer ones still hold the
  /// txn's tail; anything missing *above* this watermark is a torn txn.
  std::uint64_t drained_upto_lsn_ = 0;
  /// Epoch of the newest watermark record (see log_meta.h); slot rotation
  /// counter.  Recovery resumes it from the mounted record.
  std::uint64_t wm_epoch_ = 0;
  /// The superblock's format generation, salting every watermark record's
  /// checksum so records from a previous life of the device never validate.
  std::uint64_t format_nonce_ = 0;

  /// Ranges stored by the in-flight absorb, flushed in one pass at commit.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> flush_ranges_;

  NvLogStats stats_;
};

}  // namespace tinca::nvlog
