#include "tinca/tinca_cache.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/expect.h"
#include "obs/metrics.h"
#include "tinca/commit_directory.h"

namespace tinca::core {

// ---------------------------------------------------------------------------
// Transaction (running, DRAM-resident)
// ---------------------------------------------------------------------------

void Transaction::add(std::uint64_t disk_blkno, std::span<const std::byte> data) {
  add(disk_blkno, std::vector<std::byte>(data.begin(), data.end()));
}

void Transaction::add(std::uint64_t disk_blkno, std::vector<std::byte>&& data) {
  TINCA_EXPECT(open_, "add to a closed transaction");
  TINCA_EXPECT(data.size() == kBlockSize, "transaction blocks are 4 KB");
  TINCA_EXPECT(disk_blkno <= CacheEntry::kMaxDiskBlock, "disk block number too large");
  auto [it, inserted] = blocks_.try_emplace(disk_blkno);
  if (inserted) order_.push_back(disk_blkno);
  it->second = std::move(data);
}

// ---------------------------------------------------------------------------
// Construction / format / recovery
// ---------------------------------------------------------------------------

TincaCache::TincaCache(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
                       TincaConfig cfg)
    : nvm_(nvm),
      disk_(disk),
      cfg_(cfg),
      layout_(Layout::compute(nvm.size(), cfg.ring_bytes, cfg.num_streams)),
      mirror_(layout_.num_blocks),
      index_(layout_.num_blocks),
      lru_(static_cast<std::uint32_t>(layout_.num_blocks)),
      free_entries_(static_cast<std::uint32_t>(layout_.num_blocks)),
      free_blocks_(static_cast<std::uint32_t>(layout_.num_blocks),
                   cfg.wear_level),
      mvcc_(layout_.num_blocks),
      trace_(nvm.clock(), cfg.trace_tid, "tinca."),
      ts_commit_(trace_.site("commit")),
      ts_abort_(trace_.site("abort")),
      ts_cow_(trace_.site("cow_write")),
      ts_ring_(trace_.site("ring_append")),
      ts_role_switch_(trace_.site("role_switch")),
      ts_evict_(trace_.site("evict")),
      ts_writeback_(trace_.site("writeback")),
      ts_recovery_(trace_.site("recovery")),
      ts_read_(trace_.site("read")),
      ts_io_retry_(trace_.site("io_retry")),
      ts_batch_append_(trace_.site("batch_append")),
      ts_batch_flush_(trace_.site("batch_flush")),
      ts_batch_publish_(trace_.site("batch_publish")) {
  rings_.reserve(layout_.num_streams);
  for (std::uint32_t s = 0; s < layout_.num_streams; ++s)
    rings_.emplace_back(nvm_, layout_, s);
  if (cfg_.cleaner.mode != cleaner::CleanerMode::kDisabled) {
    cleaner::CleanerConfig cc = cfg_.cleaner;
    cc.trace_tid = cfg_.trace_tid;
    cleaner_ = std::make_unique<cleaner::Cleaner>(
        cc, static_cast<cleaner::CleanerClient&>(*this), nvm_.clock());
  }
}

std::unique_ptr<TincaCache> TincaCache::format(nvm::NvmDevice& nvm,
                                               blockdev::BlockDevice& disk,
                                               TincaConfig cfg) {
  auto cache = std::unique_ptr<TincaCache>(new TincaCache(nvm, disk, cfg));
  cache->format_media();
  cache->order_free_blocks_by_wear();
  return cache;
}

std::unique_ptr<TincaCache> TincaCache::recover(nvm::NvmDevice& nvm,
                                                blockdev::BlockDevice& disk,
                                                TincaConfig cfg) {
  auto cache = mount_for_recovery(nvm, disk, cfg);
  const RecoveryScan scan = cache->recovery_scan();
  // Standalone adjudication: an anchored batch survives iff its commit
  // record exists in THIS cache's directory and the batch itself survived
  // whole.  (The sharded front-end instead coordinates all caches against
  // shard 0's directory — see ShardedTinca::recover.)
  std::unordered_set<std::uint32_t> effective;
  if (!scan.anchored.empty()) {
    for (const CommitRecord& rec :
         CommitDirectory::scan(nvm, cache->format_epoch_)) {
      for (const AnchoredBatch& ab : scan.anchored)
        if (ab.commit_id == rec.commit_id && ab.placed)
          effective.insert(ab.commit_id);
    }
  }
  cache->recovery_apply(effective);
  return cache;
}

std::unique_ptr<TincaCache> TincaCache::mount_for_recovery(
    nvm::NvmDevice& nvm, blockdev::BlockDevice& disk, TincaConfig cfg) {
  auto cache = std::unique_ptr<TincaCache>(new TincaCache(nvm, disk, cfg));
  cache->load_for_recovery();
  return cache;
}

void TincaCache::order_free_blocks_by_wear() {
  if (!cfg_.wear_level) return;
  free_blocks_.order_by_wear([this](std::uint32_t nb) {
    return nvm_.wear(layout_.data_block_off(nb), kBlockSize)
        .total_line_writes;
  });
}

void TincaCache::format_media() {
  // Superblock identity.
  nvm_.atomic_store8(Layout::kMagicOff, Layout::kMagic);
  nvm_.atomic_store8(Layout::kVersionOff, Layout::kVersion);
  nvm_.atomic_store8(Layout::kNumBlocksOff, layout_.num_blocks);
  nvm_.atomic_store8(Layout::kRingCapacityOff, layout_.ring_capacity);
  // Bump (never reset) the format epoch: it feeds every ring-record checksum,
  // so records staged by an earlier life of this device can never validate
  // again even when they land at the same slot and index.
  format_epoch_ = nvm_.load8(Layout::kFormatEpochOff) + 1;
  nvm_.atomic_store8(Layout::kFormatEpochOff, format_epoch_);
  nvm_.atomic_store8(Layout::kNumStreamsOff, layout_.num_streams);
  nvm_.persist(0, 48);
  for (RingBuffer& ring : rings_) ring.format();
  // Zero the commit directory (stale records are already dead under the new
  // epoch; zeroing keeps verify_media's slot accounting clean).
  CommitDirectory::format(nvm_);
  nvm_.clflush(Layout::kDirOff, Layout::kDirSlots * Layout::kDirSlotBytes);
  // Invalidate the whole entry table (flag byte 0 == invalid).
  const std::vector<std::byte> zeros(kBlockSize, std::byte{0});
  for (std::uint64_t off = layout_.entry_table_off; off < layout_.data_off;
       off += kBlockSize) {
    nvm_.store(off, zeros);
    nvm_.clflush(off, kBlockSize);
  }
  nvm_.sfence();
}

void TincaCache::load_for_recovery() {
  // 1. Validate the format identity.
  TINCA_EXPECT(nvm_.load8(Layout::kMagicOff) == Layout::kMagic,
               "NVM device is not a Tinca cache");
  TINCA_EXPECT(nvm_.load8(Layout::kVersionOff) == Layout::kVersion,
               "Tinca format version mismatch");
  TINCA_EXPECT(nvm_.load8(Layout::kNumBlocksOff) == layout_.num_blocks,
               "cache geometry changed since format");
  TINCA_EXPECT(nvm_.load8(Layout::kRingCapacityOff) == layout_.ring_capacity,
               "ring geometry changed since format");
  TINCA_EXPECT(nvm_.load8(Layout::kNumStreamsOff) == layout_.num_streams,
               "stream count changed since format");
  format_epoch_ = nvm_.load8(Layout::kFormatEpochOff);

  // 2. Load every stream's durable commit hint and the whole entry table.
  for (RingBuffer& ring : rings_) ring.load();
  dirty_count_ = 0;
  for (std::uint32_t slot = 0; slot < layout_.num_blocks; ++slot) {
    mirror_[slot] = read_entry_from_nvm(slot);
    if (mirror_[slot].valid && mirror_[slot].modified) ++dirty_count_;
  }

  // Temporary disk-block index over the raw table (DRAM index is rebuilt
  // from scratch in recovery_apply).
  index_.clear();
  for (std::uint32_t slot = 0; slot < layout_.num_blocks; ++slot)
    if (mirror_[slot].valid) index_.emplace(mirror_[slot].disk_blkno, slot);
}

std::uint64_t TincaCache::block_fp(std::uint32_t nvm_block) const {
  return fingerprint(
      nvm_.read_view(layout_.data_block_off(nvm_block), kBlockSize));
}

// Whether a committed record's block can still be surfaced whole: the entry
// still points at it (or a LATER in-flight COW moved the entry onward —
// log-role with prev == the record's block) and the data matches the sealed
// fingerprint.
bool TincaCache::record_placed(const RingRecord& r) const {
  if (r.curr_nvm >= layout_.num_blocks) return false;
  const std::uint32_t slot = index_.find(r.disk_blkno);
  if (slot == BlockIndex::kNone) return false;
  const CacheEntry& e = mirror_[slot];
  const bool entry_ok = e.curr_nvm == r.curr_nvm ||
                        (e.role == Role::kLog && e.prev_nvm == r.curr_nvm);
  return entry_ok && block_fp(r.curr_nvm) == r.payload_fp;
}

TincaCache::RecoveryScan TincaCache::recovery_scan() {
  TINCA_TRACE_SPAN(trace_, ts_recovery_);
  // 3. Scan each stream's validated ring records upward from its durable
  //    hint (DESIGN.md §14/§15).  Everything below a hint is fully durable
  //    AND role-switched; above it live at most the newest committed batches
  //    (whose role switches may not have been swept out yet) and the batch
  //    that was open at the crash.  A batch commit record whose batch_start
  //    matches the current run's first index closes a committed batch; the
  //    first invalid record (or an incoherent seal) ends that stream's scan,
  //    leaving a trailing run of in-flight block records.
  recovery_ = std::make_unique<RecoveryState>();
  recovery_->runs.resize(layout_.num_streams);
  for (std::uint32_t s = 0; s < layout_.num_streams; ++s) {
    const RingBuffer& ring = rings_[s];
    std::vector<RingRecord>& run = recovery_->runs[s];
    std::uint64_t idx = ring.durable_hint();
    const std::uint64_t scan_end = idx + layout_.stream_capacity;
    std::uint64_t run_start = idx;
    while (idx < scan_end) {
      const auto rec = ring.scan(idx, format_epoch_);
      if (!rec) break;
      if (rec->kind == RingRecord::Kind::kBlock) {
        run.push_back(*rec);
      } else {
        if (rec->batch_start() != run_start) break;  // stale seal from an
                                                     // earlier lap's batch
        recovery_->batches.push_back(
            {std::move(run), rec->commit_seq(), rec->commit_id(), s});
        run.clear();
        run_start = idx + 1;
      }
      ++idx;
    }
  }

  // Identify THE newest batch across all streams by its sealed sequence
  // number.  Per cache at most ONE batch can be un-fenced at a crash (the
  // owner mutex serializes commits, and a batch's fence completes before its
  // successor stages), so only the max-seq batch needs the all-or-nothing
  // placement check; every older sealed batch provably completed its fence —
  // a later seal exists — and commits unconditionally.
  for (std::size_t i = 0; i < recovery_->batches.size(); ++i) {
    if (recovery_->last < 0 ||
        recovery_->batches[i].seq >
            recovery_->batches[static_cast<std::size_t>(recovery_->last)].seq)
      recovery_->last = static_cast<int>(i);
  }
  if (recovery_->last >= 0) {
    const RecoveredBatch& newest =
        recovery_->batches[static_cast<std::size_t>(recovery_->last)];
    recovery_->last_placed = true;
    for (const RingRecord& r : newest.records)
      recovery_->last_placed = recovery_->last_placed && record_placed(r);
  }

  // Report the anchored batches for the coordinator's adjudication.
  RecoveryScan out;
  for (std::size_t i = 0; i < recovery_->batches.size(); ++i) {
    const RecoveredBatch& b = recovery_->batches[i];
    if (b.commit_id == 0) continue;
    const bool is_last = static_cast<int>(i) == recovery_->last;
    out.anchored.push_back(
        {b.commit_id, is_last, is_last ? recovery_->last_placed : true});
  }
  return out;
}

void TincaCache::recovery_apply(
    const std::unordered_set<std::uint32_t>& effective_commits) {
  TINCA_TRACE_SPAN(trace_, ts_recovery_);
  TINCA_EXPECT(recovery_ != nullptr, "recovery_apply without a scan");
  const std::unique_ptr<RecoveryState> st = std::move(recovery_);

  // 4. All-or-nothing adjudication of the NEWEST batch.  A plain batch
  //    (commit_id == 0) survives iff every record is placed — its fence ran
  //    (the seal validated), but an eviction hint-sync cut short by the
  //    crash can leave a block unplaceable, demoting the whole batch.  An
  //    anchored batch survives iff the coordinator adjudicated its commit id
  //    effective (directory record present AND every participant cache's
  //    part survived) — all-or-nothing ACROSS caches.  A demoted batch joins
  //    its stream's in-flight run and is revoked below.
  if (st->last >= 0) {
    RecoveredBatch& newest = st->batches[static_cast<std::size_t>(st->last)];
    const bool keep = newest.commit_id != 0
                          ? effective_commits.contains(newest.commit_id)
                          : st->last_placed;
    if (newest.commit_id != 0 && keep)
      TINCA_ENSURE(st->last_placed,
                   "effective cross-stream commit not placed whole");
    if (!keep) {
      std::vector<RingRecord> demoted = std::move(newest.records);
      std::vector<RingRecord>& run = st->runs[newest.stream];
      demoted.insert(demoted.end(), run.begin(), run.end());
      run = std::move(demoted);
      newest.records.clear();
    }
  }

  // 5. Roll committed batches forward: a log-role entry still holding a
  //    committed record's block is a role switch the crash beat to the
  //    media — flip it to buffer.  Only a disk block's NEWEST record may:
  //    once a newer batch superseded an older copy, reclaim freed the older
  //    NVM block, and the in-flight batch may COW the block straight back
  //    into it; a cut that keeps that entry line but loses the few changed
  //    data lines leaves it over bytes matching the OLDER record.  The
  //    fingerprint check screens out an install into any other reused block
  //    (committed data was fenced, and never rewritten while referenced).
  std::unordered_map<std::uint64_t, std::pair<std::uint32_t, const RingRecord*>>
      newest_record;  // disk block → (batch seq, record)
  for (const RecoveredBatch& b : st->batches) {
    for (const RingRecord& r : b.records) {
      auto [it, fresh] = newest_record.try_emplace(r.disk_blkno, b.seq, &r);
      if (!fresh && it->second.first <= b.seq) it->second = {b.seq, &r};
    }
  }
  for (const RecoveredBatch& b : st->batches) {
    for (const RingRecord& r : b.records) {
      if (newest_record.at(r.disk_blkno).second != &r) continue;
      if (r.curr_nvm >= layout_.num_blocks) continue;
      const std::uint32_t slot = index_.find(r.disk_blkno);
      if (slot == BlockIndex::kNone) continue;
      CacheEntry e = mirror_[slot];
      if (!e.valid || e.role != Role::kLog || e.curr_nvm != r.curr_nvm)
        continue;
      if (block_fp(r.curr_nvm) != r.payload_fp) continue;
      e.role = Role::kBuffer;
      e.prev_clean = false;
      write_entry(slot, e);
      ++stats_.role_switches;
    }
  }

  // 6. Revoke every stream's in-flight run: every block an open or demoted
  //    batch recorded whose staged entry reached the media is rolled back
  //    (marker rollback to prev, or invalidation for write misses and
  //    clean-prev COWs).
  for (const std::vector<RingRecord>& run : st->runs) {
    for (const RingRecord& r : run) {
      if (r.kind != RingRecord::Kind::kBlock) continue;
      const std::uint32_t slot = index_.find(r.disk_blkno);
      if (slot == BlockIndex::kNone) continue;
      const CacheEntry& e = mirror_[slot];
      if (e.valid && e.role == Role::kLog && e.curr_nvm == r.curr_nvm)
        revoke_slot(slot);
    }
  }

  // 7. Full entry scan: catches staged installs whose entry line survived
  //    but whose ring record did not (record and entry are both unfenced
  //    until the batch flush, so either can reach the media alone); also
  //    sheds clean entries, whose data was never explicitly flushed
  //    (DESIGN.md §5).
  for (std::uint32_t slot = 0; slot < layout_.num_blocks; ++slot) {
    CacheEntry& e = mirror_[slot];
    if (!e.valid) continue;
    if (e.role == Role::kLog) revoke_slot(slot);
    if (e.valid && !e.modified) {
      index_.erase(e.disk_blkno);
      invalidate_entry(slot);
      ++stats_.dropped_clean_entries;
    }
  }

  // 8. Durably pin the adjudicated entry table.  A *clean* remount arrives
  //    with the previous life's staged publish metadata still unflushed: the
  //    accepted (volatile) side of such an entry line is a role switch whose
  //    durable side is still the log-role install.  The epoch bump below
  //    retires the ring records that explain that log side, so if a later
  //    power cut reverted the line, the sweep would roll the entry back to a
  //    previous version whose NVM block may long since have been recycled.
  //    One flush pass over the table closes the hole.
  nvm_.clflush(layout_.entry_table_off,
               layout_.data_off - layout_.entry_table_off);
  nvm_.sfence();

  //    Epilogue.  Bump the format epoch FIRST (a crash before the bump
  //    rescans with the old epoch and redoes the idempotent rewrites above;
  //    a crash after it finds only invalid records), then reset every
  //    stream's ring — with the new epoch no stale ring record OR commit
  //    directory record can validate, so indices and hints restart from
  //    zero and directory slots are free for reuse.
  ++format_epoch_;
  nvm_.atomic_store8(Layout::kFormatEpochOff, format_epoch_);
  nvm_.persist(Layout::kFormatEpochOff, 8);
  for (RingBuffer& ring : rings_) ring.format();

  // 9. Rebuild DRAM structures from the surviving entries.
  index_.clear();
  free_entries_.clear();
  free_blocks_.clear();
  std::vector<bool> block_used(layout_.num_blocks, false);
  for (std::uint32_t slot = 0; slot < layout_.num_blocks; ++slot) {
    const CacheEntry& e = mirror_[slot];
    if (!e.valid) continue;
    TINCA_ENSURE(e.role == Role::kBuffer, "log-role entry survived recovery");
    TINCA_ENSURE(e.curr_nvm < layout_.num_blocks, "entry points beyond data area");
    TINCA_ENSURE(!block_used[e.curr_nvm], "two entries share an NVM block");
    block_used[e.curr_nvm] = true;
    const bool fresh = index_.emplace(e.disk_blkno, slot);
    TINCA_ENSURE(fresh, "duplicate disk block in entry table");
    lru_.push_mru(slot);
    ++stats_.recovered_entries;
  }
  for (std::uint32_t i = layout_.num_blocks; i-- > 0;) {
    if (!mirror_[i].valid) free_entries_.give(i);
    if (!block_used[i]) free_blocks_.give(i);
  }

  // 10. Seed the (DRAM-only) version chains: every survivor is dirty, i.e.
  //    its NVM copy is ahead of disk, so snapshot readers must find it in a
  //    chain — a disk fallback would hand them stale bytes the moment the
  //    cleaner starts advancing disk again (DESIGN.md §12).
  for (std::uint32_t slot = 0; slot < layout_.num_blocks; ++slot) {
    const CacheEntry& e = mirror_[slot];
    if (!e.valid) continue;
    mvcc_.publish_baseline(e.disk_blkno, e.curr_nvm);
    mvcc_.stats.recovery_seeded.fetch_add(1, std::memory_order_relaxed);
  }

  order_free_blocks_by_wear();
}

// ---------------------------------------------------------------------------
// Entry plumbing
// ---------------------------------------------------------------------------

CacheEntry TincaCache::read_entry_from_nvm(std::uint32_t slot) const {
  std::array<std::byte, 16> raw{};
  nvm_.load(layout_.entry_off(slot), raw);
  return CacheEntry::decode(raw);
}

void TincaCache::write_entry(std::uint32_t slot, const CacheEntry& e) {
  // Every persistent dirty-bit transition funnels through here (or through
  // invalidate_entry), which is what keeps the incremental dirty counter
  // exact without the old per-commit full-index scan.
  const bool was_dirty = mirror_[slot].valid && mirror_[slot].modified;
  const bool now_dirty = e.valid && e.modified;
  if (was_dirty && !now_dirty) --dirty_count_;
  if (!was_dirty && now_dirty) ++dirty_count_;
  mirror_[slot] = e;
  const auto raw = e.encode();
  const std::uint64_t off = layout_.entry_off(slot);
  nvm_.atomic_store16(off, raw);
  nvm_.persist(off, 16);
}

void TincaCache::invalidate_entry(std::uint32_t slot) {
  if (mirror_[slot].valid && mirror_[slot].modified) --dirty_count_;
  mirror_[slot] = CacheEntry{};
  const std::array<std::byte, 16> zeros{};
  const std::uint64_t off = layout_.entry_off(slot);
  nvm_.atomic_store16(off, zeros);
  nvm_.persist(off, 16);
}

void TincaCache::write_data_block(std::uint32_t nvm_block,
                                  std::span<const std::byte> data) {
  const std::uint64_t off = layout_.data_block_off(nvm_block);
  nvm_.store(off, data);
  nvm_.persist(off, kBlockSize);
}

// Staged variants (DESIGN.md §14): same stores and DRAM bookkeeping, but no
// clflush/sfence — the dirtied range is queued for the batch flush pass, so a
// whole batch pays one fence instead of one per store.

void TincaCache::write_entry_staged(
    std::uint32_t slot, const CacheEntry& e,
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& ranges) {
  const bool was_dirty = mirror_[slot].valid && mirror_[slot].modified;
  const bool now_dirty = e.valid && e.modified;
  if (was_dirty && !now_dirty) --dirty_count_;
  if (!was_dirty && now_dirty) ++dirty_count_;
  mirror_[slot] = e;
  const auto raw = e.encode();
  const std::uint64_t off = layout_.entry_off(slot);
  nvm_.atomic_store16(off, raw);
  ranges.emplace_back(off, 16);
}

void TincaCache::write_data_block_staged(std::uint32_t nvm_block,
                                         std::span<const std::byte> data) {
  const std::uint64_t off = layout_.data_block_off(nvm_block);
  nvm_.store(off, data);
  flush_ranges_.emplace_back(off, kBlockSize);
}

// ---------------------------------------------------------------------------
// Replacement (§4.6)
// ---------------------------------------------------------------------------

// Disk write with the configured retry policy: transient errors are retried
// with exponential backoff (each retry is a traced span covering its wait);
// a bad sector comes back to the caller unhealed.  Retries are charged to
// `*retry_counter` so cleaner-driven writes book their storms under
// cleaner.io_retries, not the foreground's io.retries.
blockdev::IoStatus TincaCache::disk_write(std::uint64_t blkno,
                                          std::span<const std::byte> buf,
                                          std::uint64_t* retry_counter) {
  blockdev::IoStatus st = disk_.write(blkno, buf);
  std::uint64_t wait = cfg_.io.backoff_ns;
  for (std::uint32_t attempt = 0;
       st == blockdev::IoStatus::kTransient && attempt < cfg_.io.max_retries;
       ++attempt) {
    TINCA_TRACE_SPAN(trace_, ts_io_retry_);
    nvm_.clock().advance(wait);
    wait *= cfg_.io.backoff_mult == 0 ? 1 : cfg_.io.backoff_mult;
    ++*retry_counter;
    st = disk_.write(blkno, buf);
  }
  return st;
}

blockdev::IoStatus TincaCache::disk_write(std::uint64_t blkno,
                                          std::span<const std::byte> buf) {
  return disk_write(blkno, buf, &stats_.io_retries);
}

blockdev::IoStatus TincaCache::disk_read(std::uint64_t blkno,
                                         std::span<std::byte> buf) {
  blockdev::IoStatus st = disk_.read(blkno, buf);
  std::uint64_t wait = cfg_.io.backoff_ns;
  for (std::uint32_t attempt = 0;
       st == blockdev::IoStatus::kTransient && attempt < cfg_.io.max_retries;
       ++attempt) {
    TINCA_TRACE_SPAN(trace_, ts_io_retry_);
    nvm_.clock().advance(wait);
    wait *= cfg_.io.backoff_mult == 0 ? 1 : cfg_.io.backoff_mult;
    ++stats_.io_retries;
    st = disk_.read(blkno, buf);
  }
  return st;
}

// A write hit a permanent bad sector: quarantine the block (it stays dirty
// in NVM, never evicted) and degrade to forced write-through so future
// commits surface disk health instead of accumulating unsyncable state.
// The quarantine set is DRAM-only on purpose — a quarantined block is by
// definition dirty, recovery keeps dirty entries, and the next writeback
// attempt after a restart re-discovers the bad sector, so nothing is lost
// across a crash.
void TincaCache::note_bad_block(std::uint64_t disk_blkno) {
  if (quarantine_.insert(disk_blkno).second) ++stats_.io_quarantined;
  degraded_ = true;
}

// Pushes the block to disk without touching the entry.  Callers account the
// write: replacement paths bump `dirty_writebacks`, the write-through commit
// path bumps `writethrough_writes` — conflating the two skewed the Fig 12
// media accounting.  Returns false when the block could not be written
// (quarantined, bad sector, or retries exhausted); the caller must then
// leave the entry dirty.
bool TincaCache::writeback(std::uint32_t slot) {
  TINCA_TRACE_SPAN(trace_, ts_writeback_);
  const CacheEntry& e = mirror_[slot];
  if (quarantine_.contains(e.disk_blkno)) return false;
  if (mvcc_defer_disk_write(e.disk_blkno)) return false;
  const blockdev::IoStatus st = disk_write(
      e.disk_blkno,
      nvm_.read_view(layout_.data_block_off(e.curr_nvm), kBlockSize));
  if (st == blockdev::IoStatus::kOk) return true;
  if (st == blockdev::IoStatus::kBadSector) note_bad_block(e.disk_blkno);
  return false;
}

std::uint32_t TincaCache::evict_one(std::uint32_t scan_from) {
  TINCA_TRACE_SPAN(trace_, ts_evict_);
  // LRU with the §4.6 pinning rule: log-role blocks (the committing
  // transaction, including implicitly their previous versions) are skipped.
  // Dirty victims whose writeback fails are skipped too — evicting them
  // would drop the only durable copy of committed data.
  //
  // The scan resumes from `scan_from` (the caller threads the cursor through
  // an ensure_free pass) so a run of quarantined / unwritable victims at the
  // LRU end is skipped once per pass, not once per eviction: the old
  // restart-from-the-tail loop made ensure_free O(n²) against a failing disk.
  //
  // With a cleaner configured, dirty victims are *enqueued* rather than
  // written back inline; the scan keeps looking for a clean victim and only
  // falls back to a blocking cleaner drain when none exists.
  for (;;) {
    std::uint32_t victim =
        (scan_from != SlotLru::kNil && lru_.contains(scan_from))
            ? scan_from
            : lru_.lru();
    bool wrote_back = false;
    while (victim != SlotLru::kNil) {
      if (mirror_[victim].role == Role::kLog) {
        victim = lru_.newer(victim);
        continue;
      }
      if (!mirror_[victim].modified) break;
      if (cleaner_) {
        // Off the commit path: hand the dirty victim to the cleaner and keep
        // scanning for a clean one.  (A full queue is fine — the watermark
        // pull will find the block later.)
        cleaner_->try_enqueue(mirror_[victim].disk_blkno);
        victim = lru_.newer(victim);
        continue;
      }
      if (writeback(victim)) {
        wrote_back = true;
        break;
      }
      victim = lru_.newer(victim);
    }
    if (victim == SlotLru::kNil && scan_from != SlotLru::kNil) {
      // Cursor staleness: slots the cursor already skipped may have become
      // evictable since they were visited — e.g. a quarantined victim the
      // cleaner has drained and de-quarantined mid-pass.  One full rescan
      // from the LRU end before concluding the cache is really stuck.
      scan_from = SlotLru::kNil;
      continue;
    }
    if (victim == SlotLru::kNil && cleaner_ && cleaner_->drain_blocking() > 0) {
      // Backpressure: the cleaner retired at least one block, so a clean
      // victim now exists.  Restart from the LRU end (slots may have moved).
      scan_from = SlotLru::kNil;
      continue;
    }
    TINCA_ENSURE(victim != SlotLru::kNil,
                 "cache wedged: every cached block is pinned by the committing "
                 "transaction or stuck dirty behind a failing disk");
    const std::uint32_t next = lru_.newer(victim);
    const CacheEntry e = mirror_[victim];
    if (wrote_back) ++stats_.dirty_writebacks;
    // Evicting a block of the newest published batch while the durable hint
    // still points below that batch would let recovery find one of its
    // records unplaced and demote the whole (acked!) batch.  Push the hint
    // past the batch first — slow path, but eviction is already a disk write.
    if (last_batch_blocks_.contains(e.disk_blkno)) hint_sync();
    invalidate_entry(victim);
    index_.erase(e.disk_blkno);
    lru_.remove(victim);
    // The evicted block's version chain (when it has one) keeps serving
    // pinned snapshot readers, so it retains the NVM block; reclamation
    // returns it to the pool once no pin can reach the chain.
    if (mvcc_.owns(e.disk_blkno, e.curr_nvm)) {
      mvcc_.retire(e.disk_blkno);
    } else {
      free_blocks_.give(e.curr_nvm);
    }
    free_entries_.give(victim);
    ++stats_.evictions;
    return next;
  }
}

void TincaCache::ensure_free(std::uint32_t entries, std::uint32_t blocks) {
  std::uint32_t cursor = SlotLru::kNil;
  while (free_entries_.count() < entries || free_blocks_.count() < blocks) {
    // Old versions parked in chains are the cheapest space to win back —
    // reclaim before evicting live blocks (eviction itself parks more
    // blocks in retired chains while readers hold pins).
    mvcc_reclaim();
    if (free_entries_.count() >= entries && free_blocks_.count() >= blocks)
      break;
    cursor = evict_one(cursor);
  }
}

void TincaCache::clean_to_threshold() {
  if (cleaner_) {
    // Cleaner configured: this path only *nominates* blocks; the actual disk
    // writes happen on cleaner steps.  Above the high watermark, feed the
    // queue oldest-first so the next steps have something batched to drain.
    const std::uint64_t high =
        layout_.num_blocks * cleaner_->config().high_water_pct / 100;
    if (dirty_count_ <= high) return;
    std::uint64_t excess = dirty_count_ - high;
    std::uint32_t slot = lru_.lru();
    while (slot != SlotLru::kNil && excess > 0) {
      const CacheEntry& e = mirror_[slot];
      if (e.valid && e.modified && e.role == Role::kBuffer &&
          !quarantine_.contains(e.disk_blkno) &&
          !cleaner_->pending(e.disk_blkno)) {
        if (!cleaner_->try_enqueue(e.disk_blkno)) break;  // queue full
        --excess;
      }
      slot = lru_.newer(slot);
    }
    return;
  }
  if (cfg_.clean_thresh_pct >= 100) return;
  const std::uint64_t limit =
      layout_.num_blocks * cfg_.clean_thresh_pct / 100;
  // The incremental counter replaces the old O(capacity) index rescan that
  // this path used to perform on every single commit.
  if (dirty_count_ <= limit) return;
  // Oldest-first: walk from the LRU end, skipping pinned (log-role) blocks.
  std::uint32_t slot = lru_.lru();
  while (slot != SlotLru::kNil && dirty_count_ > limit) {
    const std::uint32_t next = lru_.newer(slot);
    CacheEntry e = mirror_[slot];
    if (e.valid && e.modified && e.role == Role::kBuffer && writeback(slot)) {
      e.modified = false;
      write_entry(slot, e);  // decrements dirty_count_
      ++stats_.dirty_writebacks;
      ++stats_.background_cleanings;
    }
    slot = next;
  }
}

// ---------------------------------------------------------------------------
// CleanerClient (DESIGN.md §11)
// ---------------------------------------------------------------------------

// Clean one disk block: write its newest NVM copy to disk durably, *then*
// clear the modified bit.  That ordering is the whole crash-safety argument —
// a power cut anywhere in here leaves the entry dirty, recovery keeps dirty
// entries, and the block is simply cleaned again (write-back is idempotent).
cleaner::CleanOutcome TincaCache::cleaner_clean(std::uint64_t key,
                                                std::uint64_t* io_retries) {
  const std::uint32_t slot = index_.find(key);
  if (slot == BlockIndex::kNone) return cleaner::CleanOutcome::kStale;
  CacheEntry e = mirror_[slot];
  if (!e.valid || !e.modified) return cleaner::CleanOutcome::kStale;
  if (e.role == Role::kLog) return cleaner::CleanOutcome::kPinned;
  // A pinned snapshot reader may still depend on the block's CURRENT disk
  // content (no chain version <= its pin): advancing disk now would hand it
  // torn history.  Requeue; pins are short-lived (DESIGN.md §12).
  if (mvcc_defer_disk_write(key)) return cleaner::CleanOutcome::kPinned;

  if (!cfg_.cleaner.sabotage_skip_write) {
    const std::span<const std::byte> data =
        nvm_.read_view(layout_.data_block_off(e.curr_nvm), kBlockSize);
    nvm_.injector.point();  // CP: cut mid-drain, before the disk write
    const blockdev::IoStatus st = disk_write(key, data, io_retries);
    if (st != blockdev::IoStatus::kOk) {
      // Unlike the foreground path, a bad sector does NOT give up for good:
      // the cleaner keeps the block on its backoff queue, so quarantine is a
      // state the cache can *leave* if the sector recovers.
      if (st == blockdev::IoStatus::kBadSector) note_bad_block(key);
      return cleaner::CleanOutcome::kFailed;
    }
    quarantine_.erase(key);
    ++stats_.dirty_writebacks;
    ++stats_.background_cleanings;
    nvm_.injector.point();  // CP: durable on disk, entry still dirty
  }
  // Sabotage mode (oracle self-test) falls through to here without writing:
  // the entry goes clean while disk holds stale data — the recovery oracle
  // must flag the resulting state as matching no acceptable history.

  e.modified = false;
  write_entry(slot, e);
  return cleaner::CleanOutcome::kRetired;
}

std::uint64_t TincaCache::cleaner_dirty_blocks() const { return dirty_count_; }

std::uint64_t TincaCache::cleaner_capacity_blocks() const {
  return layout_.num_blocks;
}

void TincaCache::cleaner_collect(std::uint32_t max,
                                 std::vector<std::uint64_t>& out) {
  // Oldest-first along the LRU list — deterministic, and the blocks most
  // likely to be eviction victims soon.  Quarantined blocks are not pulled
  // (they ride the cleaner's failure-retry queue instead), and keys already
  // pending would only bounce off the dup filter.
  std::uint32_t slot = lru_.lru();
  while (slot != SlotLru::kNil && out.size() < max) {
    const CacheEntry& e = mirror_[slot];
    if (e.valid && e.modified && e.role == Role::kBuffer &&
        !quarantine_.contains(e.disk_blkno) && !cleaner_->pending(e.disk_blkno))
      out.push_back(e.disk_blkno);
    slot = lru_.newer(slot);
  }
}

void TincaCache::assert_dirty_count() const {
#ifndef NDEBUG
  std::uint64_t scan = 0;
  index_.for_each([&](std::uint64_t, std::uint32_t slot) {
    if (mirror_[slot].modified) ++scan;
  });
  TINCA_ENSURE(scan == dirty_count_,
               "incremental dirty counter diverged from the entry table");
  const auto valid = std::count_if(mirror_.begin(), mirror_.end(),
                                   [](const CacheEntry& e) { return e.valid; });
  TINCA_ENSURE(index_.size() == static_cast<std::uint64_t>(valid),
               "block index size diverged from the valid entries");
#endif
}

std::uint64_t TincaCache::max_txn_blocks() const {
  // Worst case every block is a write hit needing both versions resident,
  // and nothing else may be evictable; keep a margin of 2 blocks.  One
  // stream's ring must fit the whole batch plus its commit record after a
  // hint sync (batches never span streams).
  const std::uint64_t cap = layout_.num_blocks / 2;
  const std::uint64_t by_ring = layout_.stream_capacity - 1;
  return std::min(cap > 2 ? cap - 2 : 1, by_ring);
}

// ---------------------------------------------------------------------------
// Transactional primitives (§4.1, §4.4)
// ---------------------------------------------------------------------------

Transaction TincaCache::tinca_init_txn() { return Transaction(next_txn_id_++); }

void TincaCache::tinca_abort(Transaction& txn) {
  TINCA_TRACE_SPAN(trace_, ts_abort_);
  TINCA_EXPECT(txn.open_, "abort of a closed transaction");
  txn.open_ = false;
  txn.blocks_.clear();
  txn.order_.clear();
  ++stats_.txns_aborted;
}

// Stage one merged block's install (pipeline stage A, DESIGN.md §14): the
// COW/miss install of v1's commit_block, but every store staged (unflushed)
// with its byte range queued for the batch flush pass, plus a self-validating
// ring block record carrying the data's fingerprint.
void TincaCache::stage_block_install(std::uint64_t disk_blkno,
                                     std::span<const std::byte> data) {
  nvm_.injector.point();  // CP: before this block touches NVM
  nvm_.clock().advance(cfg_.cpu_op_ns);

  // Reserve exactly what each path consumes.  A COW hit takes one free NVM
  // block but *no* entry slot; a miss takes one of each.  Making the target
  // MRU first steers eviction elsewhere; should it still get evicted
  // (everything else pinned by the committing batch), it cleanly degrades to
  // a write miss — its last committed contents are on disk, so rollback
  // stays correct.
  std::uint32_t slot = index_.find(disk_blkno);
  if (slot != BlockIndex::kNone) {
    lru_.touch(slot);
    ensure_free(0, 1);
    slot = index_.find(disk_blkno);
  }
  if (slot == BlockIndex::kNone) ensure_free(1, 1);

  std::uint32_t nb = 0;
  {
    TINCA_TRACE_SPAN(trace_, ts_cow_);
    if (slot != BlockIndex::kNone) {
      // Write hit: COW block write (§4.3), staged.
      ++stats_.write_hits;
      ++stats_.cow_writes;
      // First COW over a chainless entry (a clean read fill): publish its
      // current bytes as the epoch-1 baseline version so pinned readers keep
      // resolving in NVM instead of depending on the disk copy (which the
      // cleaner may advance).  The chain takes ownership of the block.
      if (!mvcc_.owns(disk_blkno, mirror_[slot].curr_nvm))
        mvcc_baseline(disk_blkno, mirror_[slot].curr_nvm);
      nb = free_blocks_.take();
      write_data_block_staged(nb, data);
      nvm_.injector.point();  // CP: new version staged, entry still old

      CacheEntry e = mirror_[slot];
      // A clean previous version was never flushed (read fill / cleaned
      // block) — its NVM copy may be torn after a crash, but disk holds the
      // same bytes, so rollback must invalidate instead of reverting.
      e.prev_clean = !e.modified;
      e.prev_nvm = e.curr_nvm;  // keep the old version reachable for rollback
      e.curr_nvm = nb;
      e.role = Role::kLog;
      e.modified = true;
      write_entry_staged(slot, e, flush_ranges_);
      nvm_.injector.point();  // CP: entry staged to the new version
    } else {
      // Write miss: create a new entry whose previous version is FRESH.
      ++stats_.write_misses;
      slot = free_entries_.take();
      nb = free_blocks_.take();
      write_data_block_staged(nb, data);
      nvm_.injector.point();  // CP: data staged, entry absent

      CacheEntry e;
      e.valid = true;
      e.role = Role::kLog;
      e.modified = true;
      e.disk_blkno = disk_blkno;
      e.prev_nvm = CacheEntry::kFresh;
      e.curr_nvm = nb;
      write_entry_staged(slot, e, flush_ranges_);
      index_.emplace(disk_blkno, slot);
      lru_.push_mru(slot);  // listed, but pinned by the log role
      nvm_.injector.point();  // CP: entry created (staged)
    }
  }

  TINCA_TRACE_SPAN(trace_, ts_ring_);
  flush_ranges_.push_back(
      rings_[batch_.stream].stage_block(disk_blkno, nb, fingerprint(data)));
  nvm_.injector.point();  // CP: block record staged
}

// Pipeline stage D (publish): stage every role switch — the dirtied entry
// lines go to pending_ranges_, swept out by the NEXT batch's flush pass or by
// hint_sync(), never by this batch.
void TincaCache::publish_switches(const std::vector<std::uint64_t>& blocks) {
  TINCA_TRACE_SPAN(trace_, ts_role_switch_);
  for (std::uint64_t blkno : blocks) {
    const std::uint32_t slot = index_.find(blkno);
    TINCA_ENSURE(slot != BlockIndex::kNone,
                 "committed block vanished before switch");
    CacheEntry e = mirror_[slot];
    TINCA_ENSURE(e.role == Role::kLog, "role switch on a buffer block");
    e.role = Role::kBuffer;
    e.prev_clean = false;
    // NOTE: prev_nvm is deliberately *kept*: recovery can still identify the
    // entry whichever side of the switch reached the media (DESIGN.md §14).
    write_entry_staged(slot, e, pending_ranges_);
    nvm_.injector.point();  // CP: this switch staged

    // The previous version usually lives on as the head of the block's
    // version chain (the COW path guarantees a chain for every write hit);
    // then the chain owns the NVM block and reclamation frees it once no
    // pinned reader can resolve to it.  Only a chainless prev (impossible
    // today, but cheap to keep correct) goes straight back to the pool.
    if (e.prev_nvm != CacheEntry::kFresh && !mvcc_.owns(blkno, e.prev_nvm))
      free_blocks_.give(e.prev_nvm);
    lru_.touch(slot);  // §4.6(2b): committed blocks become MRU
    ++stats_.role_switches;
  }
}

// Durably advance every dirty stream's commit hint past its newest published
// batch: flush the staged role switches, then persist hint := tail per dirty
// stream (each persist's fence also covers the preceding flushes).  After
// this, recovery's scan windows are all empty — nothing gets re-validated.
// In the common case exactly one stream is dirty, so this costs one fence.
void TincaCache::hint_sync() {
  for (const auto& [off, len] : pending_ranges_) nvm_.clflush(off, len);
  pending_ranges_.clear();
  for (RingBuffer& ring : rings_)
    if (ring.hint_dirty()) ring.persist_hint();
  last_batch_blocks_.clear();
  ++stats_.hint_syncs;
}

void TincaCache::tinca_commit(Transaction& txn) {
  Transaction* const one[] = {&txn};
  commit_group(one);
}

void TincaCache::close_committed(Transaction& t) {
  stats_.blocks_per_txn.record(t.order_.size());
  ++stats_.txns_committed;
  t.open_ = false;
  t.blocks_.clear();
  t.order_.clear();
}

void TincaCache::commit_group(std::span<Transaction* const> txns) {
  TINCA_TRACE_SPAN(trace_, ts_commit_);
  if (!batch_stage(txns, 0)) return;
  batch_flush();
  // The single sfence is the batch's commit point.
  nvm_.sfence();
  ++stats_.commit_fences;
  batch_publish();
}

// Phase 1 (stages A+B of DESIGN.md §14): merge, install and seal on the next
// round-robin stream.  Nothing flushed yet.
bool TincaCache::batch_stage(std::span<Transaction* const> txns,
                             std::uint32_t commit_id) {
  TINCA_ENSURE(!batch_.active, "a batch is already staged");
  for (Transaction* t : txns)
    TINCA_EXPECT(t != nullptr && t->open_, "commit of a closed transaction");

  // Merge the batch last-writer-wins, in span order: one install, one ring
  // record and one flushed data block per distinct disk block, however many
  // transactions staged it.  (Required for correctness, not just speed: two
  // COWs of the same block in one batch would leave the middle version
  // unreachable for rollback.)
  std::vector<std::uint64_t> order;
  std::unordered_map<std::uint64_t, std::span<const std::byte>> merged;
  for (Transaction* t : txns) {
    for (std::uint64_t blkno : t->order_) {
      const auto [mit, fresh] = merged.insert_or_assign(
          blkno, std::span<const std::byte>(t->blocks_[blkno]));
      if (fresh)
        order.push_back(blkno);
      else
        ++stats_.group_merged_writes;
    }
  }

  const std::size_t n = order.size();
  if (n == 0) {
    for (Transaction* t : txns) close_committed(*t);
    if (!txns.empty()) {
      ++stats_.commit_batches;
      stats_.commit_batch_size.record(txns.size());
    }
    return false;
  }
  TINCA_EXPECT(n <= max_txn_blocks(),
               "batch exceeds the cache's committable size");

  // Stream assignment: plain round-robin — batches never span streams, and
  // the owner mutex serializes commits, so rotation alone spreads the ring
  // and hint-line traffic evenly with no cross-stream coordination.
  batch_.stream = next_stream_;
  next_stream_ = (next_stream_ + 1) % layout_.num_streams;
  RingBuffer& ring = rings_[batch_.stream];
  TINCA_ENSURE(ring.in_flight() == 0, "a previous commit left the ring open");
  // Ring backpressure: this stream's scan window [durable hint, head) must
  // keep the whole batch plus its commit record.  Syncing the hints empties
  // every stream's window; the other streams are untouched otherwise.
  if (!ring.has_room(n + 1)) hint_sync();
  TINCA_ENSURE(ring.has_room(n + 1), "batch exceeds the ring capacity");

  batch_.start = ring.head();
  batch_.commit_id = commit_id;

  // Stages A+B — append + seal: staged installs and ring records for every
  // merged block, then the batch commit record tagged with the cache-wide
  // batch sequence and the (possibly zero) cross-stream commit id.
  {
    TINCA_TRACE_SPAN(trace_, ts_batch_append_);
    for (std::uint64_t blkno : order) stage_block_install(blkno, merged[blkno]);
    const std::uint64_t tag =
        static_cast<std::uint64_t>(batch_seq_++) |
        (static_cast<std::uint64_t>(commit_id) << 32);
    flush_ranges_.push_back(ring.stage_commit(batch_.start, txns.size(), tag));
  }
  batch_.end = ring.head();
  nvm_.injector.point();  // CP: batch staged and sealed, nothing fenced

  batch_.order = std::move(order);
  batch_.txns.assign(txns.begin(), txns.end());
  batch_.active = true;
  return true;
}

// Phase 2 (stage C minus the fence): ONE clflush pass for the whole batch;
// the PREVIOUS batch's staged role switches and hint lines ride the same
// pass (the pipeline overlap), so they are durable before this batch's hint
// value could ever supersede them.  The caller issues the single sfence —
// the batch's commit point — after this returns (a cross-cache coordinator
// flushes every participant plus the commit record first).
void TincaCache::batch_flush() {
  TINCA_ENSURE(batch_.active, "flush without a staged batch");
  TINCA_TRACE_SPAN(trace_, ts_batch_flush_);
  for (const auto& [off, len] : pending_ranges_) nvm_.clflush(off, len);
  for (const auto& [off, len] : flush_ranges_) {
    nvm_.injector.point();  // CP: mid-flush — this range not yet durable
    nvm_.clflush(off, len);
  }
  pending_ranges_.clear();
  flush_ranges_.clear();
}

// Phase 3 (stages D+E): after the commit fence.  Publishes role switches,
// the stream's commit hint and the MVCC versions, then closes the batch.
void TincaCache::batch_publish() {
  TINCA_ENSURE(batch_.active, "publish without a staged batch");
  // The fence just ran and the flush pass covered every staged hint line
  // (publish appends them to pending_ranges_, which only a full flush
  // clears) — so every stream's staged hint is now the durable one.
  for (RingBuffer& ring : rings_) ring.note_staged_hint_durable();
  nvm_.injector.point();  // CP: batch durable (fence passed), not published

  const std::vector<std::uint64_t>& order = batch_.order;
  RingBuffer& ring = rings_[batch_.stream];

  // Stage D — publish: stage the role switches and the stream's new commit
  // hint (start of this batch); both ride the NEXT batch's flush pass.
  {
    TINCA_TRACE_SPAN(trace_, ts_batch_publish_);
    publish_switches(order);
    pending_ranges_.push_back(ring.publish(batch_.start));
    last_batch_blocks_.clear();
    last_batch_blocks_.insert(order.begin(), order.end());
  }
  nvm_.injector.point();  // CP: published (switches + hint staged, unfenced)

  // MVCC publication (DESIGN.md §12): append each block's new version to its
  // chain at epoch E+1, then bump the commit epoch ONCE for the batch —
  // strictly after the fence so a visible epoch never exposes a transaction
  // that is not yet durable.
  for (std::uint64_t blkno : order)
    mvcc_publish(blkno, mirror_[index_.at(blkno)].curr_nvm);
  mvcc_.bump();

  // Stage E — durable-ack and post-commit work.
  //
  // Write-through mode: propagate to disk now and mark clean.  Crash-safe
  // at any point — until the entry is rewritten clean, the block simply
  // stays dirty in NVM and recovery keeps it.  A degraded cache (bad sector
  // seen) forces write-through even when configured write-back, so disk
  // health surfaces per commit instead of at eviction time.  A failed
  // writeback just leaves the block dirty.
  if (cfg_.write_through || degraded_) {
    if (degraded_ && !cfg_.write_through && cleaner_) {
      // Forced (degradation-driven) write-through with a cleaner: the commit
      // only *enqueues*; retries and backoff against the sick disk run on
      // the cleaner's budget, not this commit's latency.
      for (std::uint64_t blkno : order) cleaner_->try_enqueue(blkno);
    } else {
      for (std::uint64_t blkno : order) {
        const std::uint32_t slot = index_.at(blkno);
        if (!writeback(slot)) continue;
        ++stats_.writethrough_writes;
        if (degraded_ && !cfg_.write_through) ++stats_.io_degraded_writes;
        CacheEntry e = mirror_[slot];
        e.modified = false;
        write_entry(slot, e);
      }
    }
  }

  stats_.blocks_committed += order.size();
  ++stats_.commit_batches;
  stats_.commit_batch_size.record(batch_.txns.size());
  if (batch_.commit_id != 0) ++stats_.xstream_commits;
  for (Transaction* t : batch_.txns) close_committed(*t);

  batch_.active = false;
  batch_.order.clear();
  batch_.txns.clear();

  clean_to_threshold();
  mvcc_reclaim();  // amortized: trims versions this batch superseded
  assert_dirty_count();
}

// ---------------------------------------------------------------------------
// Cached block I/O
// ---------------------------------------------------------------------------

void TincaCache::read_block(std::uint64_t disk_blkno, std::span<std::byte> dst) {
  TINCA_TRACE_SPAN(trace_, ts_read_);
  TINCA_EXPECT(dst.size() == kBlockSize, "reads are whole 4 KB blocks");
  nvm_.clock().advance(cfg_.cpu_op_ns);
  if (const std::uint32_t slot = index_.find(disk_blkno);
      slot != BlockIndex::kNone) {
    nvm_.load(layout_.data_block_off(mirror_[slot].curr_nvm), dst);
    lru_.touch(slot);
    ++stats_.read_hits;
    return;
  }
  ++stats_.read_misses;
  const blockdev::IoStatus st = disk_read(disk_blkno, dst);
  if (st != blockdev::IoStatus::kOk)
    throw blockdev::IoError("tinca: unrecoverable disk read", disk_blkno, st);
  if (!cfg_.cache_reads) return;

  // Clean fill: stored but *not* flushed — recovery drops clean entries, so
  // durability is not required and the fill costs no clflush.
  ensure_free(1, 1);
  const std::uint32_t slot = free_entries_.take();
  const std::uint32_t nb = free_blocks_.take();
  nvm_.store(layout_.data_block_off(nb), dst);
  CacheEntry e;
  e.valid = true;
  e.role = Role::kBuffer;
  e.modified = false;
  e.disk_blkno = disk_blkno;
  e.prev_nvm = CacheEntry::kFresh;
  e.curr_nvm = nb;
  mirror_[slot] = e;
  nvm_.atomic_store16(layout_.entry_off(slot), e.encode());
  index_.emplace(disk_blkno, slot);
  lru_.push_mru(slot);
}

void TincaCache::write_block(std::uint64_t disk_blkno,
                             std::span<const std::byte> data) {
  Transaction txn = tinca_init_txn();
  txn.add(disk_blkno, data);
  tinca_commit(txn);
}

void TincaCache::flush_dirty() {
  // Write back in ascending disk order: sequential on HDD, harmless on SSD.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> dirty;
  index_.for_each([&](std::uint64_t blkno, std::uint32_t slot) {
    if (mirror_[slot].modified) dirty.emplace_back(blkno, slot);
  });
  std::sort(dirty.begin(), dirty.end());
  for (auto [blkno, slot] : dirty) {
    if (!writeback(slot)) continue;  // stays dirty; retried on the next flush
    ++stats_.dirty_writebacks;
    CacheEntry e = mirror_[slot];
    e.modified = false;
    write_entry(slot, e);
  }
  assert_dirty_count();
}

// ---------------------------------------------------------------------------
// Recovery / revocation
// ---------------------------------------------------------------------------

void TincaCache::revoke_slot(std::uint32_t slot) {
  nvm_.injector.point();  // CP: crash-during-recovery sweeps land here
  CacheEntry& e = mirror_[slot];
  if (!e.valid) return;           // already deleted by an earlier pass
  if (e.revoke_marker()) return;  // already rolled back (idempotence)

  if (e.prev_nvm == CacheEntry::kFresh || e.prev_clean) {
    // Write-miss block, or a COW over a CLEAN previous version: revert to
    // "not cached".  Both have disk as the authoritative copy — a miss was
    // never cached before, and a clean prev's NVM copy was installed without
    // a flush (read fill) or matches disk by definition (cleaned block), so
    // reverting the entry to a possibly-torn unflushed NVM block would be
    // wrong where invalidation is provably safe.
    //
    // Deliberate asymmetry with the marker below: revoke_marker() requires
    // prev != kFresh, so a FRESH entry can never carry it — and never needs
    // to.  Its rollback is a single atomic 16 B invalidation: a crash mid-
    // revocation leaves either the old entry (re-revoked, taking this same
    // branch) or an invalid entry (skipped by the !valid guard above).
    // There is no intermediate state a marker would have to make idempotent.
    // The assertion pins the encoding half of that argument: nothing writes
    // prev == curr while prev is kFresh, because curr is always a real
    // (allocated) NVM block number, and kFresh is no such number.
    TINCA_ENSURE(e.curr_nvm != CacheEntry::kFresh,
                 "a FRESH entry's curr must be a real NVM block");
    index_.erase(e.disk_blkno);
    invalidate_entry(slot);
  } else {
    // Write-hit block: roll back to the previous version.  prev := curr
    // (the revoke marker) makes a second revocation a no-op even if we
    // crash during recovery itself.
    CacheEntry rolled = e;
    rolled.curr_nvm = e.prev_nvm;
    rolled.prev_nvm = e.prev_nvm;
    rolled.role = Role::kBuffer;
    rolled.modified = true;  // conservatively dirty; costs one extra flush
    write_entry(slot, rolled);
  }
  ++stats_.revoked_blocks;
}

// ---------------------------------------------------------------------------
// Snapshot reads (MVCC, DESIGN.md §12)
// ---------------------------------------------------------------------------

void TincaCache::mvcc_publish(std::uint64_t disk_blkno,
                              std::uint32_t nvm_block) {
  mvcc_.publish(disk_blkno, nvm_block);
}

void TincaCache::mvcc_baseline(std::uint64_t disk_blkno,
                               std::uint32_t nvm_block) {
  mvcc_.publish_baseline(disk_blkno, nvm_block);
}

bool TincaCache::mvcc_defer_disk_write(std::uint64_t disk_blkno) const {
  // Safe to advance disk unless some pinned reader sits below the chain's
  // oldest version — only then is the current disk content that reader's
  // single remaining copy.  Chains anchored by an epoch-1 baseline cover
  // every possible pin, so they never defer.
  //
  // Fast path: with no pin below the current epoch nothing can sit below a
  // chain, because no version outruns epoch() whenever a disk write can run
  // — a batch's versions are published at epoch()+1 and bumped in the same
  // batch_publish before any writeback, and baselines land at epoch 1 or at
  // a retired head's epoch.  So the chain walk is needed only under a pin.
  const std::uint64_t floor = mvcc_.min_pin();
  if (floor == mvcc_.epoch()) {
#ifndef NDEBUG
    TINCA_ENSURE(mvcc_.oldest_live_epoch(disk_blkno) <= floor,
                 "a chain's oldest version runs ahead of the commit epoch");
#endif
    return false;
  }
  const std::uint64_t oldest = mvcc_.oldest_live_epoch(disk_blkno);
  return oldest > 1 && floor < oldest;
}

void TincaCache::mvcc_reclaim() {
  mvcc_freed_.clear();
  mvcc_.reclaim(mvcc_freed_);
  for (std::uint32_t nb : mvcc_freed_) free_blocks_.give(nb);
  mvcc_freed_.clear();
}

bool TincaCache::snapshot_try_read(const SnapshotPin& pin,
                                   std::uint64_t disk_blkno,
                                   std::span<std::byte> dst) const {
  TINCA_EXPECT(dst.size() == kBlockSize, "reads are whole 4 KB blocks");
  TINCA_EXPECT(pin.valid(), "snapshot read requires a valid pin");
  const VersionRec* rec = mvcc_.resolve(disk_blkno, pin.epoch);
  if (rec == nullptr) return false;
  // The data block is immutable while its chain rec is reachable (COW
  // never rewrites, reclamation waits out the pins), so an uncharged raw
  // copy is race-free.  No LRU / stats / clock traffic on this path.
  nvm_.load_nocharge(layout_.data_block_off(rec->nvm_block), dst);
  mvcc_.stats.snapshot_reads.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TincaCache::snapshot_read(const SnapshotPin& pin,
                               std::uint64_t disk_blkno,
                               std::span<std::byte> dst) const {
  if (snapshot_try_read(pin, disk_blkno, dst)) return;
  // No version <= pin: the block was not committed at pin time, so its disk
  // content — which the defer rule keeps from advancing past the pin — IS
  // the snapshot version.  Bounded clock-free retries: this path must not
  // touch the (thread-unsafe) simulated clock.
  mvcc_.stats.disk_fallbacks.fetch_add(1, std::memory_order_relaxed);
  blockdev::IoStatus st = disk_.read(disk_blkno, dst);
  for (std::uint32_t attempt = 0;
       st == blockdev::IoStatus::kTransient && attempt < cfg_.io.max_retries;
       ++attempt)
    st = disk_.read(disk_blkno, dst);
  if (st != blockdev::IoStatus::kOk)
    throw blockdev::IoError("tinca: unrecoverable snapshot disk read",
                            disk_blkno, st);
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

bool TincaCache::cached(std::uint64_t disk_blkno) const {
  return index_.contains(disk_blkno);
}

bool TincaCache::dirty(std::uint64_t disk_blkno) const {
  const std::uint32_t slot = index_.find(disk_blkno);
  return slot != BlockIndex::kNone && mirror_[slot].modified;
}

CacheEntry TincaCache::entry_for(std::uint64_t disk_blkno) const {
  const std::uint32_t slot = index_.find(disk_blkno);
  TINCA_EXPECT(slot != BlockIndex::kNone, "entry_for on an uncached block");
  return mirror_[slot];
}

void TincaCache::register_metrics(obs::MetricsRegistry& reg,
                                  const std::string& prefix) const {
  reg.add_counter(prefix + "txns_committed", &stats_.txns_committed);
  reg.add_counter(prefix + "txns_aborted", &stats_.txns_aborted);
  reg.add_counter(prefix + "blocks_committed", &stats_.blocks_committed);
  reg.add_counter(prefix + "write_hits", &stats_.write_hits);
  reg.add_counter(prefix + "write_misses", &stats_.write_misses);
  reg.add_counter(prefix + "read_hits", &stats_.read_hits);
  reg.add_counter(prefix + "read_misses", &stats_.read_misses);
  reg.add_counter(prefix + "evictions", &stats_.evictions);
  reg.add_counter(prefix + "dirty_writebacks", &stats_.dirty_writebacks);
  reg.add_counter(prefix + "writethrough_writes", &stats_.writethrough_writes);
  reg.add_counter(prefix + "role_switches", &stats_.role_switches);
  reg.add_counter(prefix + "cow_writes", &stats_.cow_writes);
  reg.add_counter(prefix + "background_cleanings",
                  &stats_.background_cleanings);
  reg.add_counter(prefix + "revoked_blocks", &stats_.revoked_blocks);
  reg.add_counter(prefix + "dropped_clean_entries",
                  &stats_.dropped_clean_entries);
  reg.add_counter(prefix + "recovered_entries", &stats_.recovered_entries);
  reg.add_counter(prefix + "io.retries", &stats_.io_retries);
  reg.add_counter(prefix + "io.quarantined", &stats_.io_quarantined);
  reg.add_counter(prefix + "io.degraded_writes", &stats_.io_degraded_writes);
  reg.add_counter(prefix + "commit.fences", &stats_.commit_fences);
  reg.add_counter(prefix + "commit.batches", &stats_.commit_batches);
  reg.add_counter(prefix + "commit.hint_syncs", &stats_.hint_syncs);
  reg.add_counter(prefix + "commit.merged_writes", &stats_.group_merged_writes);
  reg.add_counter(prefix + "commit.xstream", &stats_.xstream_commits);
  reg.add_histogram(prefix + "blocks_per_txn", &stats_.blocks_per_txn);
  reg.add_histogram(prefix + "commit.batch_size", &stats_.commit_batch_size);
  reg.add_gauge(prefix + "capacity_blocks",
                [this] { return capacity_blocks(); });
  reg.add_gauge(prefix + "cached_blocks", [this] { return cached_blocks(); });
  reg.add_gauge(prefix + "dirty_blocks", [this] { return dirty_blocks(); });
  reg.add_gauge(prefix + "free_blocks", [this] { return free_blocks(); });
  // MVCC counters are atomics (readers bump them without the owner's mutex),
  // so they register as gauges over relaxed loads rather than plain counters.
  const auto mv = [](const std::atomic<std::uint64_t>& a) {
    return [&a] { return a.load(std::memory_order_relaxed); };
  };
  reg.add_gauge(prefix + "mvcc.epoch", [this] { return mvcc_.epoch(); });
  reg.add_gauge(prefix + "mvcc.snapshot_reads", mv(mvcc_.stats.snapshot_reads));
  reg.add_gauge(prefix + "mvcc.disk_fallbacks", mv(mvcc_.stats.disk_fallbacks));
  reg.add_gauge(prefix + "mvcc.lock_fallbacks", mv(mvcc_.stats.lock_fallbacks));
  reg.add_gauge(prefix + "mvcc.pin_retries", mv(mvcc_.stats.pin_retries));
  reg.add_gauge(prefix + "mvcc.versions_published",
                mv(mvcc_.stats.versions_published));
  reg.add_gauge(prefix + "mvcc.versions_trimmed",
                mv(mvcc_.stats.versions_trimmed));
  reg.add_gauge(prefix + "mvcc.nodes_retired", mv(mvcc_.stats.nodes_retired));
  reg.add_gauge(prefix + "mvcc.nodes_freed", mv(mvcc_.stats.nodes_freed));
  reg.add_gauge(prefix + "mvcc.recovery_seeded",
                mv(mvcc_.stats.recovery_seeded));
  reg.add_gauge(prefix + "mvcc.live_versions",
                [this] { return mvcc_.live_versions(); });
  reg.add_gauge(prefix + "mvcc.retired_nodes",
                [this] { return mvcc_.retired_nodes(); });
  if (cleaner_) cleaner_->register_metrics(reg, prefix + "cleaner.");
  trace_.register_into(reg, prefix + "lat.");
}

}  // namespace tinca::core
