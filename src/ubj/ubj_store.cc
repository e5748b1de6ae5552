#include "ubj/ubj_store.h"

#include <algorithm>
#include <map>

#include "common/bytes.h"
#include "common/expect.h"
#include "obs/metrics.h"

namespace tinca::ubj {

namespace {
constexpr std::uint64_t kBlockSize = blockdev::kBlockSize;
constexpr std::uint64_t kMagic = 0x55424A2D554E494FULL;  // "UBJ-UNIO"
constexpr std::uint64_t kMagicOff = 0;
constexpr std::uint64_t kNumBlocksOff = 16;
constexpr std::uint64_t kCommittedSeqOff = 64;  // own cache line
constexpr std::uint64_t kSuperBytes = kBlockSize;

constexpr std::uint8_t kFlagValid = 0x1;
constexpr std::uint8_t kFlagFrozen = 0x2;
}  // namespace

UbjStore::UbjStore(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
                   UbjConfig cfg)
    : nvm_(nvm),
      disk_(disk),
      cfg_(cfg),
      lru_(0),
      free_(0),
      trace_(nvm.clock(), /*tid=*/0, "ubj."),
      ts_freeze_(trace_.site("freeze")),
      ts_checkpoint_(trace_.site("checkpoint")),
      ts_recovery_(trace_.site("recovery")),
      ts_io_retry_(trace_.site("io_retry")) {
  // Geometry: superblock | 16 B entry per block | 4 KB data per block.
  const std::uint64_t usable = nvm_.size() - kSuperBytes;
  num_blocks_ = usable / (kBlockSize + 16);
  // Shrink until the 4 KB-aligned table fits.
  auto table_bytes = [&](std::uint64_t n) {
    return (n * 16 + kBlockSize - 1) / kBlockSize * kBlockSize;
  };
  while (num_blocks_ > 0 &&
         kSuperBytes + table_bytes(num_blocks_) + num_blocks_ * kBlockSize >
             nvm_.size())
    --num_blocks_;
  TINCA_EXPECT(num_blocks_ >= 8, "NVM too small for a UBJ buffer cache");
  entry_table_off_ = kSuperBytes;
  data_off_ = kSuperBytes + table_bytes(num_blocks_);
  slots_.resize(num_blocks_);
  lru_ = core::SlotLru(static_cast<std::uint32_t>(num_blocks_));
  free_ = core::FreeMonitor(static_cast<std::uint32_t>(num_blocks_));
  if (cfg_.cleaner.mode != cleaner::CleanerMode::kDisabled)
    cleaner_ = std::make_unique<cleaner::Cleaner>(
        cfg_.cleaner, static_cast<cleaner::CleanerClient&>(*this),
        nvm_.clock());
}

std::uint64_t UbjStore::entry_off(std::uint32_t slot) const {
  return entry_table_off_ + static_cast<std::uint64_t>(slot) * 16;
}

std::uint64_t UbjStore::data_off(std::uint32_t slot) const {
  return data_off_ + static_cast<std::uint64_t>(slot) * kBlockSize;
}

std::unique_ptr<UbjStore> UbjStore::format(nvm::NvmDevice& nvm,
                                           blockdev::BlockDevice& disk,
                                           UbjConfig cfg) {
  auto store = std::unique_ptr<UbjStore>(new UbjStore(nvm, disk, cfg));
  store->format_media();
  return store;
}

std::unique_ptr<UbjStore> UbjStore::recover(nvm::NvmDevice& nvm,
                                            blockdev::BlockDevice& disk,
                                            UbjConfig cfg) {
  auto store = std::unique_ptr<UbjStore>(new UbjStore(nvm, disk, cfg));
  store->run_recovery();
  return store;
}

void UbjStore::format_media() {
  nvm_.atomic_store8(kMagicOff, kMagic);
  nvm_.atomic_store8(kNumBlocksOff, num_blocks_);
  nvm_.atomic_store8(kCommittedSeqOff, 0);
  nvm_.persist(0, kSuperBytes);
  const std::vector<std::byte> zeros(kBlockSize, std::byte{0});
  for (std::uint64_t off = entry_table_off_; off < data_off_; off += kBlockSize) {
    nvm_.store(off, zeros);
    nvm_.clflush(off, kBlockSize);
  }
  nvm_.sfence();
}

void UbjStore::persist_slot(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  std::array<std::byte, 16> raw{};
  std::uint8_t flags = 0;
  if (s.valid) flags |= kFlagValid;
  if (s.frozen) flags |= kFlagFrozen;
  raw[0] = static_cast<std::byte>(flags);
  store_le(raw.data() + 1, s.disk_blkno, 7);
  store_le(raw.data() + 8, s.seq, 4);
  nvm_.atomic_store16(entry_off(slot), raw);
  nvm_.persist(entry_off(slot), 16);
}

void UbjStore::publish_seq(std::uint64_t seq) {
  committed_seq_ = seq;
  nvm_.atomic_store8(kCommittedSeqOff, seq);
  nvm_.persist(kCommittedSeqOff, 8);
}

void UbjStore::evict_one_clean() {
  const std::uint32_t victim = lru_.lru();
  TINCA_ENSURE(victim != core::SlotLru::kNil,
               "UBJ wedged: no clean block to evict");
  Slot& s = slots_[victim];
  TINCA_ENSURE(s.valid && !s.frozen, "LRU held a non-clean slot");
  auto it = latest_.find(s.disk_blkno);
  if (it != latest_.end() && it->second == victim) latest_.erase(it);
  s.valid = false;
  persist_slot(victim);
  lru_.remove(victim);
  free_.give(victim);
  ++stats_.evictions;
}

std::uint32_t UbjStore::allocate_slot() {
  while (!free_.any()) {
    if (!unchkpt_.empty()) {
      // With a cleaner, let it retire queued transactions first (its drain
      // pops front records just like checkpoint_batch, so this terminates);
      // fall back to an inline batch when the cleaner made no progress.
      if (cleaner_ && cleaner_->drain_blocking() > 0) continue;
      checkpoint_batch();
    } else {
      evict_one_clean();
    }
  }
  return free_.take();
}

blockdev::IoStatus UbjStore::disk_write(std::uint64_t blkno,
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

blockdev::IoStatus UbjStore::disk_write(std::uint64_t blkno,
                                        std::span<const std::byte> buf) {
  return disk_write(blkno, buf, &stats_.io_retries);
}

blockdev::IoStatus UbjStore::disk_read(std::uint64_t blkno,
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

void UbjStore::note_bad_block(std::uint64_t disk_blkno) {
  if (quarantine_.insert(disk_blkno).second) ++stats_.io_quarantined;
  degraded_ = true;
}

// Checkpoint exactly the oldest outstanding transaction.  Crash-safe in the
// same way as Tinca's cleaner: each block's disk write completes before its
// slot is unfrozen (persist_slot), so a cut mid-checkpoint leaves the
// remaining blocks frozen and recovery simply re-checkpoints them.
void UbjStore::checkpoint_front(std::uint64_t* io_retries) {
  TINCA_EXPECT(!unchkpt_.empty(), "checkpoint with nothing outstanding");
  TxnRecord rec = std::move(unchkpt_.front());
  unchkpt_.pop_front();
  // Transaction-granular checkpoint: every frozen block of the txn goes
  // to disk in one burst — the §5.4.4 "takes longer for multiple blocks"
  // behaviour.
  for (std::uint32_t slot : rec.slots) {
    Slot& s = slots_[slot];
    if (!s.valid || !s.frozen || s.seq != rec.seq) continue;  // re-frozen
    // A block that cannot reach disk (quarantined, or discovering a bad
    // sector right now) keeps its slot frozen forever: the journal copy
    // is the only durable one, so the slot is pinned and NVM capacity
    // degrades — UBJ has no other home for the data.
    if (quarantine_.contains(s.disk_blkno)) continue;
    if (!cfg_.cleaner.sabotage_skip_write) {
      const std::span<const std::byte> data =
          nvm_.read_view(data_off(slot), kBlockSize);
      nvm_.injector.point();  // CP: cut mid-checkpoint, before the write
      const blockdev::IoStatus st = disk_write(s.disk_blkno, data, io_retries);
      if (st != blockdev::IoStatus::kOk) {
        if (st == blockdev::IoStatus::kBadSector) note_bad_block(s.disk_blkno);
        continue;
      }
      ++stats_.checkpoint_writes;
      if (degraded_) ++stats_.io_degraded_writes;
      nvm_.injector.point();  // CP: durable on disk, slot still frozen
    }
    // Sabotage mode (oracle self-test) unfreezes WITHOUT the disk write.
    auto it = latest_.find(s.disk_blkno);
    if (it != latest_.end() && it->second == slot) {
      // Newest copy: unfreeze, keep cached clean.
      s.frozen = false;
      persist_slot(slot);
      lru_.push_mru(slot);
    } else {
      // Superseded by a newer transaction: the write above was stale.
      ++stats_.stale_checkpoint_writes;
      s.valid = false;
      s.frozen = false;
      persist_slot(slot);
      free_.give(slot);
    }
    --frozen_count_;
  }
  ++stats_.checkpointed_txns;
}

void UbjStore::checkpoint_batch() {
  TINCA_TRACE_SPAN(trace_, ts_checkpoint_);
  TINCA_EXPECT(!unchkpt_.empty(), "checkpoint with nothing outstanding");
  for (std::uint32_t i = 0;
       i < cfg_.checkpoint_txn_batch && !unchkpt_.empty(); ++i)
    checkpoint_front(&stats_.io_retries);
}

// ---------------------------------------------------------------------------
// CleanerClient (DESIGN.md §11): keys are txn sequence numbers, FIFO only
// ---------------------------------------------------------------------------

cleaner::CleanOutcome UbjStore::cleaner_clean(std::uint64_t key,
                                              std::uint64_t* io_retries) {
  if (unchkpt_.empty() || unchkpt_.front().seq > key)
    return cleaner::CleanOutcome::kStale;  // already checkpointed inline
  if (unchkpt_.front().seq < key)
    // Not this txn's turn yet — UBJ checkpoints strictly in commit order.
    // Requeue; it retires once the earlier sequences have drained.
    return cleaner::CleanOutcome::kPinned;
  checkpoint_front(io_retries);
  return cleaner::CleanOutcome::kRetired;
}

std::uint64_t UbjStore::cleaner_dirty_blocks() const { return frozen_count_; }

std::uint64_t UbjStore::cleaner_capacity_blocks() const { return num_blocks_; }

void UbjStore::cleaner_collect(std::uint32_t max,
                               std::vector<std::uint64_t>& out) {
  for (const TxnRecord& rec : unchkpt_) {
    if (out.size() >= max) break;
    if (!cleaner_->pending(rec.seq)) out.push_back(rec.seq);
  }
}

void UbjStore::checkpoint_all() {
  while (!unchkpt_.empty()) checkpoint_batch();
}

void UbjStore::commit_txn(
    const std::vector<std::pair<std::uint64_t, std::vector<std::byte>>>& blocks) {
  TINCA_TRACE_SPAN(trace_, ts_freeze_);
  if (blocks.empty()) {
    ++stats_.txns_committed;
    return;
  }
  TINCA_EXPECT(blocks.size() <= num_blocks_ / 3,
               "transaction exceeds UBJ's committable size");
  // Validate the whole transaction before the first NVM store: a block
  // rejected midway would leave its predecessors stored, frozen and indexed.
  for (const auto& block : blocks)
    TINCA_EXPECT(block.second.size() == kBlockSize,
                 "UBJ commits whole 4 KB blocks");
  // Space pressure: checkpoint old transactions before taking new blocks.
  const auto low_water = static_cast<std::uint64_t>(
      cfg_.checkpoint_low_water * static_cast<double>(num_blocks_));
  while (free_.count() < blocks.size() + low_water && !unchkpt_.empty()) {
    // Prefer the cleaner's drain (it pops the same front records, so every
    // iteration still consumes at least one outstanding transaction).
    if (cleaner_ && cleaner_->drain_blocking() > 0) continue;
    checkpoint_batch();
  }

  TxnRecord rec;
  rec.seq = next_seq_;
  std::vector<std::byte> scratch(kBlockSize);

  for (const auto& [blkno, data] : blocks) {
    nvm_.clock().advance(cfg_.cpu_op_ns);
    nvm_.injector.point();  // CP: before this block
    std::uint32_t slot;
    auto it = latest_.find(blkno);
    if (it != latest_.end() && !slots_[it->second].frozen) {
      // In-place update of the working/clean copy (UBJ's fast path).
      slot = it->second;
      ++stats_.write_hits;
      if (lru_.contains(slot)) lru_.remove(slot);  // about to become frozen
      nvm_.store(data_off(slot), data);
      nvm_.persist(data_off(slot), kBlockSize);
    } else if (it != latest_.end()) {
      // Frozen: memcpy to a fresh block on the critical path (§5.4.4).
      ++stats_.write_hits;
      ++stats_.frozen_cow_copies;
      nvm_.load(data_off(it->second), scratch);  // the memcpy's read side
      slot = allocate_slot();
      nvm_.store(data_off(slot), data);
      nvm_.persist(data_off(slot), kBlockSize);
      slots_[slot].disk_blkno = blkno;
      latest_[blkno] = slot;
    } else {
      ++stats_.write_misses;
      slot = allocate_slot();
      nvm_.store(data_off(slot), data);
      nvm_.persist(data_off(slot), kBlockSize);
      slots_[slot].disk_blkno = blkno;
      latest_[blkno] = slot;
    }
    nvm_.injector.point();  // CP: data durable, not yet frozen
    Slot& s = slots_[slot];
    s.valid = true;
    s.frozen = true;
    s.disk_blkno = blkno;
    s.seq = static_cast<std::uint32_t>(rec.seq);
    persist_slot(slot);
    ++frozen_count_;
    rec.slots.push_back(slot);
    nvm_.injector.point();  // CP: block frozen
  }

  // Commit record: the sequence publication makes the freeze set atomic.
  publish_seq(rec.seq);
  nvm_.injector.point();  // CP: transaction durable
  ++next_seq_;
  stats_.blocks_per_txn.record(blocks.size());
  stats_.blocks_committed += blocks.size();
  ++stats_.txns_committed;
  const std::uint64_t seq = rec.seq;
  unchkpt_.push_back(std::move(rec));
  // Nominate the new transaction for background checkpointing: cleaner steps
  // retire it off the commit path, shrinking the frozen set before the next
  // frozen-copy memcpy or space-pressure stall would pay for it.
  if (cleaner_) cleaner_->try_enqueue(seq);

  // Degraded mode (bad sector seen): checkpoint eagerly so every commit is
  // pushed toward disk immediately — UBJ's analogue of forced write-through.
  // With a cleaner the push happens on its budget, not this commit's.
  if (degraded_) {
    if (cleaner_) {
      for (const TxnRecord& r : unchkpt_) cleaner_->try_enqueue(r.seq);
    } else {
      checkpoint_all();
    }
  }
}

void UbjStore::read_block(std::uint64_t disk_blkno, std::span<std::byte> dst) {
  TINCA_EXPECT(dst.size() == kBlockSize, "reads are whole 4 KB blocks");
  nvm_.clock().advance(cfg_.cpu_op_ns);
  auto it = latest_.find(disk_blkno);
  if (it != latest_.end()) {
    ++stats_.read_hits;
    nvm_.load(data_off(it->second), dst);
    if (lru_.contains(it->second)) lru_.touch(it->second);
    return;
  }
  ++stats_.read_misses;
  const blockdev::IoStatus st = disk_read(disk_blkno, dst);
  if (st != blockdev::IoStatus::kOk)
    throw blockdev::IoError("ubj: unrecoverable disk read", disk_blkno, st);
  // Clean fill, unflushed: recovery discards unfrozen entries anyway.
  if (!free_.any() && lru_.lru() == core::SlotLru::kNil) return;  // all frozen
  const std::uint32_t slot = allocate_slot();
  nvm_.store(data_off(slot), dst);
  Slot& s = slots_[slot];
  s.valid = true;
  s.frozen = false;
  s.disk_blkno = disk_blkno;
  s.seq = 0;
  std::array<std::byte, 16> raw{};
  raw[0] = static_cast<std::byte>(kFlagValid);
  store_le(raw.data() + 1, disk_blkno, 7);
  nvm_.atomic_store16(entry_off(slot), raw);
  latest_.emplace(disk_blkno, slot);
  lru_.push_mru(slot);
}

bool UbjStore::cached(std::uint64_t disk_blkno) const {
  return latest_.contains(disk_blkno);
}

void UbjStore::run_recovery() {
  TINCA_TRACE_SPAN(trace_, ts_recovery_);
  TINCA_EXPECT(nvm_.load8(kMagicOff) == kMagic, "not a UBJ device");
  TINCA_EXPECT(nvm_.load8(kNumBlocksOff) == num_blocks_,
               "UBJ geometry changed since format");
  committed_seq_ = nvm_.load8(kCommittedSeqOff);

  std::map<std::uint64_t, std::vector<std::uint32_t>> by_seq;
  for (std::uint32_t slot = 0; slot < num_blocks_; ++slot) {
    std::array<std::byte, 16> raw{};
    nvm_.load(entry_off(slot), raw);
    const auto flags = static_cast<std::uint8_t>(raw[0]);
    Slot& s = slots_[slot];
    if (!(flags & kFlagValid)) continue;
    s.valid = true;
    s.frozen = (flags & kFlagFrozen) != 0;
    s.disk_blkno = load_le(raw.data() + 1, 7);
    s.seq = static_cast<std::uint32_t>(load_le(raw.data() + 8, 4));

    if (!s.frozen || s.seq > committed_seq_) {
      // Working copies and uncommitted freezes evaporate.
      if (s.frozen) ++stats_.discarded_uncommitted;
      s = Slot{};
      std::array<std::byte, 16> zeros{};
      nvm_.atomic_store16(entry_off(slot), zeros);
      nvm_.persist(entry_off(slot), 16);
      continue;
    }
    ++stats_.recovered_entries;
    ++frozen_count_;
    by_seq[s.seq].push_back(slot);
    // Newest frozen copy wins the latest_ map.
    auto [it, fresh] = latest_.emplace(s.disk_blkno, slot);
    if (!fresh && slots_[it->second].seq < s.seq) it->second = slot;
  }

  // Rebuild DRAM structures.
  free_.clear();
  for (std::uint32_t i = num_blocks_; i-- > 0;)
    if (!slots_[i].valid) free_.give(i);
  for (auto& [seq, slot_list] : by_seq) {
    TxnRecord rec;
    rec.seq = seq;
    rec.slots = std::move(slot_list);
    unchkpt_.push_back(std::move(rec));
  }
  next_seq_ = committed_seq_ + 1;
}

void UbjStore::register_metrics(obs::MetricsRegistry& reg,
                                const std::string& prefix) const {
  reg.add_counter(prefix + "txns_committed", &stats_.txns_committed);
  reg.add_counter(prefix + "blocks_committed", &stats_.blocks_committed);
  reg.add_counter(prefix + "frozen_cow_copies", &stats_.frozen_cow_copies);
  reg.add_counter(prefix + "checkpointed_txns", &stats_.checkpointed_txns);
  reg.add_counter(prefix + "checkpoint_writes", &stats_.checkpoint_writes);
  reg.add_counter(prefix + "stale_checkpoint_writes",
                  &stats_.stale_checkpoint_writes);
  reg.add_counter(prefix + "write_hits", &stats_.write_hits);
  reg.add_counter(prefix + "write_misses", &stats_.write_misses);
  reg.add_counter(prefix + "read_hits", &stats_.read_hits);
  reg.add_counter(prefix + "read_misses", &stats_.read_misses);
  reg.add_counter(prefix + "evictions", &stats_.evictions);
  reg.add_counter(prefix + "recovered_entries", &stats_.recovered_entries);
  reg.add_counter(prefix + "discarded_uncommitted",
                  &stats_.discarded_uncommitted);
  reg.add_counter(prefix + "io.retries", &stats_.io_retries);
  reg.add_counter(prefix + "io.quarantined", &stats_.io_quarantined);
  reg.add_counter(prefix + "io.degraded_writes", &stats_.io_degraded_writes);
  reg.add_histogram(prefix + "blocks_per_txn", &stats_.blocks_per_txn);
  reg.add_gauge(prefix + "capacity_blocks", [this] { return capacity_blocks(); });
  reg.add_gauge(prefix + "frozen_blocks", [this] { return frozen_blocks(); });
  if (cleaner_) cleaner_->register_metrics(reg, prefix + "cleaner.");
  trace_.register_into(reg, prefix + "lat.");
}

}  // namespace tinca::ubj
