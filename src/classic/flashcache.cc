#include "classic/flashcache.h"

#include <cstring>

#include "common/bytes.h"
#include "common/expect.h"
#include "obs/metrics.h"

namespace tinca::classic {

namespace {
constexpr std::uint64_t kMagic = 0x464C4153'48243234ULL;  // "FLASH$24"
constexpr std::uint64_t kBlockSize = blockdev::kBlockSize;
constexpr std::uint64_t kSuperBytes = kBlockSize;

// Per-slot persistent record: 8 B disk block number | 8 B flags.
constexpr std::uint64_t kSlotRecordBytes = 16;
constexpr std::uint64_t kFlagValid = 0x1;
constexpr std::uint64_t kFlagDirty = 0x2;
}  // namespace

FlashCache::FlashCache(nvm::NvmDevice& nvm, blockdev::BlockDevice& disk,
                       FlashCacheConfig cfg)
    : nvm_(nvm), disk_(disk), cfg_(cfg) {
  // Geometry: one 4 KB metadata block + 256 data blocks per set.
  const std::uint64_t per_set_bytes =
      kBlockSize + FlashCacheConfig::kAssoc * kBlockSize;
  const std::uint64_t usable = nvm_.size() - kSuperBytes;
  num_sets_ = static_cast<std::uint32_t>(usable / per_set_bytes);
  TINCA_EXPECT(num_sets_ >= 1, "NVM too small for one Flashcache set");
  num_slots_ = static_cast<std::uint64_t>(num_sets_) * FlashCacheConfig::kAssoc;
  data_region_off_ = kSuperBytes + static_cast<std::uint64_t>(num_sets_) * kBlockSize;
  slots_.resize(num_slots_);
  set_dirty_.assign(num_sets_, 0);
}

std::unique_ptr<FlashCache> FlashCache::format(nvm::NvmDevice& nvm,
                                               blockdev::BlockDevice& disk,
                                               FlashCacheConfig cfg) {
  auto cache = std::unique_ptr<FlashCache>(new FlashCache(nvm, disk, cfg));
  cache->format_media();
  return cache;
}

std::unique_ptr<FlashCache> FlashCache::recover(nvm::NvmDevice& nvm,
                                                blockdev::BlockDevice& disk,
                                                FlashCacheConfig cfg) {
  auto cache = std::unique_ptr<FlashCache>(new FlashCache(nvm, disk, cfg));
  cache->run_recovery();
  return cache;
}

std::uint64_t FlashCache::metadata_off(std::uint32_t set) const {
  return kSuperBytes + static_cast<std::uint64_t>(set) * kBlockSize;
}

std::uint64_t FlashCache::data_off(std::uint32_t slot) const {
  return data_region_off_ + static_cast<std::uint64_t>(slot) * kBlockSize;
}

std::uint32_t FlashCache::set_of(std::uint64_t disk_blkno) const {
  // Flashcache hashes the dbn; a multiplicative hash spreads sequential
  // block numbers across sets.
  const std::uint64_t h = disk_blkno * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::uint32_t>(h % num_sets_);
}

void FlashCache::format_media() {
  nvm_.atomic_store8(0, kMagic);
  nvm_.atomic_store8(8, num_sets_);
  nvm_.persist(0, 16);
  const std::vector<std::byte> zeros(kBlockSize, std::byte{0});
  for (std::uint32_t set = 0; set < num_sets_; ++set) {
    nvm_.store(metadata_off(set), zeros);
    nvm_.clflush(metadata_off(set), kBlockSize);
  }
  nvm_.sfence();
}

void FlashCache::run_recovery() {
  TINCA_EXPECT(nvm_.load8(0) == kMagic, "NVM device is not a Flashcache");
  TINCA_EXPECT(nvm_.load8(8) == num_sets_, "Flashcache geometry changed");
  std::vector<std::byte> meta(kBlockSize);
  for (std::uint32_t set = 0; set < num_sets_; ++set) {
    nvm_.load(metadata_off(set), meta);
    for (std::uint32_t i = 0; i < FlashCacheConfig::kAssoc; ++i) {
      const std::byte* rec = meta.data() + i * kSlotRecordBytes;
      const std::uint64_t flags = load_le(rec + 8, 8);
      if (!(flags & kFlagValid)) continue;
      const std::uint32_t slot = set * FlashCacheConfig::kAssoc + i;
      Slot& s = slots_[slot];
      s.disk_blkno = load_le(rec, 8);
      s.valid = true;
      s.dirty = (flags & kFlagDirty) != 0;
      s.lru_tick = 0;
      if (s.dirty) ++set_dirty_[set];
      index_.emplace(s.disk_blkno, slot);
    }
  }
}

void FlashCache::persist_set_metadata(std::uint32_t set) {
  if (!cfg_.sync_metadata) return;
  // Rebuild the whole 4 KB metadata block from DRAM state and rewrite it —
  // the block-format synchronous update the paper measures (§3.2).
  std::vector<std::byte> meta(kBlockSize, std::byte{0});
  for (std::uint32_t i = 0; i < FlashCacheConfig::kAssoc; ++i) {
    const Slot& s = slots_[set * FlashCacheConfig::kAssoc + i];
    std::byte* rec = meta.data() + i * kSlotRecordBytes;
    store_le(rec, s.disk_blkno, 8);
    std::uint64_t flags = 0;
    if (s.valid) flags |= kFlagValid;
    if (s.dirty) flags |= kFlagDirty;
    store_le(rec + 8, flags, 8);
  }
  nvm_.store(metadata_off(set), meta);
  if (cfg_.use_flush) nvm_.persist(metadata_off(set), kBlockSize);
  ++stats_.metadata_block_writes;
}

void FlashCache::persist_data(std::uint32_t slot,
                              std::span<const std::byte> data) {
  nvm_.store(data_off(slot), data);
  if (cfg_.use_flush) nvm_.persist(data_off(slot), kBlockSize);
}

blockdev::IoStatus FlashCache::disk_write(std::uint64_t blkno,
                                          std::span<const std::byte> buf) {
  blockdev::IoStatus st = disk_.write(blkno, buf);
  std::uint64_t wait = cfg_.io.backoff_ns;
  for (std::uint32_t attempt = 0;
       st == blockdev::IoStatus::kTransient && attempt < cfg_.io.max_retries;
       ++attempt) {
    nvm_.clock().advance(wait);
    wait *= cfg_.io.backoff_mult == 0 ? 1 : cfg_.io.backoff_mult;
    ++stats_.io_retries;
    st = disk_.write(blkno, buf);
  }
  op_st_ = blockdev::worse(op_st_, st);
  return st;
}

blockdev::IoStatus FlashCache::disk_read(std::uint64_t blkno,
                                         std::span<std::byte> buf) {
  blockdev::IoStatus st = disk_.read(blkno, buf);
  std::uint64_t wait = cfg_.io.backoff_ns;
  for (std::uint32_t attempt = 0;
       st == blockdev::IoStatus::kTransient && attempt < cfg_.io.max_retries;
       ++attempt) {
    nvm_.clock().advance(wait);
    wait *= cfg_.io.backoff_mult == 0 ? 1 : cfg_.io.backoff_mult;
    ++stats_.io_retries;
    st = disk_.read(blkno, buf);
  }
  op_st_ = blockdev::worse(op_st_, st);
  return st;
}

void FlashCache::note_bad_block(std::uint64_t disk_blkno) {
  if (quarantine_.insert(disk_blkno).second) ++stats_.io_quarantined;
  degraded_ = true;
}

bool FlashCache::writeback_slot(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  if (quarantine_.contains(s.disk_blkno)) return false;
  const blockdev::IoStatus st =
      disk_write(s.disk_blkno, nvm_.read_view(data_off(slot), kBlockSize));
  if (st == blockdev::IoStatus::kOk) return true;
  if (st == blockdev::IoStatus::kBadSector) note_bad_block(s.disk_blkno);
  return false;
}

std::uint32_t FlashCache::provision_slot(std::uint32_t set,
                                         std::uint64_t disk_blkno) {
  const std::uint32_t base = set * FlashCacheConfig::kAssoc;
  // LRU victim selection, re-run when a dirty victim's writeback fails:
  // such a slot cannot be evicted (its data exists nowhere else), so it is
  // excluded and the next-oldest slot tried instead.
  std::vector<bool> excluded(FlashCacheConfig::kAssoc, false);
  std::uint32_t victim = UINT32_MAX;
  for (;;) {
    victim = UINT32_MAX;
    std::uint64_t victim_tick = UINT64_MAX;
    for (std::uint32_t i = 0; i < FlashCacheConfig::kAssoc; ++i) {
      Slot& s = slots_[base + i];
      if (excluded[i]) continue;
      if (!s.valid) {
        victim = base + i;
        victim_tick = 0;
        break;
      }
      if (s.lru_tick < victim_tick) {
        victim_tick = s.lru_tick;
        victim = base + i;
      }
    }
    TINCA_ENSURE(victim != UINT32_MAX,
                 "Flashcache set wedged: every slot is dirty behind a failing "
                 "disk");
    Slot& s = slots_[victim];
    if (!s.valid || !s.dirty) break;
    if (writeback_slot(victim)) {
      ++stats_.dirty_writebacks;
      s.dirty = false;
      --set_dirty_[set];
      break;
    }
    excluded[victim - base] = true;
  }
  Slot& v = slots_[victim];
  if (v.valid) {
    index_.erase(v.disk_blkno);
    ++stats_.evictions;
    // Persist the invalidation *before* the slot's data block is reused:
    // otherwise a crash between the new data write and the metadata update
    // would leave the old mapping pointing at the new block's contents.
    v.valid = false;
    v.dirty = false;
    persist_set_metadata(set);
    nvm_.injector.point();  // CP: victim invalidated, slot not yet reused
  }
  v.disk_blkno = disk_blkno;
  v.valid = true;
  v.dirty = false;
  v.lru_tick = ++lru_clock_;
  index_.emplace(disk_blkno, victim);
  return victim;
}

blockdev::IoStatus FlashCache::write_block(std::uint64_t disk_blkno,
                                           std::span<const std::byte> data) {
  TINCA_EXPECT(data.size() == kBlockSize, "writes are whole 4 KB blocks");
  nvm_.clock().advance(cfg_.cpu_op_ns);
  op_st_ = blockdev::IoStatus::kOk;
  const std::uint32_t set = set_of(disk_blkno);
  auto it = index_.find(disk_blkno);
  std::uint32_t slot;
  if (it != index_.end()) {
    ++stats_.write_hits;
    if (disk_blkno < cfg_.hit_stats_boundary) ++stats_.data_write_hits;
    slot = it->second;
  } else {
    ++stats_.write_misses;
    if (disk_blkno < cfg_.hit_stats_boundary) ++stats_.data_write_misses;
    slot = provision_slot(set, disk_blkno);
  }
  Slot& s = slots_[slot];
  // Data first, metadata second: metadata only acknowledges durable data.
  nvm_.injector.point();  // CP: before the data write
  persist_data(slot, data);
  nvm_.injector.point();  // CP: data durable, metadata stale
  if (!s.dirty) ++set_dirty_[set];
  s.dirty = true;
  s.lru_tick = ++lru_clock_;
  // Degraded mode (bad sector seen): force the block straight to disk so
  // disk health surfaces per write instead of at eviction time.  Failure —
  // including a quarantined target — just leaves the block dirty in NVM.
  if (degraded_ && writeback_slot(slot)) {
    ++stats_.io_degraded_writes;
    s.dirty = false;
    --set_dirty_[set];
  }
  clean_set_to_threshold(set);
  persist_set_metadata(set);
  nvm_.injector.point();  // CP: write acknowledged
  return op_st_;
}

void FlashCache::clean_set_to_threshold(std::uint32_t set) {
  if (cfg_.dirty_thresh_pct >= 100) return;
  const std::uint32_t limit =
      FlashCacheConfig::kAssoc * cfg_.dirty_thresh_pct / 100;
  if (set_dirty_[set] <= limit) return;
  // Oldest-first cleaning, as Flashcache's background cleaner does.  Slots
  // whose writeback fails are excluded for this pass — otherwise a
  // perma-failing slot would keep the minimum lru_tick and spin the loop
  // forever — and the pass ends early once only failing slots remain dirty.
  const std::uint32_t base = set * FlashCacheConfig::kAssoc;
  std::vector<bool> excluded(FlashCacheConfig::kAssoc, false);
  while (set_dirty_[set] > limit) {
    std::uint32_t victim = UINT32_MAX;
    std::uint64_t victim_tick = UINT64_MAX;
    for (std::uint32_t i = 0; i < FlashCacheConfig::kAssoc; ++i) {
      const Slot& s = slots_[base + i];
      if (!excluded[i] && s.valid && s.dirty && s.lru_tick < victim_tick) {
        victim_tick = s.lru_tick;
        victim = base + i;
      }
    }
    if (victim == UINT32_MAX) break;  // nothing cleanable left
    if (!writeback_slot(victim)) {
      excluded[victim - base] = true;
      continue;
    }
    slots_[victim].dirty = false;
    --set_dirty_[set];
    ++stats_.dirty_writebacks;
    ++stats_.threshold_cleanings;
  }
}

blockdev::IoStatus FlashCache::read_block(std::uint64_t disk_blkno,
                                          std::span<std::byte> dst) {
  TINCA_EXPECT(dst.size() == kBlockSize, "reads are whole 4 KB blocks");
  nvm_.clock().advance(cfg_.cpu_op_ns);
  op_st_ = blockdev::IoStatus::kOk;
  auto it = index_.find(disk_blkno);
  if (it != index_.end()) {
    ++stats_.read_hits;
    nvm_.load(data_off(it->second), dst);
    slots_[it->second].lru_tick = ++lru_clock_;
    return blockdev::IoStatus::kOk;
  }
  ++stats_.read_misses;
  if (disk_read(disk_blkno, dst) != blockdev::IoStatus::kOk) return op_st_;
  if (!cfg_.cache_reads) return op_st_;
  const std::uint32_t set = set_of(disk_blkno);
  const std::uint32_t slot = provision_slot(set, disk_blkno);
  persist_data(slot, dst);
  persist_set_metadata(set);
  return op_st_;
}

void FlashCache::flush_dirty() {
  for (std::uint32_t set = 0; set < num_sets_; ++set) {
    bool touched = false;
    for (std::uint32_t i = 0; i < FlashCacheConfig::kAssoc; ++i) {
      const std::uint32_t slot = set * FlashCacheConfig::kAssoc + i;
      Slot& s = slots_[slot];
      if (!s.valid || !s.dirty) continue;
      if (!writeback_slot(slot)) continue;  // stays dirty for the next flush
      s.dirty = false;
      --set_dirty_[set];
      touched = true;
      ++stats_.dirty_writebacks;
    }
    if (touched) persist_set_metadata(set);
  }
}

bool FlashCache::dirty(std::uint64_t disk_blkno) const {
  auto it = index_.find(disk_blkno);
  return it != index_.end() && slots_[it->second].dirty;
}

void FlashCache::register_metrics(obs::MetricsRegistry& reg,
                                  const std::string& prefix) const {
  reg.add_counter(prefix + "write_hits", &stats_.write_hits);
  reg.add_counter(prefix + "write_misses", &stats_.write_misses);
  reg.add_counter(prefix + "data_write_hits", &stats_.data_write_hits);
  reg.add_counter(prefix + "data_write_misses", &stats_.data_write_misses);
  reg.add_counter(prefix + "read_hits", &stats_.read_hits);
  reg.add_counter(prefix + "read_misses", &stats_.read_misses);
  reg.add_counter(prefix + "evictions", &stats_.evictions);
  reg.add_counter(prefix + "dirty_writebacks", &stats_.dirty_writebacks);
  reg.add_counter(prefix + "threshold_cleanings", &stats_.threshold_cleanings);
  reg.add_counter(prefix + "metadata_block_writes",
                  &stats_.metadata_block_writes);
  reg.add_counter(prefix + "io.retries", &stats_.io_retries);
  reg.add_counter(prefix + "io.quarantined", &stats_.io_quarantined);
  reg.add_counter(prefix + "io.degraded_writes", &stats_.io_degraded_writes);
  reg.add_gauge(prefix + "capacity_blocks", [this] { return capacity_blocks(); });
  reg.add_gauge(prefix + "cached_blocks", [this] { return cached_blocks(); });
}

}  // namespace tinca::classic
