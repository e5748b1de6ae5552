#include "nvlog/nvlog_tier.h"

#include <algorithm>
#include <array>

#include "blockdev/block_device.h"
#include "common/bytes.h"
#include "common/expect.h"
#include "nvlog/log_meta.h"
#include "obs/metrics.h"

namespace tinca::nvlog {

namespace {

constexpr std::uint64_t kSegMagic = 0x4E564C4F47534547ULL;    // "NVLOGSEG"
constexpr std::uint64_t kRecMagic = 0x4E564C4F47524543ULL;    // "NVLOGREC"

constexpr std::uint64_t kSuperOff = 0;
constexpr std::uint64_t kSegmentsBase = kLogMetaBytes;
constexpr std::uint64_t kSegHeaderBytes = 64;
constexpr std::uint64_t kRecHeaderBytes = 64;
constexpr std::uint64_t kPayloadBytes = blockdev::kBlockSize;
constexpr std::uint64_t kBlockRecordBytes = kRecHeaderBytes + kPayloadBytes;

constexpr std::uint64_t kTypeBlock = 1;
constexpr std::uint64_t kTypeCommit = 2;

// Record header fields (byte offsets within the 64 B line).
constexpr std::size_t kRecMagicAt = 0;
constexpr std::size_t kRecSeqAt = 8;       // containing segment's seq (epoch)
constexpr std::size_t kRecLsnAt = 16;      // global append order
constexpr std::size_t kRecTxnAt = 24;      // lsn of the txn's first record
constexpr std::size_t kRecTypeAt = 32;
constexpr std::size_t kRecBlknoAt = 40;
constexpr std::size_t kRecPayloadFpAt = 48;
constexpr std::size_t kRecCrcAt = 56;      // fingerprint of bytes [0, 56)

// Segment header fields.  (Superblock + watermark ring codecs live in
// log_meta.h, shared with core::verify_nvlog_media.)
constexpr std::size_t kSegMagicAt = 0;
constexpr std::size_t kSegSeqAt = 8;
constexpr std::size_t kSegCrcAt = 16;      // fingerprint of bytes [0, 16)

/// A decoded record header plus its validity against the expected epoch.
struct RecordView {
  std::uint64_t lsn = 0;
  std::uint64_t txn_first = 0;
  std::uint64_t type = 0;
  std::uint64_t blkno = 0;
  std::uint64_t payload_fp = 0;
  bool valid = false;
};

RecordView decode_record(std::span<const std::byte> hdr, std::uint64_t seq) {
  RecordView v;
  if (load_le(hdr.data() + kRecMagicAt, 8) != kRecMagic) return v;
  if (load_le(hdr.data() + kRecCrcAt, 8) !=
      fingerprint(hdr.subspan(0, kRecCrcAt)))
    return v;
  if (load_le(hdr.data() + kRecSeqAt, 8) != seq) return v;
  v.type = load_le(hdr.data() + kRecTypeAt, 8);
  if (v.type != kTypeBlock && v.type != kTypeCommit) return v;
  v.lsn = load_le(hdr.data() + kRecLsnAt, 8);
  v.txn_first = load_le(hdr.data() + kRecTxnAt, 8);
  v.blkno = load_le(hdr.data() + kRecBlknoAt, 8);
  v.payload_fp = load_le(hdr.data() + kRecPayloadFpAt, 8);
  v.valid = true;
  return v;
}

}  // namespace

NvLogTier::NvLogTier(nvm::NvmDevice& nvm, NvLogConfig cfg)
    : nvm_(nvm), cfg_(cfg) {
  TINCA_EXPECT(cfg_.segment_bytes % nvm::NvmDevice::kLineSize == 0,
               "segment size must be line-aligned");
  TINCA_EXPECT(
      cfg_.segment_bytes >= kSegHeaderBytes + kBlockRecordBytes + kRecHeaderBytes,
      "segment too small for one block record plus a commit record");
  TINCA_EXPECT(nvm_.size() >= kSegmentsBase + 2 * cfg_.segment_bytes,
               "log range too small for two segments");
  TINCA_EXPECT(cfg_.watermark_slots >= 1 &&
                   cfg_.watermark_slots <= kMaxWatermarkSlots,
               "watermark ring must fit the metadata region (1..63 slots)");
  num_segments_ = (nvm_.size() - kSegmentsBase) / cfg_.segment_bytes;
  segs_.resize(num_segments_);
}

std::uint64_t NvLogTier::segment_base(std::uint32_t idx) const {
  return kSegmentsBase + static_cast<std::uint64_t>(idx) * cfg_.segment_bytes;
}

std::uint64_t NvLogTier::records_per_segment() const {
  return (cfg_.segment_bytes - kSegHeaderBytes) / kBlockRecordBytes;
}

std::uint64_t NvLogTier::max_txn_blocks() const {
  // A txn may find the active segment full and must then fit in the other
  // num_segments - 1 segments (backpressure drains free them one by one,
  // oldest first); minus one block so the commit record always fits too.
  return (num_segments_ - 1) * records_per_segment() - 1;
}

std::uint64_t NvLogTier::free_segments() const {
  std::uint64_t n = 0;
  for (const SegmentMeta& s : segs_) n += s.state == SegState::kFree ? 1 : 0;
  return n;
}

std::uint64_t NvLogTier::sealed_segments() const {
  std::uint64_t n = 0;
  for (const SegmentMeta& s : segs_) n += s.state == SegState::kSealed ? 1 : 0;
  return n;
}

std::unique_ptr<NvLogTier> NvLogTier::format(nvm::NvmDevice& nvm,
                                             NvLogConfig cfg) {
  auto t = std::unique_ptr<NvLogTier>(new NvLogTier(nvm, cfg));

  // The format nonce bumps across reformats of the same device: it salts
  // every watermark record's checksum, so ring records from a previous life
  // of the log can never win recovery's adjudication (log_meta.h).
  std::uint64_t nonce = 1;
  {
    std::array<std::byte, kLogSuperBytes> old{};
    nvm.load(kSuperOff, old);
    LogSuperblock prev;
    if (decode_superblock(old, &prev)) nonce = prev.format_nonce + 1;
  }
  t->format_nonce_ = nonce;

  std::array<std::byte, kLogSuperBytes> sup{};
  encode_superblock(sup, LogSuperblock{cfg.segment_bytes, t->num_segments_,
                                       cfg.watermark_slots, nonce});
  nvm.store(kSuperOff, sup);
  nvm.persist(kSuperOff, sup.size());
  t->persist_watermark();  // epoch 1: oldest_live 1, drained_upto 0
  // The format-time record is flushed even under the watermark-flush
  // sabotage (which targets the runtime advance path): a mount must always
  // find at least one valid ring record.
  nvm.persist(watermark_slot_off(watermark_slot_of(1, cfg.watermark_slots)),
              kWatermarkSlotBytes);
  // Segments stay unformatted: garbage headers never validate, and the
  // first absorb acquires (and stamps) the least-worn one.
  return t;
}

void NvLogTier::persist_watermark() {
  ++wm_epoch_;
  const std::uint64_t off = watermark_slot_off(
      watermark_slot_of(wm_epoch_, cfg_.watermark_slots));
  std::array<std::byte, kWatermarkSlotBytes> rec{};
  encode_watermark(
      rec, WatermarkRecord{wm_epoch_, oldest_live_seq_, drained_upto_lsn_},
      format_nonce_);
  nvm_.store(off, rec);
  if (!cfg_.sabotage_skip_watermark_flush) nvm_.persist(off, rec.size());
  ++stats_.watermark_records;
}

void NvLogTier::seal_active() {
  TINCA_EXPECT(active_.has_value(), "seal without an active segment");
  SegmentMeta& seg = segs_[*active_];
  seg.state = SegState::kSealed;
  seg.seal_ns = nvm_.clock().now();
  ++stats_.segments_sealed;
  active_.reset();
}

void NvLogTier::acquire_segment(DrainSink& sink) {
  TINCA_EXPECT(!active_.has_value(), "acquire with an active segment");
  const auto pick_free = [this]() -> std::optional<std::uint32_t> {
    // Wear-aware recycling: hand out the least-worn free segment so hot
    // absorb traffic rotates over the media instead of burning one range.
    //
    // A free segment's wear is scanned once and cached until it is
    // acquired.  That is exact because nothing flushes a free segment:
    // absorbs flush only what they appended, and those ranges sit in
    // segments that stay sealed or active until the absorb ends.  That
    // holds for the failed-absorb orphan flush too: its records lie in the
    // segment that was active at entry or in ones acquired since, and a
    // backpressure drain recycles only the chain head, which
    // max_txn_blocks() keeps older than all of them.  Debug builds rescan
    // on every pick to check that argument.
    std::optional<std::uint32_t> best;
    std::uint64_t best_wear = 0;
    for (std::uint32_t i = 0; i < num_segments_; ++i) {
      SegmentMeta& seg = segs_[i];
      if (seg.state != SegState::kFree) continue;
      const auto scan = [&] {
        return nvm_.wear(segment_base(i), cfg_.segment_bytes)
            .total_line_writes;
      };
      if (!seg.free_wear.has_value()) seg.free_wear = scan();
#ifndef NDEBUG
      TINCA_ENSURE(*seg.free_wear == scan(),
                   "cached wear of a free nvlog segment went stale");
#endif
      if (!best.has_value() || *seg.free_wear < best_wear) {
        best = i;
        best_wear = *seg.free_wear;
      }
    }
    return best;
  };

  std::optional<std::uint32_t> idx = pick_free();
  if (!idx.has_value()) {
    // Foreground backpressure: force-drain the oldest drainable sealed
    // segment (always the chain head — newer segments hold the in-flight
    // txn), which the prefix advance then recycles immediately.
    ++stats_.backpressure_drains;
    std::optional<std::uint64_t> oldest;
    for (const SegmentMeta& s : segs_) {
      if (s.state != SegState::kSealed || s.max_lsn > committed_lsn_) continue;
      if (!oldest.has_value() || s.seq < *oldest) oldest = s.seq;
    }
    TINCA_ENSURE(oldest.has_value(),
                 "nvlog wedged: no drainable segment under backpressure "
                 "(transaction exceeds the guaranteed log capacity)");
    const DrainResult r = drain_segment(*oldest, sink);
    TINCA_ENSURE(r == DrainResult::kDrained,
                 "nvlog wedged: backpressure drain made no progress");
    idx = pick_free();
    TINCA_ENSURE(idx.has_value(),
                 "nvlog wedged: backpressure drain recycled nothing");
  }

  SegmentMeta& seg = segs_[*idx];
  seg.state = SegState::kActive;
  seg.free_wear.reset();
  seg.seq = next_seq_++;
  seg.write_off = kSegHeaderBytes;
  seg.max_lsn = 0;
  seg.records.clear();
  std::array<std::byte, kSegHeaderBytes> hdr{};
  store_le(hdr.data() + kSegMagicAt, kSegMagic, 8);
  store_le(hdr.data() + kSegSeqAt, seg.seq, 8);
  store_le(hdr.data() + kSegCrcAt,
           fingerprint(std::span<const std::byte>(hdr.data(), kSegCrcAt)), 8);
  nvm_.store(segment_base(*idx), hdr);
  nvm_.persist(segment_base(*idx), hdr.size());
  active_ = idx;
  nvm_.injector.point();  // CP: segment acquired, header persisted
}

void NvLogTier::ensure_room(std::uint64_t bytes, DrainSink& sink) {
  if (active_.has_value() &&
      segs_[*active_].write_off + bytes <= cfg_.segment_bytes)
    return;
  if (active_.has_value()) seal_active();
  acquire_segment(sink);
  TINCA_ENSURE(segs_[*active_].write_off + bytes <= cfg_.segment_bytes,
               "record larger than a segment");
}

NvLogTier::IndexLoc NvLogTier::append_record(bool is_commit,
                                             std::uint64_t txn_first_lsn,
                                             std::uint64_t blkno,
                                             std::span<const std::byte> payload) {
  SegmentMeta& seg = segs_[*active_];
  const std::uint64_t off = seg.write_off;
  const std::uint64_t base = segment_base(*active_) + off;
  const std::uint64_t lsn = next_lsn_++;

  std::array<std::byte, kRecHeaderBytes> hdr{};
  store_le(hdr.data() + kRecMagicAt, kRecMagic, 8);
  store_le(hdr.data() + kRecSeqAt, seg.seq, 8);
  store_le(hdr.data() + kRecLsnAt, lsn, 8);
  store_le(hdr.data() + kRecTxnAt, txn_first_lsn, 8);
  store_le(hdr.data() + kRecTypeAt, is_commit ? kTypeCommit : kTypeBlock, 8);
  store_le(hdr.data() + kRecBlknoAt, blkno, 8);
  store_le(hdr.data() + kRecPayloadFpAt, is_commit ? 0 : fingerprint(payload),
           8);
  store_le(hdr.data() + kRecCrcAt,
           fingerprint(std::span<const std::byte>(hdr.data(), kRecCrcAt)), 8);
  nvm_.store(base, hdr);
  if (!is_commit) nvm_.store(base + kRecHeaderBytes, payload);

  const std::uint64_t size = kRecHeaderBytes + payload.size();
  flush_ranges_.emplace_back(base, size);
  seg.write_off += size;
  // max_lsn is NOT raised here: only the commit success path counts a
  // record, so a failed absorb's orphan records never pin their segment.
  seg.records.push_back(RecordMeta{off, lsn, blkno, is_commit});
  return IndexLoc{*active_, off, lsn, {}};
}

void NvLogTier::absorb_commit(std::vector<blockdev::WriteSet::Write>&& blocks,
                              DrainSink& sink) {
  TINCA_EXPECT(!blocks.empty(), "commit of an empty transaction");
  TINCA_EXPECT(blocks.size() <= max_txn_blocks(),
               "transaction exceeds the log's guaranteed capacity");
  for (const auto& [blkno, data] : blocks)
    TINCA_EXPECT(data.size() == kPayloadBytes, "blocks are 4 KB");

  nvm_.injector.point();  // CP: absorb entry, nothing appended

  flush_ranges_.clear();
  const std::uint64_t txn_first_lsn = next_lsn_;
  std::vector<IndexLoc> appended;  // parallel to `blocks`
  appended.reserve(blocks.size());
  std::uint64_t commit_lsn = 0;
  IndexLoc commit_loc{};
  try {
    for (const auto& [blkno, data] : blocks) {
      ensure_room(kBlockRecordBytes, sink);
      appended.push_back(append_record(false, txn_first_lsn, blkno, data));
    }
    ensure_room(kRecHeaderBytes, sink);
    commit_loc = append_record(true, txn_first_lsn, 0, {});
    commit_lsn = commit_loc.lsn;
  } catch (const nvm::CrashException&) {
    // Simulated power cut mid-absorb: nothing to tidy — the machine is
    // gone, and recovery discards any record run without a commit record.
    throw;
  } catch (...) {
    // Disk error inside a backpressure drain.  The half-appended records
    // stay in the log as *orphans* (no commit record will ever close their
    // run — their lsns are never reused, so recovery always discards them)
    // but they must be made durable NOW: a later commit appends after
    // them, and if an orphan line were lost to a crash the recovery prefix
    // scan would stop at the hole and lose that later committed txn.
    for (const auto& [off, len] : flush_ranges_) nvm_.clflush(off, len);
    nvm_.sfence();
    flush_ranges_.clear();
    ++stats_.absorb_rollbacks;
    throw;
  }

  nvm_.injector.point();  // CP: records stored, nothing flushed

  if (!cfg_.sabotage_skip_commit_flush) {
    // The one-flush-one-fence absorb: every appended line in one clflush
    // pass, then a single sfence makes the whole txn durable atomically
    // (recovery accepts it only once the commit record validates).
    for (const auto& [off, len] : flush_ranges_) nvm_.clflush(off, len);
    nvm_.sfence();
  }
  flush_ranges_.clear();

  nvm_.injector.point();  // CP: commit durable, DRAM index not yet updated

  // Each record's index entry takes the absorbed buffer over as its image.
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    IndexLoc& loc = appended[i];
    if (loc.lsn > segs_[loc.seg].max_lsn) segs_[loc.seg].max_lsn = loc.lsn;
    loc.image = std::move(blocks[i].second);
    index_.insert_or_assign(blocks[i].first, std::move(loc));
  }
  if (commit_lsn > segs_[commit_loc.seg].max_lsn)
    segs_[commit_loc.seg].max_lsn = commit_lsn;
  committed_lsn_ = commit_lsn;
  ++stats_.absorbed_txns;
  stats_.absorbed_records += appended.size();
  stats_.absorbed_bytes += appended.size() * kPayloadBytes;
}

void NvLogTier::absorb_commit_group(std::span<blockdev::WriteSet> txns,
                                    DrainSink& sink) {
  TINCA_EXPECT(!txns.empty(), "group absorb of an empty batch");
  // Last-writer-wins merge in member order: first appearance fixes the
  // append position, a later member's buffer replaces the image.  The
  // merged union then rides the ordinary one-flush-one-fence absorb path —
  // one commit record seals the whole batch, so recovery replays all
  // members or none.
  blockdev::WriteSet merged;
  std::size_t writes = 0;
  for (blockdev::WriteSet& member : txns) {
    writes += member.block_count();
    for (auto& [blkno, data] : member.take())
      merged.add(blkno, std::move(data));
  }
  stats_.group_merged_records += writes - merged.block_count();
  if (!merged.empty()) absorb_commit(merged.take(), sink);
  ++stats_.group_absorbs;
  stats_.group_absorbed_txns += txns.size();
}

bool NvLogTier::lookup(std::uint64_t blkno, std::span<std::byte> dst) {
  TINCA_EXPECT(dst.size() == kPayloadBytes, "blocks are 4 KB");
  const auto it = index_.find(blkno);
  if (it == index_.end()) return false;
  check_image(it->second);
  std::copy(it->second.image.begin(), it->second.image.end(), dst.begin());
  ++stats_.log_hits;
  return true;
}

void NvLogTier::check_image(const IndexLoc& loc) const {
#ifndef NDEBUG
  std::vector<std::byte> payload(kPayloadBytes);
  nvm_.load_nocharge(segment_base(loc.seg) + loc.off + kRecHeaderBytes,
                     payload);
  TINCA_ENSURE(loc.image == payload,
               "nvlog DRAM image differs from its record's NVM payload");
#else
  (void)loc;
#endif
}

void NvLogTier::collect_drainable(std::uint32_t max,
                                  std::vector<std::uint64_t>& out) const {
  std::vector<std::uint64_t> seqs;
  for (const SegmentMeta& s : segs_) {
    if (s.state == SegState::kSealed && s.max_lsn <= committed_lsn_)
      seqs.push_back(s.seq);
  }
  std::sort(seqs.begin(), seqs.end());
  for (const std::uint64_t s : seqs) {
    if (max == 0) break;
    out.push_back(s);
    --max;
  }
}

std::optional<std::uint32_t> NvLogTier::find_seq(std::uint64_t seq) const {
  for (std::uint32_t i = 0; i < num_segments_; ++i) {
    if (segs_[i].state != SegState::kFree && segs_[i].seq == seq) return i;
  }
  return std::nullopt;
}

NvLogTier::DrainResult NvLogTier::drain_segment(std::uint64_t seq,
                                                DrainSink& sink) {
  const std::optional<std::uint32_t> found = find_seq(seq);
  if (!found.has_value() || segs_[*found].state != SegState::kSealed)
    return DrainResult::kStale;
  SegmentMeta& seg = segs_[*found];
  if (seg.max_lsn > committed_lsn_) return DrainResult::kPinned;

  nvm_.injector.point();  // CP: drain entry, nothing applied

  // Coalesce: a record survives only if the index still points at it —
  // every overwritten version (same segment or older) is skipped, so one
  // hot block costs one backing-store write per drained epoch.  The batch
  // copies each survivor's image; the index keeps it until the batch is
  // durable, so a failed apply loses nothing and its retry applies the
  // same bytes.
  DrainSink::DrainBatch batch;
  std::vector<decltype(index_)::iterator> survivors;
  std::uint64_t superseded = 0;
  for (const RecordMeta& r : seg.records) {
    if (r.is_commit) continue;
    const auto it = index_.find(r.blkno);
    if (it == index_.end() || it->second.seg != *found ||
        it->second.off != r.off) {
      ++superseded;
      continue;
    }
    check_image(it->second);
    batch.emplace_back(r.blkno, it->second.image);
    survivors.push_back(it);
  }
  // Ascending runs hit the disk's sequential fast path.
  std::sort(batch.begin(), batch.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::uint64_t drained = batch.size();  // the sink may take `batch`
  const std::uint32_t shards = sink.drain_shard_count();
  const std::uint64_t apply_t0 = nvm_.clock().now();
  std::uint64_t modeled_apply_ns = 0;
  if (!batch.empty() && !cfg_.sabotage_skip_drain_apply) {
    if (shards <= 1) {
      sink.drain_apply(batch);
    } else {
      // Shard-affine partition (DESIGN.md §16): split the coalesced run by
      // the inner's placement so the sink can drain the batches
      // concurrently.  A stable split of a sorted run keeps every per-shard
      // batch ascending.  The watermark advance below happens strictly
      // after drain_apply_shards returns — the all-shards-durable barrier.
      std::vector<DrainSink::DrainBatch> parts(shards);
      for (auto& rec : batch) {
        const std::uint32_t s = sink.drain_shard_of(rec.first);
        TINCA_EXPECT(s < shards, "drain_shard_of out of range");
        parts[s].push_back(std::move(rec));
      }
      ++stats_.partitioned_drains;
      for (const DrainSink::DrainBatch& p : parts)
        stats_.shard_batches += p.empty() ? 0 : 1;
      modeled_apply_ns = sink.drain_apply_shards(parts);
    }
  }
  stats_.drain_apply.record(modeled_apply_ns != 0
                                ? modeled_apply_ns
                                : nvm_.clock().now() - apply_t0);

  nvm_.injector.point();  // CP: batch durable, prefix not yet advanced

  // The sink never touches the tier, so the iterators are still valid.
  for (const auto it : survivors) index_.erase(it);
  seg.state = SegState::kDrained;
  ++stats_.drain_batches;
  stats_.drained_records += drained;
  stats_.coalesced_records += superseded;
  stats_.drain_lag.record(nvm_.clock().now() - seg.seal_ns);
  advance_drained_prefix();
  return DrainResult::kDrained;
}

void NvLogTier::advance_drained_prefix() {
  bool advanced = false;
  while (true) {
    const std::optional<std::uint32_t> idx = find_seq(oldest_live_seq_);
    if (!idx.has_value() || segs_[*idx].state != SegState::kDrained) break;
    SegmentMeta& seg = segs_[*idx];
    seg.state = SegState::kFree;
    seg.seq = 0;
    seg.write_off = 0;
    if (seg.max_lsn > drained_upto_lsn_) drained_upto_lsn_ = seg.max_lsn;
    seg.max_lsn = 0;
    seg.records.clear();
    ++stats_.segments_recycled;
    ++oldest_live_seq_;
    advanced = true;
  }
  if (advanced) {
    nvm_.injector.point();  // CP: prefix advanced in DRAM, not yet persisted
    // One fresh 64 B ring record carries both fields (DESIGN.md §16): the
    // persisted pair advances atomically — a torn record fails its checksum
    // and recovery falls back to the previous record, which merely
    // re-drains segments already applied.
    persist_watermark();
    nvm_.injector.point();  // CP: watermark record cut — ring slot persisted
  }
}

void NvLogTier::drain_all(DrainSink& sink) {
  if (active_.has_value() && !segs_[*active_].records.empty()) seal_active();
  for (;;) {
    std::vector<std::uint64_t> seqs;
    collect_drainable(static_cast<std::uint32_t>(num_segments_), seqs);
    if (seqs.empty()) break;
    for (const std::uint64_t s : seqs) {
      const DrainResult r = drain_segment(s, sink);
      TINCA_ENSURE(r != DrainResult::kPinned,
                   "drain_all found a pinned segment outside a transaction");
    }
  }
  TINCA_ENSURE(index_.empty(), "drain_all left live records behind");
}

std::optional<std::pair<std::uint64_t, std::uint64_t>> NvLogTier::record_range(
    std::uint64_t blkno) const {
  const auto it = index_.find(blkno);
  if (it == index_.end()) return std::nullopt;
  return std::make_pair(segment_base(it->second.seg) + it->second.off,
                        kBlockRecordBytes);
}

std::unique_ptr<NvLogTier> NvLogTier::recover(nvm::NvmDevice& nvm,
                                              NvLogConfig cfg) {
  auto t = std::unique_ptr<NvLogTier>(new NvLogTier(nvm, cfg));

  std::array<std::byte, kLogSuperBytes> sup{};
  nvm.load(kSuperOff, sup);
  LogSuperblock sb;
  TINCA_EXPECT(decode_superblock(sup, &sb),
               "nvlog superblock invalid — not a formatted log");
  TINCA_EXPECT(sb.segment_bytes == cfg.segment_bytes &&
                   sb.num_segments == t->num_segments_ &&
                   sb.watermark_slots == cfg.watermark_slots,
               "nvlog geometry mismatch — wrong config for this device");
  t->format_nonce_ = sb.format_nonce;

  // Watermark adjudication (DESIGN.md §16): scan every ring slot and mount
  // the record with the highest valid epoch.  A record torn by the crash
  // fails its checksum, so the previous advance's record wins — strictly
  // older watermarks are always safe to mount (the tier re-drains segments
  // it had already applied; drains are idempotent).
  std::optional<WatermarkRecord> winner;
  for (std::uint32_t s = 0; s < cfg.watermark_slots; ++s) {
    std::array<std::byte, kWatermarkSlotBytes> slot{};
    nvm.load(watermark_slot_off(s), slot);
    WatermarkRecord rec;
    if (!decode_watermark(slot, sb.format_nonce, &rec)) continue;
    if (!winner.has_value() || rec.epoch > winner->epoch) winner = rec;
  }
  TINCA_EXPECT(winner.has_value(),
               "nvlog watermark ring holds no valid record");
  t->wm_epoch_ = winner->epoch;
  t->oldest_live_seq_ = winner->oldest_live_seq;
  t->drained_upto_lsn_ = winner->drained_upto_lsn;

  // Valid segment headers at or past the drained prefix, then the
  // contiguous seq chain from oldest_live (a gap ends the chain; seqs are
  // claimed in order, so a gap only follows a torn header of the newest).
  std::map<std::uint64_t, std::uint32_t> by_seq;
  for (std::uint32_t i = 0; i < t->num_segments_; ++i) {
    std::array<std::byte, kSegHeaderBytes> hdr{};
    nvm.load(t->segment_base(i), hdr);
    if (load_le(hdr.data() + kSegMagicAt, 8) != kSegMagic) continue;
    if (load_le(hdr.data() + kSegCrcAt, 8) !=
        fingerprint(std::span<const std::byte>(hdr.data(), kSegCrcAt)))
      continue;
    const std::uint64_t seq = load_le(hdr.data() + kSegSeqAt, 8);
    if (seq < t->oldest_live_seq_) continue;
    TINCA_ENSURE(!by_seq.contains(seq), "duplicate nvlog segment seq");
    by_seq[seq] = i;
  }
  std::vector<std::uint32_t> chain;
  for (std::uint64_t s = t->oldest_live_seq_; by_seq.contains(s); ++s)
    chain.push_back(by_seq[s]);

  // Replay the valid record prefix.  Acceptance rules (see file comment of
  // nvlog_tier.h): checksums + epoch match, monotonically increasing lsn
  // (stale remnants always carry a *lower* lsn than the record written
  // after them, since lsns are never reused across recoveries), and a txn
  // counts only when its commit record closes the exact contiguous lsn run
  // [txn_first, commit) — anything less is a torn in-flight txn.
  // A replayed record's index entry keeps the payload the scan loaded and
  // fingerprinted, so the mounted log is not read again.
  struct Pending {
    std::uint32_t seg;
    RecordMeta meta;
    std::vector<std::byte> image;
  };
  std::vector<Pending> pending;  // strictly ascending lsns
  std::uint64_t expected_lsn = t->drained_upto_lsn_ + 1;
  std::uint64_t max_lsn_seen = t->drained_upto_lsn_;
  bool stop_all = false;
  std::optional<std::pair<std::uint32_t, std::uint64_t>> resume;  // idx, off

  // Every chain segment gets its identity up front — even segments the
  // scan below never reaches (global stop on a torn txn) must keep the seq
  // their persistent header carries, or records appended after recovery
  // would be stamped with a mismatched epoch and rejected next mount.
  for (std::size_t ci = 0; ci < chain.size(); ++ci) {
    SegmentMeta& seg = t->segs_[chain[ci]];
    seg.state = SegState::kSealed;
    seg.seq = t->oldest_live_seq_ + ci;
    seg.write_off = kSegHeaderBytes;
    seg.seal_ns = nvm.clock().now();
  }

  for (std::size_t ci = 0; ci < chain.size() && !stop_all; ++ci) {
    const std::uint32_t idx = chain[ci];
    SegmentMeta& seg = t->segs_[idx];

    std::uint64_t off = kSegHeaderBytes;
    while (off + kRecHeaderBytes <= cfg.segment_bytes) {
      std::array<std::byte, kRecHeaderBytes> hdr{};
      nvm.load(t->segment_base(idx) + off, hdr);
      const RecordView v = decode_record(hdr, seg.seq);
      if (!v.valid || v.lsn < expected_lsn) break;
      if (v.type == kTypeBlock) {
        if (off + kBlockRecordBytes > cfg.segment_bytes) break;
        const std::span<const std::byte> payload = nvm.read_view(
            t->segment_base(idx) + off + kRecHeaderBytes, kPayloadBytes);
        if (fingerprint(payload) != v.payload_fp) break;
        pending.push_back(
            Pending{idx, RecordMeta{off, v.lsn, v.blkno, false},
                    std::vector<std::byte>(payload.begin(), payload.end())});
        expected_lsn = v.lsn + 1;
        max_lsn_seen = v.lsn;
        off += kBlockRecordBytes;
        continue;
      }
      // Commit record: fence off stale remnants (lsn < txn_first), then
      // require the exact contiguous record run of this txn.  Records at or
      // below the persisted drained_upto watermark are legitimately gone —
      // the txn spanned segments and its older ones were already drained
      // and recycled; any *other* gap means the power cut lost a record of
      // this (necessarily in-flight) txn before the commit flush finished.
      expected_lsn = v.lsn + 1;
      max_lsn_seen = v.lsn;
      const std::uint64_t run_first =
          std::max(v.txn_first, t->drained_upto_lsn_ + 1);
      // Pending lsns ascend, so the stale remnants are a prefix.
      const auto txn_begin = std::partition_point(
          pending.begin(), pending.end(),
          [&](const Pending& p) { return p.meta.lsn < v.txn_first; });
      t->stats_.recovery_discarded +=
          static_cast<std::uint64_t>(txn_begin - pending.begin());
      const std::span<Pending> txn_records(txn_begin, pending.end());
      bool complete = run_first <= v.lsn &&
                      txn_records.size() == v.lsn - run_first;
      for (std::size_t k = 0; complete && k < txn_records.size(); ++k)
        complete = txn_records[k].meta.lsn == run_first + k;
      if (!complete) {
        // Some record of this txn was lost to the power cut before the
        // commit flush finished — this was the in-flight txn, the log ends.
        t->stats_.recovery_discarded += txn_records.size();
        pending.clear();
        stop_all = true;
        break;
      }
      for (Pending& p : txn_records) {
        t->index_.insert_or_assign(
            p.meta.blkno,
            IndexLoc{p.seg, p.meta.off, p.meta.lsn, std::move(p.image)});
        t->segs_[p.seg].records.push_back(p.meta);
        if (p.meta.lsn > t->segs_[p.seg].max_lsn)
          t->segs_[p.seg].max_lsn = p.meta.lsn;
        ++t->stats_.recovery_replayed;
      }
      t->segs_[idx].records.push_back(RecordMeta{off, v.lsn, 0, true});
      if (v.lsn > t->segs_[idx].max_lsn) t->segs_[idx].max_lsn = v.lsn;
      t->committed_lsn_ = v.lsn;
      pending.clear();
      resume = std::make_pair(idx, off + kRecHeaderBytes);
      off += kRecHeaderBytes;
      nvm.injector.point();  // CP: one committed txn replayed
    }
    seg.write_off = off;
  }
  t->stats_.recovery_discarded += pending.size();

  if (chain.empty()) {
    t->next_seq_ = t->oldest_live_seq_;
    t->next_lsn_ = t->drained_upto_lsn_ + 1;
  } else {
    t->next_seq_ = t->oldest_live_seq_ + chain.size();
    t->next_lsn_ = std::max<std::uint64_t>(max_lsn_seen, expected_lsn - 1) + 1;
    // The newest chain segment resumes as the active one.  Appends restart
    // just past the last commit record when it lives here, else from the
    // segment's start — either way the in-flight txn's remnants get
    // overwritten, never re-accepted (their lsns are below every future one).
    const std::uint32_t last = chain.back();
    t->segs_[last].state = SegState::kActive;
    t->active_ = last;
    t->segs_[last].write_off =
        (resume.has_value() && resume->first == last) ? resume->second
                                                      : kSegHeaderBytes;
  }
  return t;
}

void NvLogTier::register_metrics(obs::MetricsRegistry& reg,
                                 const std::string& prefix) const {
  reg.add_counter(prefix + "absorbed_txns", &stats_.absorbed_txns);
  reg.add_counter(prefix + "absorbed_records", &stats_.absorbed_records);
  reg.add_counter(prefix + "absorbed_bytes", &stats_.absorbed_bytes);
  reg.add_counter(prefix + "drained_records", &stats_.drained_records);
  reg.add_counter(prefix + "coalesced_records", &stats_.coalesced_records);
  reg.add_counter(prefix + "drain_batches", &stats_.drain_batches);
  reg.add_counter(prefix + "segments_sealed", &stats_.segments_sealed);
  reg.add_counter(prefix + "segments_recycled", &stats_.segments_recycled);
  reg.add_counter(prefix + "backpressure_drains",
                  &stats_.backpressure_drains);
  reg.add_counter(prefix + "absorb_rollbacks", &stats_.absorb_rollbacks);
  reg.add_counter(prefix + "recovery_replayed", &stats_.recovery_replayed);
  reg.add_counter(prefix + "recovery_discarded", &stats_.recovery_discarded);
  reg.add_counter(prefix + "log_hits", &stats_.log_hits);
  reg.add_counter(prefix + "group_absorbs", &stats_.group_absorbs);
  reg.add_counter(prefix + "group_absorbed_txns",
                  &stats_.group_absorbed_txns);
  reg.add_counter(prefix + "group_merged_records",
                  &stats_.group_merged_records);
  reg.add_counter(prefix + "watermark_records", &stats_.watermark_records);
  reg.add_counter(prefix + "partitioned_drains", &stats_.partitioned_drains);
  reg.add_counter(prefix + "shard_batches", &stats_.shard_batches);
  reg.add_histogram(prefix + "drain_lag", &stats_.drain_lag);
  reg.add_histogram(prefix + "drain_apply", &stats_.drain_apply);
  reg.add_gauge(prefix + "live_records", [this] { return live_records(); });
  reg.add_gauge(prefix + "free_segments", [this] { return free_segments(); });
  reg.add_gauge(prefix + "sealed_segments",
                [this] { return sealed_segments(); });
  reg.add_gauge(prefix + "oldest_live_seq",
                [this] { return oldest_live_seq_; });
  // Hottest line in the log's metadata region (superblock + watermark
  // ring): the wear the ring rotation is meant to flatten (DESIGN.md §16).
  reg.add_gauge(prefix + "meta_line_wear", [this] {
    return nvm_.wear(0, kLogMetaBytes).max_line_writes;
  });
}

}  // namespace tinca::nvlog
