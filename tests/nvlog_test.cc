// NVM write-ahead tier tests (DESIGN.md §13).
//
// Covers the log tier in isolation (absorb / lookup / coalescing drain /
// recovery, torn log tail, segment wrap-around with a live unreplayed
// prefix, the sabotage self-test proving the commit flush is load-bearing)
// and the assembled NvLog-Classic stack (NvLogStackedBackend over a
// journal-less Classic inner) under a full crash-point sweep including a
// re-crash mid-drain — the pull-the-plug test of §5.1, made exhaustive.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "backend/nvlog_stacked_backend.h"
#include "blockdev/io_status.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "common/expect.h"
#include "nvlog/log_meta.h"
#include "nvlog/nvlog_tier.h"
#include "obs/metrics.h"
#include "tinca/slot_lru.h"
#include "tinca/tinca_cache.h"

namespace tinca::nvlog {
namespace {

constexpr std::uint64_t kSegBytes = 64 * 1024;         // 15 block records
constexpr std::size_t kLogBytes = 1 << 19;             // 7 segments + meta
constexpr std::size_t kBlock = blockdev::kBlockSize;

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(kBlock);
  fill_pattern(b, seed);
  return b;
}

/// DrainSink that applies into a map and checks the batch contract.
class MapSink : public NvLogTier::DrainSink {
 public:
  void drain_apply(std::vector<std::pair<std::uint64_t,
                                         std::vector<std::byte>>>& blocks)
      override {
    ++applies;
    for (std::size_t i = 1; i < blocks.size(); ++i)
      EXPECT_LT(blocks[i - 1].first, blocks[i].first)
          << "drain batch not ascending";
    for (const auto& [blkno, data] : blocks) applied[blkno] = data;
  }

  std::map<std::uint64_t, std::vector<std::byte>> applied;
  int applies = 0;
};

/// blkno → seed of the block's newest image.
using Expected = std::map<std::uint64_t, std::uint64_t>;

NvLogConfig small_cfg() {
  NvLogConfig cfg;
  cfg.segment_bytes = kSegBytes;
  return cfg;
}

void absorb_one(NvLogTier& tier, NvLogTier::DrainSink& sink,
                std::vector<std::pair<std::uint64_t, std::uint64_t>> spec) {
  std::vector<blockdev::WriteSet::Write> blocks;
  for (const auto& [blkno, seed] : spec)
    blocks.emplace_back(blkno, block_of(seed));
  tier.absorb_commit(std::move(blocks), sink);
}

TEST(NvLogTier, AbsorbLookupDrainRoundtrip) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(kLogBytes, nvdimm_profile(), clock);
  auto tier = NvLogTier::format(nvm, small_cfg());
  MapSink sink;

  absorb_one(*tier, sink, {{7, 1}, {3, 2}, {9, 3}});
  absorb_one(*tier, sink, {{3, 4}, {11, 5}});  // overwrites block 3

  // One flush pass + fence per absorb covers everything it appended.
  EXPECT_EQ(nvm.dirty_lines(), 0u);

  std::vector<std::byte> buf(kBlock);
  ASSERT_TRUE(tier->lookup(3, buf));
  EXPECT_EQ(fingerprint(buf), fingerprint(block_of(4)));  // newest wins
  ASSERT_TRUE(tier->lookup(7, buf));
  EXPECT_EQ(fingerprint(buf), fingerprint(block_of(1)));
  EXPECT_FALSE(tier->lookup(42, buf));
  EXPECT_EQ(tier->live_records(), 4u);

  tier->drain_all(sink);
  EXPECT_EQ(tier->live_records(), 0u);
  ASSERT_EQ(sink.applied.size(), 4u);
  EXPECT_EQ(fingerprint(sink.applied[3]), fingerprint(block_of(4)));
  EXPECT_EQ(fingerprint(sink.applied[9]), fingerprint(block_of(3)));

  const auto& st = tier->stats();
  EXPECT_EQ(st.absorbed_txns, 2u);
  EXPECT_EQ(st.absorbed_records, 5u);
  EXPECT_EQ(st.drained_records, 4u);
  EXPECT_EQ(st.coalesced_records, 1u);  // the superseded image of block 3
}

TEST(NvLogTier, RecoverReplaysCommittedTxns) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(kLogBytes, nvdimm_profile(), clock);
  MapSink sink;
  {
    auto tier = NvLogTier::format(nvm, small_cfg());
    absorb_one(*tier, sink, {{1, 10}, {2, 11}});
    absorb_one(*tier, sink, {{2, 12}, {5, 13}});
  }
  // Power loss: nothing unflushed may be load-bearing.
  nvm.crash_discard_all();

  auto tier = NvLogTier::recover(nvm, small_cfg());
  EXPECT_EQ(tier->stats().recovery_replayed, 4u);
  std::vector<std::byte> buf(kBlock);
  ASSERT_TRUE(tier->lookup(1, buf));
  EXPECT_EQ(fingerprint(buf), fingerprint(block_of(10)));
  ASSERT_TRUE(tier->lookup(2, buf));
  EXPECT_EQ(fingerprint(buf), fingerprint(block_of(12)));
  ASSERT_TRUE(tier->lookup(5, buf));
  EXPECT_EQ(fingerprint(buf), fingerprint(block_of(13)));

  // The recovered log keeps absorbing and draining.
  absorb_one(*tier, sink, {{6, 14}});
  tier->drain_all(sink);
  EXPECT_EQ(fingerprint(sink.applied[2]), fingerprint(block_of(12)));
  EXPECT_EQ(fingerprint(sink.applied[6]), fingerprint(block_of(14)));
}

TEST(NvLogTier, TornTailDiscardsOnlyTheIncompleteSuffix) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(kLogBytes, nvdimm_profile(), clock);
  MapSink sink;
  auto tier = NvLogTier::format(nvm, small_cfg());
  absorb_one(*tier, sink, {{1, 20}, {2, 21}});
  absorb_one(*tier, sink, {{3, 22}, {4, 23}});

  // Tear the second txn's *second* record: its first record stays valid, so
  // recovery must actively discard it (txn atomicity), not merely stop.
  const auto range = tier->record_range(4);
  ASSERT_TRUE(range.has_value());
  std::vector<std::byte> garbage(nvm::NvmDevice::kLineSize,
                                 std::byte{0x5A});
  nvm.store(range->first, garbage);
  nvm.persist(range->first, garbage.size());

  auto rec = NvLogTier::recover(nvm, small_cfg());
  std::vector<std::byte> buf(kBlock);
  ASSERT_TRUE(rec->lookup(1, buf));
  EXPECT_EQ(fingerprint(buf), fingerprint(block_of(20)));
  ASSERT_TRUE(rec->lookup(2, buf));
  EXPECT_EQ(fingerprint(buf), fingerprint(block_of(21)));
  // The torn txn is all-or-nothing: neither of its blocks replays.
  EXPECT_FALSE(rec->contains(3));
  EXPECT_FALSE(rec->contains(4));
  EXPECT_EQ(rec->stats().recovery_replayed, 2u);
  EXPECT_GT(rec->stats().recovery_discarded, 0u);

  // New commits append past the torn tail and survive the next mount.
  MapSink sink2;
  absorb_one(*rec, sink2, {{8, 24}});
  auto rec2 = NvLogTier::recover(nvm, small_cfg());
  ASSERT_TRUE(rec2->lookup(8, buf));
  EXPECT_EQ(fingerprint(buf), fingerprint(block_of(24)));
  EXPECT_FALSE(rec2->contains(3));
}

TEST(NvLogTier, SkippedCommitFlushLosesAcknowledgedTxns) {
  // The sabotage self-test pair: prove the absorb-path clflush+sfence is
  // load-bearing by removing it and watching the acknowledged txn vanish.
  for (const bool sabotage : {true, false}) {
    sim::SimClock clock;
    nvm::NvmDevice nvm(kLogBytes, nvdimm_profile(), clock);
    MapSink sink;
    NvLogConfig cfg = small_cfg();
    cfg.sabotage_skip_commit_flush = sabotage;
    {
      auto tier = NvLogTier::format(nvm, cfg);
      absorb_one(*tier, sink, {{1, 30}, {2, 31}});
    }
    nvm.crash_discard_all();  // worst-case power loss
    auto rec = NvLogTier::recover(nvm, small_cfg());
    if (sabotage) {
      EXPECT_EQ(rec->stats().recovery_replayed, 0u);
      EXPECT_FALSE(rec->contains(1));
    } else {
      EXPECT_EQ(rec->stats().recovery_replayed, 2u);
      std::vector<std::byte> buf(kBlock);
      ASSERT_TRUE(rec->lookup(1, buf));
      EXPECT_EQ(fingerprint(buf), fingerprint(block_of(30)));
    }
  }
}

TEST(NvLogTier, SegmentWrapAroundKeepsLiveUnreplayedPrefix) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(kLogBytes, nvdimm_profile(), clock);
  MapSink sink;
  auto tier = NvLogTier::format(nvm, small_cfg());

  // Hammer a small working set far past the log's record capacity so the
  // free list wraps: backpressure drains recycle old segments while newer
  // ones still hold live records.
  std::map<std::uint64_t, std::uint64_t> expected;  // blkno -> newest seed
  std::uint64_t seed = 100;
  for (int round = 0; round < 60; ++round) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spec;
    for (int b = 0; b < 4; ++b) {
      const std::uint64_t blkno = (round * 3 + b) % 17;
      spec.emplace_back(blkno, seed);
      expected[blkno] = seed++;
    }
    absorb_one(*tier, sink, spec);
  }
  const auto& st = tier->stats();
  EXPECT_GT(st.backpressure_drains, 0u);
  EXPECT_GT(st.segments_recycled, 0u);
  EXPECT_GT(tier->oldest_live_seq(), 1u);
  EXPECT_GT(st.coalesced_records, 0u);
  EXPECT_GT(tier->live_records(), 0u);

  // Mount mid-stream: the oldest segments are gone (drained + recycled),
  // the survivors replay, and log-over-store reads see every write.
  auto rec = NvLogTier::recover(nvm, small_cfg());
  EXPECT_GT(rec->stats().recovery_replayed, 0u);
  std::vector<std::byte> buf(kBlock);
  for (const auto& [blkno, want] : expected) {
    if (!rec->lookup(blkno, buf)) {
      auto it = sink.applied.find(blkno);
      ASSERT_NE(it, sink.applied.end()) << "block " << blkno << " lost";
      buf = it->second;
    }
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(want)))
        << "block " << blkno << " stale after wrap-around recovery";
  }

  // And the recovered instance can still drain everything.
  rec->drain_all(sink);
  EXPECT_EQ(rec->live_records(), 0u);
  for (const auto& [blkno, want] : expected)
    EXPECT_EQ(fingerprint(sink.applied[blkno]), fingerprint(block_of(want)));
}

TEST(NvLogTier, AcquiresLeastWornFreeSegment) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(kLogBytes, nvdimm_profile(), clock);
  const std::uint64_t num_segs = (kLogBytes - kLogMetaBytes) / kSegBytes;
  const auto seg_base = [](std::uint64_t i) {
    return kLogMetaBytes + i * kSegBytes;
  };
  // Uneven starting wear, kept off the header lines (still all zero).
  const std::vector<std::byte> line(64, std::byte{0x5A});
  for (std::uint64_t i = 0; i < num_segs; ++i) {
    for (std::uint64_t l = 1; l <= (i * 5 % 7) * 3; ++l) {
      nvm.store(seg_base(i) + l * 64, line);
      nvm.persist(seg_base(i) + l * 64, 64);
    }
  }
  MapSink sink;
  auto tier = NvLogTier::format(nvm, small_cfg());
  ASSERT_EQ(tier->num_segments(), num_segs);

  // A segment header stores its seq at byte 8; a segment is free when it
  // was never acquired (seq 0) or lies below the drained prefix.
  const auto seq_of = [&](std::uint64_t i) {
    return nvm.load8(seg_base(i) + 8);
  };
  const auto wear_of = [&](std::uint64_t i) {
    return nvm.wear(seg_base(i), kSegBytes).total_line_writes;
  };
  std::uint64_t newest_seq = 0;
  std::uint64_t acquires = 0;
  // Three full wraps: every segment recycled three times over.
  for (std::uint64_t txn = 0;
       tier->stats().segments_recycled < 3 * num_segs; ++txn) {
    ASSERT_LT(txn, 2000u) << "log stopped recycling segments";
    std::vector<std::uint64_t> wear_before(num_segs);
    for (std::uint64_t i = 0; i < num_segs; ++i) wear_before[i] = wear_of(i);

    // One-block txns acquire at most one segment each, after any
    // backpressure drain and before appending, so the free set at that
    // acquire is the free set now plus the chosen segment, and no segment
    // that was free then has been written since.
    absorb_one(*tier, sink, {{txn % 23, txn}});
    std::optional<std::uint64_t> chosen;
    for (std::uint64_t i = 0; i < num_segs; ++i) {
      if (seq_of(i) <= newest_seq) continue;
      ASSERT_FALSE(chosen.has_value()) << "two acquires in one absorb";
      chosen = i;
    }
    if (chosen.has_value()) {
      newest_seq = seq_of(*chosen);
      ++acquires;
      for (std::uint64_t i = 0; i < num_segs; ++i) {
        const std::uint64_t seq = seq_of(i);
        if (i == *chosen || (seq != 0 && seq >= tier->oldest_live_seq()))
          continue;
        EXPECT_LE(wear_before[*chosen], wear_before[i])
            << "acquire " << acquires << " took segment " << *chosen
            << " over less-worn free segment " << i;
      }
    }

    // Vary the free set: a full drain now and then seals a short segment
    // and frees every segment; in between, the cleaner drains one sealed
    // segment early, and backpressure drains do the rest.
    if (txn % 200 == 199) {
      tier->drain_all(sink);
    } else if (txn % 60 == 59) {
      std::vector<std::uint64_t> seqs;
      tier->collect_drainable(1, seqs);
      for (const std::uint64_t s : seqs) tier->drain_segment(s, sink);
    }
  }
  EXPECT_GT(acquires, 3 * num_segs);
  EXPECT_GT(tier->stats().backpressure_drains, 0u);
}

TEST(NvLogTier, RecoverRejectsLogVersion2) {
  // v2 logs carry FNV-1a checksums, which never validate under v3's XXH64:
  // the mount must refuse the log instead of reading every record as torn.
  sim::SimClock clock;
  nvm::NvmDevice nvm(kLogBytes, nvdimm_profile(), clock);
  MapSink sink;
  NvLogTier::format(nvm, small_cfg());
  auto tier = NvLogTier::format(nvm, small_cfg());  // format nonce 2
  absorb_one(*tier, sink, {{1, 1}});
  tier.reset();

  // Restamp the superblock as version 2 under a checksum that validates.
  std::array<std::byte, kLogSuperBytes> sup{};
  nvm.load(0, sup);
  EXPECT_EQ(load_le(sup.data() + kSupVersionAt, 8), kLogVersion);
  EXPECT_EQ(load_le(sup.data() + kSupNonceAt, 8), 2u);
  store_le(sup.data() + kSupVersionAt, 2, 8);
  store_le(sup.data() + kSupCrcAt,
           fingerprint(std::span<const std::byte>(sup.data(), kSupCrcAt)), 8);
  nvm.store(0, sup);
  nvm.persist(0, sup.size());
  EXPECT_THROW(NvLogTier::recover(nvm, small_cfg()), ContractViolation);

  // A reformat cannot read the v2 format nonce, so the nonce restarts at 1.
  NvLogTier::format(nvm, small_cfg());
  nvm.load(0, sup);
  LogSuperblock sb;
  ASSERT_TRUE(decode_superblock(sup, &sb));
  EXPECT_EQ(sb.format_nonce, 1u);
}

TEST(NvLogTier, WatermarkRingRotatesAndRecoveryMountsHighestEpoch) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(kLogBytes, nvdimm_profile(), clock);
  MapSink sink;
  auto tier = NvLogTier::format(nvm, small_cfg());
  EXPECT_EQ(tier->watermark_epoch(), 1u);  // format's birth record

  // Each absorb + full drain recycles one segment: one fresh ring record,
  // rotated into the next slot.
  for (int i = 0; i < 5; ++i) {
    absorb_one(*tier, sink, {{1, 40u + static_cast<std::uint64_t>(i)}});
    tier->drain_all(sink);
  }
  EXPECT_EQ(tier->watermark_epoch(), 6u);
  EXPECT_EQ(tier->stats().watermark_records, 6u);
  const std::uint64_t oldest = tier->oldest_live_seq();
  EXPECT_GT(oldest, 1u);

  // Recovery adjudicates the ring: it must mount the HIGHEST valid epoch,
  // not slot 0 or whatever a fixed hot line would have said.
  nvm.crash_discard_all();
  auto rec = NvLogTier::recover(nvm, small_cfg());
  EXPECT_EQ(rec->watermark_epoch(), 6u);
  EXPECT_EQ(rec->oldest_live_seq(), oldest);

  // The next advance continues the epoch sequence past the mount.
  absorb_one(*rec, sink, {{2, 60}});
  rec->drain_all(sink);
  EXPECT_EQ(rec->watermark_epoch(), 7u);
}

TEST(NvLogTier, WatermarkRotationSpreadsMetaLineWear) {
  // The §16 wear claim at tier level: with one slot every advance hammers
  // the same 64 B line; with the rotating ring the writes spread across all
  // slots and the hottest metadata line cools by an order of magnitude.
  std::uint64_t hot_single = 0, hot_rotated = 0;
  for (const std::uint32_t slots : {1u, 32u}) {
    sim::SimClock clock;
    nvm::NvmDevice nvm(kLogBytes, nvdimm_profile(), clock);
    MapSink sink;
    NvLogConfig cfg = small_cfg();
    cfg.watermark_slots = slots;
    auto tier = NvLogTier::format(nvm, cfg);
    for (int i = 0; i < 64; ++i) {
      absorb_one(*tier, sink, {{1, 70u + static_cast<std::uint64_t>(i)}});
      tier->drain_all(sink);
    }
    // Hottest line in the watermark ring region (the superblock line at
    // offset 0 is written once at format and never again).
    const auto wear =
        nvm.wear(kWatermarkBase, kLogMetaBytes - kWatermarkBase);
    (slots == 1 ? hot_single : hot_rotated) = wear.max_line_writes;
  }
  EXPECT_GE(hot_single, 65u);  // every advance on the one line
  EXPECT_GE(hot_single, hot_rotated * 10) << "rotation must spread wear";
}

TEST(NvLogTier, SkippedWatermarkFlushLosesLiveTxnsAfterWrap) {
  // Sabotage self-test pair for the watermark-record flush: an unflushed
  // ring record is harmless until the log WRAPS — once the segment the
  // stale watermark points at has been recycled and rewritten, recovery's
  // contiguous chain scan from the stale oldest_live_seq finds nothing and
  // every live log-resident txn silently vanishes.
  for (const bool sabotage : {true, false}) {
    sim::SimClock clock;
    nvm::NvmDevice nvm(kLogBytes, nvdimm_profile(), clock);
    MapSink sink;
    NvLogConfig cfg = small_cfg();
    cfg.sabotage_skip_watermark_flush = sabotage;
    std::uint64_t seed = 900, last4 = 0;
    {
      auto tier = NvLogTier::format(nvm, cfg);
      // Fat commits over a tiny working set wrap the 7-segment log several
      // times; backpressure drains recycle and rewrite the early segments.
      for (int round = 0; round < 40; ++round) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> spec;
        for (std::uint64_t b = 1; b <= 4; ++b) {
          spec.emplace_back(b, seed);
          if (b == 4) last4 = seed;
          ++seed;
        }
        absorb_one(*tier, sink, spec);
      }
      ASSERT_GT(tier->oldest_live_seq(), 1u) << "log never wrapped";
      ASSERT_GT(tier->stats().segments_recycled, 0u);
    }
    nvm.crash_discard_all();  // unflushed watermark records evaporate

    auto rec = NvLogTier::recover(nvm, small_cfg());
    std::vector<std::byte> buf(kBlock);
    if (sabotage) {
      // The stale epoch-1 record won adjudication; seq 1's segment has been
      // recycled, so the chain is empty and the live txns are gone.
      EXPECT_EQ(rec->stats().recovery_replayed, 0u);
      EXPECT_FALSE(rec->contains(4));
    } else {
      EXPECT_GT(rec->stats().recovery_replayed, 0u);
      ASSERT_TRUE(rec->lookup(4, buf));
      EXPECT_EQ(fingerprint(buf), fingerprint(block_of(last4)));
    }
  }
}

TEST(NvLogTier, MetricsRegistration) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(kLogBytes, nvdimm_profile(), clock);
  auto tier = NvLogTier::format(nvm, small_cfg());
  obs::MetricsRegistry reg;
  tier->register_metrics(reg, "nvlog.");
  EXPECT_TRUE(reg.has("nvlog.absorbed_txns"));
  EXPECT_TRUE(reg.has("nvlog.coalesced_records"));
  EXPECT_TRUE(reg.has("nvlog.segments_recycled"));
  EXPECT_TRUE(reg.has("nvlog.recovery_replayed"));
  EXPECT_TRUE(reg.has("nvlog.live_records"));
  EXPECT_TRUE(reg.has("nvlog.watermark_records"));
  EXPECT_TRUE(reg.has("nvlog.meta_line_wear"));
  EXPECT_NE(reg.histogram("nvlog.drain_lag"), nullptr);
  EXPECT_NE(reg.histogram("nvlog.drain_apply"), nullptr);
}

// ---------------------------------------------------------------------------
// Write-only log: lookups and drains serve the DRAM images, never NVM.
// ---------------------------------------------------------------------------

/// The log as NvLogStackedBackend carves it: a view of a larger device,
/// whose operation counters are the tier's alone.
struct LogView {
  sim::SimClock clock;
  nvm::NvmDevice root{kLogBytes + (1 << 16), nvdimm_profile(), clock};
  nvm::NvmDevice log{root, 0, kLogBytes, clock};
};

/// The indexed record's payload of `blkno` on NVM, read without a charge.
std::vector<std::byte> record_payload(const NvLogTier& tier,
                                      const nvm::NvmDevice& log,
                                      std::uint64_t blkno) {
  const auto range = tier.record_range(blkno);
  EXPECT_TRUE(range.has_value()) << "block " << blkno << " not in the log";
  std::vector<std::byte> payload(kBlock);
  if (range.has_value())
    log.load_nocharge(range->first + range->second - kBlock, payload);
  return payload;
}

/// Every block of `newest` (blkno → newest seed) reads its newest image:
/// from the log, where lookup() must equal the indexed record's NVM
/// payload, or else from what the sink was handed.
void expect_reads_newest(NvLogTier& tier, const nvm::NvmDevice& log,
                         const MapSink& sink, const Expected& newest) {
  std::vector<std::byte> buf(kBlock);
  for (const auto& [blkno, seed] : newest) {
    if (tier.lookup(blkno, buf)) {
      EXPECT_EQ(buf, record_payload(tier, log, blkno))
          << "block " << blkno << ": image differs from its record";
    } else {
      const auto it = sink.applied.find(blkno);
      ASSERT_NE(it, sink.applied.end()) << "block " << blkno << " lost";
      buf = it->second;
    }
    EXPECT_EQ(buf, block_of(seed)) << "block " << blkno << " stale";
  }
}

/// One group absorb of `members`, each a {blkno, seed} list.
void absorb_group(
    NvLogTier& tier, NvLogTier::DrainSink& sink,
    const std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>&
        members) {
  std::vector<blockdev::WriteSet> txns(members.size());
  for (std::size_t m = 0; m < members.size(); ++m)
    for (const auto& [blkno, seed] : members[m])
      txns[m].add(blkno, block_of(seed));
  tier.absorb_commit_group(txns, sink);
}

/// Absorb `rounds` three-block txns over a 20-block working set, with a
/// cleaner-style drain of the oldest drainable segment every 10th round, and
/// check every read after each round.  Returns the next unused seed.
std::uint64_t churn(NvLogTier& tier, const nvm::NvmDevice& log,
                    MapSink& sink, Expected& newest, std::uint64_t seed,
                    int rounds) {
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spec;
    for (std::uint64_t b = 0; b < 3; ++b) {
      const std::uint64_t blkno = (seed + b * 7) % 20;  // 3 distinct blocks
      spec.emplace_back(blkno, seed + b);
      newest[blkno] = seed + b;
    }
    seed += 3;
    absorb_one(tier, sink, spec);
    if (round % 10 == 9) {
      std::vector<std::uint64_t> seqs;
      tier.collect_drainable(1, seqs);
      for (const std::uint64_t s : seqs) tier.drain_segment(s, sink);
    }
    expect_reads_newest(tier, log, sink, newest);
  }
  return seed;
}

TEST(NvLogWriteOnly, LookupsAndDrainsNeverLoadTheLog) {
  LogView v;
  MapSink sink;
  auto tier = NvLogTier::format(v.log, small_cfg());
  const std::uint64_t loaded = v.log.stats().lines_loaded;  // format's reads

  Expected newest;
  absorb_one(*tier, sink, {{1, 1}, {2, 2}, {3, 3}});
  newest.insert({{1, 1}, {2, 2}, {3, 3}});
  // Block 5 is written by both members: the merged record keeps the
  // second member's image.
  absorb_group(*tier, sink, {{{5, 10}, {6, 11}}, {{7, 12}, {5, 13}}});
  newest.insert({{5, 13}, {6, 11}, {7, 12}});
  EXPECT_EQ(tier->stats().group_merged_records, 1u);
  absorb_one(*tier, sink, {{1, 20}, {3, 21}});  // overwrites
  newest[1] = 20;
  newest[3] = 21;
  expect_reads_newest(*tier, v.log, sink, newest);

  // Wrap the log: cleaner drains of single segments and, once it is full,
  // backpressure drains inside the absorbs.
  churn(*tier, v.log, sink, newest, 100, 120);
  EXPECT_GT(tier->stats().backpressure_drains, 0u);
  EXPECT_GT(tier->stats().drain_batches, tier->stats().backpressure_drains);
  EXPECT_GT(tier->stats().coalesced_records, 0u);
  EXPECT_GT(tier->stats().log_hits, 0u);

  tier->drain_all(sink);
  EXPECT_EQ(tier->live_records(), 0u);
  expect_reads_newest(*tier, v.log, sink, newest);
  EXPECT_EQ(v.log.stats().lines_loaded, loaded)
      << "a lookup or drain read the log";
}

TEST(NvLogWriteOnly, RecoveredImagesMatchTheLogAndAreNeverReloaded) {
  LogView v;
  MapSink sink;
  Expected newest;
  std::uint64_t seed = 100;
  {
    auto tier = NvLogTier::format(v.log, small_cfg());
    seed = churn(*tier, v.log, sink, newest, seed, 40);
    ASSERT_GT(tier->stats().segments_recycled, 0u);
    // Tear the newest txn's last block record: recovery must drop that
    // whole txn, so the newest images revert to the txn before it.
    absorb_one(*tier, sink, {{30, seed}, {31, seed + 1}});
    const auto range = tier->record_range(31);
    ASSERT_TRUE(range.has_value());
    const std::vector<std::byte> garbage(nvm::NvmDevice::kLineSize,
                                         std::byte{0x5A});
    v.log.store(range->first, garbage);
    v.log.persist(range->first, garbage.size());
    seed += 2;
  }
  v.root.crash_discard_all();

  auto rec = NvLogTier::recover(v.log, small_cfg());
  EXPECT_GT(rec->stats().recovery_replayed, 0u);
  EXPECT_GT(rec->stats().recovery_discarded, 0u);
  EXPECT_FALSE(rec->contains(30));
  EXPECT_FALSE(rec->contains(31));
  std::uint64_t loaded = v.log.stats().lines_loaded;  // recovery's scan
  expect_reads_newest(*rec, v.log, sink, newest);
  seed = churn(*rec, v.log, sink, newest, seed, 30);
  EXPECT_EQ(v.log.stats().lines_loaded, loaded);

  // Re-crash inside an unmount drain, at every step until one completes:
  // each recovery's images must match the log, reads must see the newest
  // images, and nothing after the mount may read the log.
  Rng rng(11);
  for (std::uint64_t step = 1;; ++step) {
    ASSERT_LT(step, 200u) << "the drain never completed";
    v.root.injector.arm(step);
    bool crashed = false;
    try {
      rec->drain_all(sink);
    } catch (const nvm::CrashException&) {
      crashed = true;
    }
    v.root.injector.disarm();
    if (!crashed) break;
    rec.reset();
    v.root.crash(rng, 0.5);
    rec = NvLogTier::recover(v.log, small_cfg());
    loaded = v.log.stats().lines_loaded;
    expect_reads_newest(*rec, v.log, sink, newest);
    EXPECT_EQ(v.log.stats().lines_loaded, loaded);
  }
  EXPECT_EQ(rec->live_records(), 0u);
  expect_reads_newest(*rec, v.log, sink, newest);
}

TEST(NvLogWriteOnly, FailedDrainKeepsImagesAndTheRetryAppliesTheSameBytes) {
  /// Records every batch it is handed; throws IoError while `fail` is set.
  struct FlakySink : MapSink {
    void drain_apply(DrainBatch& blocks) override {
      handed.push_back(blocks);
      if (fail) throw blockdev::IoError("drain apply", blocks.front().first,
                                        blockdev::IoStatus::kTransient);
      MapSink::drain_apply(blocks);
    }
    bool fail = true;
    std::vector<DrainBatch> handed;
  } sink;

  LogView v;
  auto tier = NvLogTier::format(v.log, small_cfg());
  Expected newest;
  absorb_one(*tier, sink, {{1, 1}, {2, 2}, {3, 3}});
  absorb_one(*tier, sink, {{2, 4}, {4, 5}});
  newest.insert({{1, 1}, {2, 4}, {3, 3}, {4, 5}});
  const std::uint64_t live = tier->live_records();

  EXPECT_THROW(tier->drain_all(sink), blockdev::IoError);
  ASSERT_EQ(sink.handed.size(), 1u);
  EXPECT_EQ(tier->live_records(), live);
  EXPECT_EQ(tier->stats().drain_batches, 0u);
  expect_reads_newest(*tier, v.log, sink, newest);

  sink.fail = false;
  tier->drain_all(sink);
  ASSERT_EQ(sink.handed.size(), 2u);
  EXPECT_EQ(sink.handed[1], sink.handed[0]) << "the retry applied other bytes";
  EXPECT_EQ(tier->live_records(), 0u);
  expect_reads_newest(*tier, v.log, sink, newest);
}

// ---------------------------------------------------------------------------
// Assembled backend: crash-point sweep with re-crash mid-drain.
// ---------------------------------------------------------------------------

backend::NvLogStackedConfig sweep_cfg() {
  backend::NvLogStackedConfig cfg;
  cfg.log_bytes = kLogBytes;
  cfg.log.segment_bytes = kSegBytes;
  cfg.inner = backend::NvLogInner::kClassic;
  // The inner store never journals, but the reserved area still bounds the
  // data blocks; keep it small for the 4096-block test disk.
  cfg.classic.journal_blocks = 512;
  return cfg;
}

constexpr std::size_t kSweepNvmBytes = (3u << 19) + kLogBytes;

std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
sweep_history() {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> h;
  std::uint64_t seed = 1;
  for (int t = 0; t < 8; ++t) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> txn;
    for (int b = 0; b < 4; ++b) {
      const std::uint64_t blkno =
          (b % 2 == 0) ? static_cast<std::uint64_t>(t * 4 + b)
                       : static_cast<std::uint64_t>(b);
      txn.emplace_back(blkno, seed++);
    }
    h.push_back(std::move(txn));
  }
  return h;
}

struct SweepRun {
  Expected committed;
  std::size_t committed_txns = 0;
  std::uint64_t steps = 0;
  bool crashed = false;
};

SweepRun run_sweep(nvm::NvmDevice& nvm, blockdev::MemBlockDevice& disk,
                   std::uint64_t crash_step) {
  auto be = backend::NvLogStackedBackend::format(nvm, disk, sweep_cfg());
  nvm.injector.disarm();
  if (crash_step > 0) nvm.injector.arm(crash_step);
  SweepRun r;
  const auto history = sweep_history();
  try {
    for (std::size_t t = 0; t < history.size(); ++t) {
      be->begin();
      for (const auto& [blkno, seed] : history[t]) {
        const auto data = block_of(seed);
        be->stage(blkno, data);
      }
      be->commit();
      for (const auto& [blkno, seed] : history[t]) r.committed[blkno] = seed;
      ++r.committed_txns;
      // Periodic drains put the apply / prefix-advance crash points in play.
      if (t % 3 == 2) be->flush();
    }
    be->flush();
  } catch (const nvm::CrashException&) {
    r.crashed = true;
  }
  r.steps = nvm.injector.steps_seen();
  nvm.injector.disarm();
  return r;
}

/// Reads the full block universe through `be` and matches it against one of
/// `acceptable` (committed state, or committed + the ambiguous last txn).
bool state_matches(backend::NvLogStackedBackend& be,
                   const std::vector<Expected>& acceptable,
                   const Expected& universe) {
  std::vector<std::byte> buf(kBlock);
  const auto zero = fingerprint(std::vector<std::byte>(kBlock, std::byte{0}));
  for (const Expected& exp : acceptable) {
    bool match = true;
    for (const auto& [blkno, _] : universe) {
      be.read_block(blkno, buf);
      auto it = exp.find(blkno);
      const std::uint64_t want =
          it != exp.end() ? fingerprint(block_of(it->second)) : zero;
      if (fingerprint(buf) != want) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

std::vector<Expected> acceptable_states(const SweepRun& run) {
  std::vector<Expected> acceptable{run.committed};
  const auto history = sweep_history();
  if (run.committed_txns < history.size()) {
    // The in-flight txn's absorb may have reached its fence before the
    // crash hit between durability and the commit call returning.
    Expected with_next = run.committed;
    for (const auto& [blkno, seed] : history[run.committed_txns])
      with_next[blkno] = seed;
    acceptable.push_back(with_next);
  }
  return acceptable;
}

TEST(NvLogBackendCrash, EveryStepRecoversAndReCrashMidDrainIsIdempotent) {
  // Learn the step count with a disarmed probe run.
  sim::SimClock probe_clock;
  nvm::NvmDevice probe_nvm(kSweepNvmBytes, nvdimm_profile(), probe_clock);
  blockdev::MemBlockDevice probe_disk(1 << 12);
  const SweepRun full = run_sweep(probe_nvm, probe_disk, 0);
  ASSERT_FALSE(full.crashed);
  ASSERT_GT(full.steps, 50u);

  Expected universe;
  for (const auto& txn : sweep_history())
    for (const auto& [blkno, seed] : txn) universe[blkno] = seed;

  Rng rng(7);
  for (std::uint64_t step = 1; step <= full.steps; ++step) {
    sim::SimClock clock;
    nvm::NvmDevice nvm(kSweepNvmBytes, nvdimm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 12);
    const SweepRun run = run_sweep(nvm, disk, step);
    ASSERT_TRUE(run.crashed) << "step " << step << " did not crash";
    nvm.crash(rng, 0.5);

    const auto acceptable = acceptable_states(run);
    {
      auto rec = backend::NvLogStackedBackend::recover(nvm, disk, sweep_cfg());
      ASSERT_TRUE(state_matches(*rec, acceptable, universe))
          << "inconsistent recovery after crash at step " << step;

      // Re-crash mid-drain: arm a rotating step inside the unmount drain,
      // so over the sweep the second crash lands on every drain window
      // (coalesce, apply, prefix advance, prefix persist).
      nvm.injector.arm(step % 5 + 1);
      try {
        rec->flush();
      } catch (const nvm::CrashException&) {
      }
      nvm.injector.disarm();
    }
    nvm.crash(rng, 0.5);

    // Second recovery must land in the same acceptable set (draining moves
    // data between tiers, never changes what a read returns), and a full
    // drain afterwards must leave the log empty with the state intact.
    auto rec2 = backend::NvLogStackedBackend::recover(nvm, disk, sweep_cfg());
    ASSERT_TRUE(state_matches(*rec2, acceptable, universe))
        << "re-crash mid-drain broke recovery at step " << step;
    rec2->flush();
    EXPECT_EQ(rec2->tier().live_records(), 0u);
    ASSERT_TRUE(state_matches(*rec2, acceptable, universe))
        << "post-drain state diverged at step " << step;
  }
}

TEST(NvLogBackend, ReadsHitLogThenFallThrough) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(kSweepNvmBytes, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 12);
  auto be = backend::NvLogStackedBackend::format(nvm, disk, sweep_cfg());

  be->begin();
  const auto d1 = block_of(71);
  be->stage(9, d1);
  be->commit();

  std::vector<std::byte> buf(kBlock);
  be->read_block(9, buf);
  EXPECT_EQ(fingerprint(buf), fingerprint(d1));
  EXPECT_GT(be->tier().stats().log_hits, 0u);

  be->flush();  // drained to the inner store
  EXPECT_EQ(be->tier().live_records(), 0u);
  be->read_block(9, buf);
  EXPECT_EQ(fingerprint(buf), fingerprint(d1));
}

// ---------------------------------------------------------------------------
// Wear-aware allocation satellite.
// ---------------------------------------------------------------------------

TEST(FreeMonitor, RotationReusesLongestFreeId) {
  core::FreeMonitor fifo(3, /*rotate=*/true);
  const std::uint32_t first = fifo.take();
  (void)fifo.take();
  (void)fifo.take();
  fifo.give(first);
  // Only `first` is free; rotation hands it back out.
  EXPECT_EQ(fifo.take(), first);

  core::FreeMonitor lifo(3, /*rotate=*/false);
  const std::uint32_t a = lifo.take();
  lifo.give(a);
  EXPECT_EQ(lifo.take(), a);  // LIFO reuses the just-freed id immediately
}

TEST(FreeMonitor, RotationIsFifoOverGives) {
  core::FreeMonitor fm(4, /*rotate=*/true);
  std::vector<std::uint32_t> taken;
  for (int i = 0; i < 4; ++i) taken.push_back(fm.take());
  fm.give(taken[2]);
  fm.give(taken[0]);
  fm.give(taken[3]);
  EXPECT_EQ(fm.take(), taken[2]);
  EXPECT_EQ(fm.take(), taken[0]);
  EXPECT_EQ(fm.take(), taken[3]);
}

TEST(FreeMonitor, OrderByWearHandsOutLeastWornFirst) {
  const std::vector<std::uint64_t> wear = {50, 5, 90, 20};
  const auto wear_of = [&](std::uint32_t id) { return wear[id]; };

  core::FreeMonitor fifo(4, /*rotate=*/true);
  fifo.order_by_wear(wear_of);
  EXPECT_EQ(fifo.take(), 1u);
  EXPECT_EQ(fifo.take(), 3u);
  EXPECT_EQ(fifo.take(), 0u);
  EXPECT_EQ(fifo.take(), 2u);

  core::FreeMonitor lifo(4, /*rotate=*/false);
  lifo.order_by_wear(wear_of);
  EXPECT_EQ(lifo.take(), 1u);  // least-worn first in LIFO order too
  EXPECT_EQ(lifo.take(), 3u);
}

TEST(WearLevel, TincaWearLevelledCacheRoundtrips) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(1 << 20, pcm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 12);
  core::TincaConfig cfg;
  cfg.ring_bytes = 4096;
  cfg.wear_level = true;
  Expected expected;
  {
    auto cache = core::TincaCache::format(nvm, disk, cfg);
    std::uint64_t seed = 500;
    for (int t = 0; t < 12; ++t) {
      auto txn = cache->tinca_init_txn();
      for (int b = 0; b < 3; ++b) {
        const std::uint64_t blkno = (t * 2 + b) % 10;
        txn.add(blkno, block_of(seed));
        expected[blkno] = seed++;
      }
      cache->tinca_commit(txn);
    }
    std::vector<std::byte> buf(kBlock);
    for (const auto& [blkno, want] : expected) {
      cache->read_block(blkno, buf);
      EXPECT_EQ(fingerprint(buf), fingerprint(block_of(want)));
    }
  }
  // Recovery re-seeds the free list from media wear and must still serve
  // every committed block.
  auto rec = core::TincaCache::recover(nvm, disk, cfg);
  std::vector<std::byte> buf(kBlock);
  for (const auto& [blkno, want] : expected) {
    rec->read_block(blkno, buf);
    EXPECT_EQ(fingerprint(buf), fingerprint(block_of(want)));
  }
}

TEST(WearLevel, RotationSpreadsHotBlockWrites) {
  // One hot disk block rewritten many times: LIFO burns one NVM data block;
  // rotation cycles the whole free pool, capping per-line wear.  Measure the
  // data area only — the global hottest line is Tinca's Head pointer, which
  // rotation deliberately does not touch.
  const auto run = [](bool wear_level) {
    sim::SimClock clock;
    nvm::NvmDevice nvm(1 << 20, pcm_profile(), clock);
    blockdev::MemBlockDevice disk(1 << 12);
    core::TincaConfig cfg;
    cfg.ring_bytes = 4096;
    cfg.wear_level = wear_level;
    auto cache = core::TincaCache::format(nvm, disk, cfg);
    for (int i = 0; i < 200; ++i) {
      auto txn = cache->tinca_init_txn();
      txn.add(0, block_of(static_cast<std::uint64_t>(i)));
      cache->tinca_commit(txn);
    }
    const auto& l = cache->layout();
    return nvm.wear(l.data_off, l.num_blocks * core::kBlockSize);
  };
  const auto lifo = run(false);
  const auto fifo = run(true);
  // Identical work, so comparable totals; the hottest data line must cool
  // down substantially under rotation.
  EXPECT_LT(fifo.max_line_writes * 2, lifo.max_line_writes);
}

}  // namespace
}  // namespace tinca::nvlog
