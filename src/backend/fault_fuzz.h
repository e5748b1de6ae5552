// Randomized block-level fault-fuzz harness shared by
// tests/fault_fuzz_test.cc and bench/bench_fault_sweep.cc: the block-
// transaction workload for the crash-campaign engine (fuzz_common.h).
//
// Each schedule runs random transactions while the disk injects transient
// errors, bad sectors and torn writes, with at most one power cut or torn
// write armed.  After a crash the recovered state must equal the committed
// history, or committed history + the one transaction (or commit_group()
// batch) that was mid-commit — the DESIGN.md §6 invariant: nothing in
// between, nothing lost.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include "backend/fuzz_common.h"
#include "common/bytes.h"

namespace tinca::backend {

namespace detail {

/// Random 1..max-block transactions over [0, data_blocks) — or, with group
/// commit, 2–4-member commit_group() batches — with live reads of committed
/// blocks and a snapshot pinned across later commits.
class BlockWorkload final : public CrashWorkload {
 public:
  /// 512 KB per cache → ~100 Tinca/UBJ blocks, overcommitted by the
  /// universe; the block harness's own fault salt and torn-step range.
  static constexpr WorkloadShape kShape{1ull << 19, 0xFA01, 40};

  void run(CrashSchedule& s) override {
    const FuzzOptions& o = s.opts;
    RecordingBackend& be = s.shim();
    TINCA_EXPECT(o.data_blocks <= be.data_block_limit(),
                 "fuzz universe exceeds the backend's data block limit");
    const std::uint64_t max_blocks = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(o.max_blocks_per_txn, be.max_txn_blocks()));
    s.arm();

    std::vector<std::byte> buf(blockdev::kBlockSize);
    std::uint64_t pat = 0;
    const auto next_pattern = [&] { return (s.seed << 16) + ++pat; };
    std::uint32_t snap_close_at = 0;
    for (std::uint32_t t = 0; t < o.txns_per_schedule; ++t) {
      // Snapshot cadence: pin at a quarter of the boundaries once anything
      // committed, probe 3 blocks per transaction, close after 1–3.
      if (s.backend().supports_snapshots()) {
        if (!s.snapshot_open() && !be.committed().empty() &&
            s.rng.chance(0.25)) {
          s.open_snapshot();
          snap_close_at = t + 1 + static_cast<std::uint32_t>(s.rng.below(3));
        } else if (s.snapshot_open()) {
          if (!s.probe_snapshot(3)) break;
          if (t >= snap_close_at) s.close_snapshot();
        }
      }

      // Occasionally re-read a committed block mid-run: committed data
      // must be visible long before any crash.
      if (!be.committed().empty() && s.rng.chance(0.3)) {
        auto it = be.committed().begin();
        std::advance(it, static_cast<long>(s.rng.below(be.committed().size())));
        be.read_block(it->first, buf);
        if (fingerprint(buf) != it->second) {
          s.violation("live read of committed block " +
                      std::to_string(it->first) + " returned wrong contents");
          break;
        }
      }

      // One transaction, or with group commit (DESIGN.md §14) 2–4 whole
      // transactions handed to commit_group() at once — all-or-nothing even
      // across shards (the cross-stream commit record, §15).  Blocks within
      // a member stay distinct; duplicates across members exercise the LWW
      // merge, and the merged distinct-block count stays within max_blocks.
      std::vector<GroupTxn> batch(1);
      const auto add = [&](GroupTxn& m, std::uint64_t blkno) {
        for (const auto& [b, data] : m.writes())
          if (b == blkno) return false;
        fill_pattern(buf, next_pattern());
        m.add(blkno, buf);
        return true;
      };
      if (o.group_commit && s.backend().supports_group_commit() &&
          s.rng.chance(0.6)) {
        batch.resize(2 + s.rng.below(3));
        std::set<std::uint64_t> distinct;
        for (GroupTxn& member : batch) {
          const std::uint64_t want = 1 + s.rng.below(2);
          for (std::uint64_t k = 0; k < want; ++k) {
            const std::uint64_t blkno = s.rng.below(o.data_blocks);
            if ((distinct.contains(blkno) || distinct.size() < max_blocks) &&
                add(member, blkno))
              distinct.insert(blkno);
          }
        }
      } else {
        const std::uint64_t nblocks = 1 + s.rng.below(max_blocks);
        while (batch[0].block_count() < nblocks)
          add(batch[0], s.rng.below(o.data_blocks));
      }
      be.commit_group(batch);
      if (s.rng.chance(0.1)) be.flush();
    }
  }

  /// Crash-free schedules take the clean-remount draw here, before
  /// verification, then the kCorruptCommitted self-test commits one
  /// unrecorded update over a committed block, which the image oracle must
  /// flag.
  bool before_verify(CrashSchedule& s) override {
    if (s.interrupted()) return true;
    if (s.rng.chance(0.5)) {
      // Crash-free round trip: a clean remount must preserve everything.
      ++s.rep.clean_remounts;
      if (!s.remount("clean remount")) return false;
    }
    if (s.opts.sabotage == FuzzSabotage::kCorruptCommitted &&
        !s.shim().committed().empty()) {
      try {
        std::vector<std::byte> junk(blockdev::kBlockSize);
        fill_pattern(junk, fuzz_mix(s.seed, 0x5AB0));
        s.backend().begin();
        s.backend().stage(s.shim().committed().begin()->first, junk);
        s.backend().commit();
      } catch (const std::exception&) {
        // A sabotage commit lost to residual faults just means this
        // schedule doesn't self-test; others will.
      }
    }
    return true;
  }
};

}  // namespace detail

/// Run the campaign.  Never throws for injected faults — every anomaly is
/// classified into the report.
inline FuzzReport run_fault_fuzz(const FuzzOptions& opts) {
  FuzzReport rep;
  run_fuzz_campaign(opts, detail::BlockWorkload::kShape, rep,
                    [] { return detail::BlockWorkload(); });
  return rep;
}

}  // namespace tinca::backend
