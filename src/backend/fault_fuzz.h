// Randomized block-level fault-fuzz harness shared by
// tests/fault_fuzz_test.cc and bench/bench_fault_sweep.cc.
//
// Each *schedule* builds a fresh stack (SimClock → NvmDevice → MemBlockDevice
// ← FaultyBlockDevice), formats the backend under test, runs a random
// transactional workload while the disk injects transient errors, bad
// sectors and torn writes, and optionally arms a deterministic power-cut
// point (CrashInjector) or torn-write point.  After a crash the NVM loses a
// random fraction of unflushed lines, the backend recovers, and the
// recovered state is checked against the DESIGN.md §6 invariant: it must
// equal the committed history, or committed history + the one transaction
// that was mid-commit (atomicity: nothing in between, nothing lost).
//
// The campaign plumbing (options, their StackConfig, reproduce tags) lives
// in fuzz_common.h and is shared with the file-system-level harness in
// src/fs/fs_fuzz.h; stacks are opened through open_backend().  Every
// violation message embeds the failing schedule's seed and fault schedule
// verbatim plus a "reproduce:" tag that replays it alone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "backend/fuzz_common.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "tinca/verify.h"

namespace tinca::backend {

/// Run the campaign.  Never throws for injected faults — every anomaly is
/// classified into the report; only harness misuse (bad options) throws.
inline FuzzReport run_fault_fuzz(const FuzzOptions& opts) {
  using detail::fuzz_mix;
  FuzzReport rep;
  std::vector<std::byte> buf(blockdev::kBlockSize);
  fill_pattern(buf, 0);
  std::fill(buf.begin(), buf.end(), std::byte{0});
  const std::uint64_t zero_fp = fingerprint(buf);

  const auto fp_of = [&buf](std::uint64_t value) {
    fill_pattern(buf, value);
    return fingerprint(buf);
  };
  // 512 KB per cache → ~100 Tinca/UBJ blocks, overcommitted by the universe.
  const StackConfig cfg = detail::fuzz_stack_config(opts, 1ull << 19);

  const std::uint64_t last_schedule =
      static_cast<std::uint64_t>(opts.first_schedule) + opts.schedules;
  for (std::uint64_t sched = opts.first_schedule; sched < last_schedule;
       ++sched) {
    ++rep.schedules;
    const std::uint64_t sseed = fuzz_mix(opts.seed, sched);
    Rng rng(sseed);
    std::string armed = "none";

    const auto record_violation = [&](const std::string& what) {
      ++rep.violations;
      if (rep.violation_messages.size() < 16) {
        rep.violation_messages.push_back(
            fuzz_schedule_tag(opts, sched, sseed, armed) + ": " + what +
            " | " + fuzz_reproduce_tag(opts.seed, sched));
      }
    };

    sim::SimClock clock;
    nvm::NvmDevice nvm(cfg.nvm_bytes, nvm_profile_by_name(cfg.nvm_profile),
                       clock);
    blockdev::MemBlockDevice mem(cfg.disk_blocks);
    blockdev::FaultConfig fcfg = cfg.disk_faults;
    fcfg.seed = fuzz_mix(sseed, 0xFA01);
    blockdev::FaultyBlockDevice disk(mem, fcfg, &clock, &nvm.injector);

    std::unique_ptr<TxnBackend> be = open_backend(cfg, nvm, disk, false);
    TINCA_EXPECT(opts.data_blocks <= be->data_block_limit(),
                 "fuzz universe exceeds the backend's data block limit");
    const std::uint64_t max_blocks = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(opts.max_blocks_per_txn,
                                   be->max_txn_blocks()));

    // Arm at most one deterministic crash; half the armed schedules cut
    // power at an NVM persistence point, the rest tear a disk write.
    if (rng.chance(opts.crash_prob)) {
      if (rng.chance(0.5)) {
        const std::uint64_t step = 1 + rng.below(opts.crash_point_range);
        nvm.injector.arm(step);
        armed = "point@" + std::to_string(step);
      } else {
        const std::uint64_t step = 1 + rng.below(40);
        nvm.injector.arm_torn(step);
        armed = "torn@" + std::to_string(step);
      }
    }

    // --- Workload ----------------------------------------------------------
    std::map<std::uint64_t, std::uint64_t> committed;  // blkno → pattern seed
    std::vector<std::pair<std::uint64_t, std::uint64_t>> txn;  // in flight
    std::set<std::uint64_t> touched;
    std::uint64_t pat = 0;
    bool crashed = false;
    bool wedged = false;

    // Snapshot oracle (DESIGN.md §12): pin a committed boundary mid-run,
    // keep committing/cleaning/faulting past it, and every pinned read must
    // keep returning exactly the boundary image.
    bool snap_open = false;
    bool snap_bad = false;
    std::uint64_t snap_token = 0;
    std::uint32_t snap_close_at = 0;
    std::map<std::uint64_t, std::uint64_t> snap_frozen;

    try {
      for (std::uint32_t t = 0; t < opts.txns_per_schedule; ++t) {
        if (be->supports_snapshots()) {
          if (!snap_open && !committed.empty() && rng.chance(0.25)) {
            snap_token = be->snapshot_open();
            snap_frozen = committed;
            snap_open = true;
            snap_close_at = t + 1 + static_cast<std::uint32_t>(rng.below(3));
          } else if (snap_open) {
            for (int probe = 0; probe < 3 && !touched.empty(); ++probe) {
              auto it = touched.begin();
              std::advance(it, static_cast<long>(rng.below(touched.size())));
              be->snapshot_read(snap_token, *it, buf);
              const std::uint64_t got_fp = fingerprint(buf);  // before fp_of
              const auto want = snap_frozen.find(*it);
              const std::uint64_t want_fp =
                  want == snap_frozen.end() ? zero_fp : fp_of(want->second);
              if (got_fp != want_fp) {
                record_violation(
                    "snapshot read of block " + std::to_string(*it) +
                    " is not the pinned committed-boundary image");
                snap_bad = true;
                break;
              }
            }
            if (snap_bad) break;
            if (t >= snap_close_at) {
              be->snapshot_close(snap_token);
              snap_open = false;
            }
          }
        }

        // Occasionally re-read a committed block mid-run: committed data
        // must be visible long before any crash.
        if (!committed.empty() && rng.chance(0.3)) {
          auto it = committed.begin();
          std::advance(it, static_cast<long>(rng.below(committed.size())));
          be->read_block(it->first, buf);
          const std::uint64_t got_fp = fingerprint(buf);
          if (got_fp != fp_of(it->second)) {
            record_violation("live read of committed block " +
                             std::to_string(it->first) +
                             " returned wrong contents");
            break;
          }
        }

        txn.clear();
        if (opts.group_commit && be->supports_group_commit() &&
            rng.chance(0.6)) {
          // Group commit (DESIGN.md §14): hand 2–4 whole transactions to
          // commit_group() at once.  The flattened member-order write list
          // is the in-flight image — a batch is all-or-nothing even across
          // shards (the cross-stream commit record, DESIGN.md §15), so the
          // crash candidates below (nothing or the whole batch) stay exact.
          // Duplicate blocks across members exercise the LWW merge; the
          // merged distinct-block count stays within max_txn_blocks.
          const std::uint64_t members = 2 + rng.below(3);
          std::vector<GroupTxn> batch(members);
          std::set<std::uint64_t> distinct;
          for (GroupTxn& member : batch) {
            const std::uint64_t want = 1 + rng.below(2);
            for (std::uint64_t k = 0; k < want; ++k) {
              const std::uint64_t blkno = rng.below(opts.data_blocks);
              bool dup = false;
              for (const auto& [b, v] : member.writes) dup |= b == blkno;
              if (dup) continue;  // writes within one member stay distinct
              if (!distinct.contains(blkno) && distinct.size() >= max_blocks)
                continue;
              distinct.insert(blkno);
              const std::uint64_t value = (sseed << 16) + ++pat;
              fill_pattern(buf, value);
              member.writes.emplace_back(
                  blkno, std::vector<std::byte>(buf.begin(), buf.end()));
              txn.emplace_back(blkno, value);
              touched.insert(blkno);
            }
          }
          be->commit_group(batch);
        } else {
          const std::uint64_t nblocks = 1 + rng.below(max_blocks);
          while (txn.size() < nblocks) {
            const std::uint64_t blkno = rng.below(opts.data_blocks);
            bool dup = false;
            for (const auto& [b, v] : txn) dup |= b == blkno;
            if (dup) continue;
            txn.emplace_back(blkno, (sseed << 16) + ++pat);
          }
          be->begin();
          for (const auto& [blkno, value] : txn) {
            fill_pattern(buf, value);
            be->stage(blkno, buf);
            touched.insert(blkno);
          }
          be->commit();
        }
        for (const auto& [blkno, value] : txn) committed[blkno] = value;
        txn.clear();
        // Cleaner-armed campaigns drain between commits.  A crash inside the
        // step lands after the oracle bookkeeping with txn empty, so the only
        // acceptable state is exactly the committed history — precisely the
        // crash-safety claim under test (re-clean on recovery, lose nothing).
        be->cleaner_step();
        if (rng.chance(0.1)) be->flush();
      }
    } catch (const nvm::CrashException&) {
      crashed = true;
    } catch (const blockdev::IoError&) {
      ++rep.io_errors;  // unrecoverable read; state stays consistent
    } catch (const ContractViolation& e) {
      if (std::string(e.what()).find("wedged") != std::string::npos) {
        ++rep.wedges;  // documented capacity degradation, not a bug
        wedged = true;
      } else {
        record_violation(e.what());
      }
    }

    // Release any open snapshot before verification: pins defer disk
    // writebacks, and the sabotage/verify phases should run unthrottled.
    // (After a crash the backend is rebuilt anyway, so unpinning the dying
    // instance is merely tidy.)
    if (snap_open) {
      try {
        be->snapshot_close(snap_token);
      } catch (const std::exception&) {
      }
      snap_open = false;
    }

    // Stop injecting *new* faults; already-bad sectors keep failing.
    nvm.injector.disarm();
    nvm.injector.disarm_torn();
    disk.quiesce();
    detail::fuzz_collect(*be, rep);

    if (wedged) {
      // A wedge aborts mid-operation by design; the interrupted operation's
      // partial state is reconciled by recovery, which the crash schedules
      // already cover.  Nothing further to verify here.
      detail::fuzz_fold_faults(rep.faults, disk.fault_stats());
      continue;
    }

    // --- Crash + recovery --------------------------------------------------
    if (crashed) {
      ++rep.crashes;
      static constexpr double kSurvive[] = {0.0, 0.3, 0.7, 1.0};
      nvm.crash(rng, kSurvive[rng.below(4)]);
      be.reset();
      try {
        be = open_backend(cfg, nvm, disk, true);
      } catch (const std::exception& e) {
        record_violation(std::string("recovery failed: ") + e.what());
        continue;
      }
    } else if (rng.chance(0.5)) {
      // Crash-free round trip: a clean remount must preserve everything.
      ++rep.clean_remounts;
      be.reset();
      try {
        be = open_backend(cfg, nvm, disk, true);
      } catch (const std::exception& e) {
        record_violation(std::string("clean remount failed: ") + e.what());
        continue;
      }
      txn.clear();  // nothing was in flight
    } else {
      txn.clear();  // verify the live instance; nothing in flight
    }

    // Oracle self-test: corrupt one committed block behind the harness's
    // bookkeeping.  The recovered/live state then matches no acceptable
    // history and verification below MUST flag it.
    if (opts.sabotage == FuzzSabotage::kCorruptCommitted && !crashed &&
        !committed.empty()) {
      try {
        fill_pattern(buf, fuzz_mix(sseed, 0x5AB0));
        be->begin();
        be->stage(committed.begin()->first, buf);
        be->commit();
      } catch (const std::exception&) {
        // A sabotage commit lost to residual faults just means this
        // schedule doesn't self-test; others will.
      }
    }

    // --- Verification ------------------------------------------------------
    // Acceptable states: committed history, or (crash during commit only)
    // committed history + the in-flight transaction — for EVERY backend,
    // including the sharded stack.  A cross-shard transaction is anchored to
    // one atomic commit record (DESIGN.md §15), so no shard-prefix states
    // are acceptable any more: anything else — a torn block, a lost
    // committed block, a half-applied shard portion — is a violation.
    try {
      const auto matches =
          [&](const std::map<std::uint64_t, std::uint64_t>& expect,
              std::string* why) {
            std::vector<std::byte> got(blockdev::kBlockSize);
            for (const std::uint64_t blkno : touched) {
              be->read_block(blkno, got);
              const auto it = expect.find(blkno);
              const std::uint64_t want =
                  it == expect.end() ? zero_fp : fp_of(it->second);
              if (fingerprint(got) != want) {
                *why = "block " + std::to_string(blkno) + " mismatch";
                return false;
              }
            }
            return true;
          };

      std::vector<std::map<std::uint64_t, std::uint64_t>> candidates;
      candidates.push_back(committed);
      if (!txn.empty()) {
        std::map<std::uint64_t, std::uint64_t> with_txn = committed;
        for (const auto& [blkno, value] : txn) with_txn[blkno] = value;
        candidates.push_back(with_txn);
      }

      bool ok = false;
      std::string why;
      for (const auto& cand : candidates) {
        if (matches(cand, &why)) {
          ok = true;
          break;
        }
      }
      if (!ok) {
        record_violation("recovered state matches no acceptable history (" +
                         why + ")");
      }

      // Tinca media must also be *structurally* sound after recovery, read
      // through the layout the stack was formatted with.
      if (ok && crashed && opts.kind == StackKind::kTinca) {
        const core::MediaReport mr = core::verify_media(
            nvm, core::Layout::compute(nvm.size(), cfg.tinca.ring_bytes,
                                       cfg.tinca.num_streams));
        if (!mr.ok) {
          record_violation("verify_media: " + (mr.problems.empty()
                                                   ? std::string("not ok")
                                                   : mr.problems.front()));
        }
      }
      // NvLog stacks: after every crash the log tier's metadata — the
      // superblock and the watermark record ring (DESIGN.md §16) — must
      // still decode and hold a mountable winning record.  This is the
      // structural check for the rotated hot-line metadata: a torn record
      // cut is acceptable only because an older valid record survives.
      if (ok && crashed && nvlog_stacked(opts.kind)) {
        nvm::NvmDevice logv(nvm, 0, cfg.nvlog.log_bytes, clock);
        const core::MediaReport mr = core::verify_nvlog_media(logv);
        if (!mr.ok) {
          record_violation("verify_nvlog_media: " +
                           (mr.problems.empty() ? std::string("not ok")
                                                : mr.problems.front()));
        }
      }
      if (crashed) detail::fuzz_collect(*be, rep);
    } catch (const std::exception& e) {
      record_violation(std::string("verification threw: ") + e.what());
    }

    detail::fuzz_fold_faults(rep.faults, disk.fault_stats());
  }
  return rep;
}

}  // namespace tinca::backend
