// Example: watching Tinca's crash recovery work, step by step.
//
// Reproduces §5.1's recoverability experiment in a controlled way: a
// transaction updating three committed blocks is killed at characteristic
// points of the batched commit protocol (DESIGN.md §14: stage every block,
// seal the batch, one flush pass, ONE sfence — the commit point — then
// publish the role switches), and after each simulated power failure the
// demo shows what recovery found and what state the cache rolled back to.
// The cut points are not hard-coded: an unarmed run of the same commit,
// driven phase by phase, counts the crash points each phase passes.
//
// Run: ./build/examples/crash_recovery_demo
// Exits nonzero unless every outcome is atomic (each block reads its OLD or
// its NEW version, the transaction all-old or all-new) and every cut after
// the commit fence recovers the NEW versions.
#include <cstdio>
#include <memory>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "tinca/tinca_cache.h"

using namespace tinca;

namespace {

constexpr std::uint64_t kRing = 64 * 1024;
constexpr std::uint64_t kBlocks = 3;

std::vector<std::byte> block_of(std::uint64_t seed) {
  std::vector<std::byte> b(core::kBlockSize);
  fill_pattern(b, seed);
  return b;
}

const char* describe(const std::vector<std::byte>& got, std::uint64_t old_seed,
                     std::uint64_t new_seed) {
  if (fingerprint(got) == fingerprint(block_of(old_seed))) return "OLD version";
  if (fingerprint(got) == fingerprint(block_of(new_seed))) return "NEW version";
  if (fingerprint(got) ==
      fingerprint(std::vector<std::byte>(core::kBlockSize, std::byte{0})))
    return "not present (zeros)";
  return "CORRUPT";
}

// A cache whose blocks 100..102 hold committed "old" contents (seeds 10..12).
struct Rig {
  sim::SimClock clock;
  nvm::NvmDevice nvm{8 << 20, pcm_profile(), clock};
  blockdev::MemBlockDevice disk{1 << 14};
  std::unique_ptr<core::TincaCache> cache = core::TincaCache::format(
      nvm, disk, core::TincaConfig{.ring_bytes = kRing});

  Rig() {
    auto txn = cache->tinca_init_txn();
    for (std::uint64_t b = 0; b < kBlocks; ++b)
      txn.add(100 + b, block_of(10 + b));
    cache->tinca_commit(txn);
  }

  // The update under test: new contents (seeds 20..22) for all three blocks.
  [[nodiscard]] core::Transaction update() const {
    auto txn = cache->tinca_init_txn();
    for (std::uint64_t b = 0; b < kBlocks; ++b)
      txn.add(100 + b, block_of(20 + b));
    return txn;
  }
};

// Crash points the update's commit has passed at the end of each phase,
// counted on an unarmed run that drives tinca_commit's phases by hand.
struct PhaseEnds {
  std::uint64_t staged = 0;     // every block installed, batch sealed
  std::uint64_t flushed = 0;    // flush pass done; the sfence comes next
  std::uint64_t published = 0;  // role switches and commit hint staged
};

PhaseEnds count_phases() {
  Rig rig;
  auto txn = rig.update();
  core::Transaction* const one[] = {&txn};
  rig.nvm.injector.disarm();  // restart the count
  PhaseEnds ends;
  rig.cache->batch_stage(one, 0);
  ends.staged = rig.nvm.injector.steps_seen();
  rig.cache->batch_flush();
  ends.flushed = rig.nvm.injector.steps_seen();
  rig.nvm.sfence();  // the commit point
  rig.cache->batch_publish();
  ends.published = rig.nvm.injector.steps_seen();
  return ends;
}

// Crash points one unarmed tinca_commit of the update passes.
std::uint64_t count_commit() {
  Rig rig;
  auto txn = rig.update();
  rig.nvm.injector.disarm();
  rig.cache->tinca_commit(txn);
  return rig.nvm.injector.steps_seen();
}

// Kills the update at crash point `step`, recovers, and returns whether the
// outcome was atomic — and all-new when `durable` (cut after the fence).
bool crash_at(std::uint64_t step, bool durable, const char* label) {
  Rig rig;
  Rng rng(step);

  rig.nvm.injector.arm(step);
  bool crashed = false;
  try {
    auto txn = rig.update();
    rig.cache->tinca_commit(txn);
  } catch (const nvm::CrashException&) {
    crashed = true;
  }
  rig.nvm.injector.disarm();

  std::printf("\n--- %s (crash point %llu) ---\n", label,
              static_cast<unsigned long long>(step));
  std::printf("power failure: %s, %zu unflushed lines discarded\n",
              crashed ? "yes" : "no (commit completed first)",
              rig.nvm.dirty_lines());
  rig.nvm.crash(rng, 0.5);

  auto recovered = core::TincaCache::recover(
      rig.nvm, rig.disk, core::TincaConfig{.ring_bytes = kRing});
  std::printf("recovery: %llu entries kept, %llu blocks revoked\n",
              static_cast<unsigned long long>(
                  recovered->stats().recovered_entries),
              static_cast<unsigned long long>(recovered->stats().revoked_blocks));
  std::vector<std::byte> got(core::kBlockSize);
  bool any_new = false, any_old = false, any_other = false;
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    recovered->read_block(100 + b, got);
    const char* what = describe(got, 10 + b, 20 + b);
    if (fingerprint(got) == fingerprint(block_of(20 + b)))
      any_new = true;
    else if (fingerprint(got) == fingerprint(block_of(10 + b)))
      any_old = true;
    else
      any_other = true;
    std::printf("  block %llu -> %s\n", static_cast<unsigned long long>(100 + b),
                what);
  }
  if (!crashed) {
    std::printf("  !! the armed crash point was never reached\n");
    return false;
  }
  if (any_other) {
    std::printf("  !! INCONSISTENT: a block reads neither version\n");
    return false;
  }
  if (any_new && any_old) {
    std::printf("  !! INCONSISTENT: transaction applied partially\n");
    return false;
  }
  std::printf("  atomic: transaction is all-%s\n", any_new ? "new" : "old");
  if (durable && !any_new) {
    std::printf("  !! LOST: the commit fence had passed\n");
    return false;
  }
  return true;
}

}  // namespace

int main() {
  std::printf("Tinca crash-recovery demonstration (paper §4.5 / §5.1)\n");
  std::printf("A committed 3-block transaction is updated by a second\n");
  std::printf("transaction that is killed at different protocol points.\n");

  const PhaseEnds ends = count_phases();
  const std::uint64_t total = count_commit();
  std::printf("\nthe update passes %llu crash points: %llu staging and "
              "sealing, %llu in the flush pass, then the fence, then %llu "
              "publishing\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(ends.staged),
              static_cast<unsigned long long>(ends.flushed - ends.staged),
              static_cast<unsigned long long>(ends.published - ends.flushed));
  if (total != ends.published) {
    std::printf("!! tinca_commit passed %llu points, its phases %llu\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(ends.published));
    return 1;
  }

  bool ok = true;
  ok &= crash_at(1, false, "before the fence: first block not yet in NVM");
  ok &= crash_at(ends.staged, false,
                 "before the fence: batch staged and sealed, nothing flushed");
  ok &= crash_at(ends.flushed, false,
                 "before the fence: flush pass at its last range (the batch "
                 "may already be whole on the media)");
  ok &= crash_at(ends.flushed + 1, true,
                 "after the fence: batch durable, nothing published");
  ok &= crash_at(ends.published, true,
                 "after the fence: role switches and hint staged, unflushed");
  std::printf("\nEvery outcome above must be atomic (all-old or all-new), "
              "and all-new after the fence.\n");
  return ok ? 0 : 1;
}
