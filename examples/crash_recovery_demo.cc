// Example: watching Tinca's crash recovery work, step by step.
//
// Reproduces §5.1's recoverability experiment in a controlled way: a
// transaction is deliberately killed at three characteristic points of the
// commit protocol — (1) after a block's data is durable but before its cache
// entry switches, (2) mid-transaction after several blocks committed, and
// (3) after Tail is published — and after each simulated power failure the
// demo shows what recovery found and what state the cache rolled back to.
//
// Run: ./build/examples/crash_recovery_demo
// Exits nonzero unless every outcome is atomic: each block reads its OLD or
// its NEW version, and the transaction is all-old or all-new.
#include <cstdio>
#include <vector>

#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "tinca/tinca_cache.h"

using namespace tinca;

namespace {

constexpr std::uint64_t kRing = 64 * 1024;

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

// Returns whether the outcome was atomic.
bool crash_at(std::uint64_t step, const char* label) {
  sim::SimClock clock;
  nvm::NvmDevice nvm(8 << 20, pcm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 14);
  Rng rng(step);

  auto cache = core::TincaCache::format(nvm, disk,
                                        core::TincaConfig{.ring_bytes = kRing});
  // Seed three blocks with "old" contents, fully committed.
  {
    auto txn = cache->tinca_init_txn();
    for (std::uint64_t b = 0; b < 3; ++b) txn.add(100 + b, block_of(10 + b));
    cache->tinca_commit(txn);
  }

  // Now update all three in one transaction and kill it at `step`.
  nvm.injector.arm(step);
  bool crashed = false;
  try {
    auto txn = cache->tinca_init_txn();
    for (std::uint64_t b = 0; b < 3; ++b) txn.add(100 + b, block_of(20 + b));
    cache->tinca_commit(txn);
  } catch (const nvm::CrashException&) {
    crashed = true;
  }
  nvm.injector.disarm();

  std::printf("\n--- %s (crash point %llu) ---\n", label,
              static_cast<unsigned long long>(step));
  std::printf("power failure: %s, %zu unflushed lines discarded\n",
              crashed ? "yes" : "no (commit completed first)",
              nvm.dirty_lines());
  nvm.crash(rng, 0.5);

  auto recovered = core::TincaCache::recover(
      nvm, disk, core::TincaConfig{.ring_bytes = kRing});
  std::printf("recovery: %llu entries kept, %llu blocks revoked\n",
              static_cast<unsigned long long>(
                  recovered->stats().recovered_entries),
              static_cast<unsigned long long>(recovered->stats().revoked_blocks));
  std::vector<std::byte> got(core::kBlockSize);
  bool any_new = false, any_old = false, any_other = false;
  for (std::uint64_t b = 0; b < 3; ++b) {
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
  if (any_other) {
    std::printf("  !! INCONSISTENT: a block reads neither version\n");
    return false;
  }
  if (any_new && any_old) {
    std::printf("  !! INCONSISTENT: transaction applied partially\n");
    return false;
  }
  std::printf("  atomic: transaction is all-%s\n", any_new ? "new" : "old");
  return true;
}

}  // namespace

int main() {
  std::printf("Tinca crash-recovery demonstration (paper §4.5 / §5.1)\n");
  std::printf("A committed 3-block transaction is updated by a second\n");
  std::printf("transaction that is killed at different protocol points.\n");

  // Commit protocol points per block: begin, data-durable, entry-switched,
  // ring-recorded, head-moved (5); then one per role switch; then tail.
  bool atomic = true;
  atomic &= crash_at(
      2, "crash after first block's data is durable, entry not yet");
  atomic &= crash_at(
      9, "crash mid-transaction, two blocks already in the ring");
  atomic &= crash_at(14, "crash during role switches, before Tail moves");
  atomic &= crash_at(
      19, "crash after Tail published (transaction is durable)");
  std::printf("\nEvery outcome above must be atomic: all-old or all-new.\n");
  return atomic ? 0 : 1;
}
