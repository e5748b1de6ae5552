// Shared plumbing for the figure-reproduction benches.
//
// Every bench binary regenerates one table/figure of the paper with the same
// rows and series the figure plots.  Scales are reduced (DESIGN.md §2) but
// the ratios the paper's effects depend on — dataset : cache size,
// read : write mix, replica counts — are preserved, so the *shape* of each
// result (who wins, by what factor) is comparable.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "backend/stack_builder.h"
#include "common/table.h"
#include "obs/trace.h"

namespace tinca::bench {

/// For the fuzz sweeps, whose thousands of schedules each allocate and free
/// a few MB of simulated NVM: keep freed heap memory in the process.  By
/// default glibc raises its mmap threshold to the largest mmapped block
/// freed so far and trims the top of the heap whenever more than twice that
/// is free there, so whether a schedule's NVM images go back to the kernel —
/// and the next schedule page-faults them in again — depends on what happens
/// to sit above them in the heap: the run's allocation history, not its
/// work.  Fixed thresholds make every schedule reuse the same pages.
inline void keep_heap_resident() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's cap for this threshold
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
}

/// Scaled default geometry: the paper used an 8 GB NVM cache over a 128 GB
/// SSD with 20–32 GB datasets; we keep the same proportions at 1/128 scale.
struct ScaledDefaults {
  static constexpr std::uint64_t kNvmBytes = 64ull << 20;        // "8 GB"
  static constexpr std::uint64_t kDiskBlocks = 256ull << 8;      // "128 GB"
  static constexpr std::uint64_t kFioDatasetBlocks = 40960;      // "20 GB"
  static constexpr std::uint64_t kTpccDatasetBlocks = 65536;     // "32 GB"
  static constexpr std::uint64_t kJournalBlocks = 4096;          // "16 MB" jrnl
};

/// Build a StackConfig at the scaled defaults.
inline backend::StackConfig scaled_stack(backend::StackKind kind,
                                         const std::string& nvm = "pcm",
                                         const std::string& disk = "ssd") {
  backend::StackConfig cfg;
  cfg.kind = kind;
  cfg.nvm_bytes = ScaledDefaults::kNvmBytes;
  cfg.disk_blocks = 1ull << 17;  // 512 MB address space
  cfg.nvm_profile = nvm;
  cfg.disk_profile = disk;
  cfg.classic.journal_blocks = ScaledDefaults::kJournalBlocks;
  cfg.tinca.ring_bytes = 1 << 20;  // the paper's 1 MB ring
  return cfg;
}

/// Snapshot of the two per-op metrics every figure reports.
struct MetricSnapshot {
  std::uint64_t clflush = 0;
  std::uint64_t disk_writes = 0;
};

inline MetricSnapshot snapshot(backend::Stack& stack) {
  // Debug builds cross-check the cache-side write counters against the
  // device counter at every snapshot point (no-op for Classic/UBJ).
  stack.assert_write_accounting();
  return {stack.clflush_count(), stack.disk_blocks_written()};
}

/// The backend's commit-latency span histogram (virtual ns), whatever the
/// backend calls its commit: Tinca's "commit", Classic's "journal_commit",
/// UBJ's "freeze".  nullptr when the stack is uninstrumented or tracing was
/// never enabled (the histogram is then empty but still returned).
inline const Histogram* commit_histogram(backend::Stack& stack) {
  const obs::Tracer* t = stack.backend().tracer();
  if (t == nullptr) return nullptr;
  for (const char* site : {"commit", "journal_commit", "freeze"})
    if (const Histogram* h = t->histogram(site)) return h;
  return nullptr;
}

/// Per-op deltas between two snapshots.
inline double per_op(std::uint64_t after, std::uint64_t before,
                     std::uint64_t ops) {
  return ops == 0 ? 0.0
                  : static_cast<double>(after - before) /
                        static_cast<double>(ops);
}

/// Uniform bench banner.
inline void banner(const std::string& figure, const std::string& what) {
  std::cout << "==========================================================\n"
            << figure << " — " << what << "\n"
            << "(virtual-time simulation at 1/128 scale; shapes and ratios\n"
            << " are comparable to the paper, absolute values are not)\n"
            << "==========================================================\n";
}

}  // namespace tinca::bench
