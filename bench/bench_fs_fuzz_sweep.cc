// File-system-level fault-fuzz campaign + crash-point sweep (DESIGN.md §10).
//
// Part 1 — randomized campaign: drives MiniFs over every campaign of
// backend::kFuzzCampaigns except the block-only ones, with random op
// histories under disk faults and power cuts, checking every
// recovered tree against the in-DRAM reference model and running the
// strengthened fsck() (both must be clean — those are the gates).  Every
// crash recovery also runs check_media() on every Tinca and NvLog partition.
//
// Part 2 — crash-point sweep: replays one fixed op script per stack and
// steps the injector through every NVM-store point and torn disk-write site
// inside the script's final mutation batch + compound commit.
//
// Usage:
//   bench_fs_fuzz_sweep [--schedules N] [--seed S] [--sweep-stride K]
//                       [--sabotage data|bitmap] [--json <path>]
//
// --sabotage corrupts every crash-free schedule behind the harness's back
// (oracle self-test): the run must then *fail*, proving the oracle has
// teeth.  Exit status is nonzero on any violation or dirty fsck, so CI can
// gate on this binary directly (ci.sh runs it with a fixed seed, and runs
// the sabotage mode expecting failure).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_reporter.h"
#include "bench_util.h"
#include "fs/fs_fuzz.h"

using namespace tinca;
using namespace tinca::bench;

int main(int argc, char** argv) {
  keep_heap_resident();
  BenchReporter reporter("fs_fuzz_sweep", argc, argv);

  std::uint64_t schedules = 500;
  std::uint64_t seed = 1;
  std::uint32_t sweep_stride = 1;
  fs::FsSabotage sabotage = fs::FsSabotage::kNone;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--schedules") == 0 && i + 1 < argc) {
      schedules = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--sweep-stride") == 0 && i + 1 < argc) {
      sweep_stride =
          static_cast<std::uint32_t>(std::strtoull(argv[++i], nullptr, 0));
    } else if (std::strcmp(argv[i], "--sabotage") == 0 && i + 1 < argc) {
      const char* what = argv[++i];
      if (std::strcmp(what, "data") == 0) {
        sabotage = fs::FsSabotage::kCorruptData;
      } else if (std::strcmp(what, "bitmap") == 0) {
        sabotage = fs::FsSabotage::kCorruptBitmap;
      } else {
        std::cerr << "unknown --sabotage mode: " << what << "\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_fs_fuzz_sweep [--schedules N] [--seed S]"
                   " [--sweep-stride K] [--sabotage data|bitmap]"
                   " [--json <path>]\n";
      return 2;
    }
  }

  fs::FsFuzzOptions base;
  reporter.config("schedules", schedules);
  reporter.config("seed", seed);
  reporter.config("sweep_stride", static_cast<std::uint64_t>(sweep_stride));
  reporter.config("ops_per_schedule",
                  static_cast<std::uint64_t>(base.ops_per_schedule));
  reporter.config("crash_prob", base.crash_prob);
  reporter.config("transient_write_rate", base.transient_write_rate);
  reporter.config("sabotage", static_cast<std::uint64_t>(sabotage));

  std::cout << "FS fuzz: " << schedules << " randomized MiniFs schedules per"
            << " stack + crash-point sweep, seed " << seed
            << (sabotage != fs::FsSabotage::kNone ? " [SABOTAGE self-test]"
                                                  : "")
            << "\n\n";

  Table t({"stack", "ops", "txns", "crashes", "remounts",
           "fscks", "dirty", "sweep_pts", "sweep_torn", "violations"});
  std::uint64_t total_violations = 0;
  std::uint64_t total_dirty = 0;

  for (const backend::FuzzCampaign& c : backend::kFuzzCampaigns) {
    if (c.block_only) continue;
    fs::FsFuzzOptions opts;
    opts.kind = c.kind;
    opts.cleaner = c.cleaner;
    opts.group_commit = c.group;
    opts.streams = c.streams;
    opts.seed = seed;
    opts.schedules = static_cast<std::uint32_t>(schedules);
    opts.fs_sabotage = sabotage;
    fs::FsFuzzReport r = fs::run_fs_fuzz(opts);

    // Crash-point sweep rides on the same options (always sabotage-free:
    // the sweep verifies crash states, sabotage targets crash-free ones).
    fs::FsFuzzOptions sweep_opts = opts;
    sweep_opts.fs_sabotage = fs::FsSabotage::kNone;
    const fs::FsFuzzReport s = fs::run_fs_crash_sweep(sweep_opts, sweep_stride);

    const std::uint64_t violations = r.violations + s.violations;
    const std::uint64_t dirty = r.fsck_dirty + s.fsck_dirty;
    t.add_row({c.label, Table::num(r.ops_executed),
               Table::num(r.txns_committed), Table::num(r.crashes + s.crashes),
               Table::num(r.clean_remounts + s.clean_remounts),
               Table::num(r.fsck_runs + s.fsck_runs), Table::num(dirty),
               Table::num(s.sweep_points), Table::num(s.sweep_torn_points),
               Table::num(violations)});
    reporter.add_row(c.label)
        .metric("schedules", static_cast<double>(r.schedules))
        .metric("ops", static_cast<double>(r.ops_executed))
        .metric("txns_committed", static_cast<double>(r.txns_committed))
        .metric("crashes", static_cast<double>(r.crashes + s.crashes))
        .metric("mkfs_crashes", static_cast<double>(r.mkfs_crashes))
        .metric("clean_remounts",
                static_cast<double>(r.clean_remounts + s.clean_remounts))
        .metric("io_errors", static_cast<double>(r.io_errors + s.io_errors))
        .metric("io_retries", static_cast<double>(r.io_retries))
        .metric("wedges", static_cast<double>(r.wedges + s.wedges))
        .metric("fsck_runs", static_cast<double>(r.fsck_runs + s.fsck_runs))
        .metric("fsck_dirty", static_cast<double>(dirty))
        .metric("sweep_points", static_cast<double>(s.sweep_points))
        .metric("sweep_torn_points", static_cast<double>(s.sweep_torn_points))
        .metric("media_checks",
                static_cast<double>(r.media_checks + s.media_checks))
        .metric("cleaner_armed",
                r.cleaner_armed || s.cleaner_armed ? 1.0 : 0.0)
        .metric("cleaner_retired",
                static_cast<double>(r.cleaner_retired + s.cleaner_retired))
        .metric("log_cleaner_armed",
                r.log_cleaner_armed || s.log_cleaner_armed ? 1.0 : 0.0)
        .metric("log_cleaner_retired", static_cast<double>(
                                           r.log_cleaner_retired +
                                           s.log_cleaner_retired))
        .metric("violations", static_cast<double>(violations));

    total_violations += violations;
    total_dirty += dirty;
    for (const std::string& m : r.violation_messages)
      std::cerr << c.label << " VIOLATION: " << m << "\n";
    for (const std::string& m : s.violation_messages)
      std::cerr << c.label << " SWEEP VIOLATION: " << m << "\n";
  }

  std::cout << t.render();
  std::cout << "\nEvery recovered tree matched the reference model at an"
               " fsync boundary and every fsck came back clean; violations"
               " and dirty must be 0.\n";
  if (total_violations != 0 || total_dirty != 0) {
    std::cerr << "\nFAIL: " << total_violations << " violation(s), "
              << total_dirty << " dirty fsck report(s); reproduce with"
              << " --seed " << seed << "\n";
  }
  if (!reporter.finish()) return 1;
  return total_violations == 0 && total_dirty == 0 ? 0 : 1;
}
