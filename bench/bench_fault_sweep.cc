// Fault-injection sweep across the transactional stacks (DESIGN.md §9).
//
// Runs the randomized fault-fuzz campaign — transient disk errors, growing
// bad sectors, torn 4 KB writes and deterministic power cuts — over every
// row of backend::kFuzzCampaigns (src/backend/fuzz_common.h), and reports
// how each stack absorbed it: crashes survived, retries spent, blocks
// quarantined, degraded write-through writes, crash recoveries whose media
// passed check_media() on every partition, and (the gate) recovery-invariant
// violations, which must be zero.
//
// Usage:
//   bench_fault_sweep [--schedules N] [--seed S] [--json <path>]
//
// Exit status is nonzero when any stack violated its recovery contract, so
// CI can gate on this binary directly (ci.sh runs it with a fixed seed).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "backend/fault_fuzz.h"
#include "bench_reporter.h"
#include "bench_util.h"

using namespace tinca;
using namespace tinca::bench;

int main(int argc, char** argv) {
  keep_heap_resident();
  BenchReporter reporter("fault_sweep", argc, argv);

  std::uint64_t schedules = 1000;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--schedules") == 0 && i + 1 < argc) {
      schedules = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else {
      std::cerr << "usage: bench_fault_sweep [--schedules N] [--seed S]"
                   " [--json <path>]\n";
      return 2;
    }
  }

  backend::FuzzOptions base;
  reporter.config("schedules", schedules);
  reporter.config("seed", seed);
  reporter.config("transient_write_rate", base.transient_write_rate);
  reporter.config("bad_sector_rate", base.bad_sector_rate);
  reporter.config("torn_write_rate", base.torn_write_rate);
  reporter.config("crash_prob", base.crash_prob);

  std::cout << "Fault sweep: " << schedules << " randomized schedules per"
            << " stack, seed " << seed << "\n\n";

  Table t({"stack", "crashes", "remounts", "transients", "bad_sect", "torn",
           "retries", "quarant", "degraded", "wedges", "violations"});
  std::uint64_t total_violations = 0;

  for (const backend::FuzzCampaign& c : backend::kFuzzCampaigns) {
    backend::FuzzOptions opts;
    opts.kind = c.kind;
    opts.cleaner = c.cleaner;
    opts.group_commit = c.group;
    opts.streams = c.streams;
    opts.seed = seed;
    opts.schedules = static_cast<std::uint32_t>(schedules);
    const backend::FuzzReport r = backend::run_fault_fuzz(opts);

    const std::uint64_t transients = r.faults.transient_read_errors +
                                     r.faults.transient_write_errors;
    t.add_row({c.label, Table::num(r.crashes),
               Table::num(r.clean_remounts), Table::num(transients),
               Table::num(r.faults.bad_sectors), Table::num(r.faults.torn_writes),
               Table::num(r.io_retries), Table::num(r.io_quarantined),
               Table::num(r.io_degraded_writes), Table::num(r.wedges),
               Table::num(r.violations)});
    reporter.add_row(c.label)
        .metric("schedules", static_cast<double>(r.schedules))
        .metric("crashes", static_cast<double>(r.crashes))
        .metric("clean_remounts", static_cast<double>(r.clean_remounts))
        .metric("transient_errors", static_cast<double>(transients))
        .metric("bad_sectors", static_cast<double>(r.faults.bad_sectors))
        .metric("torn_writes", static_cast<double>(r.faults.torn_writes))
        .metric("io_retries", static_cast<double>(r.io_retries))
        .metric("io_quarantined", static_cast<double>(r.io_quarantined))
        .metric("io_degraded_writes", static_cast<double>(r.io_degraded_writes))
        .metric("io_errors", static_cast<double>(r.io_errors))
        .metric("wedges", static_cast<double>(r.wedges))
        .metric("media_checks", static_cast<double>(r.media_checks))
        .metric("cleaner_armed", r.cleaner_armed ? 1.0 : 0.0)
        .metric("cleaner_retired", static_cast<double>(r.cleaner_retired))
        .metric("log_cleaner_armed", r.log_cleaner_armed ? 1.0 : 0.0)
        .metric("log_cleaner_retired",
                static_cast<double>(r.log_cleaner_retired))
        .metric("violations", static_cast<double>(r.violations));

    total_violations += r.violations;
    for (const std::string& m : r.violation_messages)
      std::cerr << c.label << " VIOLATION: " << m << "\n";
  }

  std::cout << t.render();
  std::cout << "\nEvery recovered state matched the committed history (or"
               " committed + the mid-commit transaction); violations must"
               " be 0.\n";
  if (total_violations != 0) {
    std::cerr << "\nFAIL: " << total_violations
              << " recovery-invariant violation(s); reproduce with --seed "
              << seed << "\n";
  }
  if (!reporter.finish()) return 1;
  return total_violations == 0 ? 0 : 1;
}
