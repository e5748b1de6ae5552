// §5.4.4 made quantitative — Tinca vs UBJ vs Classic.
//
// The paper compares Tinca with UBJ only qualitatively: UBJ avoids double
// writes too, but (1) pays a memcpy on the critical path when a frozen block
// is rewritten, (2) checkpoints in transaction units, writing even
// superseded copies to disk, and (3) its working copies burn NVM capacity.
// This bench runs Fio and a rewrite-heavy stress over all three stacks and
// reports throughput plus the diagnostic counters behind each claim.
#include <iostream>

#include "backend/ubj_backend.h"
#include "bench_reporter.h"
#include "bench_util.h"
#include "workloads/fio.h"

using namespace tinca;
using namespace tinca::bench;

namespace {

struct Row {
  double iops;
  double clflush_per_op;
  double disk_per_op;
};

Row run_fio_on(backend::TxnBackend& be, sim::SimClock& clock,
               nvm::NvmDevice& nvm, const blockdev::BlockStats& disk_stats_ref,
               int write_pct) {
  workloads::FioConfig cfg;
  cfg.dataset_blocks = ScaledDefaults::kFioDatasetBlocks;
  cfg.write_pct = write_pct;
  (void)workloads::run_fio(be, clock, 3 * sim::kSec, cfg);  // warm-up
  const std::uint64_t flush_before = nvm.stats().clflush;
  const std::uint64_t disk_before = disk_stats_ref.blocks_written;
  const auto r = workloads::run_fio(be, clock, 8 * sim::kSec, cfg);
  return Row{r.write_iops(),
             per_op(nvm.stats().clflush, flush_before, r.write_ops),
             per_op(disk_stats_ref.blocks_written, disk_before, r.write_ops)};
}

}  // namespace

int main(int argc, char** argv) {
  BenchReporter reporter("compare_ubj", argc, argv);
  reporter.config("dataset_blocks", ScaledDefaults::kFioDatasetBlocks);

  banner("Comparison: Tinca vs UBJ vs Classic (§5.4.4)",
         "Fio mixed random I/O");

  auto report = [&reporter](const char* rw, const char* system, const Row& r) {
    reporter.add_row(std::string(system) + "/rw=" + rw)
        .metric("write_iops", r.iops)
        .metric("clflush_per_op", r.clflush_per_op)
        .metric("disk_writes_per_op", r.disk_per_op);
  };
  Table t({"R/W", "stack", "write IOPS", "clflush/op", "disk writes/op"});
  for (int write_pct : {70, 30}) {
    const char* label = write_pct == 70 ? "3/7" : "7/3";
    for (const auto& [kind, system] :
         {std::pair{backend::StackKind::kClassic, "Classic"},
          std::pair{backend::StackKind::kUbj, "UBJ"},
          std::pair{backend::StackKind::kTinca, "Tinca"}}) {
      backend::Stack stack(scaled_stack(kind));
      const Row r = run_fio_on(stack.backend(), stack.clock(), stack.nvm(),
                               stack.disk().stats(), write_pct);
      t.add_row({label, system, Table::num(r.iops, 0),
                 Table::num(r.clflush_per_op, 1), Table::num(r.disk_per_op, 2)});
      report(label, system, r);
    }
  }
  std::cout << t.render();

  // The §5.4.4 diagnostics under a rewrite-heavy stress (hot working set).
  std::cout << "\nRewrite-heavy stress (4K hot blocks rewritten 8x):\n";
  backend::Stack stack(scaled_stack(backend::StackKind::kUbj));
  backend::TxnBackend& be = stack.backend();
  std::vector<std::byte> blk(4096);
  for (int round = 0; round < 8; ++round) {
    for (std::uint64_t b = 0; b < 4096; b += 16) {
      be.begin();
      for (std::uint64_t i = 0; i < 16; ++i) {
        fill_pattern(blk, round * 10000 + b + i);
        be.stage(b + i, blk);
      }
      be.commit();
    }
  }
  const auto& s = static_cast<backend::UbjBackend&>(be).store().stats();
  Table d({"UBJ diagnostic", "count"});
  d.add_row({"memcpy-on-critical-path COWs", Table::num(s.frozen_cow_copies)});
  d.add_row({"checkpoint disk writes", Table::num(s.checkpoint_writes)});
  d.add_row({"  of which superseded (wasted)",
             Table::num(s.stale_checkpoint_writes)});
  d.add_row({"transactions checkpointed", Table::num(s.checkpointed_txns)});
  std::cout << d.render();
  std::cout << "\nExpectation: UBJ lands between Classic and Tinca — no"
               " journal double write, but stale checkpoint writes and"
               " critical-path copies that Tinca's role switch avoids.\n";
  reporter.add_row("ubj_diagnostics")
      .metric("frozen_cow_copies", static_cast<double>(s.frozen_cow_copies))
      .metric("checkpoint_writes", static_cast<double>(s.checkpoint_writes))
      .metric("stale_checkpoint_writes",
              static_cast<double>(s.stale_checkpoint_writes))
      .metric("checkpointed_txns", static_cast<double>(s.checkpointed_txns));
  return reporter.finish() ? 0 : 1;
}
