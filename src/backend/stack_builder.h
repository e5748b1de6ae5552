// One-stop assembly of a full storage stack for benches, examples and
// cluster nodes: virtual clock → NVM device → (mem + fault-injection +
// latency) disk → transactional backend (Tinca or Classic or a §3 ablation
// variant).  open_backend() is the one place a StackKind becomes a backend:
// Stack calls it over its own devices, and the fuzz harnesses call it over
// theirs to format, crash-recover and remount.
#pragma once

#include <memory>
#include <string>

#include "backend/classic_backend.h"
#include "backend/nvlog_stacked_backend.h"
#include "backend/sharded_backend.h"
#include "backend/tinca_backend.h"
#include "backend/txn_backend.h"
#include "backend/ubj_backend.h"
#include "blockdev/faulty_block_device.h"
#include "blockdev/latency_block_device.h"
#include "blockdev/mem_block_device.h"
#include "common/expect.h"
#include "common/latency.h"
#include "obs/metrics.h"

namespace tinca::backend {

/// Which stack to assemble.
enum class StackKind : std::uint8_t {
  kTinca,              ///< Tinca transactional NVM cache
  kClassic,            ///< Ext4+JBD2 over Flashcache (the paper's baseline)
  kClassicNoJournal,   ///< "Ext4 without journaling" ablation
  kUbj,                ///< UBJ unioned buffer cache + journal (§5.4.4)
  kShardedTinca,       ///< N-way sharded concurrent Tinca front-end
  kNvLogClassic,       ///< NVM write-ahead log tier over journal-less Classic
  kNvLogTinca,         ///< log tier draining into a full TincaCache (§16)
  kNvLogSharded,       ///< log tier + shard-affine drains into ShardedTinca
};

/// Assembly parameters.
struct StackConfig {
  StackKind kind = StackKind::kTinca;
  /// NVM cache size in bytes (the paper's 8 GB, scaled).
  std::uint64_t nvm_bytes = 64ull << 20;
  /// Backing disk size in 4 KB blocks (the paper's 128 GB SSD, scaled).
  std::uint64_t disk_blocks = 1ull << 17;
  /// NVM technology ("pcm" is the paper default; "nvdimm", "sttram", "reram").
  std::string nvm_profile = "pcm";
  /// Disk model ("ssd" default, "hdd" for §5.4.1).
  std::string disk_profile = "ssd";
  /// Whether disk writes queue behind the device (background cleaners) or
  /// stall the caller.  Async matches the measured systems; sync is simpler
  /// for unit tests.
  blockdev::WritePolicy disk_writes = blockdev::WritePolicy::kAsync;
  core::TincaConfig tinca;
  classic::ClassicConfig classic;
  ubj::UbjConfig ubj;
  /// NvLog tier for kNvLogClassic / kNvLogTinca / kNvLogSharded (DESIGN.md
  /// §13, §16).  The inner kind, the inner store config and the shard count
  /// are set from `kind` and the top-level `classic` / `tinca` /
  /// `sharded.num_shards` fields at assembly time.
  NvLogStackedConfig nvlog;
  /// kShardedTinca front-end: shard count, group-commit batcher and the
  /// commit-record sabotage hook.  Its `shard` field is ignored — the
  /// per-shard config comes from `tinca`.  NvLog-over-Sharded stacks take
  /// only `num_shards` from here.
  shard::ShardedConfig sharded;
  /// Disk fault schedule (DESIGN.md §9).  The defaults inject nothing, so
  /// the decorator is a transparent pass-through unless rates are raised or
  /// faults are scripted through Stack::faulty_disk().
  blockdev::FaultConfig disk_faults{};
  /// Retry/backoff policy applied to every backend's disk I/O (copied into
  /// the selected backend's own config at assembly time).
  blockdev::RetryPolicy disk_retry{};
};

/// Whether `kind` puts the NVM write-ahead log tier in front of its store.
constexpr bool nvlog_stacked(StackKind kind) {
  return kind == StackKind::kNvLogClassic || kind == StackKind::kNvLogTinca ||
         kind == StackKind::kNvLogSharded;
}

/// Format (`recover == false`) or mount with crash recovery (`recover ==
/// true`) the backend `cfg.kind` names over `nvm` and `disk`, with
/// `cfg.disk_retry` copied into its config.  The device fields of `cfg`
/// (sizes, profiles, write policy, faults) describe devices the caller has
/// already built; they are not read here.
inline std::unique_ptr<TxnBackend> open_backend(const StackConfig& cfg,
                                                nvm::NvmDevice& nvm,
                                                blockdev::BlockDevice& disk,
                                                bool recover) {
  switch (cfg.kind) {
    case StackKind::kTinca: {
      core::TincaConfig c = cfg.tinca;
      c.io = cfg.disk_retry;
      return recover ? TincaBackend::recover(nvm, disk, c)
                     : TincaBackend::format(nvm, disk, c);
    }
    case StackKind::kClassic:
    case StackKind::kClassicNoJournal: {
      classic::ClassicConfig c = cfg.classic;
      c.journaling = cfg.kind == StackKind::kClassic;
      c.cache.io = cfg.disk_retry;
      return recover ? ClassicBackend::recover(nvm, disk, c)
                     : ClassicBackend::format(nvm, disk, c);
    }
    case StackKind::kUbj: {
      ubj::UbjConfig c = cfg.ubj;
      c.io = cfg.disk_retry;
      return recover ? UbjBackend::recover(nvm, disk, c)
                     : UbjBackend::format(nvm, disk, c);
    }
    case StackKind::kShardedTinca: {
      shard::ShardedConfig c = cfg.sharded;
      c.shard = cfg.tinca;
      c.shard.io = cfg.disk_retry;
      return recover ? ShardedBackend::recover(nvm, disk, c)
                     : ShardedBackend::format(nvm, disk, c);
    }
    case StackKind::kNvLogClassic:
    case StackKind::kNvLogTinca:
    case StackKind::kNvLogSharded: {
      NvLogStackedConfig c = cfg.nvlog;
      c.inner = cfg.kind == StackKind::kNvLogClassic ? NvLogInner::kClassic
                : cfg.kind == StackKind::kNvLogSharded ? NvLogInner::kSharded
                                                       : NvLogInner::kTinca;
      c.classic = cfg.classic;
      c.classic.cache.io = cfg.disk_retry;
      c.tinca = cfg.tinca;
      c.tinca.io = cfg.disk_retry;
      c.shards = cfg.sharded.num_shards;
      return recover ? NvLogStackedBackend::recover(nvm, disk, c)
                     : NvLogStackedBackend::format(nvm, disk, c);
    }
  }
  TINCA_ENSURE(false, "unknown StackKind");
  return nullptr;
}

/// The assembled stack; owns every layer.
class Stack {
 public:
  explicit Stack(const StackConfig& cfg)
      : cfg_(cfg),
        nvm_(cfg.nvm_bytes, nvm_profile_by_name(cfg.nvm_profile), clock_),
        mem_(cfg.disk_blocks),
        // Device chain: mem ← fault injection ← latency model.  A failed
        // attempt costs time (the latency layer charges it) but never
        // reaches mem, so blocks_written counts only landed writes and the
        // write accounting below stays exact.
        faulty_(mem_, cfg.disk_faults, &clock_, &nvm_.injector),
        disk_(faulty_, disk_profile_by_name(cfg.disk_profile), clock_,
              cfg.disk_writes),
        backend_(open_backend(cfg, nvm_, disk_, /*recover=*/false)) {}

  [[nodiscard]] sim::SimClock& clock() { return clock_; }
  [[nodiscard]] nvm::NvmDevice& nvm() { return nvm_; }
  [[nodiscard]] blockdev::BlockDevice& disk() { return disk_; }

  /// The fault-injection layer, for scripting faults (mark_bad,
  /// fail_next_writes, tear_write_after) and reading FaultStats.
  [[nodiscard]] blockdev::FaultyBlockDevice& faulty_disk() { return faulty_; }
  [[nodiscard]] TxnBackend& backend() { return *backend_; }
  [[nodiscard]] const StackConfig& config() const { return cfg_; }

  /// Total cache-line flushes issued so far.
  [[nodiscard]] std::uint64_t clflush_count() const {
    return nvm_.stats().clflush;
  }

  /// Total blocks written to the backing disk so far.
  [[nodiscard]] std::uint64_t disk_blocks_written() const {
    return disk_.stats().blocks_written;
  }

  /// Human-readable stack name.
  [[nodiscard]] std::string name() const { return backend_->name(); }

  // --- Observability (src/obs/) --------------------------------------------

  /// Enable per-op span recording on every instrumented layer.
  void enable_tracing(bool on = true) { backend_->enable_tracing(on); }

  /// Attach a Chrome-trace sink to every tracer in the stack.
  void attach_trace_sink(obs::TraceSink* sink) {
    backend_->attach_trace_sink(sink);
  }

  /// Register the whole stack into `reg`: device counters (nvm.*, disk.*),
  /// the virtual clock, and every backend layer's metrics.  The registry
  /// must not outlive this stack.
  void register_metrics(obs::MetricsRegistry& reg) {
    reg.add_counter("nvm.stores", &nvm_.stats().stores);
    reg.add_counter("nvm.bytes_stored", &nvm_.stats().bytes_stored);
    reg.add_counter("nvm.clflush", &nvm_.stats().clflush);
    reg.add_counter("nvm.sfence", &nvm_.stats().sfence);
    reg.add_counter("nvm.lines_loaded", &nvm_.stats().lines_loaded);
    reg.add_counter("nvm.atomic8", &nvm_.stats().atomic8);
    reg.add_counter("nvm.atomic16", &nvm_.stats().atomic16);
    reg.add_counter("disk.blocks_written", &disk_.stats().blocks_written);
    reg.add_counter("disk.blocks_read", &disk_.stats().blocks_read);
    reg.add_counter("disk.seeks", &disk_.stats().seeks);
    const blockdev::FaultStats& f = faulty_.fault_stats();
    reg.add_counter("disk.faults.transient_read_errors",
                    &f.transient_read_errors);
    reg.add_counter("disk.faults.transient_write_errors",
                    &f.transient_write_errors);
    reg.add_counter("disk.faults.bad_sectors", &f.bad_sectors);
    reg.add_counter("disk.faults.bad_sector_errors", &f.bad_sector_errors);
    reg.add_counter("disk.faults.torn_writes", &f.torn_writes);
    reg.add_counter("disk.faults.latency_spikes", &f.latency_spikes);
    reg.add_gauge("sim.now_ns", [this] { return clock_.now(); });
    // Media-endurance view (Table 1: PCM/ReRAM cells endure 10^6–10^8
    // writes): the hottest line, the average, and their ratio — a skew of
    // 100 (= 1.00x) means perfectly levelled wear.
    reg.add_gauge("nvm.wear_max_line_writes",
                  [this] { return nvm_.wear().max_line_writes; });
    reg.add_gauge("nvm.wear_mean_line_writes", [this] {
      return static_cast<std::uint64_t>(nvm_.wear().mean_line_writes + 0.5);
    });
    reg.add_gauge("nvm.wear_skew_x100", [this] {
      const nvm::NvmDevice::WearReport w = nvm_.wear();
      return w.mean_line_writes <= 0.0
                 ? std::uint64_t{0}
                 : static_cast<std::uint64_t>(
                       100.0 * static_cast<double>(w.max_line_writes) /
                       w.mean_line_writes);
    });
    backend_->register_metrics(reg, "");
  }

  /// Debug-build cross-check of the write-path accounting: for the Tinca
  /// stacks every disk write is either a dirty write-back or a foreground
  /// write-through write, so the cache counters must exactly explain the
  /// device counter.  No-op for Classic/UBJ (journal and checkpoint writes
  /// are additional disk traffic by design) and in release builds.
  void assert_write_accounting() {
#ifndef NDEBUG
    std::uint64_t cache_writes = 0;
    switch (cfg_.kind) {
      case StackKind::kTinca: {
        const core::TincaCacheStats& s =
            static_cast<TincaBackend&>(*backend_).cache().stats();
        cache_writes = s.dirty_writebacks + s.writethrough_writes;
        break;
      }
      case StackKind::kShardedTinca: {
        const core::TincaCacheStats s =
            static_cast<ShardedBackend&>(*backend_).sharded().aggregated_stats();
        cache_writes = s.dirty_writebacks + s.writethrough_writes;
        break;
      }
      default:
        return;
    }
    TINCA_ENSURE(cache_writes == disk_blocks_written(),
                 "write accounting mismatch: cache-side writeback counters "
                 "disagree with the disk's blocks_written");
#endif
  }

 private:
  StackConfig cfg_;
  sim::SimClock clock_;
  nvm::NvmDevice nvm_;
  blockdev::MemBlockDevice mem_;
  blockdev::FaultyBlockDevice faulty_;
  blockdev::LatencyBlockDevice disk_;
  std::unique_ptr<TxnBackend> backend_;
};

}  // namespace tinca::backend
