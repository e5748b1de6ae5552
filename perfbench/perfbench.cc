// perfbench: the repository's end-to-end benchmark.
//
// Drives three closed-loop workloads through the stacks' public entry
// points (TxnBackend, ShardedTinca, MiniFs), reports host wall-clock and
// modeled (virtual-time) cost side by side, and ends every run with a power
// cut, a recovery and a read-back of every acknowledged block or file
// against the benchmark's own shadow copy.
//
//   fio-evict      Tinca, 4 KB random 70 % writes over 2.5x the NVM cache
//   oltp-shard4    ShardedTinca, 4 client threads, TPC-C page mix, Zipf 0.7
//   varmail-nvlog  MiniFs over NvLog-Sharded, varmail file ops with fsync
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//        perfbench --selftest
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1).  Everything before it is a readable report.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backend/nvlog_stacked_backend.h"
#include "backend/tinca_backend.h"
#include "blockdev/faulty_block_device.h"
#include "blockdev/latency_block_device.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "common/latency.h"
#include "common/rng.h"
#include "fs/minifs.h"
#include "harness.h"
#include "nvm/nvm_device.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/sharded_tinca.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using tinca::Rng;
using tinca::Zipf;
namespace blockdev = tinca::blockdev;
namespace sim = tinca::sim;

constexpr std::uint64_t kBlock = blockdev::kBlockSize;
constexpr std::uint64_t kNvmBytes = 64ull << 20;  // the scaled 8 GB PCM cache
constexpr std::uint64_t kDiskBlocks = 1ull << 17;
constexpr int kSetups = 5;  // set-ups per run; setup_s is their median
constexpr int kMounts = 15;  // power-cut mounts per run; recover_ms is the fastest
constexpr std::size_t kSlices = 20;  // host-time slices of the measured window

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// ---------------------------------------------------------------------------
// Options and report
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string rev = "unknown";
  std::string spans_out;  ///< where the traced run writes its spans
  double scale = 1.0;     ///< op-count multiplier, set only by the self-test
  bool corrupt_shadow = false;  ///< self-test: plant one wrong shadow entry
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< sample count behind a percentile, else 0
  bool modeled = false;     ///< deterministic for a fixed seed (1 client)
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double v, std::string unit, bool modeled = false,
           std::size_t samples = 0) {
    metrics.push_back(Metric{std::move(name), v, std::move(unit), samples, modeled});
  }
  void pct(const std::string& name, Samples& s, double p, bool modeled) {
    add(name, static_cast<double>(s.percentile(p)) / 1e3, "us", modeled, s.count());
  }
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Verifiable block and file contents
// ---------------------------------------------------------------------------

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL) ^
                    (c * 0xD6E8FEB86659FD93ULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Block image of `version` of `blkno`: a 16-byte (blkno, version) header
/// and a seeded pattern.  Version 0 is the never-written, all-zero block.
void fill_block(std::span<std::byte> b, std::uint64_t blkno,
                std::uint64_t version, std::uint64_t salt) {
  if (version == 0) {
    std::memset(b.data(), 0, b.size());
    return;
  }
  tinca::fill_pattern(b, mix(blkno, version, salt));
  std::memcpy(b.data(), &blkno, 8);
  std::memcpy(b.data() + 8, &version, 8);
}

/// Cheap check used on every read during the run: the header only.
bool header_ok(std::span<const std::byte> b, std::uint64_t blkno,
               std::uint64_t version) {
  std::uint64_t h[2];
  std::memcpy(h, b.data(), 16);
  return version == 0 ? (h[0] == 0 && h[1] == 0)
                      : (h[0] == blkno && h[1] == version);
}

/// Full check used by the read-back after recovery.
bool block_ok(std::span<const std::byte> b, std::uint64_t blkno,
              std::uint64_t version, std::uint64_t salt,
              std::vector<std::byte>& scratch) {
  scratch.resize(kBlock);
  fill_block(scratch, blkno, version, salt);
  return std::memcmp(b.data(), scratch.data(), kBlock) == 0;
}

// ---------------------------------------------------------------------------
// Device chain: NvmDevice, mem -> faulty -> latency disk -> DiskShim
// ---------------------------------------------------------------------------

struct Devices {
  Devices()
      : nvm(kNvmBytes, tinca::nvm_profile_by_name("pcm"), clock),
        mem(kDiskBlocks),
        faulty(mem, blockdev::FaultConfig{}, &clock, &nvm.injector),
        lat(faulty, tinca::disk_profile_by_name("ssd"), clock,
            blockdev::WritePolicy::kAsync),
        disk(lat, clock) {}

  sim::SimClock clock;
  tinca::nvm::NvmDevice nvm;
  blockdev::MemBlockDevice mem;
  blockdev::FaultyBlockDevice faulty;
  blockdev::LatencyBlockDevice lat;
  DiskShim disk;

  [[nodiscard]] std::uint64_t disk_writes() const { return lat.stats().blocks_written; }
  [[nodiscard]] std::uint64_t disk_reads() const { return lat.stats().blocks_read; }
  [[nodiscard]] std::uint64_t media_line_writes() const {
    return nvm.wear().total_line_writes;
  }
};

/// Sums registry counters over the per-cache prefixes of one stack.
struct Registry {
  tinca::obs::MetricsRegistry reg;
  std::vector<std::string> caches;  ///< prefixes of every TincaCache

  [[nodiscard]] std::uint64_t get(const std::string& name) const {
    return reg.has(name) ? reg.value(name) : 0;
  }
  [[nodiscard]] std::uint64_t tinca(const std::string& suffix) const {
    std::uint64_t s = 0;
    for (const std::string& p : caches) s += get(p + suffix);
    return s;
  }
};

constexpr const char* kTincaCounters[] = {
    "txns_committed", "blocks_committed", "write_hits",  "write_misses",
    "read_hits",      "read_misses",      "evictions",   "dirty_writebacks",
    "cow_writes",     "commit.fences",    "commit.batches", "commit.hint_syncs",
    "mvcc.snapshot_reads", "mvcc.pin_retries", "mvcc.live_versions"};
constexpr const char* kPlainCounters[] = {
    "nvlog.absorbed_txns",       "nvlog.absorbed_records",
    "nvlog.absorbed_bytes",      "nvlog.coalesced_records",
    "nvlog.backpressure_drains", "nvlog.log_hits",
    "nvlog.drained_records",     "nvlog.cleaner.retired",
    "nvlog.cleaner.batches",     "nvlog.cleaner.pinned_requeues",
    "nvlog.cleaner.stale_drops"};

/// Everything a window's per-layer metrics are deltas of.
struct Snapshot {
  std::map<std::string, std::uint64_t> c;
  std::uint64_t sfence = 0, stores = 0, line_writes = 0, wear_max = 0;
  std::uint64_t disk_w = 0, disk_r = 0, drain_lag_sum = 0, drain_lag_n = 0;

  std::uint64_t operator[](const std::string& k) const {
    auto it = c.find(k);
    return it == c.end() ? 0 : it->second;
  }
};

Snapshot snapshot(const Registry& r, const Devices& d,
                  const std::vector<const tinca::nvm::NvmDevice*>& views) {
  Snapshot s;
  for (const char* k : kTincaCounters) s.c[k] = r.tinca(k);
  for (const char* k : kPlainCounters) s.c[k] = r.get(k);
  for (const tinca::nvm::NvmDevice* v : views) {
    s.sfence += v->stats().sfence;
    s.stores += v->stats().stores;
  }
  const tinca::nvm::NvmDevice::WearReport wear = d.nvm.wear();
  s.line_writes = wear.total_line_writes;
  s.wear_max = wear.max_line_writes;
  s.disk_w = d.disk_writes();
  s.disk_r = d.disk_reads();
  if (const tinca::Histogram* h = r.reg.histogram("nvlog.drain_lag")) {
    s.drain_lag_sum = h->sum();
    s.drain_lag_n = h->count();
  }
  return s;
}

/// What every workload hands to the common report code.
struct Window {
  Lat lat;                     ///< boundary latencies of the measured window
  std::uint64_t ops = 0;       ///< workload ops in the host window
  std::uint64_t model_ops = 0;  ///< ops behind the modeled metrics
  std::uint64_t attempted = 0;  ///< every op the run issued
  std::uint64_t t0 = 0, t1 = 0;        ///< host bounds of the window
  std::vector<std::uint64_t> op_t;     ///< host completion time of each op
  std::uint64_t virt_ns = 0;   ///< modeled elapsed time (see each workload)
  std::uint64_t user_bytes = 0;  ///< payload bytes acknowledged in the window
  std::uint64_t eventual_disk_writes = 0;  ///< window + post-recovery flush
  std::uint64_t line_writes = 0;           ///< NVM media line writes
  double recover_ms = 0, recover_virt_ms = 0;
  std::vector<double> setup_s;
  std::uint64_t failed = 0;
  // Traced runs only.
  Snapshot before, after;
  std::uint64_t untraced_ops = 0, untraced_ns = 0, traced_ops = 0, traced_ns = 0;
  SpanRecorder spans;           ///< merged aggregates of the traced blocks
  std::uint64_t disk_virt_ns = 0, cleaner_virt_ns = 0, traced_virt_ns = 0;
  std::uint64_t boundary_reads = 0, boundary_commits = 0;
  std::map<std::string, double> extra;  ///< workload-specific layer values
};

/// Busiest over mean advance of per-shard clocks between two readings.
double clock_imbalance(const std::vector<std::uint64_t>& before,
                       const std::vector<std::uint64_t>& after) {
  double busiest = 0, sum = 0;
  for (std::size_t s = 0; s < after.size(); ++s) {
    const auto adv = static_cast<double>(after[s] - before[s]);
    busiest = std::max(busiest, adv);
    sum += adv;
  }
  return ratio(busiest, sum / static_cast<double>(after.size()));
}

std::vector<std::uint64_t> shard_clocks(tinca::shard::ShardedTinca& st) {
  std::vector<std::uint64_t> c;
  for (std::uint32_t s = 0; s < st.shard_count(); ++s) c.push_back(st.shard_clock(s).now());
  return c;
}

/// Write the traced run's kept spans, one recorder per client thread.
void write_spans(const Options& o, std::span<const SpanRecorder> recs) {
  if (o.spans_out.empty()) return;
  if (std::FILE* f = std::fopen(o.spans_out.c_str(), "w")) {
    for (std::size_t c = 0; c < recs.size(); ++c) recs[c].write(f, static_cast<int>(c));
    std::fclose(f);
  }
}

/// A traced single-threaded window alternates tracing off and on in blocks
/// of kTraceBlock ops, so the untraced and traced op rates, and the spans,
/// sample the same stretch of workload state.  Sums each set's host time
/// and ops, and the traced set's modeled time, into the Window.
class TraceBlocks {
 public:
  static constexpr std::uint64_t kTraceBlock = 1024;

  TraceBlocks(Window& w, SpanRecorder& rec, const VirtualTime& vt,
              tinca::obs::Tracer* tracer)
      : w_(w), rec_(rec), vt_(vt), tracer_(tracer) {}

  /// Call before op `i`; switches at block boundaries.
  void before_op(std::uint64_t i) {
    if (i % kTraceBlock != 0) return;
    close(i);
    on_ = (i / kTraceBlock) % 2 == 1;
    tls_spans = on_ ? &rec_ : nullptr;
    if (tracer_ != nullptr) tracer_->enable(on_);
    start_ = i;
    v0_ = vt_.now();
    t0_ = host_ns();
    open_ = true;
  }
  /// Close the last block after `n` ops and turn tracing off.
  void finish(std::uint64_t n) {
    close(n);
    tls_spans = nullptr;
    if (tracer_ != nullptr) tracer_->enable(false);
  }

 private:
  void close(std::uint64_t i) {
    if (!open_) return;
    const std::uint64_t ns = host_ns() - t0_;
    if (on_) {
      w_.traced_ns += ns;
      w_.traced_ops += i - start_;
      w_.traced_virt_ns += vt_.now() - v0_;
    } else {
      w_.untraced_ns += ns;
      w_.untraced_ops += i - start_;
    }
    open_ = false;
  }

  Window& w_;
  SpanRecorder& rec_;
  const VirtualTime& vt_;
  tinca::obs::Tracer* tracer_;
  bool open_ = false, on_ = false;
  std::uint64_t start_ = 0, t0_ = 0, v0_ = 0;
};

/// Mount after the run's power cut, then cut and mount again kMounts - 1
/// times (recovery must be idempotent under re-crash).  `mount` returns the
/// mounted state and the modeled ns it charged.  recover_ms is the fastest
/// mount's host time (a mount is a few ms, so single page-fault or
/// scheduling stalls swamp a median); recover_virt_ms is the first mount's
/// modeled time.
template <typename Fn>
auto timed_mounts(Window& w, tinca::nvm::NvmDevice& nvm, Fn&& mount) {
  decltype(mount().first) kept;
  std::vector<double> ms;
  for (int i = 0; i < kMounts; ++i) {
    if (i > 0) {
      kept = {};
      nvm.crash_discard_all();
    }
    const std::uint64_t h0 = host_ns();
    auto [state, virt_ns] = mount();
    ms.push_back(static_cast<double>(host_ns() - h0) / 1e6);
    if (i == 0) w.recover_virt_ms = static_cast<double>(virt_ns) / 1e6;
    kept = std::move(state);
  }
  w.recover_ms = *std::min_element(ms.begin(), ms.end());
  return kept;
}

/// Run `setup` kSetups times, keeping the last result; records host times.
template <typename Fn>
auto timed_setups(Window& w, Fn&& setup) {
  decltype(setup()) kept;
  for (int i = 0; i < kSetups; ++i) {
    kept = nullptr;  // release the previous rig before building the next
    const std::uint64_t t0 = host_ns();
    kept = setup();
    w.setup_s.push_back(static_cast<double>(host_ns() - t0) / 1e9);
  }
  return kept;
}

std::uint64_t window_ops(const Options& o, double per_second) {
  return std::max<std::uint64_t>(
      64, static_cast<std::uint64_t>(per_second * static_cast<double>(o.seconds) * o.scale));
}

// ---------------------------------------------------------------------------
// fio-evict: Tinca, uniform random 4 KB, 70 % writes, 64 writes per txn,
// 40960-block dataset = 2.5x the cache (paper Fig 7 setting)
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFioBlocks = 40960;
constexpr std::uint64_t kFioWritesPerTxn = 64;
constexpr double kFioOpsPerSecond = 80000;
constexpr std::uint64_t kFioWarmupOps = 60000;

struct FioRig {
  Devices dev;
  std::unique_ptr<tinca::backend::TincaBackend> backend;
  VirtualTime vt;
  Lat scratch;
  std::unique_ptr<BackendShim> shim;
};

struct FioGen {
  explicit FioGen(std::uint64_t seed)
      : rng(mix(seed, 0xF10, 1)), salt(mix(seed, 0xF10, 2)),
        acked(kFioBlocks, 0), next(kFioBlocks, 0), buf(kBlock) {}
  Rng rng;
  std::uint64_t salt;
  std::vector<std::uint32_t> acked, next;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> staged;
  std::vector<std::byte> buf;
  std::uint64_t acked_blocks = 0, failed = 0;

  void op(tinca::backend::TxnBackend& b) {
    if (rng.below(100) < 70) {
      const std::uint64_t blk = rng.below(kFioBlocks);
      const std::uint32_t ver = ++next[blk];
      if (staged.empty()) b.begin();
      fill_block(buf, blk, ver, salt);
      b.stage(blk, buf);
      staged.emplace_back(blk, ver);
      if (staged.size() == kFioWritesPerTxn) commit(b);
    } else {
      const std::uint64_t blk = rng.below(kFioBlocks);
      b.read_block(blk, buf);
      if (!header_ok(buf, blk, acked[blk])) ++failed;
    }
  }
  void commit(tinca::backend::TxnBackend& b) {
    if (staged.empty()) return;
    b.commit();
    for (const auto& [blk, ver] : staged) acked[blk] = ver;
    acked_blocks += staged.size();
    staged.clear();
  }
};

Window run_fio(const Options& o) {
  Window w;
  FioGen gen(o.seed);
  auto rig = timed_setups(w, [&] {
    gen = FioGen(o.seed);
    auto r = std::make_unique<FioRig>();
    r->backend = tinca::backend::TincaBackend::format(r->dev.nvm, r->dev.disk);
    r->vt.add(r->dev.clock);
    r->shim = std::make_unique<BackendShim>(*r->backend, r->vt, r->scratch);
    for (std::uint64_t i = 0; i < kFioWarmupOps; ++i) gen.op(*r->shim);
    gen.commit(*r->shim);
    r->backend->flush();  // start the window with a clean cache
    return r;
  });
  Devices& d = rig->dev;
  Registry reg;
  rig->backend->register_metrics(reg.reg, "");
  reg.caches = {"tinca."};
  const std::vector<const tinca::nvm::NvmDevice*> views = {&d.nvm};

  const std::uint64_t n = window_ops(o, kFioOpsPerSecond);
  w.lat.reserve(n / kFioWritesPerTxn + 16, n / 2 + 16);
  w.op_t.reserve(n + 4 * kFioWritesPerTxn);
  BackendShim shim(*rig->backend, rig->vt, w.lat);
  SpanRecorder rec;
  TraceBlocks blocks(w, rec, rig->vt, nullptr);
  const std::uint64_t gen_acked0 = gen.acked_blocks, failed0 = gen.failed;
  const std::uint64_t disk_w0 = d.disk_writes(), lines0 = d.media_line_writes();
  const std::uint64_t v0 = d.clock.now();
  w.before = snapshot(reg, d, views);
  const std::uint64_t h0 = host_ns();
  // Run n ops, then on until the open transaction commits: the window ends
  // on a full 64-write commit, because the mount after the power cut
  // re-reads every block of the newest batch, so a short last batch would
  // make recover_virt_ms depend on where n happened to fall.
  std::uint64_t ops = 0;
  for (; ops < n || !gen.staged.empty(); ++ops) {
    if (o.trace) blocks.before_op(ops);
    rec.op = ops;
    gen.op(shim);
    w.op_t.push_back(host_ns());
  }
  if (o.trace) blocks.finish(ops);
  const std::uint64_t h1 = host_ns();
  w.t0 = h0;
  w.t1 = h1;
  w.after = snapshot(reg, d, views);
  w.ops = w.model_ops = w.attempted = ops;
  w.virt_ns = d.clock.now() - v0;
  w.user_bytes = (gen.acked_blocks - gen_acked0) * kBlock;
  w.line_writes = d.media_line_writes() - lines0;
  w.spans.merge(rec);
  w.disk_virt_ns = d.disk.traced_virt_ns();
  w.cleaner_virt_ns = shim.cleaner_virt_ns();
  w.boundary_commits = w.lat.commit_host.count();
  w.boundary_reads = w.lat.read_host.count();
  write_spans(o, std::span(&rec, 1));

  // The window ended on an fsync with nothing in flight.  Cut power: only
  // flushed NVM lines survive.  Then mount and read back.
  if (o.corrupt_shadow) {
    for (std::uint64_t b = 0; b < kFioBlocks; ++b)
      if (gen.acked[b] != 0) {
        ++gen.acked[b];
        break;
      }
  }
  d.nvm.crash_discard_all();
  rig->shim.reset();
  rig->backend.reset();
  auto rec_backend = timed_mounts(w, d.nvm, [&] {
    const std::uint64_t v0 = d.clock.now();
    auto b = tinca::backend::TincaBackend::recover(d.nvm, d.disk);
    return std::pair{std::move(b), d.clock.now() - v0};
  });
  std::vector<std::byte> buf(kBlock), scratch;
  for (std::uint64_t b = 0; b < kFioBlocks; ++b) {
    rec_backend->read_block(b, buf);
    if (!block_ok(buf, b, gen.acked[b], gen.salt, scratch)) ++gen.failed;
  }
  // Eventual write amplification: the window's disk writes plus the
  // write-back of what it left dirty.
  rec_backend->flush();
  w.eventual_disk_writes = d.disk_writes() - disk_w0;
  w.failed = gen.failed - failed0;
  return w;
}

// ---------------------------------------------------------------------------
// oltp-shard4: ShardedTinca, 4 shards, 4 client threads, TPC-C page mix over
// 8192 Zipf(0.7) pages.  Client c writes only pages with page % 4 == c.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kOltpPages = 8192;
constexpr std::uint32_t kClients = 4;
constexpr double kOltpTxnsPerSecond = 10000;  // threaded window
constexpr double kOltpModelPerSecond = 400;   // single-threaded model window

struct OltpRig {
  Devices dev;
  std::unique_ptr<tinca::shard::ShardedTinca> st;
};

/// One TPC-C client: generator state and the shadow of the pages it owns.
struct OltpClient {
  OltpClient(std::uint64_t seed, std::uint32_t id, std::uint64_t stream,
             std::vector<std::uint32_t>& shadow, std::uint64_t salt)
      : rng(mix(seed, 0x0C0 + id, stream)), id(id), shadow(&shadow), salt(salt),
        buf(kBlock) {}
  Rng rng;
  std::uint32_t id;
  std::vector<std::uint32_t>* shadow;  ///< only pages this client owns
  std::uint64_t salt;
  std::vector<std::byte> buf;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> staged;
  Lat lat;
  std::vector<std::uint64_t> txn_t;  ///< host completion time of each txn
  std::uint64_t write_txns = 0, xshard = 0, blocks = 0, failed = 0;

  void txn(tinca::shard::ShardedTinca& st, const Zipf& zipf, const VirtualTime* vt) {
    const std::uint64_t pick = rng.below(100);
    std::uint32_t reads = 40, writes = 0;  // Stock-Level
    if (pick < 45) { reads = 15; writes = 10; }        // New-Order
    else if (pick < 88) { reads = 6; writes = 4; }     // Payment
    else if (pick < 92) { reads = 12; writes = 0; }    // Order-Status
    else if (pick < 96) { reads = 30; writes = 25; }   // Delivery
    for (std::uint32_t i = 0; i < reads; ++i) {
      const std::uint64_t page = zipf.draw(rng);
      const std::uint64_t v0 = vt != nullptr ? vt->now() : 0;
      const std::uint64_t h0 = host_ns();
      {
        SpanScope s(SpanName::kRead);
        st.read_block(page, buf);
      }
      lat.read(h0, host_ns());
      if (vt != nullptr) lat.read_virt.add(vt->now() - v0);
      // Own pages have exactly one acked version; others may move under us.
      const bool ok = page % kClients == id
                          ? header_ok(buf, page, (*shadow)[page])
                          : std::memcmp(buf.data(), &page, 8) == 0;
      if (!ok) ++failed;
    }
    if (writes > 0) {
      tinca::shard::ShardedTxn t = st.init_txn();
      staged.clear();
      std::uint32_t first_shard = UINT32_MAX;
      bool cross = false;
      for (std::uint32_t i = 0; i < writes; ++i) {
        const std::uint64_t page = (zipf.draw(rng) & ~std::uint64_t{kClients - 1}) | id;
        const std::uint32_t ver = (*shadow)[page] + 1 + static_cast<std::uint32_t>(staged.size());
        fill_block(buf, page, ver, salt);
        t.add(page, buf);
        staged.emplace_back(page, ver);
        const std::uint32_t s = st.shard_of(page);
        if (first_shard == UINT32_MAX) first_shard = s;
        cross |= s != first_shard;
      }
      const std::uint64_t v0 = vt != nullptr ? vt->now() : 0;
      const std::uint64_t h0 = host_ns();
      {
        SpanScope s(SpanName::kCommit);
        st.commit(t);
      }
      lat.commit(h0, host_ns());
      if (vt != nullptr) lat.commit_virt.add(vt->now() - v0);
      for (const auto& [page, ver] : staged) (*shadow)[page] = ver;
      ++write_txns;
      xshard += cross ? 1 : 0;
      blocks += writes;
    }
    txn_t.push_back(host_ns());
  }
};

Window run_oltp(const Options& o) {
  Window w;
  const Zipf zipf(kOltpPages, 0.7);
  const std::uint64_t salt = mix(o.seed, 0x0C0, 99);
  std::vector<std::uint32_t> shadow;
  tinca::shard::ShardedConfig sc;
  sc.num_shards = 4;
  auto rig = timed_setups(w, [&] {
    auto r = std::make_unique<OltpRig>();
    r->st = tinca::shard::ShardedTinca::format(r->dev.nvm, r->dev.disk, sc);
    shadow.assign(kOltpPages, 1);
    std::vector<std::byte> buf(kBlock);
    for (std::uint64_t p = 0; p < kOltpPages; p += 64) {
      tinca::shard::ShardedTxn t = r->st->init_txn();
      for (std::uint64_t q = p; q < p + 64; ++q) {
        fill_block(buf, q, 1, salt);
        t.add(q, buf);
      }
      r->st->commit(t);
    }
    r->st->flush_dirty();
    return r;
  });
  Devices& d = rig->dev;
  tinca::shard::ShardedTinca& st = *rig->st;
  Registry reg;
  st.register_metrics(reg.reg, "");
  std::vector<const tinca::nvm::NvmDevice*> views = {&d.nvm};
  // The cross-stream commit record is stored and flushed through a private
  // NVM view on a private clock, neither reachable from outside, so its
  // modeled time and stores are missing from vt and the nvm.* counts.
  VirtualTime vt;
  vt.add(d.clock);
  for (std::uint32_t s = 0; s < st.shard_count(); ++s) {
    reg.caches.push_back("shard" + std::to_string(s) + ".");
    views.push_back(&st.shard_nvm(s));
    vt.add(st.shard_clock(s));
  }

  const std::uint64_t disk_w0 = d.disk_writes(), lines0 = d.media_line_writes();
  w.before = snapshot(reg, d, views);
  const std::vector<std::uint64_t> clocks0 = shard_clocks(st);
  std::uint64_t failed = 0, write_txns = 0, xshard = 0, blocks = 0, reads = 0, commits = 0;

  // Model window: the four clients' transactions interleaved round-robin on
  // one thread, so every modeled cost is exact and repeatable.
  {
    const std::uint64_t m = window_ops(o, kOltpModelPerSecond);
    std::vector<OltpClient> cl;
    for (std::uint32_t c = 0; c < kClients; ++c) cl.emplace_back(o.seed, c, 1, shadow, salt);
    for (std::uint64_t i = 0; i < m; ++i) cl[i % kClients].txn(st, zipf, &vt);
    const std::vector<std::uint64_t> clocks1 = shard_clocks(st);
    std::uint64_t busiest = 0;
    for (std::uint32_t s = 0; s < clocks1.size(); ++s)
      busiest = std::max(busiest, clocks1[s] - clocks0[s]);
    w.virt_ns = busiest;
    for (OltpClient& c : cl) {
      w.lat.commit_virt.append(c.lat.commit_virt);
      w.lat.read_virt.append(c.lat.read_virt);
      failed += c.failed;
      write_txns += c.write_txns;
      xshard += c.xshard;
      blocks += c.blocks;
      reads += c.lat.read_host.count();
      commits += c.lat.commit_host.count();
    }
    w.model_ops = m;
  }

  // Host window: four real client threads in a closed loop.  A traced run
  // alternates kTracePhases untraced and traced phases over the window.
  const std::uint64_t per_client = window_ops(o, kOltpTxnsPerSecond) / kClients;
  std::vector<OltpClient> cl;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    cl.emplace_back(o.seed, c, 2, shadow, salt);
    cl.back().lat.reserve(per_client, per_client * 20, /*modeled=*/false);
    cl.back().txn_t.reserve(per_client);
  }
  std::vector<SpanRecorder> recs(o.trace ? kClients : 0);
  auto phase = [&](std::uint64_t lo, std::uint64_t hi, bool traced) {
    if (traced) st.tracer().enable(true);
    std::vector<std::exception_ptr> errors(kClients);
    std::vector<std::thread> threads;
    const std::uint64_t t0 = host_ns();
    for (std::uint32_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          if (traced) tls_spans = &recs[c];
          for (std::uint64_t i = lo; i < hi; ++i) {
            if (traced) recs[c].op = i;
            cl[c].txn(st, zipf, nullptr);
          }
          tls_spans = nullptr;
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const std::uint64_t t1 = host_ns();
    if (w.t0 == 0) w.t0 = t0;
    w.t1 = t1;
    st.tracer().enable(false);
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    return t1 - t0;
  };
  if (o.trace) {
    constexpr std::uint64_t kTracePhases = 16;
    for (std::uint64_t p = 0; p < kTracePhases; ++p) {
      const std::uint64_t lo = per_client * p / kTracePhases;
      const std::uint64_t hi = per_client * (p + 1) / kTracePhases;
      const bool traced = p % 2 == 1;
      const std::uint64_t tv0 = vt.now();
      const std::uint64_t ns = phase(lo, hi, traced);
      if (traced) {
        w.traced_ns += ns;
        w.traced_ops += (hi - lo) * kClients;
        w.traced_virt_ns += vt.now() - tv0;
      } else {
        w.untraced_ns += ns;
        w.untraced_ops += (hi - lo) * kClients;
      }
    }
  } else {
    phase(0, per_client, false);
  }
  w.ops = per_client * kClients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    w.lat.append(cl[c].lat);  // host samples only: threaded clients model nothing
    w.op_t.insert(w.op_t.end(), cl[c].txn_t.begin(), cl[c].txn_t.end());
    failed += cl[c].failed;
    write_txns += cl[c].write_txns;
    xshard += cl[c].xshard;
    blocks += cl[c].blocks;
    reads += cl[c].lat.read_host.count();
    commits += cl[c].lat.commit_host.count();
    if (o.trace) w.spans.merge(recs[c]);
  }
  w.after = snapshot(reg, d, views);
  w.extra["shard.clock_imbalance"] = clock_imbalance(clocks0, shard_clocks(st));
  w.extra["shard.xshard_ratio"] = ratio(static_cast<double>(xshard), static_cast<double>(write_txns));
  if (const tinca::Histogram* h = st.tracer().histogram("lock_wait"))
    w.extra["shard.lock_wait_us_mean"] = h->mean() / 1e3;
  w.disk_virt_ns = d.disk.traced_virt_ns();
  w.boundary_commits = commits;
  w.boundary_reads = reads;
  w.user_bytes = blocks * kBlock;
  w.line_writes = d.media_line_writes() - lines0;
  write_spans(o, recs);

  // Clients joined, nothing in flight: power cut, recovery, read-back of
  // every page.
  if (o.corrupt_shadow) ++shadow[0];
  d.nvm.crash_discard_all();
  rig->st.reset();
  auto rec = timed_mounts(w, d.nvm, [&] {
    const std::uint64_t v0 = d.clock.now();
    auto m = tinca::shard::ShardedTinca::recover(d.nvm, d.disk, sc);
    std::uint64_t virt = d.clock.now() - v0;
    for (std::uint32_t s = 0; s < m->shard_count(); ++s) virt += m->shard_clock(s).now();
    return std::pair{std::move(m), virt};
  });
  std::vector<std::byte> buf(kBlock), scratch;
  for (std::uint64_t p = 0; p < kOltpPages; ++p) {
    rec->read_block(p, buf);
    if (!block_ok(buf, p, shadow[p], salt, scratch)) ++failed;
  }
  rec->flush_dirty();
  w.eventual_disk_writes = d.disk_writes() - disk_w0;
  w.failed = failed;
  w.attempted = w.ops + w.model_ops;
  return w;
}

// ---------------------------------------------------------------------------
// varmail-nvlog: MiniFs over NvLog-Sharded (4 shards, 8 MB log, stepped
// cleaner, modeled parallel drains), Filebench varmail personality.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kMailFiles = 512;
constexpr std::uint64_t kMailFilesPerDir = 64;
constexpr std::uint64_t kMailMeanBytes = 64 * 1024;
constexpr std::uint64_t kMailIo = 16 * 1024;
constexpr double kMailOpsPerSecond = 4000;

tinca::backend::NvLogStackedConfig mail_config() {
  tinca::backend::NvLogStackedConfig c;
  c.log_bytes = 8ull << 20;
  c.inner = tinca::backend::NvLogInner::kSharded;
  c.shards = 4;
  c.cleaner.mode = tinca::cleaner::CleanerMode::kStepped;
  c.parallel_drain = true;
  c.drain_threads = false;
  return c;
}

/// One file's acknowledged contents: a run of seeded chunks.
struct MailFile {
  bool alive = false;
  std::uint64_t gen = 0, size = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks;  ///< (key, len)
};

struct MailRig {
  Devices dev;
  std::unique_ptr<tinca::backend::NvLogStackedBackend> backend;
  VirtualTime vt;
  Lat scratch;
  std::unique_ptr<BackendShim> shim;
  std::unique_ptr<tinca::fs::MiniFs> fs;
};

/// A recovered varmail stack: the file system is declared last so it is
/// destroyed before the backend it runs on.
struct MailMount {
  std::unique_ptr<tinca::backend::NvLogStackedBackend> backend;
  std::unique_ptr<tinca::fs::MiniFs> fs;
};

struct MailGen {
  explicit MailGen(std::uint64_t seed)
      : rng(mix(seed, 0x3A1, 1)), salt(mix(seed, 0x3A1, 2)),
        zipf(kMailFiles, 0.6), files(kMailFiles), io(kMailIo) {}
  Rng rng;
  std::uint64_t salt;
  Zipf zipf;
  std::vector<MailFile> files;
  std::vector<std::byte> io, whole;
  std::uint64_t user_bytes = 0, failed = 0;

  static std::string path(std::uint64_t id) {
    return "/d" + std::to_string(id / kMailFilesPerDir) + "/f" + std::to_string(id);
  }

  void write_chunk(tinca::fs::MiniFs& fs, std::uint64_t id, std::uint64_t len) {
    MailFile& f = files[id];
    const std::uint64_t key = mix(id, f.gen, f.chunks.size() ^ salt);
    tinca::fill_pattern(std::span(io).subspan(0, len), key);
    {
      SpanScope s(SpanName::kFsOp);
      fs.write(path(id), f.size, std::span(io).subspan(0, len));
    }
    f.chunks.emplace_back(key, len);
    f.size += len;
    user_bytes += len;
  }
  void create(tinca::fs::MiniFs& fs, std::uint64_t id) {
    MailFile& f = files[id];
    {
      SpanScope s(SpanName::kFsOp);
      fs.create(path(id));
    }
    ++f.gen;
    f.alive = true;
    f.size = 0;
    f.chunks.clear();
    const std::uint64_t size = kMailMeanBytes / 4 + rng.below(kMailMeanBytes * 3 / 2 + 1);
    while (f.size < size) write_chunk(fs, id, std::min(kMailIo, size - f.size));
  }
  void remove(tinca::fs::MiniFs& fs, std::uint64_t id) {
    {
      SpanScope s(SpanName::kFsOp);
      fs.remove(path(id));
    }
    files[id] = MailFile{false, files[id].gen, 0, {}};
  }
  static void fsync(tinca::fs::MiniFs& fs) {
    SpanScope s(SpanName::kFsOp);
    fs.fsync();
  }
  /// Read a whole file through MiniFs in request-size pieces.
  void read_whole(tinca::fs::MiniFs& fs, std::uint64_t id) {
    const MailFile& f = files[id];
    whole.resize(f.size);
    std::uint64_t off = 0;
    const std::string p = path(id);
    while (off < f.size) {
      const std::uint64_t len = std::min(kMailIo, f.size - off);
      SpanScope s(SpanName::kFsOp);
      if (fs.read(p, off, std::span(whole).subspan(off, len)) != len) break;
      off += len;
    }
  }
  /// Whether `whole` holds the file's acknowledged bytes; `full` compares
  /// every byte, otherwise the first word of each chunk.
  bool content_ok(std::uint64_t id, bool full) {
    const MailFile& f = files[id];
    std::uint64_t off = 0;
    for (const auto& [key, len] : f.chunks) {
      const std::uint64_t n = full ? len : std::min<std::uint64_t>(len, 8);
      tinca::fill_pattern(std::span(io).subspan(0, n), key);
      if (std::memcmp(whole.data() + off, io.data(), n) != 0) return false;
      off += len;
    }
    return true;
  }

  void populate(tinca::fs::MiniFs& fs) {
    for (std::uint64_t dir = 0; dir < kMailFiles / kMailFilesPerDir; ++dir)
      fs.mkdir("/d" + std::to_string(dir));
    for (std::uint64_t id = 0; id < kMailFiles; ++id) create(fs, id);
    fs.fsync();
  }

  /// One varmail op; every mutating op ends with fsync, so the shadow is
  /// exactly the acknowledged state after each op.
  void op(tinca::fs::MiniFs& fs) {
    const std::uint64_t id = zipf.draw(rng);
    const std::uint64_t pick = rng.below(100);
    MailFile& f = files[id];
    if (pick < 25 || pick >= 75) {  // whole-file read
      if (!f.alive) {
        create(fs, id);
        fsync(fs);
        return;
      }
      read_whole(fs, id);
      if (!content_ok(id, false)) ++failed;
    } else if (pick < 50) {  // append + fsync
      if (!f.alive) {
        create(fs, id);
      } else if (f.size + kMailIo > fs.max_file_bytes()) {
        remove(fs, id);
        create(fs, id);
      } else {
        write_chunk(fs, id, kMailIo);
      }
      fsync(fs);
    } else {  // delete + create + fsync
      if (f.alive) remove(fs, id);
      create(fs, id);
      fsync(fs);
    }
  }
};

Window run_varmail(const Options& o) {
  Window w;
  const tinca::backend::NvLogStackedConfig cfg = mail_config();
  MailGen gen(o.seed);
  auto clocks_of = [](MailRig& r) {
    r.vt.add(r.dev.clock);
    tinca::shard::ShardedTinca& st = r.backend->inner_sharded()->sharded();
    for (std::uint32_t s = 0; s < st.shard_count(); ++s) r.vt.add(st.shard_clock(s));
  };
  auto rig = timed_setups(w, [&] {
    gen = MailGen(o.seed);
    auto r = std::make_unique<MailRig>();
    r->backend = tinca::backend::NvLogStackedBackend::format(r->dev.nvm, r->dev.disk, cfg);
    clocks_of(*r);
    r->shim = std::make_unique<BackendShim>(*r->backend, r->vt, r->scratch);
    r->fs = tinca::fs::MiniFs::mkfs(*r->shim);
    gen.populate(*r->fs);
    r->fs->sync_all();  // start the window with the log drained, cache clean
    return r;
  });
  Devices& d = rig->dev;
  tinca::shard::ShardedTinca& st = rig->backend->inner_sharded()->sharded();
  Registry reg;
  rig->backend->register_metrics(reg.reg, "");
  std::vector<const tinca::nvm::NvmDevice*> views = {&d.nvm};
  for (std::uint32_t s = 0; s < st.shard_count(); ++s) {
    reg.caches.push_back("sharded.shard" + std::to_string(s) + ".");
    views.push_back(&st.shard_nvm(s));
  }

  // The file system stays mounted on the set-up shim; its samples are
  // dropped and the window's own are collected from here on.
  const std::uint64_t n = window_ops(o, kMailOpsPerSecond);
  Lat& lat = rig->scratch;
  lat = Lat{};
  lat.reserve(n * 2, n * 64);
  w.op_t.reserve(n);
  tinca::fs::MiniFs& fs = *rig->fs;
  SpanRecorder rec;
  TraceBlocks blocks(w, rec, rig->vt, &st.tracer());
  const tinca::fs::MiniFsStats fs0 = fs.stats();
  const std::uint64_t user0 = gen.user_bytes, failed0 = gen.failed;
  const std::uint64_t disk_w0 = d.disk_writes(), lines0 = d.media_line_writes();
  const std::uint64_t v0 = rig->vt.now();
  w.before = snapshot(reg, d, views);
  const std::vector<std::uint64_t> clocks0 = shard_clocks(st);
  const std::uint64_t h0 = host_ns();
  for (std::uint64_t i = 0; i < n; ++i) {
    if (o.trace) blocks.before_op(i);
    rec.op = i;
    gen.op(fs);
    rig->shim->cleaner_step();
    w.op_t.push_back(host_ns());
  }
  if (o.trace) blocks.finish(n);
  const std::uint64_t h1 = host_ns();
  w.t0 = h0;
  w.t1 = h1;
  w.after = snapshot(reg, d, views);
  w.extra["shard.clock_imbalance"] = clock_imbalance(clocks0, shard_clocks(st));
  const tinca::fs::MiniFsStats fs1 = fs.stats();
  w.ops = w.model_ops = w.attempted = n;
  w.virt_ns = rig->vt.now() - v0;
  w.user_bytes = gen.user_bytes - user0;
  w.line_writes = d.media_line_writes() - lines0;
  w.spans.merge(rec);
  w.disk_virt_ns = d.disk.traced_virt_ns();
  w.cleaner_virt_ns = rig->shim->cleaner_virt_ns();
  w.boundary_commits = lat.commit_host.count();
  w.boundary_reads = lat.read_host.count();
  w.lat = std::move(lat);
  const double fs_txns = static_cast<double>(fs1.txns_committed - fs0.txns_committed);
  w.extra["fs.blocks_per_commit"] =
      ratio(static_cast<double>(fs1.blocks_staged - fs0.blocks_staged), fs_txns);
  w.extra["fs.commits_per_op"] = ratio(fs_txns, static_cast<double>(n));
  if (const tinca::Histogram* h = st.tracer().histogram("lock_wait"))
    w.extra["shard.lock_wait_us_mean"] = h->mean() / 1e3;
  write_spans(o, std::span(&rec, 1));

  // Every op ended on an fsync: power cut, recovery (log tier + inner
  // shards + MiniFs mount), and a whole-content read-back of every file.
  if (o.corrupt_shadow) {
    for (MailFile& f : gen.files)
      if (f.alive && !f.chunks.empty()) {
        f.chunks.front().first ^= 1;
        break;
      }
  }
  d.nvm.crash_discard_all();
  rig->fs.reset();
  rig->shim.reset();
  rig->backend.reset();
  MailMount mounted = timed_mounts(w, d.nvm, [&] {
    const std::uint64_t v0 = d.clock.now();
    MailMount m;
    m.backend = tinca::backend::NvLogStackedBackend::recover(d.nvm, d.disk, cfg);
    m.fs = tinca::fs::MiniFs::mount(*m.backend);
    std::uint64_t virt = d.clock.now() - v0;
    tinca::shard::ShardedTinca& mst = m.backend->inner_sharded()->sharded();
    for (std::uint32_t s = 0; s < mst.shard_count(); ++s) virt += mst.shard_clock(s).now();
    return std::pair{std::move(m), virt};
  });
  tinca::fs::MiniFs* rec_fs = mounted.fs.get();
  for (std::uint64_t id = 0; id < kMailFiles; ++id) {
    const MailFile& f = gen.files[id];
    const std::string p = MailGen::path(id);
    bool ok = rec_fs->exists(p) == f.alive;
    if (ok && f.alive) {
      ok = rec_fs->file_size(p) == f.size;
      if (ok) {
        gen.read_whole(*rec_fs, id);
        ok = gen.content_ok(id, true);
      }
    }
    if (!ok) ++gen.failed;
  }
  rec_fs->sync_all();
  w.eventual_disk_writes = d.disk_writes() - disk_w0;
  w.failed = gen.failed - failed0;
  return w;
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Median over the window's host-time slices of each slice's op rate.
double sliced_rate(const Window& w) {
  std::vector<double> counts(kSlices, 0.0);
  const std::uint64_t span = w.t1 > w.t0 ? w.t1 - w.t0 : 1;
  for (std::uint64_t t : w.op_t)
    counts[static_cast<std::size_t>((std::clamp(t, w.t0, w.t1 - 1) - w.t0) * kSlices / span)] += 1;
  for (double& c : counts) c /= static_cast<double>(span) / kSlices / 1e9;
  return median(counts);
}

void end_to_end(Window& w, Report& r) {
  const double user_blocks = static_cast<double>(w.user_bytes) / kBlock;
  // Host metrics: medians over kSlices equal slices of the window.
  auto sliced = [&](const std::string& name, Samples& s, const std::vector<std::uint64_t>& t,
                    double p) {
    r.add(name, sliced_percentile(s, t, w.t0, w.t1, p, kSlices) / 1e3, "us", false, s.count());
  };
  r.add("ops_per_s", sliced_rate(w), "1/s");
  sliced("commit_p50_us", w.lat.commit_host, w.lat.commit_t, 50);
  sliced("commit_p99_us", w.lat.commit_host, w.lat.commit_t, 99);
  sliced("read_p50_us", w.lat.read_host, w.lat.read_t, 50);
  sliced("read_p99_us", w.lat.read_host, w.lat.read_t, 99);
  r.add("virt_ops_per_s",
        static_cast<double>(w.model_ops) / (static_cast<double>(w.virt_ns) / 1e9), "1/s", true);
  // The modeled cost of a commit takes a few discrete values (it is a
  // function of the block count), so its percentiles repeat across seeds;
  // the mean is the end-to-end figure and the exact percentiles are
  // per-layer metrics.
  r.add("virt_commit_mean_us", w.lat.commit_virt.mean() / 1e3, "us", true);
  r.add("disk_writes_per_block",
        ratio(static_cast<double>(w.eventual_disk_writes), user_blocks), "ratio", true);
  r.add("nvm_bytes_per_byte",
        ratio(static_cast<double>(w.line_writes) * 64.0, static_cast<double>(w.user_bytes)),
        "ratio", true);
  r.add("recover_virt_ms", w.recover_virt_ms, "ms", true);
  r.add("setup_s", median(w.setup_s), "s");
}

void per_layer(Window& w, const std::string& workload, Report& r) {
  const Snapshot& a = w.after;
  const Snapshot& b = w.before;
  auto d = [&](const std::string& k) { return static_cast<double>(a[k] - b[k]); };
  auto ex = [&](const std::string& k) { return w.extra.count(k) ? w.extra[k] : 0.0; };
  const double txns = static_cast<double>(w.boundary_commits);
  const double reads = static_cast<double>(w.boundary_reads);
  const bool sharded = workload != "fio-evict";
  auto self_us = [&](SpanName n) {
    const SpanRecorder::Agg& g = w.spans.agg(n);
    return ratio(static_cast<double>(g.self_ns), static_cast<double>(g.count)) / 1e3;
  };
  auto total_us = [&](SpanName n) {
    const SpanRecorder::Agg& g = w.spans.agg(n);
    return ratio(static_cast<double>(g.total_ns), static_cast<double>(g.count)) / 1e3;
  };

  // Lock-free MVCC read hits charge no modeled time, so this is 0 on a
  // workload whose reads all hit; it is a layer view, not an end-to-end one.
  r.pct("virt_commit_p50_us", w.lat.commit_virt, 50, true);
  r.pct("virt_commit_p99_us", w.lat.commit_virt, 99, true);
  r.pct("virt_read_p99_us", w.lat.read_virt, 99, true);
  r.add("recover_ms", w.recover_ms, "ms");
  r.add("fs.op_self_us", self_us(SpanName::kFsOp), "us");
  r.add("fs.blocks_per_commit", ex("fs.blocks_per_commit"), "blocks", true);
  r.add("fs.commits_per_op", ex("fs.commits_per_op"), "ratio", true);
  r.add("backend.commit_self_us", self_us(SpanName::kCommit), "us");
  r.add("backend.read_self_us", self_us(SpanName::kRead), "us");
  r.add("backend.cleaner_step_us", total_us(SpanName::kCleanerStep), "us");
  r.add("backend.cleaner_step_virt_us",
        ratio(static_cast<double>(w.cleaner_virt_ns),
              static_cast<double>(w.spans.agg(SpanName::kCleanerStep).count)) / 1e3,
        "us", true);
  r.add("shard.xshard_ratio", ex("shard.xshard_ratio"), "ratio");
  r.add("shard.lock_wait_us_mean", ex("shard.lock_wait_us_mean"), "us");
  r.add("shard.clock_imbalance", ex("shard.clock_imbalance"), "ratio");
  // Lock-free MVCC hits bypass the locked path's hit/miss counters.
  const double lockfree = d("mvcc.snapshot_reads");
  r.add("tinca.read_hit_ratio",
        ratio(d("read_hits") + lockfree, d("read_hits") + d("read_misses") + lockfree), "ratio",
        true);
  r.add("tinca.write_hit_ratio",
        ratio(d("write_hits"), d("write_hits") + d("write_misses")), "ratio", true);
  r.add("tinca.evictions_per_txn", ratio(d("evictions"), txns), "1/txn", true);
  r.add("tinca.dirty_writebacks_per_txn", ratio(d("dirty_writebacks"), txns), "1/txn", true);
  r.add("tinca.cow_writes_per_block", ratio(d("cow_writes"), d("blocks_committed")), "ratio", true);
  r.add("tinca.fences_per_txn", ratio(d("commit.fences"), txns), "1/txn", true);
  r.add("tinca.hint_syncs_per_txn", ratio(d("commit.hint_syncs"), txns), "1/txn", true);
  r.add("tinca.batch_size_mean", ratio(d("txns_committed"), d("commit.batches")), "txns", true);
  // Reads the log tier answers never reach the sharded cache.
  const double inner_reads = reads - d("nvlog.log_hits");
  r.add("mvcc.lock_fallback_ratio",
        sharded ? std::max(0.0, 1.0 - ratio(lockfree, inner_reads)) : 0.0, "ratio");
  r.add("mvcc.pin_retries_per_read", sharded ? ratio(d("mvcc.pin_retries"), inner_reads) : 0.0,
        "ratio");
  r.add("mvcc.live_versions", sharded ? static_cast<double>(a["mvcc.live_versions"]) : 0.0,
        "count");
  r.add("nvlog.bytes_per_txn", ratio(d("nvlog.absorbed_bytes"), d("nvlog.absorbed_txns")),
        "B/txn", true);
  r.add("nvlog.coalesce_ratio",
        ratio(d("nvlog.coalesced_records"), d("nvlog.absorbed_records")), "ratio", true);
  r.add("nvlog.backpressure_drains_per_ktxn",
        1e3 * ratio(d("nvlog.backpressure_drains"), d("nvlog.absorbed_txns")), "1/ktxn", true);
  r.add("nvlog.log_hit_ratio", workload == "varmail-nvlog" ? ratio(d("nvlog.log_hits"), reads) : 0.0,
        "ratio", true);
  r.add("nvlog.drain_lag_mean_us",
        ratio(static_cast<double>(a.drain_lag_sum - b.drain_lag_sum),
              static_cast<double>(a.drain_lag_n - b.drain_lag_n)) / 1e3,
        "us", true);
  r.add("cleaner.blocks_per_batch",
        ratio(d("nvlog.drained_records"), d("nvlog.cleaner.batches")), "blocks", true);
  r.add("cleaner.pinned_requeue_ratio",
        ratio(d("nvlog.cleaner.pinned_requeues"),
              d("nvlog.cleaner.retired") + d("nvlog.cleaner.pinned_requeues") +
                  d("nvlog.cleaner.stale_drops")),
        "ratio", true);
  r.add("nvm.clflush_per_txn", ratio(static_cast<double>(a.line_writes - b.line_writes), txns),
        "1/txn", true);
  r.add("nvm.sfence_per_txn", ratio(static_cast<double>(a.sfence - b.sfence), txns), "1/txn",
        true);
  r.add("nvm.stores_per_txn", ratio(static_cast<double>(a.stores - b.stores), txns), "1/txn",
        true);
  r.add("nvm.wear_max_line_writes", static_cast<double>(a.wear_max), "count", true);
  r.add("disk.writes_per_txn", ratio(static_cast<double>(a.disk_w - b.disk_w), txns), "1/txn",
        true);
  r.add("disk.reads_per_read", ratio(static_cast<double>(a.disk_r - b.disk_r), reads), "ratio",
        true);
  const SpanRecorder::Agg& dr = w.spans.agg(SpanName::kDiskRead);
  const SpanRecorder::Agg& dw = w.spans.agg(SpanName::kDiskWrite);
  r.add("disk.call_us",
        ratio(static_cast<double>(dr.total_ns + dw.total_ns),
              static_cast<double>(dr.count + dw.count)) / 1e3,
        "us");
  r.add("disk.virt_share",
        ratio(static_cast<double>(w.disk_virt_ns), static_cast<double>(w.traced_virt_ns)),
        "ratio");
  const double untraced = ratio(static_cast<double>(w.untraced_ops), static_cast<double>(w.untraced_ns));
  const double traced = ratio(static_cast<double>(w.traced_ops), static_cast<double>(w.traced_ns));
  r.add("trace.overhead_pct", traced == 0 ? 0.0 : (untraced / traced - 1.0) * 100.0, "%");
}

std::string json_number(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

void print_report(const Report& r) {
  for (const Metric& m : r.metrics) {
    std::printf("  %-36s %18.6f %-7s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples != 0) std::printf(" n=%zu", m.samples);
    std::printf("%s\n", m.modeled ? " (modeled)" : "");
  }
  std::printf("  %-36s %18.6f %-7s (%llu failed of %llu ops)\n", "fail_ratio",
              ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)), "ratio",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::string js = "{\"correct\": ";
  js += r.failed == 0 ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(r.attempted);
  js += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (!first) js += ", ";
    first = false;
    js += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
          m.unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
}

Report run(const Options& o) {
  Window w;
  if (o.workload == "fio-evict") {
    w = run_fio(o);
  } else if (o.workload == "oltp-shard4") {
    w = run_oltp(o);
  } else if (o.workload == "varmail-nvlog") {
    w = run_varmail(o);
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
  Report r;
  r.attempted = w.attempted;
  r.failed = w.failed;
  if (o.trace)
    per_layer(w, o.workload, r);
  else
    end_to_end(w, r);
  return r;
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

bool selftest() {
  bool ok = true;
  auto check = [&](bool cond, const std::string& what) {
    std::printf("%s  %s\n", cond ? "PASS" : "FAIL", what.c_str());
    ok &= cond;
  };
  for (const char* wl : {"fio-evict", "varmail-nvlog"}) {
    for (const bool trace : {false, true}) {
      Options o;
      o.workload = wl;
      o.seed = 7;
      o.seconds = 1;
      o.scale = 0.3;
      o.trace = trace;
      const Report a = run(o);
      const Report b = run(o);
      bool same = a.metrics.size() == b.metrics.size();
      std::size_t modeled = 0;
      for (std::size_t i = 0; same && i < a.metrics.size(); ++i) {
        if (!a.metrics[i].modeled) continue;
        ++modeled;
        if (std::memcmp(&a.metrics[i].value, &b.metrics[i].value, sizeof(double)) != 0) {
          std::printf("      %s: %.17g vs %.17g\n", a.metrics[i].name.c_str(),
                      a.metrics[i].value, b.metrics[i].value);
          same = false;
        }
      }
      check(same && modeled > 0 && a.failed == 0 && b.failed == 0,
            std::string(wl) + (trace ? " traced" : "") + ": " + std::to_string(modeled) +
                " modeled/count metrics bit-identical across two runs, no failures");
    }
  }
  for (const char* wl : {"fio-evict", "oltp-shard4", "varmail-nvlog"}) {
    Options o;
    o.workload = wl;
    o.seed = 3;
    o.seconds = 1;
    o.scale = 0.2;
    o.corrupt_shadow = true;
    const Report r = run(o);
    check(r.failed >= 1, std::string(wl) + ": a wrong shadow entry is reported as a failure (" +
                             std::to_string(r.failed) + " failed)");
  }
  return ok;
}

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

int main_impl(int argc, char** argv) {
  Options o;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--seconds") o.seconds = std::max<std::uint64_t>(1, std::stoull(next()));
    else if (a == "--trace") o.trace = next() == "1";
    else if (a == "--rev") o.rev = next();
    else if (a == "--spans-out") o.spans_out = next();
    else if (a == "--selftest") self = true;
    else throw std::invalid_argument("unknown argument: " + a);
  }
  std::printf("# perfbench rev=%s build=%s optimized=%s compiler=\"%s\" nproc=%u\n",
              o.rev.c_str(), PERFBENCH_BUILD_TYPE, kOptimized ? "yes" : "no", __VERSION__,
              nproc());
  if (!kOptimized) {
    std::fprintf(stderr, "perfbench: refusing to report host metrics from an unoptimised build\n");
    return 3;
  }
  if (self) return selftest() ? 0 : 1;
  std::printf("# workload=%s seed=%llu seconds=%llu trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(o.seconds), o.trace ? 1 : 0);
  std::fflush(stdout);
  const Report r = run(o);
  print_report(r);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
