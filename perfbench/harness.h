// Measurement plumbing for the perfbench driver: exact-percentile sample
// sets, an in-memory span recorder, and forwarding shims that time calls
// into the stack's public layers from the outside.
//
// Nothing here reaches into the stack: the shims implement the same public
// interfaces the layers already expose (TxnBackend, BlockDevice) and forward
// every call, so the program under test runs unchanged.  With tracing off a
// shim reads two host clocks per timed call and nothing else.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "backend/txn_backend.h"
#include "blockdev/block_device.h"
#include "common/sim_clock.h"

namespace perfbench {

/// Host monotonic time in nanoseconds.
inline std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Raw per-call samples in arrival order.  Percentiles are nearest-rank
/// over every sample, so they are exact (no bucketing) and always a value
/// that was observed.
class Samples {
 public:
  void reserve(std::size_t n) { v_.reserve(n); }
  void add(std::uint64_t x) {
    v_.push_back(x);
    sorted_.clear();
  }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_.clear();
  }
  [[nodiscard]] std::size_t count() const { return v_.size(); }
  [[nodiscard]] const std::vector<std::uint64_t>& raw() const { return v_; }

  /// Nearest-rank percentile, `p` in (0, 100]; 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double p) {
    if (v_.empty()) return 0;
    if (sorted_.size() != v_.size()) {
      sorted_ = v_;
      std::sort(sorted_.begin(), sorted_.end());
    }
    const auto n = static_cast<double>(sorted_.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted_.size());
    return sorted_[rank - 1];
  }

  [[nodiscard]] double mean() const {
    if (v_.empty()) return 0.0;
    long double s = 0;
    for (std::uint64_t x : v_) s += static_cast<long double>(x);
    return static_cast<double>(s / static_cast<long double>(v_.size()));
  }

 private:
  std::vector<std::uint64_t> v_;
  std::vector<std::uint64_t> sorted_;  ///< sorted copy, rebuilt on demand
};

/// Latency samples one client collects at the stack boundary, with the
/// host completion time of every host sample (for time-sliced statistics).
struct Lat {
  Samples commit_host, commit_virt, read_host, read_virt;
  std::vector<std::uint64_t> commit_t, read_t;

  void reserve(std::size_t commits, std::size_t reads, bool modeled = true) {
    commit_host.reserve(commits);
    commit_t.reserve(commits);
    read_host.reserve(reads);
    read_t.reserve(reads);
    if (modeled) {
      commit_virt.reserve(commits);
      read_virt.reserve(reads);
    }
  }
  void commit(std::uint64_t h0, std::uint64_t h1) {
    commit_host.add(h1 - h0);
    commit_t.push_back(h1);
  }
  void read(std::uint64_t h0, std::uint64_t h1) {
    read_host.add(h1 - h0);
    read_t.push_back(h1);
  }
  void append(const Lat& o) {
    commit_host.append(o.commit_host);
    commit_virt.append(o.commit_virt);
    commit_t.insert(commit_t.end(), o.commit_t.begin(), o.commit_t.end());
    read_host.append(o.read_host);
    read_virt.append(o.read_virt);
    read_t.insert(read_t.end(), o.read_t.begin(), o.read_t.end());
  }
};

/// Median of a small vector (by value); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median over `slices` equal host-time slices of [t0, t1) of a per-slice
/// nearest-rank percentile: a steady-state estimate that a burst of
/// interference from other processes moves by at most a few slices.
inline double sliced_percentile(const Samples& s, const std::vector<std::uint64_t>& t,
                                std::uint64_t t0, std::uint64_t t1, double p,
                                std::size_t slices) {
  std::vector<Samples> per(slices);
  const std::uint64_t span = t1 > t0 ? t1 - t0 : 1;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::uint64_t at = std::clamp(t[i], t0, t1 - 1) - t0;
    per[static_cast<std::size_t>(at * slices / span)].add(s.raw()[i]);
  }
  std::vector<double> v;
  for (Samples& x : per)
    if (x.count() != 0) v.push_back(static_cast<double>(x.percentile(p)));
  return median(std::move(v));
}

/// Span names, one per layer boundary the shims wrap.
enum class SpanName : std::uint8_t {
  kFsOp,         ///< one MiniFs call made by the workload
  kCommit,       ///< TxnBackend::commit / ShardedTinca::commit
  kRead,         ///< TxnBackend::read_block / ShardedTinca::read_block
  kCleanerStep,  ///< TxnBackend::cleaner_step
  kDiskRead,     ///< BlockDevice::read below the backend
  kDiskWrite,    ///< BlockDevice::write below the backend
  kCount,
};

inline const char* span_name(SpanName n) {
  static constexpr std::array<const char*, static_cast<std::size_t>(SpanName::kCount)>
      kNames = {"fs.op", "backend.commit", "backend.read",
                "backend.cleaner_step", "disk.read", "disk.write"};
  return kNames[static_cast<std::size_t>(n)];
}

/// Per-thread span recorder.  Spans are kept in memory (up to a cap) and
/// aggregated as they close: a span's self time is its duration minus the
/// time covered by its direct children, which on one thread never overlap.
class SpanRecorder {
 public:
  struct Span {
    std::uint64_t op;
    std::uint64_t t0, t1;
    std::uint32_t parent;  ///< index of the parent span, kNoParent for roots
    SpanName name;
  };
  struct Agg {
    std::uint64_t count = 0, total_ns = 0, self_ns = 0;
  };
  static constexpr std::uint32_t kNoParent = UINT32_MAX;
  static constexpr std::size_t kKeep = 200000;

  SpanRecorder() { spans_.reserve(kKeep); }

  std::uint64_t op = 0;  ///< id of the workload op in progress

  void open(SpanName n) {
    Frame f;
    f.name = n;
    f.t0 = host_ns();
    if (spans_.size() < kKeep) {
      f.idx = static_cast<std::uint32_t>(spans_.size());
      spans_.push_back(Span{op, f.t0, 0,
                            stack_.empty() ? kNoParent : stack_.back().idx, n});
    }
    stack_.push_back(f);
  }

  void close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t t1 = host_ns();
    const std::uint64_t dur = t1 - f.t0;
    if (f.idx != kNoParent) spans_[f.idx].t1 = t1;
    Agg& a = agg_[static_cast<std::size_t>(f.name)];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - std::min(dur, f.child_ns);
    if (!stack_.empty()) stack_.back().child_ns += dur;
  }

  [[nodiscard]] const Agg& agg(SpanName n) const {
    return agg_[static_cast<std::size_t>(n)];
  }
  void merge(const SpanRecorder& o) {
    for (std::size_t i = 0; i < agg_.size(); ++i) {
      agg_[i].count += o.agg_[i].count;
      agg_[i].total_ns += o.agg_[i].total_ns;
      agg_[i].self_ns += o.agg_[i].self_ns;
    }
  }

  /// Write the kept spans as tab-separated text: thread, index, parent,
  /// op, name, start ns, end ns.
  void write(std::FILE* out, int thread) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%d\t%zu\t%lld\t%llu\t%s\t%llu\t%llu\n", thread, i,
                   s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op), span_name(s.name),
                   static_cast<unsigned long long>(s.t0),
                   static_cast<unsigned long long>(s.t1));
    }
  }

 private:
  struct Frame {
    std::uint64_t t0 = 0, child_ns = 0;
    std::uint32_t idx = kNoParent;
    SpanName name = SpanName::kCount;
  };
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::array<Agg, static_cast<std::size_t>(SpanName::kCount)> agg_{};
};

/// The calling thread's recorder; null while tracing is off.
inline thread_local SpanRecorder* tls_spans = nullptr;

/// RAII span on the calling thread's recorder (one branch when off).
class SpanScope {
 public:
  explicit SpanScope(SpanName n) : rec_(tls_spans) {
    if (rec_ != nullptr) rec_->open(n);
  }
  ~SpanScope() {
    if (rec_ != nullptr) rec_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
};

/// Virtual time of a stack: the sum of every SimClock it charges.  A
/// single-threaded caller sees each call's full modeled cost in its delta.
class VirtualTime {
 public:
  void add(const tinca::sim::SimClock& c) { clocks_.push_back(&c); }
  [[nodiscard]] std::uint64_t now() const {
    std::uint64_t t = 0;
    for (const tinca::sim::SimClock* c : clocks_) t += c->now();
    return t;
  }

 private:
  std::vector<const tinca::sim::SimClock*> clocks_;
};

/// Forwarding BlockDevice between a backend and the disk latency model.
/// Traced calls record a span and the modeled time spent inside the disk
/// (the latency model charges `clock`).
class DiskShim final : public tinca::blockdev::BlockDevice {
 public:
  DiskShim(tinca::blockdev::BlockDevice& inner, const tinca::sim::SimClock& clock)
      : inner_(inner), clock_(clock) {}

  [[nodiscard]] std::uint64_t block_count() const override {
    return inner_.block_count();
  }

  tinca::blockdev::IoStatus read(std::uint64_t blkno,
                                 std::span<std::byte> dst) override {
    if (tls_spans == nullptr) return inner_.read(blkno, dst);
    SpanScope s(SpanName::kDiskRead);
    const std::uint64_t v0 = clock_.now();
    const tinca::blockdev::IoStatus st = inner_.read(blkno, dst);
    virt_ns_ += clock_.now() - v0;
    return st;
  }

  tinca::blockdev::IoStatus write(std::uint64_t blkno,
                                  std::span<const std::byte> src) override {
    if (tls_spans == nullptr) return inner_.write(blkno, src);
    SpanScope s(SpanName::kDiskWrite);
    const std::uint64_t v0 = clock_.now();
    const tinca::blockdev::IoStatus st = inner_.write(blkno, src);
    virt_ns_ += clock_.now() - v0;
    return st;
  }

  [[nodiscard]] const tinca::blockdev::BlockStats& stats() const override {
    return inner_.stats();
  }

  /// Modeled ns spent inside traced disk calls.
  [[nodiscard]] std::uint64_t traced_virt_ns() const { return virt_ns_; }

 private:
  tinca::blockdev::BlockDevice& inner_;
  const tinca::sim::SimClock& clock_;
  std::uint64_t virt_ns_ = 0;
};

/// Forwarding TxnBackend that times commit() and read_block() (host and
/// modeled) into a Lat, and records spans for them and cleaner_step()
/// while tracing is on.  Everything else is a plain forward, except that
/// commit_group() keeps the base class's per-member commits so each member
/// is timed.
class BackendShim final : public tinca::backend::TxnBackend {
 public:
  BackendShim(tinca::backend::TxnBackend& inner, const VirtualTime& vt, Lat& lat)
      : inner_(inner), vt_(vt), lat_(lat) {}

  void begin() override { inner_.begin(); }
  void stage(std::uint64_t blkno, std::span<const std::byte> data) override {
    inner_.stage(blkno, data);
  }
  void commit() override {
    const std::uint64_t v0 = vt_.now();
    const std::uint64_t h0 = host_ns();
    {
      SpanScope s(SpanName::kCommit);
      inner_.commit();
    }
    lat_.commit(h0, host_ns());
    lat_.commit_virt.add(vt_.now() - v0);
  }
  void abort() override { inner_.abort(); }
  void read_block(std::uint64_t blkno, std::span<std::byte> dst) override {
    const std::uint64_t v0 = vt_.now();
    const std::uint64_t h0 = host_ns();
    {
      SpanScope s(SpanName::kRead);
      inner_.read_block(blkno, dst);
    }
    lat_.read(h0, host_ns());
    lat_.read_virt.add(vt_.now() - v0);
  }
  void flush() override { inner_.flush(); }
  [[nodiscard]] std::uint64_t data_block_limit() const override {
    return inner_.data_block_limit();
  }
  [[nodiscard]] std::uint64_t max_txn_blocks() const override {
    return inner_.max_txn_blocks();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void cleaner_step() override {
    if (tls_spans == nullptr) {
      inner_.cleaner_step();
      return;
    }
    const std::uint64_t v0 = vt_.now();
    {
      SpanScope s(SpanName::kCleanerStep);
      inner_.cleaner_step();
    }
    cleaner_virt_ns_ += vt_.now() - v0;
  }

  /// Modeled ns spent inside traced cleaner_step() calls.
  [[nodiscard]] std::uint64_t cleaner_virt_ns() const { return cleaner_virt_ns_; }

 private:
  tinca::backend::TxnBackend& inner_;
  const VirtualTime& vt_;
  Lat& lat_;
  std::uint64_t cleaner_virt_ns_ = 0;
};

}  // namespace perfbench
