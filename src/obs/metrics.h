// Pull-model metrics registry.
//
// Every layer of the stack already keeps a plain stats struct on its hot
// path (TincaCacheStats, JournalStats, NvmStats, ...) — increment-only
// fields with no synchronization and no naming.  The registry leaves those
// structs exactly where they are and adds the missing half: layers register
// *named views* over their fields (a counter is a pointer to a uint64_t, a
// gauge is a callback, a histogram is a pointer to a Histogram), and the
// registry walks them only when a dump is requested.  The hot path therefore
// pays nothing for being observable.
//
// Lifetime: the registry stores raw pointers into the registered objects, so
// it must not outlive them.  The intended pattern is a dump-scope registry —
// build, register, dump, discard — which is how the benches and the metrics
// tests use it.
//
// Naming scheme (DESIGN.md §8): dot-separated, lowercase,
// `<layer>[.<instance>].<metric>` — e.g. `tinca.write_hits`,
// `shard2.tinca.evictions`, `nvm.clflush`, `disk.blocks_written`,
// `tinca.lat.commit` (histograms live under `<layer>.lat.`).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "obs/json.h"

namespace tinca::obs {

/// Named, walk-on-demand registry of counters, gauges and histograms.
class MetricsRegistry {
 public:
  /// Register a counter: a monotonically increasing uint64 read in place.
  void add_counter(std::string name, const std::uint64_t* value);

  /// Register a gauge: a point-in-time value computed on each dump.
  void add_gauge(std::string name, std::function<std::uint64_t()> fn);

  /// Register a histogram, summarized on dump (count/mean/p50/p95/p99/max).
  void add_histogram(std::string name, const Histogram* hist);

  /// Whether a metric of any kind with this exact name is registered.
  [[nodiscard]] bool has(std::string_view name) const;

  /// Current value of a counter or gauge (contract violation if absent or a
  /// histogram) — the hook the debug accounting cross-checks use.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;

  /// The registered histogram, or nullptr.
  [[nodiscard]] const Histogram* histogram(std::string_view name) const;

  /// Number of registered metrics.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Call `fn(name, value)` for every counter and gauge, in registration
  /// order (histograms are skipped) — a read with no JSON built.
  void for_each_value(
      const std::function<void(std::string_view, std::uint64_t)>& fn) const;

  /// JSON object: scalar members for counters/gauges, a summary object
  /// (count, sum, mean, min, p50, p95, p99, max) per histogram.
  [[nodiscard]] Json to_json() const;

  /// Convenience: to_json().dump(indent).
  [[nodiscard]] std::string to_json_text(int indent = 2) const;

  /// Aligned human-readable listing, one metric per line.
  [[nodiscard]] std::string to_text() const;

  /// Histogram summary object shared with the bench reporter.
  static Json histogram_json(const Histogram& h);

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    const std::uint64_t* counter = nullptr;
    std::function<std::uint64_t()> gauge;
    const Histogram* hist = nullptr;
  };

  void add_entry(Entry e);

  std::vector<Entry> entries_;  ///< registration order, kept for dumps
  std::unordered_map<std::string, std::size_t> by_name_;
};

}  // namespace tinca::obs
