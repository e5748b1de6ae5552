#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/expect.h"

namespace tinca::obs {

void MetricsRegistry::add_entry(Entry e) {
  TINCA_EXPECT(!e.name.empty(), "metric name must not be empty");
  const auto [it, inserted] = by_name_.emplace(e.name, entries_.size());
  (void)it;
  TINCA_EXPECT(inserted, "duplicate metric name: " + e.name);
  entries_.push_back(std::move(e));
}

void MetricsRegistry::add_counter(std::string name, const std::uint64_t* value) {
  TINCA_EXPECT(value != nullptr, "counter source must not be null");
  Entry e;
  e.name = std::move(name);
  e.kind = Kind::kCounter;
  e.counter = value;
  add_entry(std::move(e));
}

void MetricsRegistry::add_gauge(std::string name,
                                std::function<std::uint64_t()> fn) {
  TINCA_EXPECT(static_cast<bool>(fn), "gauge callback must not be empty");
  Entry e;
  e.name = std::move(name);
  e.kind = Kind::kGauge;
  e.gauge = std::move(fn);
  add_entry(std::move(e));
}

void MetricsRegistry::add_histogram(std::string name, const Histogram* hist) {
  TINCA_EXPECT(hist != nullptr, "histogram source must not be null");
  Entry e;
  e.name = std::move(name);
  e.kind = Kind::kHistogram;
  e.hist = hist;
  add_entry(std::move(e));
}

bool MetricsRegistry::has(std::string_view name) const {
  return by_name_.contains(std::string(name));
}

std::uint64_t MetricsRegistry::value(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  TINCA_EXPECT(it != by_name_.end(),
               "unknown metric: " + std::string(name));
  const Entry& e = entries_[it->second];
  TINCA_EXPECT(e.kind != Kind::kHistogram,
               "value() on a histogram metric: " + std::string(name));
  return e.kind == Kind::kCounter ? *e.counter : e.gauge();
}

void MetricsRegistry::for_each_value(
    const std::function<void(std::string_view, std::uint64_t)>& fn) const {
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kCounter) fn(e.name, *e.counter);
    if (e.kind == Kind::kGauge) fn(e.name, e.gauge());
  }
}

const Histogram* MetricsRegistry::histogram(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return nullptr;
  const Entry& e = entries_[it->second];
  return e.kind == Kind::kHistogram ? e.hist : nullptr;
}

Json MetricsRegistry::histogram_json(const Histogram& h) {
  Json o = Json::object();
  o.set("count", Json::number(h.count()));
  o.set("sum", Json::number(h.sum()));
  o.set("mean", Json::number(h.mean()));
  o.set("min", Json::number(h.min()));
  o.set("p50", Json::number(h.quantile(0.50)));
  o.set("p95", Json::number(h.quantile(0.95)));
  o.set("p99", Json::number(h.quantile(0.99)));
  o.set("max", Json::number(h.max()));
  return o;
}

Json MetricsRegistry::to_json() const {
  Json o = Json::object();
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Kind::kCounter: o.set(e.name, Json::number(*e.counter)); break;
      case Kind::kGauge: o.set(e.name, Json::number(e.gauge())); break;
      case Kind::kHistogram: o.set(e.name, histogram_json(*e.hist)); break;
    }
  }
  return o;
}

std::string MetricsRegistry::to_json_text(int indent) const {
  return to_json().dump(indent);
}

std::string MetricsRegistry::to_text() const {
  std::size_t width = 0;
  for (const Entry& e : entries_) width = std::max(width, e.name.size());
  std::ostringstream os;
  for (const Entry& e : entries_) {
    os << e.name << std::string(width - e.name.size() + 2, ' ');
    switch (e.kind) {
      case Kind::kCounter: os << *e.counter; break;
      case Kind::kGauge: os << e.gauge(); break;
      case Kind::kHistogram: os << e.hist->summary(); break;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace tinca::obs
