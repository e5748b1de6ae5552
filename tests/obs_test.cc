// Tests for the observability subsystem (src/obs/).
//
// Covers: JSON build/dump/parse round trips and strict-parser rejection,
// metrics registry registration and dump parse-back, trace span nesting and
// histogram capture, disabled-tracer inertness, Chrome trace emission
// (parse-back, per-track monotonic timestamps), a multi-threaded
// ShardedTinca stress traced end-to-end, and the Stack-level metric
// registration plus the debug write-accounting cross-check.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/stack_builder.h"
#include "blockdev/mem_block_device.h"
#include "common/bytes.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/sharded_tinca.h"

namespace tinca::obs {
namespace {

// --- Json ------------------------------------------------------------------

TEST(Json, BuildDumpParseRoundTrip) {
  Json doc = Json::object();
  doc.set("name", Json::str("tinca \"quoted\" \\ \n\t"));
  doc.set("count", Json::number(std::uint64_t{12345}));
  doc.set("ratio", Json::number(2.5));
  doc.set("ok", Json::boolean(true));
  doc.set("nothing", Json());
  Json arr = Json::array();
  arr.push(Json::number(1.0));
  arr.push(Json::str("two"));
  Json inner = Json::object();
  inner.set("p99", Json::number(17500.0));
  arr.push(std::move(inner));
  doc.set("rows", std::move(arr));

  for (int indent : {0, 2}) {
    const std::string text = doc.dump(indent);
    auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    ASSERT_TRUE(parsed->is_object());
    EXPECT_EQ(parsed->find("name")->str_value(), "tinca \"quoted\" \\ \n\t");
    EXPECT_EQ(parsed->find("count")->num(), 12345.0);
    EXPECT_EQ(parsed->find("ratio")->num(), 2.5);
    EXPECT_TRUE(parsed->find("ok")->bool_value());
    EXPECT_EQ(parsed->find("nothing")->type(), Json::Type::kNull);
    const Json* rows = parsed->find("rows");
    ASSERT_TRUE(rows != nullptr && rows->is_array());
    ASSERT_EQ(rows->items().size(), 3u);
    EXPECT_EQ(rows->items()[1].str_value(), "two");
    EXPECT_EQ(rows->items()[2].find("p99")->num(), 17500.0);
  }
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json doc = Json::object();
  doc.set("zebra", Json::number(1.0));
  doc.set("apple", Json::number(2.0));
  doc.set("mango", Json::number(3.0));
  auto parsed = Json::parse(doc.dump());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->members().size(), 3u);
  EXPECT_EQ(parsed->members()[0].first, "zebra");
  EXPECT_EQ(parsed->members()[1].first, "apple");
  EXPECT_EQ(parsed->members()[2].first, "mango");
}

TEST(Json, StrictParserRejectsMalformed) {
  const char* bad[] = {
      "",           "{",         "}",          "{\"a\":}",  "[1,]",
      "{\"a\" 1}",  "\"open",    "{\"a\":1}x", "nul",       "tru",
      "1.2.3",      "[1 2]",     "{'a':1}",    "+1",        "{\"a\":01}",
  };
  for (const char* text : bad)
    EXPECT_FALSE(Json::parse(text).has_value()) << "accepted: " << text;
}

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistogramsRoundTrip) {
  std::uint64_t hits = 41;
  std::uint64_t depth = 7;
  Histogram lat;
  lat.record(100);
  lat.record(200);
  lat.record(400);

  MetricsRegistry reg;
  reg.add_counter("tinca.write_hits", &hits);
  reg.add_gauge("tinca.queue_depth", [&depth] { return depth; });
  reg.add_histogram("tinca.lat.commit", &lat);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_TRUE(reg.has("tinca.write_hits"));
  EXPECT_FALSE(reg.has("tinca.write_misses"));

  // Pull model: a later increment is visible without re-registering.
  hits = 42;
  EXPECT_EQ(reg.value("tinca.write_hits"), 42u);
  EXPECT_EQ(reg.value("tinca.queue_depth"), 7u);
  ASSERT_NE(reg.histogram("tinca.lat.commit"), nullptr);
  EXPECT_EQ(reg.histogram("tinca.lat.commit")->count(), 3u);
  EXPECT_EQ(reg.histogram("tinca.write_hits"), nullptr);

  auto parsed = Json::parse(reg.to_json_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("tinca.write_hits")->num(), 42.0);
  EXPECT_EQ(parsed->find("tinca.queue_depth")->num(), 7.0);
  const Json* h = parsed->find("tinca.lat.commit");
  ASSERT_TRUE(h != nullptr && h->is_object());
  EXPECT_EQ(h->find("count")->num(), 3.0);
  for (const char* field : {"sum", "mean", "min", "p50", "p95", "p99", "max"})
    EXPECT_NE(h->find(field), nullptr) << field;

  const std::string text = reg.to_text();
  EXPECT_NE(text.find("tinca.write_hits"), std::string::npos);
  EXPECT_NE(text.find("tinca.lat.commit"), std::string::npos);
}

// --- Tracer / TraceSpan ----------------------------------------------------

TEST(Tracer, SpanNestingRecordsBothDurations) {
  sim::SimClock clock;
  Tracer trace(clock, /*tid=*/0, "test.");
  Tracer::Site* outer = trace.site("outer");
  Tracer::Site* inner = trace.site("inner");
  trace.enable();

  {
    TINCA_TRACE_SPAN(trace, outer);
    clock.advance(100);
    {
      TINCA_TRACE_SPAN(trace, inner);
      clock.advance(50);
    }
    clock.advance(25);
  }

  const Histogram* ho = trace.histogram("outer");
  const Histogram* hi = trace.histogram("inner");
  ASSERT_NE(ho, nullptr);
  ASSERT_NE(hi, nullptr);
  EXPECT_EQ(ho->count(), 1u);
  EXPECT_EQ(hi->count(), 1u);
  EXPECT_EQ(ho->sum(), 175u);  // outer covers the inner span
  EXPECT_EQ(hi->sum(), 50u);
  EXPECT_EQ(trace.histogram("never_interned"), nullptr);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  sim::SimClock clock;
  Tracer trace(clock);
  Tracer::Site* site = trace.site("op");
  ASSERT_FALSE(trace.enabled());
  for (int i = 0; i < 100; ++i) {
    TINCA_TRACE_SPAN(trace, site);
    clock.advance(10);
  }
  EXPECT_EQ(trace.histogram("op")->count(), 0u);
}

TEST(Tracer, EnabledWithoutSinkRecordsHistogramOnly) {
  sim::SimClock clock;
  Tracer trace(clock);
  Tracer::Site* site = trace.site("op");
  trace.enable();
  ASSERT_EQ(trace.sink(), nullptr);
  {
    TINCA_TRACE_SPAN(trace, site);
    clock.advance(10);
  }
  EXPECT_EQ(trace.histogram("op")->count(), 1u);
}

TEST(Tracer, RegisterIntoPrefixesSiteNames) {
  sim::SimClock clock;
  Tracer trace(clock);
  Tracer::Site* site = trace.site("commit");
  trace.enable();
  {
    TINCA_TRACE_SPAN(trace, site);
    clock.advance(10);
  }
  MetricsRegistry reg;
  trace.register_into(reg, "tinca.lat.");
  ASSERT_TRUE(reg.has("tinca.lat.commit"));
  EXPECT_EQ(reg.histogram("tinca.lat.commit")->count(), 1u);
}

// Walk a parsed Chrome trace document; fail on structural violations and
// return per-(pid, tid) event counts.
std::map<std::pair<double, double>, int> check_chrome_trace(const Json& doc) {
  const Json* events = doc.find("traceEvents");
  EXPECT_TRUE(events != nullptr && events->is_array());
  std::map<std::pair<double, double>, double> last_ts;
  std::map<std::pair<double, double>, int> per_track;
  for (const Json& ev : events->items()) {
    const std::string& ph = ev.find("ph")->str_value();
    EXPECT_TRUE(ph == "M" || ph == "X") << ph;
    if (ph == "M") continue;
    const std::pair<double, double> track{ev.find("pid")->num(),
                                          ev.find("tid")->num()};
    const double ts = ev.find("ts")->num();
    EXPECT_GE(ev.find("dur")->num(), 0.0);
    EXPECT_FALSE(ev.find("name")->str_value().empty());
    auto [it, fresh] = last_ts.try_emplace(track, ts);
    if (!fresh) {
      EXPECT_GE(ts, it->second) << "track (" << track.first << ","
                                << track.second << ") not monotonic";
      it->second = ts;
    }
    ++per_track[track];
  }
  return per_track;
}

TEST(TraceSink, ChromeJsonParsesBackWithMonotonicTracks) {
  sim::SimClock clock;
  Tracer trace(clock, /*tid=*/3, "tinca.");
  Tracer::Site* site = trace.site("commit");
  TraceSink sink;
  sink.set_track_name(kVirtualPid, 3, "shard 3");
  trace.attach_sink(&sink);
  EXPECT_TRUE(trace.enabled()) << "attach_sink must enable";

  for (int i = 0; i < 5; ++i) {
    TINCA_TRACE_SPAN(trace, site);
    clock.advance(100);
  }
  EXPECT_EQ(sink.event_count(), 5u);

  auto doc = Json::parse(sink.to_chrome_json());
  ASSERT_TRUE(doc.has_value());
  const auto per_track = check_chrome_trace(*doc);
  ASSERT_EQ(per_track.size(), 1u);
  EXPECT_EQ(per_track.begin()->first,
            (std::pair<double, double>{kVirtualPid, 3.0}));
  EXPECT_EQ(per_track.begin()->second, 5);

  // Events carry the prefixed name; the track metadata carries its label.
  const std::string text = sink.to_chrome_json();
  EXPECT_NE(text.find("tinca.commit"), std::string::npos);
  EXPECT_NE(text.find("shard 3"), std::string::npos);
}

// --- ShardedTinca end-to-end trace -----------------------------------------

TEST(ShardedTrace, MultiThreadedStressProducesPerShardTracks) {
  constexpr std::uint32_t kShards = 4;
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 32;

  sim::SimClock clock;
  nvm::NvmDevice dev(8 << 20, nvdimm_profile(), clock);
  blockdev::MemBlockDevice disk(1 << 16);
  shard::ShardedConfig cfg;
  cfg.num_shards = kShards;
  cfg.shard.ring_bytes = 1 << 16;
  auto st = shard::ShardedTinca::format(dev, disk, cfg);

  TraceSink sink;
  st->attach_trace_sink(&sink);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&st, t] {
      std::vector<std::byte> blk(core::kBlockSize);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto txn = st->init_txn();
        for (std::uint64_t b = 0; b < 4; ++b) {
          fill_pattern(blk, static_cast<std::uint64_t>(t) * 1000 + i + b);
          txn.add(static_cast<std::uint64_t>(t * kTxnsPerThread + i) * 4 + b,
                  blk);
        }
        st->commit(txn);
      }
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_GT(sink.event_count(), 0u);
  auto doc = Json::parse(sink.to_chrome_json());
  ASSERT_TRUE(doc.has_value());
  const auto per_track = check_chrome_trace(*doc);

  // Every shard's virtual-time track must have commit events, and the
  // wall-clock front-end (lock/publish phases) must appear under kHostPid.
  std::set<double> virtual_tids;
  bool host_events = false;
  for (const auto& [track, count] : per_track) {
    EXPECT_GT(count, 0);
    if (track.first == kVirtualPid) virtual_tids.insert(track.second);
    if (track.first == kHostPid) host_events = true;
  }
  EXPECT_EQ(virtual_tids.size(), kShards);
  EXPECT_TRUE(host_events) << "front-end lock/publish spans missing";

  // The front-end histograms saw every commit.
  const Histogram* commit = st->tracer().histogram("commit");
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->count(),
            static_cast<std::uint64_t>(kThreads) * kTxnsPerThread);
}

// --- Stack integration -----------------------------------------------------

TEST(StackObs, RegisterMetricsAndWriteAccounting) {
  backend::StackConfig cfg;
  cfg.kind = backend::StackKind::kTinca;
  cfg.nvm_bytes = 8 << 20;
  cfg.disk_blocks = 1 << 14;
  backend::Stack stack(cfg);
  stack.enable_tracing();

  auto& be = stack.backend();
  std::vector<std::byte> blk(core::kBlockSize);
  for (std::uint64_t i = 0; i < 64; ++i) {
    be.begin();
    fill_pattern(blk, i);
    be.stage(i, blk);
    be.commit();
  }

  MetricsRegistry reg;
  stack.register_metrics(reg);
  EXPECT_TRUE(reg.has("nvm.clflush"));
  EXPECT_TRUE(reg.has("disk.blocks_written"));
  EXPECT_TRUE(reg.has("sim.now_ns"));
  EXPECT_TRUE(reg.has("tinca.write_hits"));
  ASSERT_TRUE(reg.has("tinca.lat.commit"));
  EXPECT_GT(reg.value("nvm.clflush"), 0u);
  EXPECT_EQ(reg.histogram("tinca.lat.commit")->count(), 64u);

  // The debug cross-check must hold after a clean commit sequence.
  stack.assert_write_accounting();

  auto parsed = Json::parse(reg.to_json_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_GT(parsed->find("nvm.clflush")->num(), 0.0);
}

TEST(StackObs, ShardedStackRegistersPerShardMetrics) {
  backend::StackConfig cfg;
  cfg.kind = backend::StackKind::kShardedTinca;
  cfg.nvm_bytes = 8 << 20;
  cfg.disk_blocks = 1 << 14;
  cfg.sharded.num_shards = 4;
  backend::Stack stack(cfg);

  MetricsRegistry reg;
  stack.register_metrics(reg);
  for (std::uint32_t s = 0; s < 4; ++s)
    EXPECT_TRUE(reg.has("sharded.shard" + std::to_string(s) + ".write_hits"))
        << s;
  stack.assert_write_accounting();
}

}  // namespace
}  // namespace tinca::obs
