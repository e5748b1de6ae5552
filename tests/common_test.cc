// Unit tests for the common substrate: clock, RNG, Zipf, histogram, event
// queue, resources, byte codecs, latency profiles, table printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/event_queue.h"
#include "common/expect.h"
#include "common/histogram.h"
#include "common/latency.h"
#include "common/media_alloc.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/table.h"

namespace tinca {
namespace {

TEST(SimClock, StartsAtZeroAndAdvances) {
  sim::SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance(42);
  clock.advance(58);
  EXPECT_EQ(clock.now(), 100u);
  EXPECT_DOUBLE_EQ(clock.seconds(), 100e-9);
}

TEST(SimClock, CostProbeMeasuresDelta) {
  sim::SimClock clock;
  clock.advance(1000);
  sim::CostProbe probe(clock);
  clock.advance(250);
  EXPECT_EQ(probe.elapsed(), 250u);
}

TEST(Expect, ThrowsContractViolationWithContext) {
  try {
    TINCA_EXPECT(1 == 2, "the impossible");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("the impossible"), std::string::npos);
  }
}

TEST(MediaAllocator, LargeRequestsAre2MbAligned) {
  MediaAllocator<std::byte> alloc;
  for (const std::size_t n : {kHugePageBytes, kHugePageBytes + 5,
                              3 * kHugePageBytes}) {
    std::byte* p = alloc.allocate(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes, 0u) << n;
    p[0] = std::byte{1};
    p[n - 1] = std::byte{2};
    alloc.deallocate(p, n);
  }
  // Small requests stay plain heap memory.
  MediaAllocator<std::uint32_t> small;
  std::uint32_t* q = small.allocate(16);
  q[15] = 7;
  small.deallocate(q, 16);
}

TEST(MediaAllocator, VectorsZeroFillAndCopyAssign) {
  MediaVector<std::byte> big(kHugePageBytes + 64);
  EXPECT_EQ(std::count(big.begin(), big.end(), std::byte{0}),
            static_cast<std::ptrdiff_t>(big.size()));
  fill_pattern(big, 5);
  MediaVector<std::byte> copy(big.size());
  copy = big;
  EXPECT_TRUE(std::equal(big.begin(), big.end(), copy.begin(), copy.end()));
  MediaVector<std::uint32_t> small(100);
  EXPECT_EQ(std::count(small.begin(), small.end(), 0u), 100);
  MediaVector<std::uint32_t> small_copy;
  small_copy = small;
  EXPECT_EQ(small_copy, small);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversDomain) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Zipf, SkewConcentratesOnHotItems) {
  Rng rng(17);
  Zipf zipf(1000, 0.9);
  std::uint64_t hot = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (zipf.draw(rng) < 10) ++hot;
  // With theta 0.9, the top-1% items should absorb well over 20% of draws.
  EXPECT_GT(hot, static_cast<std::uint64_t>(n) / 5);
}

TEST(Zipf, ZeroThetaIsRoughlyUniform) {
  Rng rng(19);
  Zipf zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.draw(rng)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 400);
}

TEST(Zipf, DrawsStayInDomain) {
  Rng rng(23);
  Zipf zipf(37, 0.8);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.draw(rng), 37u);
}

TEST(Histogram, MeanMinMaxCount) {
  Histogram h;
  for (std::uint64_t v : {1, 2, 3, 4, 100}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 110u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 22.0);
}

TEST(Histogram, QuantileBracketsValues) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(10);
  h.record(100000);
  EXPECT_LE(h.quantile(0.5), 15u);
  EXPECT_EQ(h.quantile(1.0), 100000u);
}

TEST(Histogram, MergeAccumulates) {
  Histogram a, b;
  a.record(5);
  b.record(7);
  b.record(9);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 21u);
  EXPECT_EQ(a.max(), 9u);
}

TEST(Histogram, ClearEmpties) {
  Histogram h;
  h.record(42);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(EventQueue, RunsInTimeOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&](sim::Ns) { order.push_back(3); });
  q.schedule_at(10, [&](sim::Ns) { order.push_back(1); });
  q.schedule_at(20, [&](sim::Ns) { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&](sim::Ns) { order.push_back(1); });
  q.schedule_at(5, [&](sim::Ns) { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CallbacksMayScheduleMore) {
  sim::EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&](sim::Ns now) {
    ++fired;
    if (now < 5) q.schedule_at(now + 1, [&](sim::Ns) { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  sim::EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&](sim::Ns) { ++fired; });
  q.schedule_at(20, [&](sim::Ns) { ++fired; });
  q.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(Resource, FifoQueueing) {
  sim::Resource r;
  EXPECT_EQ(r.acquire(0, 100), 100u);   // idle: starts immediately
  EXPECT_EQ(r.acquire(50, 100), 200u);  // queued behind the first
  EXPECT_EQ(r.acquire(500, 100), 600u); // idle again
  EXPECT_EQ(r.requests(), 3u);
  EXPECT_EQ(r.total_busy(), 300u);
  EXPECT_EQ(r.total_wait(), 50u);
}

TEST(Bytes, StoreLoadRoundTripAllWidths) {
  std::byte buf[8];
  for (std::size_t w = 1; w <= 8; ++w) {
    const std::uint64_t v = 0x1122334455667788ULL & ((w == 8) ? ~0ULL : ((1ULL << (w * 8)) - 1));
    store_le(buf, v, w);
    EXPECT_EQ(load_le(buf, w), v) << "width " << w;
  }
}

TEST(Bytes, FillPatternIsDeterministicAndSeedSensitive) {
  std::vector<std::byte> a(256), b(256), c(256);
  fill_pattern(a, 1);
  fill_pattern(b, 1);
  fill_pattern(c, 2);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_NE(fingerprint(a), fingerprint(c));
}

TEST(Bytes, FingerprintIsXxh64) {
  // Reference XXH64 (seed 0) values.  The fill_pattern rows were also
  // checked against the low 32 bits that `zstd --check` appends to a frame.
  const auto of = [](const char* s) {
    return fingerprint(std::as_bytes(std::span(s, std::strlen(s))));
  };
  EXPECT_EQ(of(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(of("abc"), 0x44BC2CF5AD770999ULL);
  // 31 B runs only the tail steps, 32 B one lane round, 33 B a round plus a
  // 1-byte tail, and 4096 B (one block) many rounds.
  const std::pair<std::size_t, std::uint64_t> known[] = {
      {31, 0x0DFBCDFAE178ECC5ULL},
      {32, 0x1447DE5C537E2859ULL},
      {33, 0xEBD9173EDED1678EULL},
      {100, 0xDCF54BE8C58819F6ULL},
      {4096, 0xA81D3A0E043908BAULL},
  };
  for (const auto& [len, want] : known) {
    std::vector<std::byte> v(len);
    fill_pattern(v, 7);
    EXPECT_EQ(fingerprint(v), want) << "length " << len;
  }
}

TEST(Latency, ProfilesMatchPaperDeltas) {
  EXPECT_EQ(pcm_profile().write_extra_ns, 180u);
  EXPECT_EQ(pcm_profile().read_extra_ns, 50u);
  EXPECT_EQ(sttram_profile().write_extra_ns, 50u);
  EXPECT_EQ(nvdimm_profile().write_extra_ns, 0u);
  EXPECT_GT(pcm_profile().line_flush_cost(), nvdimm_profile().line_flush_cost());
}

TEST(Latency, LookupByNameIsCaseInsensitive) {
  EXPECT_EQ(nvm_profile_by_name("PCM").name, "PCM");
  EXPECT_EQ(nvm_profile_by_name("SttRam").name, "STT-RAM");
  EXPECT_THROW(nvm_profile_by_name("flux-capacitor"), ContractViolation);
  EXPECT_EQ(disk_profile_by_name("hdd").name, "HDD");
  EXPECT_THROW(disk_profile_by_name("tape"), ContractViolation);
}

TEST(Latency, HddSlowerThanSsd) {
  const auto ssd = ssd_profile();
  const auto hdd = hdd_profile();
  EXPECT_GT(hdd.seek_ns, ssd.seek_ns);
}

TEST(Latency, NetworkTransferScalesWithBytes) {
  const auto net = tengig_profile();
  EXPECT_EQ(net.transfer_ns(0), 0u);
  EXPECT_NEAR(static_cast<double>(net.transfer_ns(1'250'000'000)), 1e9, 1e6);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(std::uint64_t{1234567}), "1,234,567");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace tinca
