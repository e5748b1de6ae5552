// Unit tests for the NVM emulation: persistence semantics, crash behaviour,
// latency accounting, atomics, and the crash injector.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/bytes.h"
#include "common/expect.h"
#include "nvm/nvm_device.h"

namespace tinca::nvm {
namespace {

constexpr std::size_t kDev = 64 * 1024;

struct Fixture {
  sim::SimClock clock;
  NvmDevice dev{kDev, pcm_profile(), clock};
  Rng rng{99};
};

std::vector<std::byte> bytes(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(NvmDevice, StoreThenLoadSeesData) {
  Fixture f;
  const auto data = bytes({1, 2, 3, 4});
  f.dev.store(100, data);
  std::vector<std::byte> got(4);
  f.dev.load(100, got);
  EXPECT_EQ(got, data);
}

TEST(NvmDevice, UnflushedStoreIsLostOnCrash) {
  Fixture f;
  f.dev.store(0, bytes({0xAA}));
  f.dev.crash_discard_all();
  std::vector<std::byte> got(1);
  f.dev.load(0, got);
  EXPECT_EQ(got[0], std::byte{0});
}

TEST(NvmDevice, FlushedStoreSurvivesCrash) {
  Fixture f;
  f.dev.store(0, bytes({0xAB}));
  f.dev.persist(0, 1);
  f.dev.crash_discard_all();
  std::vector<std::byte> got(1);
  f.dev.load(0, got);
  EXPECT_EQ(got[0], std::byte{0xAB});
}

TEST(NvmDevice, CrashDropsWholeLinesNotBytes) {
  Fixture f;
  // Two stores to the same line, one crash: both survive or neither.
  f.dev.store(0, bytes({0x11}));
  f.dev.store(32, bytes({0x22}));
  f.dev.crash(f.rng, 0.5);
  std::vector<std::byte> a(1), b(1);
  f.dev.load(0, a);
  f.dev.load(32, b);
  EXPECT_EQ(a[0] == std::byte{0x11}, b[0] == std::byte{0x22});
}

TEST(NvmDevice, CrashWithFullSurvivalKeepsEverything) {
  Fixture f;
  f.dev.store(128, bytes({5, 6, 7}));
  f.dev.crash(f.rng, 1.0);
  std::vector<std::byte> got(3);
  f.dev.load(128, got);
  EXPECT_EQ(got, bytes({5, 6, 7}));
}

TEST(NvmDevice, DirtyLineAccountingIsExact) {
  Fixture f;
  EXPECT_EQ(f.dev.dirty_lines(), 0u);
  f.dev.store(0, std::vector<std::byte>(64));      // one line
  f.dev.store(100, std::vector<std::byte>(64));    // spans lines 1..2
  EXPECT_EQ(f.dev.dirty_lines(), 3u);
  f.dev.clflush(0, 64);
  EXPECT_EQ(f.dev.dirty_lines(), 2u);
  f.dev.persist(64, 128);
  EXPECT_EQ(f.dev.dirty_lines(), 0u);

  // An unaligned multi-line store over lines that are already dirty counts
  // only the lines it newly dirties.
  f.dev.store(64, std::vector<std::byte>(128));     // lines 1..2
  f.dev.store(100, std::vector<std::byte>(200));    // lines 1..4
  EXPECT_EQ(f.dev.dirty_lines(), 4u);

  // A view at a non-zero base dirties (and cleans) the root's lines and
  // reports the root-wide count.
  sim::SimClock view_clock;
  NvmDevice view(f.dev, 8192, 4096, view_clock);
  view.store(10, std::vector<std::byte>(120));      // root lines 128..130
  view.store(0, std::vector<std::byte>(64));        // line 128 again
  EXPECT_EQ(f.dev.dirty_lines(), 7u);
  EXPECT_EQ(view.dirty_lines(), 7u);
  view.clflush(0, 4096);
  EXPECT_EQ(f.dev.dirty_lines(), 4u);
  EXPECT_EQ(f.dev.wear(8192, 4096).total_line_writes, 3u);
  EXPECT_EQ(view.wear(0, 4096).total_line_writes, 3u);
  f.dev.persist(0, 8192);
  EXPECT_EQ(f.dev.dirty_lines(), 0u);
}

TEST(NvmDevice, ClflushCountsPerLine) {
  Fixture f;
  f.dev.store(0, std::vector<std::byte>(4096));
  const auto before = f.dev.stats().clflush;
  f.dev.clflush(0, 4096);
  EXPECT_EQ(f.dev.stats().clflush - before, 64u);
}

TEST(NvmDevice, PcmFlushCostsMoreThanNvdimm) {
  sim::SimClock c1, c2;
  NvmDevice pcm(kDev, pcm_profile(), c1);
  NvmDevice nvdimm(kDev, nvdimm_profile(), c2);
  std::vector<std::byte> data(4096);
  pcm.store(0, data);
  pcm.persist(0, 4096);
  nvdimm.store(0, data);
  nvdimm.persist(0, 4096);
  EXPECT_GT(c1.now(), c2.now());
  // The delta should be ~64 lines * 180 ns.
  EXPECT_NEAR(static_cast<double>(c1.now() - c2.now()), 64.0 * 180.0, 1.0);
}

TEST(NvmDevice, FlushOfCleanLineCostsOnlyInstruction) {
  Fixture f;
  f.dev.store(0, bytes({1}));
  f.dev.clflush(0, 1);
  const sim::Ns before = f.clock.now();
  f.dev.clflush(0, 1);  // clean now
  EXPECT_EQ(f.clock.now() - before, pcm_profile().clflush_ns);

  // One flush over k = 3 dirty lines and m = 5 clean ones (lines 64..71)
  // charges each line its own price; a dirty line outside stays dirty.
  f.dev.store(4096, bytes({1}));          // line 64
  f.dev.store(4096 + 130, bytes({2}));    // line 66
  f.dev.store(4096 + 448, bytes({3}));    // line 71
  f.dev.store(8192, bytes({4}));          // line 128, outside the range
  const sim::Ns t0 = f.clock.now();
  const std::uint64_t flushes0 = f.dev.stats().clflush;
  const std::uint64_t wear0 = f.dev.wear().total_line_writes;
  f.dev.clflush(4096, 512);
  EXPECT_EQ(f.clock.now() - t0, 3 * pcm_profile().line_flush_cost() +
                                    5 * pcm_profile().clflush_ns);
  EXPECT_EQ(f.dev.stats().clflush - flushes0, 8u);
  EXPECT_EQ(f.dev.wear().total_line_writes - wear0, 3u);
  EXPECT_EQ(f.dev.dirty_lines(), 1u);
}

TEST(NvmDevice, Atomic8RequiresAlignment) {
  Fixture f;
  EXPECT_THROW(f.dev.atomic_store8(3, 1), ContractViolation);
  f.dev.atomic_store8(8, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(f.dev.load8(8), 0xDEADBEEFCAFEF00DULL);
}

TEST(NvmDevice, Atomic16RequiresAlignment) {
  Fixture f;
  std::array<std::byte, 16> v{};
  v[0] = std::byte{0x42};
  EXPECT_THROW(f.dev.atomic_store16(8, v), ContractViolation);
  f.dev.atomic_store16(16, v);
  std::vector<std::byte> got(16);
  f.dev.load(16, got);
  EXPECT_EQ(got[0], std::byte{0x42});
}

TEST(NvmDevice, Atomic16NeverTearsAcrossCrash) {
  // A 16 B aligned value lives in one line: after any crash it is either
  // the old or the new value, never a mix.
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    sim::SimClock clock;
    NvmDevice dev(kDev, pcm_profile(), clock);
    Rng rng(seed);
    std::array<std::byte, 16> oldv{}, newv{};
    oldv.fill(std::byte{0xAA});
    newv.fill(std::byte{0xBB});
    dev.atomic_store16(0, oldv);
    dev.persist(0, 16);
    dev.atomic_store16(0, newv);  // not flushed
    dev.crash(rng, 0.5);
    std::vector<std::byte> got(16);
    dev.load(0, got);
    const bool all_old =
        std::all_of(got.begin(), got.end(), [](auto b) { return b == std::byte{0xAA}; });
    const bool all_new =
        std::all_of(got.begin(), got.end(), [](auto b) { return b == std::byte{0xBB}; });
    EXPECT_TRUE(all_old || all_new) << "torn 16 B write, seed " << seed;
  }
}

TEST(NvmDevice, StatsTrackOperations) {
  Fixture f;
  f.dev.store(0, std::vector<std::byte>(128));
  f.dev.sfence();
  f.dev.atomic_store8(0, 1);
  const auto& s = f.dev.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.bytes_stored, 136u);
  EXPECT_EQ(s.sfence, 1u);
  EXPECT_EQ(s.atomic8, 1u);
}

TEST(NvmDevice, StatsDeltaOperator) {
  Fixture f;
  f.dev.store(0, std::vector<std::byte>(64));
  const NvmStats snap = f.dev.stats();
  f.dev.persist(0, 64);
  const NvmStats d = f.dev.stats() - snap;
  EXPECT_EQ(d.clflush, 1u);
  EXPECT_EQ(d.sfence, 1u);
  EXPECT_EQ(d.stores, 0u);
}

TEST(NvmDevice, OutOfRangeAccessesThrow) {
  Fixture f;
  std::vector<std::byte> buf(16);
  EXPECT_THROW(f.dev.store(kDev - 8, buf), ContractViolation);
  EXPECT_THROW(f.dev.load(kDev, buf), ContractViolation);
  EXPECT_THROW(f.dev.clflush(kDev - 1, 2), ContractViolation);
}

TEST(NvmDevice, EmptyStoreIsRejected) {
  // A zero-byte store at offset 0 would compute its last line as
  // (0 + 0 - 1) / 64 and walk the dirty map far out of bounds.
  Fixture f;
  EXPECT_THROW(f.dev.store(0, {}), ContractViolation);
  EXPECT_THROW(f.dev.store(100, {}), ContractViolation);
  sim::SimClock view_clock;
  NvmDevice view(f.dev, 0, 4096, view_clock);
  EXPECT_THROW(view.store(0, {}), ContractViolation);
  EXPECT_EQ(f.dev.dirty_lines(), 0u);
  EXPECT_EQ(f.dev.stats().stores, 0u);
  EXPECT_EQ(f.clock.now(), 0u);
}

TEST(NvmDevice, WearCountsMediaWritesOnly) {
  Fixture f;
  f.dev.store(0, bytes({1}));
  EXPECT_EQ(f.dev.wear().total_line_writes, 0u) << "stores alone do not wear";
  f.dev.persist(0, 1);
  EXPECT_EQ(f.dev.wear().total_line_writes, 1u);
  f.dev.clflush(0, 1);  // clean line: no media write
  EXPECT_EQ(f.dev.wear().total_line_writes, 1u);
}

TEST(NvmDevice, WearTracksHotLines) {
  Fixture f;
  for (int i = 0; i < 10; ++i) {
    f.dev.atomic_store8(0, static_cast<std::uint64_t>(i));
    f.dev.persist(0, 8);
  }
  f.dev.store(4096, bytes({1}));
  f.dev.persist(4096, 1);
  const auto w = f.dev.wear();
  EXPECT_EQ(w.max_line_writes, 10u);
  EXPECT_EQ(w.total_line_writes, 11u);
  EXPECT_EQ(w.lines_touched, 2u);
  EXPECT_GT(w.mean_line_writes, 0.0);
}

TEST(NvmDevice, SurvivingCrashLinesCountAsWear) {
  Fixture f;
  f.dev.store(0, bytes({1}));
  f.dev.crash(f.rng, 1.0);  // line reached the media during power loss
  EXPECT_EQ(f.dev.wear().total_line_writes, 1u);
}

TEST(CrashInjector, FiresAtArmedStep) {
  CrashInjector inj;
  inj.point();  // disarmed: counts only
  EXPECT_EQ(inj.steps_seen(), 1u);
  inj.arm(3);
  inj.point();
  inj.point();
  EXPECT_THROW(inj.point(), CrashException);
}

TEST(CrashInjector, DisarmStopsFiring) {
  CrashInjector inj;
  inj.arm(1);
  inj.disarm();
  EXPECT_NO_THROW(inj.point());
}

TEST(CrashInjector, TornCounterIsIndependentOfPointCounter) {
  CrashInjector inj;
  inj.arm_torn(2);
  // Ordinary points never advance (or trip) the torn counter, so arming a
  // torn step cannot perturb an existing point() sweep's numbering.
  EXPECT_NO_THROW(inj.point());
  EXPECT_NO_THROW(inj.point());
  EXPECT_EQ(inj.torn_steps_seen(), 0u);
  EXPECT_FALSE(inj.point_torn());  // torn step 1
  EXPECT_TRUE(inj.point_torn());   // torn step 2 fires
  EXPECT_EQ(inj.torn_steps_seen(), 2u);
  EXPECT_EQ(inj.steps_seen(), 2u);  // point() count untouched by torn calls
  inj.disarm_torn();
  EXPECT_FALSE(inj.torn_armed());
  EXPECT_FALSE(inj.point_torn());
}

TEST(NvmDevice, TornStoreAppliesPrefixThenCrashes) {
  Fixture f;
  std::vector<std::byte> old_data(128);
  fill_pattern(old_data, 1);
  f.dev.store(0, old_data);
  f.dev.clflush(0, old_data.size());
  f.dev.sfence();

  std::vector<std::byte> new_data(128);
  fill_pattern(new_data, 2);
  f.dev.injector.arm_torn(1);
  EXPECT_THROW(f.dev.store(0, new_data), CrashException);
  f.dev.injector.disarm_torn();

  // Every torn-prefix line survives the power cut: the first half of the
  // store is new, the second half still old — a torn write, not a lost one.
  f.dev.crash(f.rng, 1.0);
  std::vector<std::byte> got(128);
  f.dev.load(0, got);
  EXPECT_TRUE(std::equal(got.begin(), got.begin() + 64, new_data.begin()));
  EXPECT_TRUE(std::equal(got.begin() + 64, got.end(), old_data.begin() + 64));
}

TEST(NvmDevice, TornStorePrefixStillFacesLineSurvivalLottery) {
  Fixture f;
  std::vector<std::byte> old_data(128);
  fill_pattern(old_data, 1);
  f.dev.store(0, old_data);
  f.dev.clflush(0, old_data.size());
  f.dev.sfence();

  std::vector<std::byte> new_data(128);
  fill_pattern(new_data, 2);
  f.dev.injector.arm_torn(1);
  EXPECT_THROW(f.dev.store(0, new_data), CrashException);
  f.dev.injector.disarm_torn();

  // The torn prefix was only in the CPU cache; with zero survival it is
  // dropped wholesale and the flushed old contents are intact.
  f.dev.crash(f.rng, 0.0);
  std::vector<std::byte> got(128);
  f.dev.load(0, got);
  EXPECT_EQ(got, old_data);
}

}  // namespace
}  // namespace tinca::nvm
