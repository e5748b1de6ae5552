// Crash-injection hooks for persistence-ordering tests.
//
// The paper validates recoverability by "unexpectedly plugging out the power
// cable" and "suddenly killing Tinca's process" (§5.1).  In user space we get
// a strictly stronger tool: the commit path is instrumented with numbered
// crash points, and the test harness sweeps a simulated power failure across
// *every* point (and every subset of surviving unflushed cache lines), then
// runs recovery and checks the consistency invariants.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>

namespace tinca::nvm {

/// Thrown to simulate an instantaneous power failure.  Deliberately not
/// derived from std::runtime_error: nothing in the storage stack is allowed
/// to catch-and-continue past it except the test harness.
class CrashException : public std::exception {
 public:
  const char* what() const noexcept override {
    return "simulated power failure";
  }
};

/// Counts instrumented crash points and fires at an armed step.
///
/// Usage: production code calls `point()` at each persistence-ordering
/// boundary.  A disarmed injector only counts (a plain load and store).
/// Tests first run a workload disarmed to learn the step count, then re-run
/// once per step with `arm(step)` to crash exactly there.
///
/// Every field is atomic (relaxed) so that NVM views driven from multiple
/// threads (the sharded front-end) can share one disarmed injector without a
/// data race — point() reads armed_/fire_at_ on every call, concurrently
/// with arm()/disarm() from the harness thread.  Relaxed ordering is enough
/// because no other data is published through these flags.
///
/// The counters advance with a relaxed load + store, not a locked
/// read-modify-write: points sit on every commit path and are passed
/// millions of times while disarmed.  Counts are therefore exact only when
/// one thread drives the stack; concurrent threads may lose increments.
/// That is the only setting in which arming means anything anyway — step
/// numbering is deterministic only in single-threaded sweeps.
class CrashInjector {
 public:
  /// Arm the injector: the `step`-th future call to point() (1-based) throws.
  void arm(std::uint64_t step) {
    fire_at_.store(step, std::memory_order_relaxed);
    seen_.store(0, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_relaxed);
  }

  /// Disarm; point() only counts.
  void disarm() {
    armed_.store(false, std::memory_order_relaxed);
    seen_.store(0, std::memory_order_relaxed);
  }

  /// Crash-point marker.  Throws CrashException when the armed step is hit.
  void point() {
    const std::uint64_t n = seen_.load(std::memory_order_relaxed) + 1;
    seen_.store(n, std::memory_order_relaxed);
    if (armed_.load(std::memory_order_relaxed) &&
        n == fire_at_.load(std::memory_order_relaxed))
      throw CrashException();
  }

  /// Number of points passed since the last arm()/disarm().
  [[nodiscard]] std::uint64_t steps_seen() const {
    return seen_.load(std::memory_order_relaxed);
  }

  /// Whether armed.
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  // --- Torn-write points ----------------------------------------------------
  //
  // A power cut can also land *inside* a write, leaving the target half-old /
  // half-new.  Torn points count on an independent counter so arming them
  // never perturbs the step numbering of the ordinary point() sweeps (the
  // existing crash suites learn step counts disarmed and replay them).
  // Unlike point(), point_torn() does not throw: it returns true when the
  // armed step fires and the *caller* applies the partial write it models —
  // a prefix of an NvmDevice store, a half-and-half 4 KB disk block — before
  // raising CrashException itself.

  /// Arm the torn counter: the `step`-th future point_torn() (1-based) fires.
  void arm_torn(std::uint64_t step) {
    torn_fire_at_.store(step, std::memory_order_relaxed);
    torn_seen_.store(0, std::memory_order_relaxed);
    torn_armed_.store(true, std::memory_order_relaxed);
  }

  /// Disarm the torn counter; point_torn() only counts.
  void disarm_torn() {
    torn_armed_.store(false, std::memory_order_relaxed);
    torn_seen_.store(0, std::memory_order_relaxed);
  }

  /// Torn-write marker.  Returns true when the armed torn step is hit; the
  /// caller tears its in-flight write and then throws CrashException.
  [[nodiscard]] bool point_torn() {
    const std::uint64_t n = torn_seen_.load(std::memory_order_relaxed) + 1;
    torn_seen_.store(n, std::memory_order_relaxed);
    return torn_armed_.load(std::memory_order_relaxed) &&
           n == torn_fire_at_.load(std::memory_order_relaxed);
  }

  /// Number of torn points passed since the last arm_torn()/disarm_torn().
  [[nodiscard]] std::uint64_t torn_steps_seen() const {
    return torn_seen_.load(std::memory_order_relaxed);
  }

  /// Whether the torn counter is armed.
  [[nodiscard]] bool torn_armed() const {
    return torn_armed_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> armed_ = false;
  std::atomic<std::uint64_t> fire_at_ = 0;
  std::atomic<std::uint64_t> seen_ = 0;
  std::atomic<bool> torn_armed_ = false;
  std::atomic<std::uint64_t> torn_fire_at_ = 0;
  std::atomic<std::uint64_t> torn_seen_ = 0;
};

}  // namespace tinca::nvm
