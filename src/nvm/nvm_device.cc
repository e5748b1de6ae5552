#include "nvm/nvm_device.h"

#include <cstring>

#include "common/expect.h"

namespace tinca::nvm {

NvmDevice::NvmDevice(std::size_t size, NvmProfile profile, sim::SimClock& clock)
    : injector(injector_storage_),
      root_(this),
      base_(0),
      span_(size),
      profile_(std::move(profile)),
      clock_(clock),
      volatile_(size),
      persistent_(size),
      dirty_(size / kLineSize, 0),
      line_writes_(size / kLineSize, 0) {
  TINCA_EXPECT(size > 0 && size % kLineSize == 0,
               "NVM size must be a positive multiple of the line size");
}

NvmDevice::NvmDevice(NvmDevice& parent, std::uint64_t base, std::size_t bytes,
                     sim::SimClock& clock)
    : injector(parent.injector),
      root_(parent.root_),
      base_(parent.base_ + base),
      span_(bytes),
      profile_(parent.profile_),
      clock_(clock) {
  TINCA_EXPECT(bytes > 0 && bytes % kLineSize == 0,
               "view size must be a positive multiple of the line size");
  TINCA_EXPECT(base % kLineSize == 0, "view base must be line-aligned");
  TINCA_EXPECT(base + bytes <= parent.span_, "view exceeds parent range");
}

void NvmDevice::mark_dirty(std::size_t first, std::size_t last) {
  // Lines are never shared between concurrently driven views (partitions are
  // line-aligned), so the flags themselves need no synchronization; only the
  // device-wide count does, and it takes one update per call.
  std::size_t newly = 0;
  for (std::size_t line = first; line <= last; ++line) {
    if (!root_->dirty_[line]) {
      root_->dirty_[line] = 1;
      ++newly;
    }
  }
  if (newly > 0)
    root_->dirty_count_.fetch_add(newly, std::memory_order_relaxed);
}

void NvmDevice::store(std::uint64_t off, std::span<const std::byte> src) {
  TINCA_EXPECT(!src.empty(), "store of zero bytes");
  TINCA_EXPECT(off + src.size() <= span_, "store out of range");
  const std::uint64_t abs = base_ + off;
  if (injector.point_torn()) {
    // Power cut mid-store: only a prefix of the bytes made it into the CPU
    // cache.  Apply that prefix (marking its lines dirty so crash() applies
    // the usual per-line survival lottery) and die.
    const std::size_t keep = src.size() / 2;
    if (keep > 0) {
      std::memcpy(root_->volatile_.data() + abs, src.data(), keep);
      mark_dirty(abs / kLineSize, (abs + keep - 1) / kLineSize);
    }
    throw CrashException();
  }
  std::memcpy(root_->volatile_.data() + abs, src.data(), src.size());
  const std::size_t first = abs / kLineSize;
  const std::size_t last = (abs + src.size() - 1) / kLineSize;
  mark_dirty(first, last);
  ++stats_.stores;
  stats_.bytes_stored += src.size();
  // Store into the CPU cache: charged at DRAM-bus cost per line touched.
  clock_.advance((last - first + 1) * profile_.base_line_ns);
}

void NvmDevice::load(std::uint64_t off, std::span<std::byte> dst) const {
  const std::span<const std::byte> src = read_view(off, dst.size());
  std::memcpy(dst.data(), src.data(), src.size());
}

std::span<const std::byte> NvmDevice::read_view(std::uint64_t off,
                                                std::size_t len) const {
  TINCA_EXPECT(off + len <= span_, "load out of range");
  const std::size_t lines = (len + kLineSize - 1) / kLineSize;
  auto& self = const_cast<NvmDevice&>(*this);
  self.stats_.lines_loaded += lines;
  self.clock_.advance(lines * profile_.line_read_cost());
  return {root_->volatile_.data() + base_ + off, len};
}

void NvmDevice::load_nocharge(std::uint64_t off, std::span<std::byte> dst) const {
  TINCA_EXPECT(off + dst.size() <= span_, "load out of range");
  std::memcpy(dst.data(), root_->volatile_.data() + base_ + off, dst.size());
}

void NvmDevice::clflush(std::uint64_t off, std::size_t len) {
  TINCA_EXPECT(len > 0 && off + len <= span_, "clflush out of range");
  const std::uint64_t abs = base_ + off;
  const std::size_t first = abs / kLineSize;
  const std::size_t last = (abs + len - 1) / kLineSize;
  std::size_t flushed = 0;
  for (std::size_t line = first; line <= last; ++line) {
    if (!root_->dirty_[line]) continue;
    std::memcpy(root_->persistent_.data() + line * kLineSize,
                root_->volatile_.data() + line * kLineSize, kLineSize);
    root_->dirty_[line] = 0;
    ++root_->line_writes_[line];
    ++flushed;
  }
  if (flushed > 0)
    root_->dirty_count_.fetch_sub(flushed, std::memory_order_relaxed);
  const std::size_t lines = last - first + 1;
  stats_.clflush += lines;
  // A flushed line costs the media write; clflush of a clean line still
  // costs the instruction.
  clock_.advance(flushed * profile_.line_flush_cost() +
                 (lines - flushed) * profile_.clflush_ns);
}

void NvmDevice::sfence() {
  ++stats_.sfence;
  clock_.advance(profile_.sfence_ns);
}

void NvmDevice::atomic_store8(std::uint64_t off, std::uint64_t value) {
  TINCA_EXPECT(off % 8 == 0, "atomic_store8 requires 8-byte alignment");
  TINCA_EXPECT(off + 8 <= span_, "atomic_store8 out of range");
  const std::uint64_t abs = base_ + off;
  std::memcpy(root_->volatile_.data() + abs, &value, 8);
  mark_dirty(abs / kLineSize, abs / kLineSize);
  ++stats_.atomic8;
  stats_.bytes_stored += 8;
  clock_.advance(profile_.base_line_ns);
}

void NvmDevice::atomic_store16(std::uint64_t off,
                               std::span<const std::byte, 16> value) {
  TINCA_EXPECT(off % 16 == 0, "atomic_store16 requires 16-byte alignment");
  TINCA_EXPECT(off + 16 <= span_, "atomic_store16 out of range");
  const std::uint64_t abs = base_ + off;
  std::memcpy(root_->volatile_.data() + abs, value.data(), 16);
  mark_dirty(abs / kLineSize, abs / kLineSize);
  ++stats_.atomic16;
  stats_.bytes_stored += 16;
  // LOCK cmpxchg16b is pricier than a plain store.
  clock_.advance(profile_.base_line_ns + 20);
}

std::uint64_t NvmDevice::load8(std::uint64_t off) const {
  TINCA_EXPECT(off % 8 == 0, "load8 requires 8-byte alignment");
  TINCA_EXPECT(off + 8 <= span_, "load8 out of range");
  std::uint64_t value = 0;
  std::memcpy(&value, root_->volatile_.data() + base_ + off, 8);
  auto& self = const_cast<NvmDevice&>(*this);
  ++self.stats_.lines_loaded;
  self.clock_.advance(profile_.line_read_cost());
  return value;
}

void NvmDevice::crash(Rng& rng, double survive_prob) {
  TINCA_EXPECT(!is_view(), "power failure is a root-device event");
  ++stats_.crashes;
  for (std::size_t line = 0; line < dirty_.size(); ++line) {
    if (!dirty_[line]) continue;
    if (rng.chance(survive_prob)) {
      // This line happened to be written back before power was lost.
      std::memcpy(persistent_.data() + line * kLineSize,
                  volatile_.data() + line * kLineSize, kLineSize);
      ++line_writes_[line];
    }
    dirty_[line] = 0;
  }
  dirty_count_.store(0, std::memory_order_relaxed);
  volatile_ = persistent_;
}

NvmDevice::WearReport NvmDevice::wear() const {
  WearReport report;
  for (const std::uint32_t w : root_->line_writes_) {
    report.total_line_writes += w;
    if (w > report.max_line_writes) report.max_line_writes = w;
    if (w > 0) ++report.lines_touched;
  }
  report.mean_line_writes =
      root_->line_writes_.empty()
          ? 0.0
          : static_cast<double>(report.total_line_writes) /
                static_cast<double>(root_->line_writes_.size());
  return report;
}

NvmDevice::WearReport NvmDevice::wear(std::uint64_t off,
                                      std::size_t len) const {
  TINCA_EXPECT(off % kLineSize == 0 && len % kLineSize == 0,
               "wear range must be line-aligned");
  TINCA_EXPECT(off + len <= span_, "wear range out of bounds");
  WearReport report;
  const std::size_t first = (base_ + off) / kLineSize;
  const std::size_t count = len / kLineSize;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t w = root_->line_writes_[first + i];
    report.total_line_writes += w;
    if (w > report.max_line_writes) report.max_line_writes = w;
    if (w > 0) ++report.lines_touched;
  }
  report.mean_line_writes =
      count == 0 ? 0.0
                 : static_cast<double>(report.total_line_writes) /
                       static_cast<double>(count);
  return report;
}

void NvmDevice::crash_discard_all() {
  TINCA_EXPECT(!is_view(), "power failure is a root-device event");
  ++stats_.crashes;
  std::fill(dirty_.begin(), dirty_.end(), 0);
  dirty_count_.store(0, std::memory_order_relaxed);
  volatile_ = persistent_;
}

}  // namespace tinca::nvm
