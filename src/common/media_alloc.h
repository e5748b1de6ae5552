// Storage for simulated media: NVM images and disk slabs on 2 MB pages.
//
// The paper's NVM is an NVDIMM reached through the kernel's large-page
// direct map (§5.1).  The emulation keeps tens of megabytes of simulated
// media per device and touches it at random; on 4 KB pages almost every
// line copy into the persistent image or a disk block misses the TLB, and
// that host cost lands in every perfbench latency although the model never
// charges it.  MediaAllocator gives large requests 2 MB-aligned storage
// advised for transparent huge pages; small ones stay plain heap memory.
//
// The advice only changes which pages back the bytes, never their values,
// so every modeled number is unaffected.  Without MADV_HUGEPAGE (or with
// THP disabled) the storage is simply 2 MB-aligned heap memory.
#pragma once

#include <cstddef>
#include <vector>

namespace tinca {

/// Huge-page size the media storage is aligned to and advised for.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Allocate `bytes` of uninitialized media storage.  Requests of at least
/// kHugePageBytes are 2 MB-aligned and advised for huge pages.  Throws
/// std::bad_alloc when out of memory.
void* media_allocate(std::size_t bytes);

/// Release storage from media_allocate(`bytes`).
void media_deallocate(void* p, std::size_t bytes) noexcept;

/// std::allocator-compatible front end of media_allocate.
template <class T>
struct MediaAllocator {
  using value_type = T;

  MediaAllocator() = default;
  template <class U>
  MediaAllocator(const MediaAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(media_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    media_deallocate(p, n * sizeof(T));
  }

  template <class U>
  bool operator==(const MediaAllocator<U>&) const noexcept {
    return true;
  }
};

/// Vector whose storage comes from MediaAllocator.
template <class T>
using MediaVector = std::vector<T, MediaAllocator<T>>;

}  // namespace tinca
