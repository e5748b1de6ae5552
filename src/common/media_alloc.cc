#include "common/media_alloc.h"

#include <cstdlib>
#include <new>

#include <sys/mman.h>

namespace tinca {

void* media_allocate(std::size_t bytes) {
  if (bytes < kHugePageBytes) return ::operator new(bytes);
  const std::size_t rounded =
      (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
  void* p = std::aligned_alloc(kHugePageBytes, rounded);
  if (p == nullptr) throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
  ::madvise(p, rounded, MADV_HUGEPAGE);  // advisory: failure keeps 4 KB pages
#endif
  return p;
}

void media_deallocate(void* p, std::size_t bytes) noexcept {
  if (bytes < kHugePageBytes) {
    ::operator delete(p);
  } else {
    std::free(p);
  }
}

}  // namespace tinca
