// The counting operator new of counting_new.h. It lives in its own
// translation unit: with the replacement inlined beside its callers, GCC
// pairs the malloc inside it with a sized delete it can see and warns
// (-Wmismatched-new-delete), although new and delete here always match.

#include "bench/counting_new.h"

#include <atomic>
#include <cstdlib>

namespace {
std::atomic<uint64_t> g_alloc_count{0};

void* CountedMalloc(size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  std::abort();
}
}  // namespace

namespace scio {
uint64_t HeapAllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }
}  // namespace scio

void* operator new(size_t size) { return CountedMalloc(size); }
void* operator new[](size_t size) { return CountedMalloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
