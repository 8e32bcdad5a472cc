#include "hooks.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

thread_local int64_t t_allocs = 0;
std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  ++t_allocs;
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

int64_t ThreadAllocs() { return t_allocs; }

void SetGlobalAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

int64_t GlobalAllocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
