#include "counting_allocator.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// The nothrow forms are replaced too: libstdc++'s temporary buffers (under
// std::stable_sort and std::inplace_merge) come from them and go back
// through the plain delete, so leaving them to the runtime would both miss
// that memory and, under ASan, pair the runtime's new with this free().
// The over-aligned forms stay the runtime's own, new and delete alike.

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

std::uint64_t solsched::test::allocation_count() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) { return or_throw(counted_malloc(size)); }
void* operator new[](std::size_t size) {
  return or_throw(counted_malloc(size));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
