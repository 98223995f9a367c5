// Counts every global operator new in a test binary, so a test can assert
// that a code path allocates nothing, or no block of kLargeAlloc bytes or
// more.  Every non-aligned new/delete form is replaced, so sanitizers see
// one consistent malloc/free pairing.  Replacement functions are defined
// here, so include this header from exactly one file per test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

constexpr std::size_t kLargeAlloc = 4096;
std::atomic<std::int64_t> g_heap_allocs{0};
std::atomic<std::int64_t> g_large_heap_allocs{0};

void* counted_alloc(std::size_t size) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size >= kLargeAlloc) {
    g_large_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line, so the compiler never pairs an inlined `new` with a bare
// free() and warns about a mismatch that the replacement makes benign.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
