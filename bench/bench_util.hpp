// Heap-allocation counting for the zero-allocation steady-state check
// (`bench_matching_compute --alloc-check`).
//
// The counter itself lives here; the replacement operator new/delete pair is
// compiled only into binaries that define XDRS_BENCH_ALLOC_COUNTER before
// including this header (replacement allocation functions must have exactly
// one definition per program).
#ifndef XDRS_BENCH_BENCH_UTIL_HPP
#define XDRS_BENCH_BENCH_UTIL_HPP

#include <atomic>
#include <cstdint>

namespace xdrs::bench {

inline std::atomic<std::uint64_t> g_heap_allocs{0};

[[nodiscard]] inline std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace xdrs::bench

#ifdef XDRS_BENCH_ALLOC_COUNTER
#include <cstdlib>
#include <new>

// GCC pairs new/delete expressions it inlines against these replacements and
// misreports malloc/free as mismatched; the pairing below is uniform
// (malloc or aligned_alloc in, free out), so silence that check here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  xdrs::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  xdrs::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& nt) noexcept {
  return ::operator new(size, nt);
}

// Over-aligned allocations (SIMD workspaces and the like) must count too,
// or they would slip past the zero-allocation gate unnoticed.
void* operator new(std::size_t size, std::align_val_t align) {
  xdrs::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // XDRS_BENCH_ALLOC_COUNTER

#endif  // XDRS_BENCH_BENCH_UTIL_HPP
