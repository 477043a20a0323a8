// Counting global operator new: common.heap_allocs_per_frame reads it. The
// benchmark is single-threaded, so a plain counter suffices.
#include <cstdlib>
#include <new>

#include "trace.hpp"

namespace {
std::uint64_t g_allocs = 0;
}

namespace tcplp::bm {
std::uint64_t allocCount() { return g_allocs; }
}  // namespace tcplp::bm

void* operator new(std::size_t n) {
    ++g_allocs;
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
    ++g_allocs;
    if (void* p = std::malloc(n != 0 ? n : 1)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
