// Counts every heap allocation in the process, so the benchmark can report
// allocations per batch for the measured detection and serving windows.

#include <atomic>
#include <cstdlib>
#include <new>

#include "common.hh"

namespace
{
std::atomic<std::size_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

// util::AlignedAllocator (packed weight panels, im2col scratch) allocates
// through the over-aligned forms.
void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    // aligned_alloc wants a nonzero size that is a multiple of the
    // alignment.
    const auto a = static_cast<std::size_t>(al);
    const std::size_t size = n ? (n + a - 1) / a * a : a;
    if (void *p = std::aligned_alloc(a, size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

std::size_t
e2e::allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}
