/**
 * @file
 * Heap allocations inside System::run. This executable replaces the
 * global operator new with a counting one, so it is kept apart from
 * the main test binary. Once warm-up has grown every page table to the
 * profile's footprint, a cache-off System must run without touching
 * the heap. The profiling interval is longer than the run, so no
 * interval boundary (which builds per-thread profile vectors) falls
 * inside the measured window.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "trace/spec_profiles.hh"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

void *
countedAlloc(std::size_t size)
{
    if (g_counting)
        ++g_allocations;
    return std::malloc(size == 0 ? 1 : size);
}

} // namespace

// Every non-aligned form is replaced, so each pointer is allocated and
// freed by the same pair (malloc/free) under the sanitizers too. GCC
// sees free() called on what it takes for operator new's result and
// warns; here that pairing is the point.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace dbpsim {
namespace {

constexpr Cycle kWarmupCpu = 1'000'000;
constexpr Cycle kMeasureCpu = 1'000'000;

/** Allocations made by run(kMeasureCpu) after a warm-up run. */
std::uint64_t
runAllocations(const std::vector<std::string> &profiles)
{
    std::vector<std::unique_ptr<TraceSource>> sources;
    std::vector<TraceSource *> raw;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        sources.push_back(makeSpecSource(profiles[i], i + 1));
        raw.push_back(sources.back().get());
    }
    SystemParams params;
    params.numCores = static_cast<unsigned>(profiles.size());
    params.profileIntervalCpu = 10 * (kWarmupCpu + kMeasureCpu);
    System sys(params, raw);
    sys.run(kWarmupCpu);

    g_allocations = 0;
    g_counting = true;
    sys.run(kMeasureCpu);
    g_counting = false;
    return g_allocations;
}

TEST(RunAllocations, CounterSeesAllocations)
{
    g_allocations = 0;
    g_counting = true;
    auto v = std::make_unique<std::vector<int>>(16);
    g_counting = false;
    EXPECT_EQ(g_allocations, 2u);
}

TEST(RunAllocations, OneCoreRunLoopAllocatesNothing)
{
    EXPECT_EQ(runAllocations({"namd"}), 0u);
}

TEST(RunAllocations, EightCoreRunLoopAllocatesNothing)
{
    EXPECT_EQ(runAllocations({"namd", "povray", "calculix", "namd",
                              "povray", "calculix", "namd", "povray"}),
              0u);
}

} // namespace
} // namespace dbpsim
