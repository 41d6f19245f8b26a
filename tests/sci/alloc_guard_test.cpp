// Allocation guard for the posted-store event path. This binary replaces the
// global operator new with a counting one, so it runs on its own: after a
// warm-up that grows the engine's callback pool and queue and the fabric's
// store buffer to their working size, a timed callback, a remote 8-byte
// write, a 64 KiB write and a write_gather (each run until its landing has
// copied the bytes out) must not allocate at all.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "sci_fixture.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace scimpi::sci {
namespace {

using testing::MiniCluster;

/// Allocations made by `op`, run from inside a simulated process.
template <class F>
std::uint64_t allocs_of(F&& op) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    op();
    return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(AllocGuard, PostedStoreEventPathAllocatesNothingAfterWarmUp) {
    MiniCluster c(8);
    const SegmentId seg = c.export_segment(4, 256_KiB);
    std::vector<std::byte> src(64_KiB);
    for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::byte>(i * 13);
    const std::array<SciAdapter::ConstIovec, 3> blocks{{
        {src.data() + 100, 512},
        {src.data() + 4000, 1024},
        {src.data() + 9000, 256},
    }};
    // Long enough for every landing (write_latency) to have run.
    const SimTime settle = 10 * c.fabric.params().write_latency + 1000;

    struct Counts {
        std::uint64_t callback = 0, write8 = 0, write64k = 0, gather = 0;
    } got, warm;
    bool landed = false;
    c.engine.spawn("writer", [&](sim::Process& p) {
        const SciMapping map = c.import(0, seg);
        SciAdapter& a = *c.adapters[0];
        int fired = 0;
        const auto callback = [&] {
            // Larger than std::function's small-object buffer.
            const std::array<std::uint64_t, 4> args{1, 2, 3, 4};
            c.engine.after(5, [&fired, args] { fired += args[3] == 4 ? 1 : 0; });
            p.delay(10);
        };
        const auto write8 = [&] {
            ASSERT_TRUE(a.write(p, map, 64, src.data(), 8));
            p.delay(settle);
        };
        const auto write64k = [&] {
            ASSERT_TRUE(a.write(p, map, 128_KiB, src.data(), 64_KiB));
            p.delay(settle);
        };
        const auto gather = [&] {
            ASSERT_TRUE(a.write_gather(p, map, 4096, blocks));
            p.delay(settle);
        };
        for (int i = 0; i < 2; ++i) {
            warm.callback += allocs_of(callback);
            warm.write8 += allocs_of(write8);
            warm.write64k += allocs_of(write64k);
            warm.gather += allocs_of(gather);
        }
        got.callback = allocs_of(callback);
        got.write8 = allocs_of(write8);
        got.write64k = allocs_of(write64k);
        got.gather = allocs_of(gather);
        landed = fired == 3 &&
                 std::memcmp(map.mem.data() + 64, src.data(), 8) == 0 &&
                 std::memcmp(map.mem.data() + 128_KiB, src.data(), 64_KiB) == 0 &&
                 std::memcmp(map.mem.data() + 4096 + 1536, src.data() + 9000, 256) == 0;
    });
    c.engine.run();
    EXPECT_TRUE(landed);
    // The warm-up itself allocated (the guard does count).
    EXPECT_GT(warm.callback + warm.write8 + warm.write64k + warm.gather, 0u);
    EXPECT_EQ(got.callback, 0u);
    EXPECT_EQ(got.write8, 0u);
    EXPECT_EQ(got.write64k, 0u);
    EXPECT_EQ(got.gather, 0u);
}

}  // namespace
}  // namespace scimpi::sci
