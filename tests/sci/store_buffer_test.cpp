// The posted-store buffer: each landing copies exactly its own snapshot,
// whatever order stores land in, across ring wrap-around and growth.
#include "sci/store_buffer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace scimpi::sci {
namespace {

/// Post `len` bytes of value `v` for a store to `dst`.
std::uint64_t post_fill(StoreBuffer& b, std::byte* dst, std::size_t len, int v) {
    const std::uint64_t id = b.post(dst, len, v);
    std::memset(b.data(id), v, len);
    return id;
}

bool all_equal(const std::byte* p, std::size_t len, int v) {
    for (std::size_t i = 0; i < len; ++i)
        if (p[i] != static_cast<std::byte>(v)) return false;
    return true;
}

TEST(StoreBuffer, LandingCopiesItsOwnStoreInAnyOrder) {
    StoreBuffer b;
    std::vector<std::byte> mem(3 * 64);
    const auto a = post_fill(b, mem.data(), 64, 1);
    const auto m = post_fill(b, mem.data() + 64, 64, 2);
    const auto z = post_fill(b, mem.data() + 128, 64, 3);
    EXPECT_EQ(b.land(m), 2);
    EXPECT_TRUE(all_equal(mem.data() + 64, 64, 2));
    EXPECT_TRUE(all_equal(mem.data(), 64, 0));
    EXPECT_EQ(b.land(z), 3);
    EXPECT_EQ(b.land(a), 1);
    EXPECT_TRUE(all_equal(mem.data(), 64, 1));
    EXPECT_TRUE(all_equal(mem.data() + 128, 64, 3));
    EXPECT_EQ(b.in_flight(), 0u);
    EXPECT_THROW(b.land(a), Panic);
}

TEST(StoreBuffer, SteadyStreamReusesTheRingWithoutGrowing) {
    StoreBuffer b;
    std::vector<std::byte> mem(1000);
    // Two stores in flight at a time, landing oldest first: the ring wraps
    // round and round at its first size.
    std::uint64_t prev = post_fill(b, mem.data(), 1000, 0);
    const std::size_t cap = b.capacity();
    for (int i = 1; i < 200; ++i) {
        const std::uint64_t id = post_fill(b, mem.data(), 1000, i & 0xff);
        b.land(prev);
        EXPECT_TRUE(all_equal(mem.data(), 1000, (i - 1) & 0xff));
        prev = id;
    }
    EXPECT_EQ(b.capacity(), cap);
}

TEST(StoreBuffer, GrowthKeepsInFlightSnapshots) {
    StoreBuffer b;
    std::vector<std::byte> mem(64 * 1024);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 16; ++i)
        ids.push_back(post_fill(b, mem.data() + i * 4096, 4096, i + 1));
    EXPECT_GE(b.capacity(), 16u * 4096u);
    for (int i = 15; i >= 0; --i) b.land(ids[static_cast<std::size_t>(i)]);
    for (int i = 0; i < 16; ++i) EXPECT_TRUE(all_equal(mem.data() + i * 4096, 4096, i + 1));
}

TEST(StoreBuffer, RandomPostsAndLandingsMatchAReferenceCopy) {
    StoreBuffer b;
    Rng rng(2024);
    constexpr std::size_t kSlots = 32;
    constexpr std::size_t kMax = 3000;
    std::vector<std::byte> mem(kSlots * kMax);
    struct Live {
        std::uint64_t id;
        std::size_t slot, len;
        int v;
    };
    std::vector<Live> live;
    std::vector<char> busy(kSlots, 0);
    for (int step = 0; step < 20'000; ++step) {
        const bool post = live.empty() || (live.size() < kSlots && rng.chance(0.5));
        if (post) {
            std::size_t slot = rng.below(kSlots);
            while (busy[slot] != 0) slot = (slot + 1) % kSlots;
            busy[slot] = 1;
            const std::size_t len = 1 + rng.below(kMax);
            const int v = 1 + static_cast<int>(rng.below(255));
            live.push_back({post_fill(b, mem.data() + slot * kMax, len, v), slot, len, v});
        } else {
            const std::size_t k = rng.below(live.size());
            const Live s = live[k];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
            EXPECT_EQ(b.land(s.id), s.v);
            ASSERT_TRUE(all_equal(mem.data() + s.slot * kMax, s.len, s.v)) << "step " << step;
            busy[s.slot] = 0;
        }
        ASSERT_EQ(b.in_flight(), live.size());
    }
}

}  // namespace
}  // namespace scimpi::sci
