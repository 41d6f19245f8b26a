#include "mem/node_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>

#include "common/units.hpp"

namespace scimpi::mem {
namespace {

TEST(NodeMemory, AllocateGivesWritableSpanInsideArena) {
    NodeMemory nm(0, 64_KiB);
    auto r = nm.allocate(256);
    ASSERT_TRUE(r);
    std::memset(r.value().data(), 0xAB, r.value().size());
    EXPECT_TRUE(nm.contains(r.value().data()));
    EXPECT_TRUE(nm.contains(r.value().data() + 255));
}

TEST(NodeMemory, ContainsRejectsForeignPointers) {
    NodeMemory nm(0, 4_KiB);
    int local = 0;
    EXPECT_FALSE(nm.contains(&local));
    NodeMemory other(1, 4_KiB);
    auto r = other.allocate(16);
    ASSERT_TRUE(r);
    EXPECT_FALSE(nm.contains(r.value().data()));
}

TEST(NodeMemory, OffsetOfMatchesBase) {
    NodeMemory nm(3, 4_KiB);
    auto r = nm.allocate(128, 64);
    ASSERT_TRUE(r);
    EXPECT_EQ(nm.base() + nm.offset_of(r.value().data()), r.value().data());
}

TEST(NodeMemory, FreeReturnsCapacity) {
    NodeMemory nm(0, 1_KiB);
    auto r = nm.allocate(512);
    ASSERT_TRUE(r);
    EXPECT_TRUE(nm.free(r.value()));
    EXPECT_EQ(nm.bytes_in_use(), 0u);
    // full capacity usable again
    EXPECT_TRUE(nm.allocate(1000, 1));
}

TEST(NodeMemory, FreeForeignRegionRejected) {
    NodeMemory nm(0, 1_KiB);
    std::vector<std::byte> foreign(64);
    EXPECT_EQ(nm.free({foreign.data(), foreign.size()}).code(), Errc::invalid_argument);
}

TEST(NodeMemory, ExhaustionSurfacesAsOutOfMemory) {
    NodeMemory nm(0, 256);
    EXPECT_EQ(nm.allocate(4_KiB).status().code(), Errc::out_of_memory);
}

TEST(NodeMemory, FreshRegionsReadAsZero) {
    // The arena's untouched pages must read as zero, as the value-initialised
    // buffer it replaced did.
    NodeMemory nm(0, 4_MiB);
    for (const std::size_t bytes : {std::size_t{1}, std::size_t{4096}, std::size_t{3} << 20}) {
        auto r = nm.allocate(bytes, 64);
        ASSERT_TRUE(r);
        const std::span<std::byte> s = r.value();
        EXPECT_TRUE(std::all_of(s.begin(), s.end(), [](std::byte b) { return b == std::byte{0}; }))
            << bytes << "-byte region";
    }
}

TEST(NodeMemory, GigabyteArenaConstructsWithoutTouchingIt) {
    // Best of a few tries, so one preempted construction cannot fail it.
    auto best = std::chrono::nanoseconds::max();
    for (int i = 0; i < 5; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const NodeMemory nm(0, 1_GiB);
        best = std::min(best, std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - t0));
        EXPECT_EQ(nm.capacity(), 1_GiB);
    }
    EXPECT_LT(best, std::chrono::microseconds(200));
}

TEST(NodeMemory, UnmappableArenaPanicsNamingTheNode) {
    // Far beyond any host's address space: the mapping itself fails.
    try {
        const NodeMemory nm(7, std::size_t{1} << 62);
        FAIL() << "expected Panic";
    } catch (const Panic& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("node 7"), std::string::npos) << what;
        EXPECT_NE(what.find("arena"), std::string::npos) << what;
    }
}

}  // namespace
}  // namespace scimpi::mem
