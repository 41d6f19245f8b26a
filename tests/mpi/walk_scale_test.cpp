// Scale guard for the datatype walk: for_each_block must cost O(contiguous
// runs), not O(basic elements). Each case below is one run of 2^31 or more
// bytes; a walk that visits every element takes tens of seconds and trips
// this test's ctest timeout.
#include <gtest/gtest.h>

#include <climits>
#include <cstddef>

#include "mpi/datatype/datatype.hpp"

namespace scimpi::mpi {
namespace {

int callbacks(const Datatype& t, int count, std::size_t expect_len) {
    int calls = 0;
    t.for_each_block(0, count, [&](std::ptrdiff_t off, std::size_t len) {
        EXPECT_EQ(off, 0);
        EXPECT_EQ(len, expect_len);
        ++calls;
    });
    return calls;
}

TEST(WalkScale, NestedContiguousIsOneCallback) {
    const auto t = Datatype::contiguous(1 << 20, Datatype::contiguous(1 << 13, Datatype::byte_()));
    EXPECT_EQ(callbacks(t, 1, std::size_t{1} << 33), 1);
}

TEST(WalkScale, ManyBasicInstancesAreOneCallback) {
    EXPECT_EQ(callbacks(Datatype::byte_(), INT_MAX, static_cast<std::size_t>(INT_MAX)), 1);
}

}  // namespace
}  // namespace scimpi::mpi
