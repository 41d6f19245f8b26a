// Scale guards for the datatype walks, under this test's ctest timeout:
//   * for_each_block must cost O(contiguous runs), not O(basic elements).
//     The first two cases are one run of 2^31 or more bytes; a walk that
//     visits every element takes tens of seconds.
//   * FFPacker setup must be O(1) and find_position O(log leaves): the last
//     case packs one block at the end of a 2^20-leaf type 10^4 times, which
//     an O(leaves) packer setup or leaf scan turns into tens of seconds.
#include <gtest/gtest.h>

#include <climits>
#include <cstddef>
#include <cstring>
#include <vector>

#include "mpi/datatype/pack_ff.hpp"

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

TEST(WalkScale, FFPackAtLastOfManyLeavesIsSublinear) {
    constexpr int kBlocks = 1 << 20;
    std::vector<int> lens(kBlocks, 1);
    std::vector<int> displs(kBlocks);
    for (int i = 0; i < kBlocks; ++i) displs[i] = 2 * i;  // gaps: no leaf fuses
    Datatype t = Datatype::indexed(lens, displs, Datatype::float64());
    t.commit();
    ASSERT_EQ(t.flat().leaves.size(), static_cast<std::size_t>(kBlocks));
    std::vector<std::byte> buf(static_cast<std::size_t>(t.extent()));
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::byte>(i * 131);
    std::byte out[8] = {};
    for (int i = 0; i < 10'000; ++i) {
        const FFPacker p(t, 1, buf.data());
        const PackWork w = p.pack(t.size() - 8, 8, out);
        ASSERT_EQ(w.blocks, 1);
    }
    EXPECT_EQ(std::memcmp(out, buf.data() + buf.size() - 8, 8), 0);
}

}  // namespace
}  // namespace scimpi::mpi
