#include "mpi/datatype/datatype.hpp"

#include <gtest/gtest.h>

#include <array>

namespace scimpi::mpi {
namespace {

TEST(Datatype, BasicTypesHaveNaturalSizes) {
    EXPECT_EQ(Datatype::byte_().size(), 1u);
    EXPECT_EQ(Datatype::char_().size(), 1u);
    EXPECT_EQ(Datatype::int32().size(), 4u);
    EXPECT_EQ(Datatype::int64().size(), 8u);
    EXPECT_EQ(Datatype::float32().size(), 4u);
    EXPECT_EQ(Datatype::float64().size(), 8u);
    EXPECT_TRUE(Datatype::float64().is_contiguous());
    EXPECT_EQ(Datatype::float64().extent(), 8);
    EXPECT_EQ(Datatype::float64().depth(), 1);
}

TEST(Datatype, ContiguousAggregates) {
    const auto t = Datatype::contiguous(10, Datatype::int32());
    EXPECT_EQ(t.size(), 40u);
    EXPECT_EQ(t.extent(), 40);
    EXPECT_TRUE(t.is_contiguous());
    EXPECT_EQ(t.blocks_per_item(), 10);
    EXPECT_EQ(t.depth(), 2);
}

TEST(Datatype, VectorLayout) {
    // 4 blocks of 2 doubles, stride 3 doubles: |dd.|dd.|dd.|dd|
    const auto t = Datatype::vector(4, 2, 3, Datatype::float64());
    EXPECT_EQ(t.size(), 4u * 2 * 8);
    EXPECT_EQ(t.extent(), 3 * 8 * 3 + 2 * 8);  // 3 strides + last block
    EXPECT_FALSE(t.is_contiguous());
    EXPECT_EQ(t.lb(), 0);
}

TEST(Datatype, VectorWithDenseStrideIsContiguous) {
    const auto t = Datatype::vector(4, 2, 2, Datatype::float64());
    EXPECT_EQ(t.size(), 64u);
    EXPECT_EQ(t.extent(), 64);
    EXPECT_TRUE(t.is_contiguous());
}

TEST(Datatype, HvectorNegativeStride) {
    const auto t = Datatype::hvector(3, 1, -16, Datatype::float64());
    EXPECT_EQ(t.size(), 24u);
    EXPECT_EQ(t.lb(), -32);
    EXPECT_EQ(t.extent(), 40);  // from -32 to +8
}

TEST(Datatype, IndexedLayout) {
    const std::array<int, 3> lens{2, 1, 3};
    const std::array<int, 3> displs{0, 4, 8};
    const auto t = Datatype::indexed(lens, displs, Datatype::int32());
    EXPECT_EQ(t.size(), 24u);
    EXPECT_EQ(t.extent(), (8 + 3) * 4);
    EXPECT_EQ(t.blocks_per_item(), 6);
}

TEST(Datatype, StructLayout) {
    // struct { int32 a; char pad[4]; double b[2]; }
    const std::array<int, 2> lens{1, 2};
    const std::array<std::ptrdiff_t, 2> displs{0, 8};
    const std::array<Datatype, 2> types{Datatype::int32(), Datatype::float64()};
    const auto t = Datatype::structure(lens, displs, types);
    EXPECT_EQ(t.size(), 20u);
    EXPECT_EQ(t.extent(), 24);
    EXPECT_FALSE(t.is_contiguous());
    EXPECT_EQ(t.blocks_per_item(), 3);
}

TEST(Datatype, ResizedOverridesBounds) {
    const auto v = Datatype::vector(2, 1, 2, Datatype::int32());
    const auto t = Datatype::resized(v, -4, 32);
    EXPECT_EQ(t.size(), v.size());
    EXPECT_EQ(t.lb(), -4);
    EXPECT_EQ(t.extent(), 32);
}

TEST(Datatype, NestedTypesMultiplyCounts) {
    const auto inner = Datatype::vector(4, 1, 2, Datatype::float64());
    const auto outer = Datatype::contiguous(3, inner);
    EXPECT_EQ(outer.size(), 3u * 4 * 8);
    EXPECT_EQ(outer.blocks_per_item(), 12);
    EXPECT_EQ(outer.depth(), 3);
    EXPECT_GT(outer.traversal_steps_per_item(), outer.blocks_per_item());
}

TEST(Datatype, ForEachBlockVisitsTypeMapOrder) {
    const auto t = Datatype::vector(3, 1, 2, Datatype::float64());
    std::vector<std::pair<std::ptrdiff_t, std::size_t>> blocks;
    t.for_each_block(0, 2, [&](std::ptrdiff_t off, std::size_t len) {
        blocks.emplace_back(off, len);
    });
    // extent = 2*16+8 = 40; instance 1 starts at +40. The last block of
    // instance 0 (offset 32) is adjacent to the first of instance 1
    // (offset 40), so they coalesce into one 16-byte copy.
    const std::vector<std::pair<std::ptrdiff_t, std::size_t>> expected{
        {0, 8}, {16, 8}, {32, 16}, {56, 8}, {72, 8}};
    EXPECT_EQ(blocks, expected);
}

TEST(Datatype, ForEachBlockCoalescesContiguousRuns) {
    // 4 blocks of 16 doubles each: every block is one 128-byte copy, not 16
    // separate 8-byte visits.
    const auto t = Datatype::vector(4, 16, 32, Datatype::float64());
    std::vector<std::size_t> lens;
    t.for_each_block(0, 1, [&](std::ptrdiff_t, std::size_t len) {
        lens.push_back(len);
    });
    EXPECT_EQ(lens, (std::vector<std::size_t>{128, 128, 128, 128}));
    // A fully contiguous type collapses to a single block.
    const auto c = Datatype::contiguous(64, Datatype::int32());
    int visits = 0;
    c.for_each_block(0, 4, [&](std::ptrdiff_t off, std::size_t len) {
        EXPECT_EQ(off, 0);
        EXPECT_EQ(len, 4u * 64 * 4);
        ++visits;
    });
    EXPECT_EQ(visits, 1);
}

TEST(Datatype, CommitBuildsFlatRep) {
    auto t = Datatype::vector(8, 2, 4, Datatype::float64());
    EXPECT_FALSE(t.committed());
    t.commit();
    ASSERT_TRUE(t.committed());
    const FlatRep& f = t.flat();
    EXPECT_EQ(f.type_size, t.size());
    EXPECT_EQ(f.type_extent, t.extent());
    // Single leaf: 8 replications of a 16-byte dense block (2 doubles merge).
    ASSERT_EQ(f.leaves.size(), 1u);
    EXPECT_EQ(f.leaves[0].blocklen, 16u);
    ASSERT_EQ(f.leaves[0].stack.size(), 1u);
    EXPECT_EQ(f.leaves[0].stack[0].count, 8);
    EXPECT_EQ(f.leaves[0].stack[0].extent, 32);
}

TEST(Datatype, CommitIsIdempotent) {
    auto t = Datatype::vector(4, 1, 2, Datatype::int32());
    t.commit();
    const auto* first = &t.flat();
    t.commit();
    EXPECT_EQ(first, &t.flat());
}

TEST(Datatype, PaperFigure3VectorOfStructFlattens) {
    // Figure 3: vector of struct { int; char[5]; gaps }; Figure 5 shows the
    // flattened representation. We model: int32 at 0, 5 chars at 6,
    // extent 16 (trailing gap), vector count 3 stride 16 bytes.
    const std::array<int, 2> lens{1, 5};
    const std::array<std::ptrdiff_t, 2> displs{0, 6};
    const std::array<Datatype, 2> types{Datatype::int32(), Datatype::char_()};
    auto s = Datatype::resized(Datatype::structure(lens, displs, types), 0, 16);
    auto t = Datatype::hvector(3, 1, 16, s);
    t.commit();
    const FlatRep& f = t.flat();
    // Two leaves survive (int block, merged char block), each replicated 3x.
    ASSERT_EQ(f.leaves.size(), 2u);
    EXPECT_EQ(f.leaves[0].blocklen, 4u);
    EXPECT_EQ(f.leaves[0].first_offset, 0);
    EXPECT_EQ(f.leaves[1].blocklen, 5u);  // 5 chars merged into one block
    EXPECT_EQ(f.leaves[1].first_offset, 6);
    for (const auto& leaf : f.leaves) {
        ASSERT_EQ(leaf.stack.size(), 1u);
        EXPECT_EQ(leaf.stack[0].count, 3);
        EXPECT_EQ(leaf.stack[0].extent, 16);
    }
    EXPECT_EQ(f.max_depth, 1);
}

TEST(Datatype, MergeElidesCountOneLevels) {
    Config cfg = default_config();
    auto t = Datatype::contiguous(1, Datatype::vector(4, 1, 2, Datatype::int32()));
    t.commit(cfg);
    // The contiguous(1) level must not appear in the stack.
    ASSERT_EQ(t.flat().leaves.size(), 1u);
    EXPECT_EQ(t.flat().leaves[0].stack.size(), 1u);
}

TEST(Datatype, UnmergedStacksKeepAllLevels) {
    Config cfg = default_config();
    cfg.ff_merge_stacks = false;
    auto t = Datatype::contiguous(2, Datatype::vector(4, 2, 3, Datatype::int32()));
    t.commit(cfg);
    ASSERT_EQ(t.flat().leaves.size(), 1u);
    // contig level + vector count level + blocklen level = 3 items.
    EXPECT_EQ(t.flat().leaves[0].stack.size(), 3u);
    EXPECT_FALSE(t.flat().merged);
}

TEST(Datatype, AdjacentStructMembersFuse) {
    // struct { int32 at 0; int32 at 4 } -> one 8-byte leaf after merging.
    const std::array<int, 2> lens{1, 1};
    const std::array<std::ptrdiff_t, 2> displs{0, 4};
    const std::array<Datatype, 2> types{Datatype::int32(), Datatype::int32()};
    auto t = Datatype::structure(lens, displs, types);
    t.commit();
    ASSERT_EQ(t.flat().leaves.size(), 1u);
    EXPECT_EQ(t.flat().leaves[0].blocklen, 8u);
}

TEST(Datatype, AbuttingLeavesWithDifferentStacksStaySeparate) {
    // struct { hvector(2,1,16) of int32 at 0; hvector(3,1,16) of int32 at 4 }:
    // the second leaf starts where the first block ends, but the stacks
    // differ in count, so the leaves must not fuse.
    const std::array<int, 2> lens{1, 1};
    const std::array<std::ptrdiff_t, 2> displs{0, 4};
    const std::array<Datatype, 2> types{Datatype::hvector(2, 1, 16, Datatype::int32()),
                                        Datatype::hvector(3, 1, 16, Datatype::int32())};
    auto t = Datatype::structure(lens, displs, types);
    t.commit();
    ASSERT_EQ(t.flat().leaves.size(), 2u);
    EXPECT_EQ(t.flat().leaves[0].blocklen, 4u);
    EXPECT_EQ(t.flat().leaves[0].stack, (std::vector<FFStackItem>{{2, 16}}));
    EXPECT_EQ(t.flat().leaves[1].first_offset, 4);
    EXPECT_EQ(t.flat().leaves[1].stack, (std::vector<FFStackItem>{{3, 16}}));
}

TEST(Datatype, FullyContiguousTypeFlattensToSingleBlock) {
    auto t = Datatype::contiguous(16, Datatype::contiguous(8, Datatype::float64()));
    t.commit();
    ASSERT_EQ(t.flat().leaves.size(), 1u);
    EXPECT_EQ(t.flat().leaves[0].blocklen, 16u * 8 * 8);
    EXPECT_TRUE(t.flat().leaves[0].stack.empty());
    EXPECT_TRUE(t.flat().leaf_major_is_canonical());
}

TEST(Datatype, FingerprintDistinguishesLayouts) {
    auto a = Datatype::vector(8, 1, 2, Datatype::float64());
    auto b = Datatype::vector(8, 1, 3, Datatype::float64());
    auto a2 = Datatype::vector(8, 1, 2, Datatype::float64());
    a.commit();
    b.commit();
    a2.commit();
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.fingerprint(), a2.fingerprint());
}

TEST(Datatype, LeafMajorCanonicalDetection) {
    // Interleaved struct members: leaf-major != type-map order.
    const std::array<int, 2> lens{1, 1};
    const std::array<std::ptrdiff_t, 2> displs{0, 8};
    const std::array<Datatype, 2> types{Datatype::int32(), Datatype::int32()};
    auto interleaved =
        Datatype::hvector(4, 1, 16, Datatype::resized(Datatype::structure(lens, displs, types), 0, 16));
    interleaved.commit();
    EXPECT_FALSE(interleaved.flat().leaf_major_is_canonical());

    // Single-leaf vector: always canonical.
    auto v = Datatype::vector(4, 1, 2, Datatype::int32());
    v.commit();
    EXPECT_TRUE(v.flat().leaf_major_is_canonical());
}

TEST(Datatype, ZeroCountTypesAreEmpty) {
    auto t = Datatype::vector(0, 4, 8, Datatype::int32());
    EXPECT_EQ(t.size(), 0u);
    t.commit();
    EXPECT_TRUE(t.flat().leaves.empty());
}

TEST(Datatype, InvalidConstructionPanics) {
    EXPECT_THROW(Datatype::contiguous(-1, Datatype::int32()), Panic);
    EXPECT_THROW(Datatype::contiguous(2, Datatype{}), Panic);
    const std::array<int, 2> lens{1, 1};
    const std::array<int, 1> displs{0};
    EXPECT_THROW(Datatype::indexed(lens, displs, Datatype::int32()), Panic);
}

TEST(Datatype, DescribeMentionsStructure) {
    const auto t = Datatype::vector(4, 2, 3, Datatype::float64());
    const std::string d = t.describe();
    EXPECT_NE(d.find("hvector"), std::string::npos);
    EXPECT_NE(d.find("float64"), std::string::npos);
}

}  // namespace
}  // namespace scimpi::mpi
