// Unit tests for the gather fast paths of the adapter: PIO write_gather
// (direct_pack_ff's transport), chained-descriptor DMA gathers, and the
// stream-cost helper used for control payloads.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "sci_fixture.hpp"

namespace scimpi::sci {
namespace {

using testing::MiniCluster;

struct GatherFixture : MiniCluster {
    GatherFixture() : MiniCluster(2) {
        seg = export_segment(1, 1_MiB);
        src.resize(256_KiB);
        for (std::size_t i = 0; i < src.size(); ++i)
            src[i] = static_cast<std::byte>(i * 7 & 0xff);
    }
    SegmentId seg;
    std::vector<std::byte> src;
};

TEST(WriteGather, AssemblesBlocksContiguouslyAfterBarrier) {
    GatherFixture c;
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, c.seg);
        // Three blocks from scattered source positions.
        const std::vector<SciAdapter::ConstIovec> blocks{
            {c.src.data() + 1000, 64},
            {c.src.data() + 5000, 128},
            {c.src.data() + 9000, 32},
        };
        ASSERT_TRUE(c.adapters[0]->write_gather(p, map, 64, blocks));
        c.adapters[0]->store_barrier(p);
        EXPECT_EQ(std::memcmp(map.mem.data() + 64, c.src.data() + 1000, 64), 0);
        EXPECT_EQ(std::memcmp(map.mem.data() + 128, c.src.data() + 5000, 128), 0);
        EXPECT_EQ(std::memcmp(map.mem.data() + 256, c.src.data() + 9000, 32), 0);
    });
    c.engine.run();
}

TEST(WriteGather, LargeBlocksApproachContiguousWriteCost) {
    GatherFixture c;
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, c.seg);
        // One 128 KiB contiguous write...
        SimTime t0 = p.now();
        ASSERT_TRUE(c.adapters[0]->write(p, map, 0, c.src.data(), 128_KiB, 128_KiB));
        const SimTime contig = p.now() - t0;
        // ...vs the same payload as 16 gathered 8 KiB blocks.
        std::vector<SciAdapter::ConstIovec> blocks;
        for (int i = 0; i < 16; ++i)
            blocks.push_back({c.src.data() + static_cast<std::size_t>(i) * 16_KiB, 8_KiB});
        t0 = p.now();
        ASSERT_TRUE(c.adapters[0]->write_gather(p, map, 256_KiB, blocks, 128_KiB));
        const SimTime gathered = p.now() - t0;
        EXPECT_LT(gathered, contig * 1.2);
        EXPECT_GE(gathered, contig);  // never cheaper than one straight write
    });
    c.engine.run();
}

TEST(WriteGather, TinyBlocksPayGatherTimeouts) {
    GatherFixture c;
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, c.seg);
        std::vector<SciAdapter::ConstIovec> blocks;
        for (int i = 0; i < 512; ++i)
            blocks.push_back({c.src.data() + static_cast<std::size_t>(i) * 16, 8});
        ASSERT_TRUE(c.adapters[0]->write_gather(p, map, 0, blocks));
    });
    c.engine.run();
    EXPECT_GT(c.metrics.value("sci.gather_timeouts", 0), 400u);
}

TEST(WriteGather, EqualLengthRunsChargeEveryBlockAndKeepTheStreamArmed) {
    // Blocks after the first continue the stream, in runs of equal lengths.
    // Each block pays its own gather timeout, and the stream ends armed at
    // the gather's end, so the next gather continues it with no restart.
    GatherFixture c;
    const std::size_t tiny = c.fabric.params().wc_gather_min / 2;
    const std::size_t big = c.fabric.params().wc_gather_min * 2;
    std::vector<SciAdapter::ConstIovec> blocks;
    std::size_t tiny_blocks = 0;
    std::size_t total = 0;
    for (int run = 0; run < 8; ++run) {
        const std::size_t len = run % 2 == 0 ? tiny : big;
        for (int i = 0; i < 5; ++i) {
            blocks.push_back({c.src.data() + 64 * blocks.size(), len});
            tiny_blocks += len == tiny ? 1 : 0;
            total += len;
        }
    }
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, c.seg);
        ASSERT_TRUE(c.adapters[0]->write_gather(p, map, 0, blocks));
        ASSERT_TRUE(c.adapters[0]->write_gather(p, map, total, blocks));
        c.adapters[0]->store_barrier(p);
        std::size_t at = 0;
        for (const auto& b : blocks) {
            EXPECT_EQ(std::memcmp(map.mem.data() + at, b.ptr, b.len), 0);
            EXPECT_EQ(std::memcmp(map.mem.data() + total + at, b.ptr, b.len), 0);
            at += b.len;
        }
    });
    c.engine.run();
    // Only the first block of all jumps.
    EXPECT_EQ(c.metrics.value("sci.stream_restarts", 0), 1u);
    // Every tiny block but that first one is a continuation.
    EXPECT_EQ(c.metrics.value("sci.gather_timeouts", 0), 2 * tiny_blocks - 1);
}

TEST(WriteGather, EmptyBlockListIsFree) {
    GatherFixture c;
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, c.seg);
        const SimTime t0 = p.now();
        ASSERT_TRUE(c.adapters[0]->write_gather(p, map, 0, {}));
        EXPECT_EQ(p.now(), t0);
    });
    c.engine.run();
}

TEST(DmaGather, DeliversAndChargesPerDescriptor) {
    GatherFixture c;
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, c.seg);
        auto run = [&](std::size_t nblocks, std::size_t block) {
            std::vector<SciAdapter::ConstIovec> blocks;
            for (std::size_t i = 0; i < nblocks; ++i)
                blocks.push_back({c.src.data() + i * block * 2, block});
            const SimTime t0 = p.now();
            EXPECT_TRUE(c.adapters[0]->dma_write_gather(p, map, 0, blocks));
            return p.now() - t0;
        };
        // Same payload, 4x the descriptors: the difference is descriptor cost.
        const SimTime few = run(8, 8_KiB);
        const SimTime many = run(32, 2_KiB);
        const SimTime desc = c.fabric.params().dma_desc_cost;
        EXPECT_NEAR(static_cast<double>(many - few), static_cast<double>(24 * desc),
                    static_cast<double>(desc));
        // Data landed (DMA delivers synchronously at completion).
        EXPECT_EQ(std::memcmp(map.mem.data(), c.src.data(), 2_KiB), 0);
    });
    c.engine.run();
}

TEST(PioStreamCost, MonotoneAndFeedLimited) {
    GatherFixture c;
    const auto& a = *c.adapters[0];
    SimTime prev = 0;
    for (std::size_t len = 64; len <= 1_MiB; len *= 4) {
        const SimTime t = a.pio_stream_cost(len);
        EXPECT_GT(t, prev);
        prev = t;
    }
    // Source traffic above L2 throttles to the memory feed limit.
    const SimTime cached = a.pio_stream_cost(64_KiB, 64_KiB);
    const SimTime wasted = a.pio_stream_cost(64_KiB, 4_MiB);
    EXPECT_GT(wasted, cached);
}

TEST(ProbePeer, RoundTripCostAndTimeout) {
    GatherFixture c;
    c.engine.spawn("p", [&](sim::Process& p) {
        SimTime t0 = p.now();
        EXPECT_TRUE(c.adapters[0]->probe_peer(p, 1));
        const SimTime ok_cost = p.now() - t0;
        EXPECT_NEAR(static_cast<double>(ok_cost),
                    static_cast<double>(c.fabric.params().read_latency), 100.0);

        c.fabric.set_link_up(0, false);
        t0 = p.now();
        EXPECT_FALSE(c.adapters[0]->probe_peer(p, 1));
        const SimTime timeout_cost = p.now() - t0;
        EXPECT_GT(timeout_cost, ok_cost);  // failed probes take the full timeout
    });
    c.engine.run();
}

}  // namespace
}  // namespace scimpi::sci
