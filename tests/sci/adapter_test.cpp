#include "sci/adapter.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "check/checker.hpp"
#include "sci_fixture.hpp"
#include "sim/schedule.hpp"

namespace scimpi::sci {
namespace {

using testing::MiniCluster;

std::vector<std::byte> pattern_bytes(std::size_t n, int seed = 1) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(seed)) & 0xff);
    return v;
}

TEST(Adapter, WriteDeliversBytesAfterBarrier) {
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 4_KiB);
    const auto data = pattern_bytes(1_KiB);
    c.engine.spawn("writer", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        ASSERT_TRUE(c.adapters[0]->write(p, map, 0, data.data(), data.size()));
        c.adapters[0]->store_barrier(p);
        EXPECT_EQ(std::memcmp(map.mem.data(), data.data(), data.size()), 0);
    });
    c.engine.run();
}

TEST(Adapter, StoresArePostedNotImmediate) {
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 4_KiB);
    const auto data = pattern_bytes(64);
    MiniCluster* cp = &c;
    c.engine.spawn("writer", [&, cp](sim::Process& p) {
        auto map = cp->import(0, seg);
        ASSERT_TRUE(cp->adapters[0]->write(p, map, 0, data.data(), data.size()));
        // The call returned, but the pipeline latency has not elapsed:
        // the target memory must still be zero.
        EXPECT_NE(std::memcmp(map.mem.data(), data.data(), data.size()), 0);
        p.delay(cp->fabric.params().write_latency + 1);
        EXPECT_EQ(std::memcmp(map.mem.data(), data.data(), data.size()), 0);
    });
    c.engine.run();
}

TEST(Adapter, BarrierWaitsForAllPendingStores) {
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 64_KiB);
    const auto data = pattern_bytes(8_KiB);
    c.engine.spawn("writer", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        for (int i = 0; i < 8; ++i)
            ASSERT_TRUE(c.adapters[0]->write(p, map, static_cast<std::size_t>(i) * 8_KiB,
                                             data.data(), data.size()));
        c.adapters[0]->store_barrier(p);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(std::memcmp(map.mem.data() + static_cast<std::size_t>(i) * 8_KiB,
                                  data.data(), data.size()),
                      0)
                << "chunk " << i;
    });
    c.engine.run();
    EXPECT_EQ(c.metrics.value("sci.store_barriers", 0), 1u);
}

/// At the first dispatch choice among timed callbacks only, runs the second
/// (the later landing) first, then the observer, then the earlier landing.
struct LaterLandingFirst : sim::ScheduleController {
    int reorders = 0;
    [[nodiscard]] SimTime fuzz() const override { return 5'000; }
    std::size_t choose(const sim::ChoicePoint& cp) override {
        for (const sim::ChoiceAlt& a : cp.alts)
            if (a.proc != sim::kCallbackActor) return 0;
        if (reorders >= 2) return 0;
        ++reorders;
        return 1;  // [A, B, obs] -> B, then [A, obs] -> obs
    }
};

TEST(Adapter, CoEnabledLandingsRunOutOfOrderEachCopyingItsOwnStore) {
    MiniCluster c(2);
    LaterLandingFirst ctrl;
    c.engine.set_schedule_controller(&ctrl);
    const auto seg = c.export_segment(1, 4_KiB);
    const auto a_bytes = pattern_bytes(8, 1);
    const auto b_bytes = pattern_bytes(8, 2);
    bool observed = false, a_seen = true, b_seen = false;
    c.engine.spawn("writer", [&](sim::Process& p) {
        const SciMapping map = c.import(0, seg);
        ASSERT_TRUE(c.adapters[0]->write(p, map, 0, a_bytes.data(), 8));
        ASSERT_TRUE(c.adapters[0]->write(p, map, 256, b_bytes.data(), 8));
        // Due just after B lands: co-enabled with both landings.
        c.engine.after(c.fabric.params().write_latency + 1, [&] {
            observed = true;
            a_seen = std::memcmp(map.mem.data(), a_bytes.data(), 8) == 0;
            b_seen = std::memcmp(map.mem.data() + 256, b_bytes.data(), 8) == 0;
        });
        p.delay(100'000);
        EXPECT_EQ(std::memcmp(map.mem.data(), a_bytes.data(), 8), 0);
        EXPECT_EQ(std::memcmp(map.mem.data() + 256, b_bytes.data(), 8), 0);
        EXPECT_EQ(c.adapters[0]->pending_store_count(), 0);
    });
    c.engine.run();
    EXPECT_EQ(ctrl.reorders, 2);
    ASSERT_TRUE(observed);
    // The later store is visible first; the earlier one is still in flight.
    EXPECT_TRUE(b_seen);
    EXPECT_FALSE(a_seen);
}

TEST(Adapter, ContiguousAscendingStreamReachesBurstBandwidth) {
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 1_MiB);
    const auto data = pattern_bytes(64_KiB);
    c.engine.spawn("writer", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        const SimTime t0 = p.now();
        // 16 ascending 64 KiB writes = 1 MiB continuation stream.
        for (int i = 0; i < 16; ++i)
            ASSERT_TRUE(c.adapters[0]->write(p, map, static_cast<std::size_t>(i) * 64_KiB,
                                             data.data(), data.size()));
        const double bw = bandwidth_mib(1_MiB, p.now() - t0);
        // First ramp at strided rate, then burst: between the two rates.
        EXPECT_GT(bw, c.fabric.params().strided_burst_bw * 0.95);
        EXPECT_LT(bw, c.fabric.params().burst_bw * 1.05);
    });
    c.engine.run();
    EXPECT_EQ(c.metrics.value("sci.stream_restarts", 0), 1u);
}

TEST(Adapter, ScatteredSmallAlignedWritesLandInPaperBand) {
    // Section 4.3: 8-byte strided writes achieve 5-28 MiB/s; strides that are
    // multiples of 32 give the maximum.
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 1_MiB);
    const std::uint64_t v = 0x0123456789abcdefull;
    double aligned_bw = 0.0;
    double misaligned_bw = 0.0;
    c.engine.spawn("writer", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        auto run = [&](std::size_t stride) {
            const SimTime t0 = p.now();
            std::size_t n = 0;
            for (std::size_t off = 0; off + 8 <= 256_KiB; off += stride, ++n)
                EXPECT_TRUE(c.adapters[0]->write(p, map, off, &v, 8));
            return bandwidth_mib(n * 8, p.now() - t0);
        };
        aligned_bw = run(32);     // stride % 32 == 0: best case
        misaligned_bw = run(28);  // blocks straddle WC lines
    });
    c.engine.run();
    EXPECT_GT(aligned_bw, 15.0);
    EXPECT_LT(aligned_bw, 35.0);
    EXPECT_GT(misaligned_bw, 3.0);
    EXPECT_LT(misaligned_bw, 12.0);
    EXPECT_GT(aligned_bw, 2.0 * misaligned_bw);
}

TEST(Adapter, DisablingWriteCombiningFlattensStrideSensitivity) {
    Config cfg = default_config();
    cfg.write_combine = false;
    MiniCluster c(2, cfg);
    const auto seg = c.export_segment(1, 1_MiB);
    const std::uint64_t v = 42;
    std::vector<double> bws;
    c.engine.spawn("writer", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        for (const std::size_t stride : {16u, 28u, 32u, 40u, 64u}) {
            const SimTime t0 = p.now();
            std::size_t n = 0;
            for (std::size_t off = 0; off + 8 <= 128_KiB; off += stride, ++n)
                EXPECT_TRUE(c.adapters[0]->write(p, map, off, &v, 8));
            bws.push_back(bandwidth_mib(n * 8, p.now() - t0));
        }
    });
    c.engine.run();
    // All strides behave identically without write-combining...
    for (std::size_t i = 1; i < bws.size(); ++i) EXPECT_NEAR(bws[i], bws[0], 0.5);
    // ...at roughly half the combined peak (paper: "about 50%").
    EXPECT_LT(bws[0], c.fabric.params().uncached_bw * 1.05);
}

TEST(Adapter, TinyContinuationBlocksHitGatherTimeout) {
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 1_MiB);
    const std::uint64_t v = 7;
    c.engine.spawn("writer", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        // Ascending contiguous 8-byte stores: each is a continuation but
        // below wc_gather_min, so each flushes via the gather timeout.
        for (std::size_t off = 0; off < 8_KiB; off += 8)
            EXPECT_TRUE(c.adapters[0]->write(p, map, off, &v, 8));
    });
    c.engine.run();
    EXPECT_GT(c.metrics.value("sci.gather_timeouts", 0), 1000u);
}

TEST(Adapter, LargeSourceBuffersDipToMemoryFeedLimit) {
    // Figure 1 footnote 2: PIO bandwidth drops past 128 KiB because the
    // source no longer fits in L2.
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 2_MiB);
    double bw_small = 0.0;
    double bw_large = 0.0;
    c.engine.spawn("writer", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        const auto small = pattern_bytes(64_KiB);
        const auto large = pattern_bytes(1_MiB);
        // Warm the stream so both measure continuation behaviour. Write the
        // small buffer 4x back-to-back ascending vs the large buffer once.
        SimTime t0 = p.now();
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(c.adapters[0]->write(p, map, static_cast<std::size_t>(i) * 64_KiB,
                                             small.data(), small.size(), small.size()));
        bw_small = bandwidth_mib(256_KiB, p.now() - t0);
        t0 = p.now();
        ASSERT_TRUE(c.adapters[0]->write(p, map, 1_MiB, large.data(), large.size(),
                                         large.size()));
        bw_large = bandwidth_mib(1_MiB, p.now() - t0);
    });
    c.engine.run();
    EXPECT_GT(bw_small, bw_large);
    EXPECT_NEAR(bw_large, c.fabric.params().pio_src_mem_bw, 10.0);
}

TEST(Adapter, RemoteReadsAreMuchSlowerThanWrites) {
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 1_MiB);
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        const auto data = pattern_bytes(256_KiB);
        SimTime t0 = p.now();
        ASSERT_TRUE(c.adapters[0]->write(p, map, 0, data.data(), data.size()));
        c.adapters[0]->store_barrier(p);
        const SimTime t_write = p.now() - t0;

        std::vector<std::byte> out(256_KiB);
        t0 = p.now();
        ASSERT_TRUE(c.adapters[0]->read(p, map, 0, out.data(), out.size()));
        const SimTime t_read = p.now() - t0;

        EXPECT_GT(t_read, 2 * t_write);  // paper: "only a fraction"
        EXPECT_EQ(out, data);
    });
    c.engine.run();
}

TEST(Adapter, SmallReadLatencyIsMicroseconds) {
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 4_KiB);
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        std::uint64_t v = 0;
        const SimTime t0 = p.now();
        ASSERT_TRUE(c.adapters[0]->read(p, map, 0, &v, 8));
        const double us = to_us(p.now() - t0);
        EXPECT_GT(us, 1.0);
        EXPECT_LT(us, 8.0);
    });
    c.engine.run();
}

TEST(Adapter, LoopbackMappingUsesLocalCopy) {
    MiniCluster c(2);
    const auto seg = c.export_segment(0, 64_KiB);
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, seg);  // same node: not remote
        EXPECT_FALSE(map.remote());
        const auto data = pattern_bytes(32_KiB);
        ASSERT_TRUE(c.adapters[0]->write(p, map, 0, data.data(), data.size()));
        // Local copies are immediate (no posted-store latency).
        EXPECT_EQ(std::memcmp(map.mem.data(), data.data(), data.size()), 0);
    });
    c.engine.run();
}

TEST(Adapter, OutOfBoundsAccessPanics) {
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 1_KiB);
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        std::uint64_t v = 0;
        EXPECT_THROW((void)c.adapters[0]->write(p, map, 1020, &v, 8), Panic);
        EXPECT_THROW((void)c.adapters[0]->read(p, map, 4_KiB, &v, 8), Panic);
    });
    c.engine.run();
}

TEST(Adapter, ErrorInjectionCountsRetriesAndStillDelivers) {
    Config cfg = default_config();
    cfg.link_error_rate = 0.02;
    cfg.seed = 99;
    MiniCluster c(2, cfg);
    const auto seg = c.export_segment(1, 1_MiB);
    const auto data = pattern_bytes(512_KiB);
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        ASSERT_TRUE(c.adapters[0]->write(p, map, 0, data.data(), data.size()));
        c.adapters[0]->store_barrier(p);
        EXPECT_EQ(std::memcmp(map.mem.data(), data.data(), data.size()), 0);
    });
    c.engine.run();
    EXPECT_GT(c.metrics.value("sci.retries", 0), 20u);  // ~2% of 8192 packets
}

TEST(Adapter, ExcessiveErrorsSurfaceAsLinkFailure) {
    Config cfg = default_config();
    cfg.link_error_rate = 0.95;
    cfg.max_retries = 3;
    MiniCluster c(2, cfg);
    const auto seg = c.export_segment(1, 1_MiB);
    const auto data = pattern_bytes(64_KiB);
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        const Status st = c.adapters[0]->write(p, map, 0, data.data(), data.size());
        EXPECT_EQ(st.code(), Errc::link_failure);
    });
    c.engine.run();
}

TEST(Adapter, DmaBeatsPioForLargeTransfersOnly) {
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 4_MiB);
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        auto time_pio = [&](std::size_t n) {
            const auto data = pattern_bytes(n);
            const SimTime t0 = p.now();
            EXPECT_TRUE(c.adapters[0]->write(p, map, 0, data.data(), n, n));
            c.adapters[0]->store_barrier(p);
            return p.now() - t0;
        };
        auto time_dma = [&](std::size_t n) {
            const auto data = pattern_bytes(n);
            const SimTime t0 = p.now();
            EXPECT_TRUE(c.adapters[0]->dma_write(p, map, 0, data.data(), n));
            return p.now() - t0;
        };
        EXPECT_LT(time_pio(1_KiB), time_dma(1_KiB));   // startup dominates
        EXPECT_GT(time_pio(2_MiB), time_dma(2_MiB));   // streaming dominates
    });
    c.engine.run();
}

TEST(Adapter, DmaWriteIntoAWatchedSegmentReachesTheChecker) {
    // A DMA write goes through the same access guard as a PIO store, so a
    // DMA write and a store from two unordered ranks into overlapping bytes
    // of a watched segment are a race.
    MiniCluster c(2);
    check::Checker ck(2);
    ck.enable();
    c.adapters[0]->bind_checker(&ck);
    const auto seg = c.export_segment(1, 4_KiB);
    ck.watch_segment(seg.node, seg.id);
    c.engine.spawn("dma", [&](sim::Process& p) {
        ck.register_actor(p.id(), 0);
        const std::uint64_t v = 1;
        ASSERT_TRUE(c.adapters[0]->dma_write(p, c.import(0, seg), 0, &v, sizeof v));
    });
    c.engine.spawn("pio", [&](sim::Process& p) {
        ck.register_actor(p.id(), 1);
        const std::uint64_t v = 2;
        ASSERT_TRUE(c.adapters[0]->write(p, c.import(0, seg), 4, &v, sizeof v));
    });
    c.engine.run();
    ASSERT_EQ(ck.count(check::ViolationKind::segment_race), 1u);
    EXPECT_EQ(ck.violations().front().range.lo, 4u);
    EXPECT_EQ(ck.violations().front().range.hi, 8u);
}

TEST(Adapter, StatsAccumulateAndReset) {
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 64_KiB);
    c.engine.spawn("p", [&](sim::Process& p) {
        auto map = c.import(0, seg);
        const auto data = pattern_bytes(4_KiB);
        ASSERT_TRUE(c.adapters[0]->write(p, map, 0, data.data(), data.size()));
        std::vector<std::byte> out(4_KiB);
        ASSERT_TRUE(c.adapters[0]->read(p, map, 8_KiB, out.data(), out.size()));
    });
    c.engine.run();
    EXPECT_EQ(c.metrics.value("sci.pio_bytes", 0), 4_KiB);
    EXPECT_EQ(c.metrics.value("sci.read_bytes", 0), 4_KiB);
    c.metrics.reset();
    EXPECT_EQ(c.metrics.value("sci.write_calls", 0), 0u);
}

}  // namespace
}  // namespace scimpi::sci
