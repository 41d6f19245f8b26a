#include "sci/fabric.hpp"

#include <gtest/gtest.h>

#include "sim/sync.hpp"

namespace scimpi::sci {
namespace {

Fabric make_ring_fabric(int nodes) { return Fabric(Topology::ring(nodes), SciParams{}); }

TEST(Fabric, NominalLinkBandwidthMatchesPaper) {
    SciParams p;
    p.link_mhz = 166.0;
    EXPECT_NEAR(p.nominal_link_bw(), 633.0, 1.0);  // paper: 633 MiB/s
    p.link_mhz = 200.0;
    EXPECT_NEAR(p.nominal_link_bw(), 762.0, 1.5);  // paper: 762 MiB/s
}

TEST(Fabric, UncontendedBandwidthIsSourceCapped) {
    auto f = make_ring_fabric(8);
    (void)f.begin_transfer(f.resolve_route(0, 1), 1e9);
    EXPECT_DOUBLE_EQ(f.effective_bw(f.resolve_route(0, 1), 100.0), 100.0);
    f.end_transfer(f.resolve_route(0, 1), 0);
}

TEST(Fabric, LinkSharingDividesBandwidth) {
    auto f = make_ring_fabric(8);
    // Four transfers crossing link 0; the last one's begin_transfer reads
    // exactly the share effective_bw reports once it is registered.
    for (int i = 0; i < 3; ++i) (void)f.begin_transfer(f.resolve_route(0, 1), 1e9);
    const double fourth = f.begin_transfer(f.resolve_route(0, 1), 1e9);
    const double per_link =
        f.params().nominal_link_bw() * 64.0 / 80.0;  // header efficiency
    EXPECT_NEAR(f.effective_bw(f.resolve_route(0, 1), 1e9), per_link / 4.0, 1.0);
    EXPECT_EQ(fourth, f.effective_bw(f.resolve_route(0, 1), 1e9));
    for (int i = 0; i < 4; ++i) f.end_transfer(f.resolve_route(0, 1), 0);
}

TEST(Fabric, BottleneckLinkGoverns) {
    auto f = make_ring_fabric(8);
    (void)f.begin_transfer(f.resolve_route(0, 4), 1e9);   // uses links 0..3
    (void)f.begin_transfer(f.resolve_route(2, 3), 1e9);   // contends on link 2
    (void)f.begin_transfer(f.resolve_route(2, 3), 1e9);
    const double eff = f.effective_bw(f.resolve_route(0, 4), 1e9);
    const double per_link = f.params().nominal_link_bw() * 0.8;
    EXPECT_NEAR(eff, per_link / 3.0, 1.0);  // link 2 has 3 users
    f.end_transfer(f.resolve_route(0, 4), 0);
    f.end_transfer(f.resolve_route(2, 3), 0);
    f.end_transfer(f.resolve_route(2, 3), 0);
}

TEST(Fabric, UnregisterUnderflowPanics) {
    auto f = make_ring_fabric(4);
    EXPECT_THROW(f.end_transfer(f.resolve_route(0, 1), 0), Panic);
}

TEST(Fabric, AccountTracksPayloadWireAndEcho) {
    auto f = make_ring_fabric(8);
    f.account(0, 2, 6400);  // 100 packets over links 0 and 1
    for (int link : {0, 1}) {
        EXPECT_EQ(f.link_stats(link).payload_bytes, 6400u);
        EXPECT_EQ(f.link_stats(link).wire_bytes, 6400u + 100u * 16u);
        EXPECT_EQ(f.link_stats(link).echo_bytes, 0u);
    }
    // Echo returns over the remaining links 2..7.
    for (int link = 2; link < 8; ++link) {
        EXPECT_EQ(f.link_stats(link).payload_bytes, 0u);
        EXPECT_GT(f.link_stats(link).echo_bytes, 0u);
    }
    f.reset_stats();
    EXPECT_EQ(f.total_wire_bytes(), 0u);
}

TEST(Fabric, SelfAccountIsNoop) {
    auto f = make_ring_fabric(4);
    f.account(1, 1, 4096);
    EXPECT_EQ(f.total_wire_bytes(), 0u);
}

TEST(Fabric, TimedTransferChargesExpectedTime) {
    sim::Engine eng;
    auto f = make_ring_fabric(4);
    eng.spawn("mover", [&](sim::Process& p) {
        const SimTime t = f.timed_transfer(p, f.resolve_route(0, 2), 1_MiB, 100.0);
        // 1 MiB at 100 MiB/s = 10 ms (uncontended, source-capped).
        EXPECT_NEAR(to_ms(t), 10.0, 0.5);
        EXPECT_EQ(p.now(), t);
    });
    eng.run();
}

TEST(Fabric, ConcurrentTransfersShareSaturatedLink) {
    sim::Engine eng;
    auto f = make_ring_fabric(8);
    // Two transfers over the same links, each wanting the full link rate.
    std::vector<SimTime> done(2);
    for (int i = 0; i < 2; ++i)
        eng.spawn("mover" + std::to_string(i), [&, i](sim::Process& p) {
            f.timed_transfer(p, f.resolve_route(0, 1), 4_MiB, 1e9, 64_KiB);
            done[static_cast<std::size_t>(i)] = p.now();
        });
    eng.run();
    // Each should take roughly twice the solo time: 4 MiB at ~506/2 MiB/s.
    const double solo_ms = 4.0 / (633.0 * 0.8) * 1e3;
    EXPECT_GT(to_ms(done[0]), 1.7 * solo_ms);
    EXPECT_LT(to_ms(done[0]), 2.4 * solo_ms);
}

TEST(Fabric, HigherLinkFrequencyScalesThroughput) {
    for (const double mhz : {166.0, 200.0}) {
        sim::Engine eng;
        SciParams p;
        p.link_mhz = mhz;
        Fabric f(Topology::ring(8), p);
        SimTime elapsed = 0;
        // Saturate: 8 transfers on one link.
        sim::SimBarrier bar(8);
        for (int i = 0; i < 8; ++i)
            eng.spawn("m" + std::to_string(i), [&](sim::Process& pr) {
                bar.arrive_and_wait(pr);
                f.timed_transfer(pr, f.resolve_route(0, 1), 1_MiB, 1e9, 64_KiB);
                elapsed = std::max(elapsed, pr.now());
            });
        eng.run();
        const double agg_bw = bandwidth_mib(8_MiB, elapsed);
        EXPECT_NEAR(agg_bw, p.nominal_link_bw() * 0.8, p.nominal_link_bw() * 0.1)
            << "link " << mhz << " MHz";
    }
}

}  // namespace
}  // namespace scimpi::sci
