#include <gtest/gtest.h>

#include <cstring>

#include "../sci/sci_fixture.hpp"
#include "check/checker.hpp"
#include "smi/lock.hpp"
#include "smi/region.hpp"
#include "smi/signal.hpp"

namespace scimpi::smi {
namespace {

using sci::testing::MiniCluster;

TEST(Region, LocalRegionRoundTripImmediatelyVisible) {
    sim::Engine eng;
    std::vector<std::byte> backing(4_KiB);
    auto r = Region::local({backing.data(), backing.size()}, mem::pentium3_800());
    EXPECT_FALSE(r.remote());
    eng.spawn("p", [&](sim::Process& p) {
        const char msg[] = "hello smi";
        ASSERT_TRUE(r.write(p, 64, msg, sizeof(msg)));
        char out[sizeof(msg)] = {};
        ASSERT_TRUE(r.read(p, 64, out, sizeof(msg)));
        EXPECT_STREQ(out, msg);
        r.store_barrier(p);  // cheap for local
        EXPECT_LT(to_us(p.now()), 3.0);
    });
    eng.run();
}

TEST(Region, SciRegionRequiresBarrierForVisibility) {
    MiniCluster c(2);
    const auto seg = c.export_segment(1, 4_KiB);
    c.engine.spawn("p", [&](sim::Process& p) {
        auto r = Region::sci(c.import(0, seg), *c.adapters[0]);
        EXPECT_TRUE(r.remote());
        const std::uint64_t v = 0xdeadbeef;
        ASSERT_TRUE(r.write(p, 0, &v, 8));
        std::uint64_t direct = 0;
        std::memcpy(&direct, r.mem().data(), 8);
        EXPECT_EQ(direct, 0u);  // still in flight
        r.store_barrier(p);
        std::memcpy(&direct, r.mem().data(), 8);
        EXPECT_EQ(direct, v);
    });
    c.engine.run();
}

TEST(Region, LoopbackSciMappingActsLocal) {
    MiniCluster c(2);
    const auto seg = c.export_segment(0, 4_KiB);
    c.engine.spawn("p", [&](sim::Process& p) {
        auto r = Region::sci(c.import(0, seg), *c.adapters[0]);
        EXPECT_FALSE(r.remote());
        const int v = 7;
        ASSERT_TRUE(r.write(p, 0, &v, sizeof v));
        int out = 0;
        std::memcpy(&out, r.mem().data(), sizeof v);
        EXPECT_EQ(out, 7);  // immediate
    });
    c.engine.run();
}

TEST(Region, LoopbackRegionAccessesReachTheChecker) {
    // Loopback mappings take the local branch that never reaches the
    // adapter; Region::sci inherits the adapter's checker so watched
    // segments stay observed on that path too.
    MiniCluster c(2);
    check::Checker ck(2);
    ck.enable();
    c.adapters[0]->bind_checker(&ck);
    const auto seg = c.export_segment(0, 4_KiB);
    ck.watch_segment(seg.node, seg.id);
    c.engine.spawn("a", [&](sim::Process& p) {
        ck.register_actor(p.id(), 0);
        auto r = Region::sci(c.import(0, seg), *c.adapters[0]);
        EXPECT_FALSE(r.remote());
        const std::uint64_t v = 1;
        ASSERT_TRUE(r.write(p, 0, &v, sizeof v));
    });
    c.engine.spawn("b", [&](sim::Process& p) {
        ck.register_actor(p.id(), 1);
        auto r = Region::sci(c.import(0, seg), *c.adapters[0]);
        const std::uint64_t v = 2;
        ASSERT_TRUE(r.write(p, 4, &v, sizeof v));
    });
    c.engine.run();
    ASSERT_EQ(ck.count(check::ViolationKind::segment_race), 1u);
    EXPECT_EQ(ck.violations().front().range.lo, 4u);
    EXPECT_EQ(ck.violations().front().range.hi, 8u);
}

TEST(Region, OutOfBoundsLocalWritePanics) {
    sim::Engine eng;
    std::vector<std::byte> backing(64);
    auto r = Region::local({backing.data(), backing.size()}, mem::pentium3_800());
    eng.spawn("p", [&](sim::Process& p) {
        const int v = 1;
        EXPECT_THROW((void)r.write(p, 62, &v, sizeof v), Panic);
    });
    eng.run();
}

TEST(SmiLock, MutualExclusionAcrossNodes) {
    MiniCluster c(4);
    SmiLock lock(0, c.fabric.params());
    int in_critical = 0;
    int max_in_critical = 0;
    for (int r = 0; r < 4; ++r)
        c.engine.spawn("rank" + std::to_string(r), [&, r](sim::Process& p) {
            for (int iter = 0; iter < 10; ++iter) {
                lock.acquire(p, r);
                max_in_critical = std::max(max_in_critical, ++in_critical);
                p.delay(500);
                --in_critical;
                lock.release(p, r);
            }
        });
    c.engine.run();
    EXPECT_EQ(max_in_critical, 1);
    EXPECT_EQ(lock.acquisitions(), 40u);
    EXPECT_GT(lock.contentions(), 0u);
}

TEST(SmiLock, UncontendedRemoteAcquireIsMicroseconds) {
    MiniCluster c(2);
    SmiLock lock(0, c.fabric.params());
    c.engine.spawn("p", [&](sim::Process& p) {
        const SimTime t0 = p.now();
        lock.acquire(p, 1);
        const double us = to_us(p.now() - t0);
        EXPECT_GT(us, 1.0);
        EXPECT_LT(us, 10.0);  // paper: "very low latency for little contention"
        lock.release(p, 1);
    });
    c.engine.run();
}

TEST(SignalChannel, DeliversAfterInterruptLatency) {
    MiniCluster c(2);
    SignalChannel ch(c.fabric.params(), 1);
    SimTime posted = 0, received = 0;
    c.engine.spawn("handler", [&](sim::Process& p) {
        const Signal s = ch.wait(p);
        received = p.now();
        EXPECT_EQ(s.kind, 3);
        EXPECT_EQ(s.a, 42u);
        EXPECT_EQ(s.from_rank, 0);
    });
    c.engine.spawn("origin", [&](sim::Process& p) {
        p.delay(1000);
        Signal s;
        s.from_rank = 0;
        s.kind = 3;
        s.a = 42;
        ch.post(p, 0, std::move(s));
        posted = p.now();
    });
    c.engine.run();
    EXPECT_GE(received - posted, c.fabric.params().irq_latency);
}

TEST(SignalChannel, PayloadSurvivesDelivery) {
    MiniCluster c(2);
    SignalChannel ch(c.fabric.params(), 1);
    c.engine.spawn("handler", [&](sim::Process& p) {
        const Signal s = ch.wait(p);
        ASSERT_EQ(s.payload.size(), 3u);
        EXPECT_EQ(s.payload[0], std::byte{1});
        EXPECT_EQ(s.payload[2], std::byte{3});
    });
    c.engine.spawn("origin", [&](sim::Process& p) {
        Signal s;
        s.payload = {std::byte{1}, std::byte{2}, std::byte{3}};
        ch.post(p, 0, std::move(s));
        p.delay(1);
    });
    c.engine.run();
}

TEST(SignalChannel, ManySignalsDeliveredInOrder) {
    MiniCluster c(2);
    SignalChannel ch(c.fabric.params(), 1);
    std::vector<std::uint64_t> got;
    c.engine.spawn("handler", [&](sim::Process& p) {
        for (int i = 0; i < 16; ++i) got.push_back(ch.wait(p).a);
    });
    c.engine.spawn("origin", [&](sim::Process& p) {
        for (std::uint64_t i = 0; i < 16; ++i) {
            Signal s;
            s.a = i;
            ch.post(p, 0, std::move(s));
            p.delay(100);
        }
    });
    c.engine.run();
    for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(got[i], i);
}

}  // namespace
}  // namespace scimpi::smi
