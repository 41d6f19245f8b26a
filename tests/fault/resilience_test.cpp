// End-to-end resilience tests: fault schedules injected through the
// FaultController while real MPI traffic runs on top, exercising the
// protocol retry/backoff, degraded-mode routing and RMA path fallback
// (ISSUE 2 / DESIGN.md §8).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "fault/monitor.hpp"
#include "mpi/comm.hpp"
#include "mpi/rma/window.hpp"
#include "sci/topology.hpp"

namespace scimpi::mpi {
namespace {

/// A link flap in the middle of a rendezvous transfer is absorbed by the
/// sender's exponential backoff: the send completes, the data is intact, and
/// the retry/recovery counters show the loop did the work. The same flap
/// made the seed code return link_failure straight to the caller.
TEST(Resilience, MidRendezvousLinkFlapRecovers) {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.collect_stats = true;
    // Down at 100us for 1ms: the first chunk resolves its route before the
    // window opens, a later chunk start is guaranteed to land inside it.
    opt.faults.flap(100'000, 0, 1'000'000);
    double checksum = -1.0;
    Status send_st;
    Cluster c(opt);
    c.run([&](Comm& comm) {
        std::vector<double> data(256_KiB / 8);
        if (comm.rank() == 0) {
            std::iota(data.begin(), data.end(), 1.0);
            send_st = comm.send(data.data(), static_cast<int>(data.size()),
                                Datatype::float64(), 1, 0);
        } else {
            ASSERT_TRUE(comm.recv(data.data(), static_cast<int>(data.size()),
                                  Datatype::float64(), 0, 0)
                            .status);
            checksum = std::accumulate(data.begin(), data.end(), 0.0);
        }
    });
    const auto n = static_cast<double>(256_KiB / 8);
    EXPECT_TRUE(send_st) << send_st.to_string();
    EXPECT_EQ(checksum, n * (n + 1) / 2);
    const obs::MetricsRegistry& m = c.metrics();
    EXPECT_GT(m.value("mpi.send_retries", 0), 0u);
    EXPECT_GE(m.value("mpi.send_recoveries", 0), 1u);
    EXPECT_EQ(m.value("mpi.send_giveups", 0), 0u);
    ASSERT_NE(c.fault_controller(), nullptr);
    EXPECT_GE(m.value("fault.link_down"), 1u);
    EXPECT_GE(m.value("fault.link_up"), 1u);
    EXPECT_EQ(c.stats_report().counter("mpi.send_recoveries"),
              m.value("mpi.send_recoveries", 0));
}

/// On a torus the alternate dimension order steers a rendezvous around a
/// down link with no retries at all — degraded-mode routing is transparent
/// to the transfer and the payload survives bit-exact.
TEST(Resilience, TorusReroutePreservesChecksums) {
    ClusterOptions opt;
    opt.nodes = 9;
    opt.torus_w = 3;  // 3x3 torus; 0 -> 4 crosses both dimensions
    opt.arena_bytes = 8_MiB;
    // Kill the first link of the primary route before any traffic starts.
    int victim = -1;
    sci::Topology::torus2d(3, 3).route(0, 4).for_each_link([&](int link) {
        if (victim < 0) victim = link;
    });
    opt.faults.link_down(0, victim);
    double checksum = -1.0;
    Status send_st;
    Cluster c(opt);
    c.run([&](Comm& comm) {
        std::vector<double> data(256_KiB / 8);
        if (comm.rank() == 0) {
            std::iota(data.begin(), data.end(), 1.0);
            send_st = comm.send(data.data(), static_cast<int>(data.size()),
                                Datatype::float64(), 4, 0);
        } else if (comm.rank() == 4) {
            ASSERT_TRUE(comm.recv(data.data(), static_cast<int>(data.size()),
                                  Datatype::float64(), 0, 0)
                            .status);
            checksum = std::accumulate(data.begin(), data.end(), 0.0);
        }
    });
    const auto n = static_cast<double>(256_KiB / 8);
    EXPECT_TRUE(send_st) << send_st.to_string();
    EXPECT_EQ(checksum, n * (n + 1) / 2);
    EXPECT_GT(c.fabric().reroutes(), 0u);
    // The reroute is not a failure: nothing was retried.
    EXPECT_EQ(c.metrics().value("mpi.send_retries", 0), 0u);
}

/// On a plain ring there is no alternate route, so when the direct-mapped
/// path to a window dies, puts and gets fall back to the emulated handler
/// path (which rides the reliable control channel) instead of failing.
TEST(Resilience, RmaFallsBackToEmulationUnderDeadRoute) {
    ClusterOptions opt;
    opt.nodes = 4;
    opt.collect_stats = true;
    opt.faults.link_down(0, 0);  // route 0 -> 1 dead for the whole run
    std::vector<double> fetched(4, 0.0);
    double landed = 0.0;
    Cluster c(opt);
    c.run([&](Comm& comm) {
        auto mem = comm.alloc_mem(4096);
        auto* base = reinterpret_cast<double*>(mem.value().data());
        for (int i = 0; i < 4; ++i) base[i] = 10.0 * comm.rank() + i;
        auto win = comm.win_create(mem.value().data(), 4096);
        win->fence();
        if (comm.rank() == 0) {
            const double v = 777.0;
            ASSERT_TRUE(win->put(&v, 1, Datatype::float64(), 1, 8 * 100));
            ASSERT_TRUE(win->get(fetched.data(), 4, Datatype::float64(), 1, 0));
        }
        win->fence();
        if (comm.rank() == 1) landed = base[100];
        win->fence();
    });
    EXPECT_EQ(landed, 777.0);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(fetched[static_cast<std::size_t>(i)], 10.0 + i);
    // Rank 0's slots: its one window did every access.
    const obs::MetricsRegistry& m = c.metrics();
    EXPECT_GE(m.value("rma.path_fallbacks", 0), 2u);  // one put + one get redirected
    EXPECT_GE(m.value("rma.emulated_puts", 0), 1u);
    EXPECT_GE(m.value("rma.remote_put_gets", 0), 1u);
    EXPECT_EQ(m.value("rma.direct_puts", 0), 0u);
    EXPECT_EQ(c.stats_report().counter("rma.path_fallbacks"),
              m.value("rma.path_fallbacks", 0));
}

/// A permanently dead link exhausts the sender's retry budget: both sides
/// complete with Errc::peer_unreachable (the receiver via the rndv_fail
/// abort message) in bounded simulated time — no hang, no deadlock panic.
TEST(Resilience, ExhaustedRetryBudgetYieldsPeerUnreachable) {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.cfg.send_retries = 4;
    opt.cfg.retry_backoff = 10'000;       // 10us, doubling
    opt.cfg.retry_backoff_max = 80'000;
    opt.cfg.retry_budget = 1'000'000;     // 1ms total
    opt.faults.link_down(500'000, 0);     // mid-transfer, never back up
    Status send_st, recv_st;
    Cluster c(opt);
    c.run([&](Comm& comm) {
        std::vector<double> data(512_KiB / 8, 3.0);
        if (comm.rank() == 0)
            send_st = comm.send(data.data(), static_cast<int>(data.size()),
                                Datatype::float64(), 1, 0);
        else
            recv_st = comm.recv(data.data(), static_cast<int>(data.size()),
                                Datatype::float64(), 0, 0)
                          .status;
    });
    EXPECT_EQ(send_st.code(), Errc::peer_unreachable) << send_st.to_string();
    EXPECT_EQ(recv_st.code(), Errc::peer_unreachable) << recv_st.to_string();
    EXPECT_GE(c.metrics().value("mpi.send_giveups", 0), 1u);
    // Sim-time watchdog: giving up must be fast, not a disguised hang.
    EXPECT_LT(c.wtime(), 0.05);
}

/// With the connection monitor enabled, a sender backing off towards a dead
/// peer is cut short as soon as the monitor's probes declare the peer dead —
/// long before a large retry budget would run out on its own.
TEST(Resilience, MonitorDeclaresPeerDeadAndFailsFast) {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.cfg.monitor_period = 50'000;      // probe every 50us
    opt.cfg.monitor_dead_after = 3;
    opt.cfg.send_retries = 1000;          // budget alone would retry ~forever
    opt.cfg.retry_backoff = 50'000;
    opt.cfg.retry_backoff_max = 50'000;
    opt.cfg.retry_budget = 1'000'000'000;
    opt.faults.link_down(0, 0);           // dead from the start, never up
    Status send_st;
    Cluster c(opt);
    c.run([&](Comm& comm) {
        // Only the sender acts: the give-up happens before the rendezvous
        // handshake, so a posted recv would have nothing to abort it.
        if (comm.rank() == 0) {
            std::vector<double> data(256_KiB / 8, 1.0);
            send_st = comm.send(data.data(), static_cast<int>(data.size()),
                                Datatype::float64(), 1, 0);
        }
    });
    EXPECT_EQ(send_st.code(), Errc::peer_unreachable) << send_st.to_string();
    EXPECT_NE(send_st.detail().find("declared dead"), std::string::npos)
        << send_st.to_string();
    ASSERT_NE(c.monitor(), nullptr);
    EXPECT_EQ(c.monitor()->state(0, 1), fault::PeerState::dead);
    EXPECT_GE(c.metrics().value("monitor.peers_dead"), 1u);
    EXPECT_GT(c.metrics().value("monitor.probe_failures"), 0u);
    EXPECT_LT(c.wtime(), 0.05);
}

/// Pins the probe_peer observability added with the subsystem: both the
/// adapter's slot and the report's cluster total count every probe, and a
/// probe across a down route fails without wedging the prober.
TEST(Resilience, ProbeMetricsPinned) {
    ClusterOptions opt;
    opt.nodes = 4;
    opt.collect_stats = true;
    Cluster c(opt);
    c.engine().spawn("prober", [&](sim::Process& p) {
        EXPECT_TRUE(c.adapter(0).probe_peer(p, 1));
        c.fabric().set_link_up(0, false);
        EXPECT_FALSE(c.adapter(0).probe_peer(p, 1));
        c.fabric().set_link_up(0, true);
        EXPECT_TRUE(c.adapter(0).probe_peer(p, 1));
    });
    c.engine().run();
    EXPECT_EQ(c.metrics().value("sci.probes", 0), 3u);
    EXPECT_EQ(c.metrics().value("sci.probe_failures", 0), 1u);
    const auto report = c.stats_report();
    EXPECT_EQ(report.counter("sci.probes"), 3u);
    EXPECT_EQ(report.counter("sci.probe_failures"), 1u);
    EXPECT_EQ(report.counter("fabric.link_down_events"), 1u);
    EXPECT_EQ(report.counter("fabric.link_up_events"), 1u);
}

/// The acceptance bar from ISSUE 2: the same seed + soak spec must produce a
/// bit-identical stats report, fault pattern included.
TEST(Resilience, SameSeedAndSpecGiveBitIdenticalStatsReports) {
    auto run_once = [](std::uint64_t seed) {
        ClusterOptions opt;
        opt.nodes = 4;
        opt.collect_stats = true;
        opt.faults.set_seed(seed).soak(0, 5'000'000, 250'000, 0.2, 100'000);
        Cluster c(opt);
        c.run([](Comm& comm) {
            std::vector<double> mine(32_KiB / 8, 1.0 + comm.rank());
            std::vector<double> theirs(32_KiB / 8, 0.0);
            const int right = (comm.rank() + 1) % comm.size();
            const int left = (comm.rank() + comm.size() - 1) % comm.size();
            for (int iter = 0; iter < 2; ++iter)
                ASSERT_TRUE(
                    comm.sendrecv(mine.data(), static_cast<int>(mine.size()),
                                  Datatype::float64(), right, 0, theirs.data(),
                                  static_cast<int>(theirs.size()),
                                  Datatype::float64(), left, 0));
        });
        return c.stats_report();
    };
    auto a = run_once(42);
    auto b = run_once(42);
    EXPECT_GT(a.counter("fault.injected"), 0u);
    // RunReport v4 carries host wall-clock scalars that legitimately differ
    // run to run; the bit-identity invariant is about the *simulated*
    // results, so neutralize them before comparing (bench_compare.py skips
    // wall metrics for the same reason).
    const auto strip_wall = [](auto& r) {
        r.wall_ns = 0;
        r.events_per_sec_wall = 0.0;
        r.wall_per_sim_second = 0.0;
    };
    strip_wall(a);
    strip_wall(b);
    EXPECT_EQ(a.to_json(), b.to_json());
    // A different seed moves the fault pattern (pinning that the soak RNG is
    // actually driven by the schedule seed, not a global source).
    auto d = run_once(43);
    strip_wall(d);
    EXPECT_NE(a.to_json(), d.to_json());
}

}  // namespace
}  // namespace scimpi::mpi
