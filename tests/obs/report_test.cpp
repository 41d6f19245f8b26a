// Integration tests for Cluster::stats_report() and counter-track tracing:
// deterministic scenarios with pinned protocol / RMA / pack counter values.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/rma/window.hpp"
#include "support/mini_json.hpp"

namespace scimpi::mpi {
namespace {

ClusterOptions two_nodes_with_stats() {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.collect_stats = true;
    return opt;
}

/// One 1 KiB eager send plus one 64 KiB rendezvous send of a strided vector
/// (1024 blocks x 64 B = exactly one rendezvous chunk), rank 0 -> rank 1.
void p2p_workload(Comm& comm) {
    std::vector<double> eager(128, 1.0);  // 1 KiB: > short (128 B), <= eager
    const auto column = Datatype::vector(1024, 8, 16, Datatype::float64());
    std::vector<double> grid(1024 * 16, 0.0);
    if (comm.rank() == 0) {
        ASSERT_TRUE(comm.send(eager.data(), 128, Datatype::float64(), 1, 0));
        ASSERT_TRUE(comm.send(grid.data(), 1, column, 1, 1));
    } else {
        comm.recv(eager.data(), 128, Datatype::float64(), 0, 0);
        comm.recv(grid.data(), 1, column, 0, 1);
    }
}

TEST(StatsReport, PinsP2PProtocolAndPackCounters) {
    Cluster c(two_nodes_with_stats());
    c.run(p2p_workload);
    const obs::RunReport r = c.stats_report();

    EXPECT_TRUE(r.stats_enabled);
    EXPECT_EQ(r.world, 2);
    EXPECT_GT(r.sim_seconds, 0.0);
    EXPECT_GT(r.events_dispatched, 0u);

    EXPECT_EQ(r.counter("mpi.sends_eager"), 1u);
    EXPECT_EQ(r.counter("mpi.bytes_eager"), 1024u);
    EXPECT_EQ(r.counter("mpi.sends_rndv"), 1u);
    EXPECT_EQ(r.counter("mpi.bytes_rndv"), 64_KiB);
    EXPECT_GE(r.counter("mpi.sends_short"), 1u);  // finalize-barrier tokens

    // Sender ff-gathers the one rendezvous chunk straight into the remote
    // ring (1024 blocks); the receiver ff-unpacks it (no direct write).
    EXPECT_EQ(r.counter("pack.ff_packs"), 2u);
    EXPECT_EQ(r.counter("pack.ff_direct_writes"), 1u);
    EXPECT_EQ(r.counter("pack.ff_direct_blocks"), 1024u);
    EXPECT_EQ(r.counter("pack.ff_direct_bytes"), 64_KiB);
    EXPECT_EQ(r.counter("pack.generic_staged_bytes"), 0u);
}

TEST(StatsReport, GenericPathStagesBytesWhenFFDisabled) {
    ClusterOptions opt = two_nodes_with_stats();
    opt.cfg.use_direct_pack_ff = false;
    Cluster c(opt);
    c.run(p2p_workload);
    const obs::RunReport r = c.stats_report();
    EXPECT_EQ(r.counter("pack.ff_direct_writes"), 0u);
    EXPECT_EQ(r.counter("pack.generic_packs"), 2u);  // sender pack + recv unpack
    EXPECT_EQ(r.counter("pack.generic_staged_bytes"), 64_KiB);
}

TEST(StatsReport, PinsDirectVsEmulatedRmaCounters) {
    Cluster c(two_nodes_with_stats());
    c.run([](Comm& comm) {
        // Half-shared window: rank 0 contributes SCI-shared arena memory,
        // rank 1 a private heap buffer. Puts towards rank 0 go direct, puts
        // towards rank 1 must be emulated by its handler.
        constexpr std::size_t kWin = 8_KiB;
        std::span<std::byte> wmem;
        std::vector<std::byte> heap;
        if (comm.rank() == 0) {
            auto mem = comm.alloc_mem(kWin);
            SCIMPI_REQUIRE(mem.is_ok(), "alloc_mem failed");
            wmem = mem.value();
        } else {
            heap.assign(kWin, std::byte{0});
            wmem = {heap.data(), heap.size()};
        }
        std::memset(wmem.data(), 0, kWin);
        auto win = comm.win_create(wmem.data(), kWin);
        EXPECT_TRUE(win->target_shared(0));
        EXPECT_FALSE(win->target_shared(1));

        std::vector<double> buf(512, 1.0);  // 4 KiB backing for every op
        win->fence();
        if (comm.rank() == 1) {
            // Direct put into rank 0's shared region.
            ASSERT_TRUE(win->put(buf.data(), 8, Datatype::float64(), 0, 0));
            // 64 B get: under get_remote_put_threshold -> direct read.
            ASSERT_TRUE(win->get(buf.data(), 8, Datatype::float64(), 0, 0));
            // 4 KiB get: above the 2 KiB threshold -> converted to a
            // remote-put served by rank 0's handler.
            ASSERT_TRUE(win->get(buf.data(), 512, Datatype::float64(), 0, 0));
            // Accumulate always runs target-side.
            ASSERT_TRUE(win->accumulate_sum(buf.data(), 8, 0, 64));
        } else {
            // Put into rank 1's private window -> emulated.
            ASSERT_TRUE(win->put(buf.data(), 8, Datatype::float64(), 1, 0));
            // Get from private memory -> remote-put, but *not* a conversion
            // (the direct path was never available).
            ASSERT_TRUE(win->get(buf.data(), 8, Datatype::float64(), 1, 0));
        }
        win->fence();
    });

    const obs::RunReport r = c.stats_report();
    EXPECT_EQ(r.counter("rma.direct_puts"), 1u);
    EXPECT_EQ(r.counter("rma.direct_put_bytes"), 64u);
    EXPECT_EQ(r.counter("rma.emulated_puts"), 1u);
    EXPECT_EQ(r.counter("rma.emulated_put_bytes"), 64u);
    EXPECT_EQ(r.counter("rma.direct_gets"), 1u);
    EXPECT_EQ(r.counter("rma.remote_put_gets"), 2u);
    EXPECT_EQ(r.counter("rma.get_conversions"), 1u);
    EXPECT_EQ(r.counter("rma.accumulates"), 1u);
    EXPECT_EQ(r.counter("rma.local_ops"), 0u);
}

TEST(StatsReport, LinkTotalsAggregateTheFabricStats) {
    Cluster c(two_nodes_with_stats());
    c.run(p2p_workload);
    const obs::RunReport r = c.stats_report();

    ASSERT_FALSE(r.links.empty());
    std::uint64_t payload = 0, wire = 0, echo = 0;
    for (const auto& l : r.links) {
        payload += l.payload_bytes;
        wire += l.wire_bytes;
        echo += l.echo_bytes;
    }
    EXPECT_GT(payload, 0u);
    EXPECT_GT(wire, payload);  // headers ride on top of payload
    // The registry counters are fed from the same account() calls, so the
    // per-link rows and the aggregate slots must agree exactly.
    EXPECT_EQ(r.counter("fabric.payload_bytes"), payload);
    EXPECT_EQ(r.counter("fabric.wire_bytes"), wire);
    EXPECT_EQ(r.counter("fabric.echo_bytes"), echo);
    EXPECT_GE(r.gauge("fabric.concurrent_transfers"), 1.0);
    EXPECT_GE(c.fabric().peak_concurrent_transfers(), 1);
}

TEST(StatsReport, DisabledRegistryStaysAllZero) {
    ClusterOptions opt;
    opt.nodes = 2;  // collect_stats defaults to false
    Cluster c(opt);
    c.run(p2p_workload);
    const obs::RunReport r = c.stats_report();
    EXPECT_FALSE(r.stats_enabled);
    EXPECT_EQ(r.counter("mpi.sends_eager"), 0u);
    EXPECT_EQ(r.counter("fabric.payload_bytes"), 0u);
    // The counters still count; only the report is gated.
    EXPECT_EQ(c.metrics().value("mpi.sends_eager", 0), 1u);
    // Report JSON stays well-formed either way.
    EXPECT_TRUE(testsupport::json_valid(r.to_json()));
}

TEST(StatsReport, TraceFileCarriesCounterTracksAndCategories) {
    const std::string path = ::testing::TempDir() + "/scimpi_obs.trace.json";
    {
        ClusterOptions opt = two_nodes_with_stats();
        opt.trace_file = path;
        Cluster c(opt);
        c.run(p2p_workload);

        const sim::Tracer& tr = c.engine().tracer();
        ASSERT_TRUE(tr.enabled());
        int counters = 0, categorized = 0;
        for (const auto& e : tr.events()) {
            if (e.kind == sim::Tracer::Kind::counter) ++counters;
            if (e.kind == sim::Tracer::Kind::span && tr.cat_of(e) == "p2p")
                ++categorized;
        }
        EXPECT_GT(counters, 0);     // fabric load / active-transfer tracks
        EXPECT_GT(categorized, 0);  // protocol spans are category-tagged
    }  // ~Cluster dumps the trace file

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    EXPECT_TRUE(testsupport::json_valid(json));
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"p2p\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(StatsReport, HistogramsSeparateEagerFromRendezvousLatency) {
    Cluster c(two_nodes_with_stats());
    c.run(p2p_workload);
    const obs::RunReport r = c.stats_report();

    // The workload sends exactly one eager (1 KiB) and one rendezvous
    // (64 KiB) message; each lands in its own latency histogram.
    const obs::HistogramSnapshot* eager = r.histogram("mpi.latency_eager_ns");
    ASSERT_NE(eager, nullptr);
    EXPECT_EQ(eager->count, 1u);
    EXPECT_GT(eager->sum, 0u);
    EXPECT_EQ(eager->p50, static_cast<double>(eager->min));  // single sample

    const obs::HistogramSnapshot* rndv = r.histogram("mpi.latency_rndv_ns");
    ASSERT_NE(rndv, nullptr);
    EXPECT_EQ(rndv->count, 1u);
    // A 64 KiB rendezvous takes longer end-to-end than a 1 KiB eager send.
    EXPECT_GT(rndv->min, eager->max);

    // Short messages (finalize-barrier tokens) and the ff pack run populate
    // their histograms too: at least 4 non-empty distributions per run.
    const obs::HistogramSnapshot* sh = r.histogram("mpi.latency_short_ns");
    ASSERT_NE(sh, nullptr);
    EXPECT_GE(sh->count, 1u);
    const obs::HistogramSnapshot* ff = r.histogram("pack.ff_throughput_mibs");
    ASSERT_NE(ff, nullptr);
    EXPECT_EQ(ff->count, 1u);  // one ff gather into the rendezvous ring
    EXPECT_GT(ff->min, 0u);

    int non_empty = 0;
    for (const obs::HistogramSnapshot& h : r.histograms)
        if (h.count > 0) ++non_empty;
    EXPECT_GE(non_empty, 4);
}

TEST(StatsReport, RmaLatencyHistogramsSplitByPath) {
    Cluster c(two_nodes_with_stats());
    c.run([](Comm& comm) {
        constexpr std::size_t kWin = 8_KiB;
        auto mem = comm.alloc_mem(kWin);
        SCIMPI_REQUIRE(mem.is_ok(), "alloc_mem failed");
        auto win = comm.win_create(mem.value().data(), kWin);
        std::vector<double> buf(512, 1.0);
        win->fence();
        if (comm.rank() == 0) {
            ASSERT_TRUE(win->put(buf.data(), 8, Datatype::float64(), 1, 0));
            ASSERT_TRUE(win->get(buf.data(), 512, Datatype::float64(), 1, 0));
            ASSERT_TRUE(win->accumulate_sum(buf.data(), 8, 1, 64));
        }
        win->fence();
    });
    const obs::RunReport r = c.stats_report();
    const obs::HistogramSnapshot* direct = r.histogram("rma.latency_direct_ns");
    ASSERT_NE(direct, nullptr);
    EXPECT_EQ(direct->count, 1u);  // the 64 B shared-window put
    const obs::HistogramSnapshot* emu = r.histogram("rma.latency_emulated_ns");
    ASSERT_NE(emu, nullptr);
    EXPECT_EQ(emu->count, 1u);  // the accumulate, served target-side
    const obs::HistogramSnapshot* rput = r.histogram("rma.latency_remote_put_ns");
    ASSERT_NE(rput, nullptr);
    EXPECT_EQ(rput->count, 1u);  // the 4 KiB get converted to a remote put
    // The remote-put get is a full round trip; it dominates the direct put.
    EXPECT_GT(rput->min, direct->max);
}

TEST(StatsReport, SchemaCarriesVersionSeedAndFaultSpec) {
    ClusterOptions opt = two_nodes_with_stats();
    opt.cfg.seed = 12345;
    Cluster c(opt);
    c.run(p2p_workload);
    const obs::RunReport r = c.stats_report();
    EXPECT_EQ(r.schema_version, obs::RunReport::kSchemaVersion);
    EXPECT_EQ(r.seed, 12345u);
    EXPECT_TRUE(r.fault_spec.empty());
    EXPECT_GT(r.sim_time_ns, 0u);
    EXPECT_DOUBLE_EQ(r.sim_seconds,
                     static_cast<double>(r.sim_time_ns) / 1e9);
    const std::string json = r.to_json();
    EXPECT_TRUE(testsupport::json_valid(json));
    EXPECT_NE(json.find("\"schema_version\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"seed\": 12345"), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    // v3: the scimpi-check fields are always present; without --check the
    // checker never ran and the violations array is empty.
    EXPECT_NE(json.find("\"check_enabled\": false"), std::string::npos);
    EXPECT_NE(json.find("\"violations\": []"), std::string::npos);
    // v4: DES self-metrics and flight-recorder arrays are always present;
    // with the recorder off the arrays are empty and the cadence is 0.
    EXPECT_NE(json.find("\"wall_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"record_cadence_ns\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"timeseries\": []"), std::string::npos);
    EXPECT_NE(json.find("\"hotspots\": []"), std::string::npos);
    EXPECT_GT(r.wall_ns, 0u);
    EXPECT_GT(r.events_per_sec_wall, 0.0);
    EXPECT_GT(r.wall_per_sim_second, 0.0);
}

TEST(StatsReport, ProfileAttributesEveryTickOfEveryRank) {
    ClusterOptions opt = two_nodes_with_stats();
    opt.profile = true;
    Cluster c(opt);
    c.run(p2p_workload);
    const obs::RunReport r = c.stats_report();
    EXPECT_TRUE(r.profile_enabled);
    ASSERT_EQ(r.profiles.size(), 2u);
    for (const obs::RunReport::RankProfile& p : r.profiles) {
        std::uint64_t sum = 0;
        for (const std::uint64_t ns : p.state_ns) sum += ns;
        // The invariant the profiler guarantees: every simulated nanosecond
        // of a rank is attributed to exactly one state.
        EXPECT_EQ(sum, p.total_ns) << "rank " << p.rank;
        EXPECT_EQ(p.total_ns, r.sim_time_ns) << "rank " << p.rank;
        // Ranks spend *some* time blocked on control messages (the barrier).
        constexpr auto wait_recv =
            static_cast<std::size_t>(obs::ProfState::wait_recv);
        EXPECT_GT(p.state_ns[wait_recv] +
                      p.state_ns[static_cast<std::size_t>(
                          obs::ProfState::wait_sync)],
                  0u)
            << "rank " << p.rank;
    }
    // The receiver posts both recvs before data arrives in this workload, so
    // its matches classify as late-sender (user messages only, tag >= 0).
    EXPECT_EQ(r.profiles[1].late_senders, 2u);
    EXPECT_GT(r.profiles[1].late_sender_wait_ns, 0u);
    EXPECT_EQ(r.profiles[0].late_senders, 0u);

    const std::string json = r.to_json();
    EXPECT_TRUE(testsupport::json_valid(json));
    EXPECT_NE(json.find("\"profiles\""), std::string::npos);
    EXPECT_NE(json.find("\"wait_recv\""), std::string::npos);
}

TEST(StatsReport, ProfileDisabledLeavesReportEmpty) {
    Cluster c(two_nodes_with_stats());  // profile defaults to off
    c.run(p2p_workload);
    const obs::RunReport r = c.stats_report();
    EXPECT_FALSE(r.profile_enabled);
    EXPECT_TRUE(r.profiles.empty());
}

TEST(StatsReport, ObservabilityDoesNotPerturbTheSimulation) {
    // Full observability on vs everything off: the simulated run must be
    // bit-identical — same virtual end time, same number of engine events.
    std::uint64_t time_on = 0, events_on = 0;
    {
        ClusterOptions opt = two_nodes_with_stats();
        opt.profile = true;
        Cluster c(opt);
        c.engine().enable_views(sim::kViewTrace);
        c.run(p2p_workload);
        time_on = static_cast<std::uint64_t>(c.engine().now());
        events_on = c.engine().events_dispatched();
    }
    ClusterOptions opt;
    opt.nodes = 2;
    Cluster c(opt);
    c.run(p2p_workload);
    EXPECT_EQ(static_cast<std::uint64_t>(c.engine().now()), time_on);
    EXPECT_EQ(c.engine().events_dispatched(), events_on);
}

// ---- Observer-invariance matrix -------------------------------------------
// Every observability toggle (and all of them together), on every workload
// shape that drives a distinct instrumentation path, must leave the
// simulation bit-identical to the all-off run: same end time, same event
// count, same value for every counter of the all-off run.

enum class Toggle { none, profile, trace, evlog, check, all, record };
enum class Workload { seg_coll, rma_private, faults, async };

const char* toggle_name(Toggle t) {
    switch (t) {
        case Toggle::none: return "none";
        case Toggle::profile: return "profile";
        case Toggle::trace: return "trace";
        case Toggle::evlog: return "evlog";
        case Toggle::check: return "check";
        case Toggle::all: return "all";
        case Toggle::record: return "record";
    }
    return "?";
}

const char* workload_name(Workload w) {
    switch (w) {
        case Workload::seg_coll: return "seg_coll";
        case Workload::rma_private: return "rma_private";
        case Workload::faults: return "faults";
        case Workload::async: return "async";
    }
    return "?";
}

/// Segment-path bcast/allreduce: payloads well above coll_seg_min.
void seg_coll_workload(Comm& comm) {
    std::vector<double> buf(8_KiB / sizeof(double), comm.rank() == 0 ? 1.0 : 0.0);
    ASSERT_TRUE(comm.bcast(buf.data(), static_cast<int>(buf.size()),
                           Datatype::float64(), 0));
    std::vector<double> sum(buf.size());
    ASSERT_TRUE(comm.allreduce_sum(buf.data(), sum.data(), static_cast<int>(buf.size())));
}

/// Fence, PSCW and lock epochs on a private (heap) window: every access
/// takes the emulated, handler-driven path.
void rma_private_workload(Comm& comm) {
    constexpr std::size_t kWin = 4_KiB;
    std::vector<std::byte> heap(kWin, std::byte{0});
    auto win = comm.win_create(heap.data(), kWin);
    std::vector<double> v(64, 1.0 + comm.rank());
    const int peer = (comm.rank() + 1) % comm.size();
    win->fence();
    ASSERT_TRUE(win->put(v.data(), 64, Datatype::float64(), peer, 0));
    ASSERT_TRUE(win->accumulate_sum(v.data(), 64, peer, 1_KiB));
    win->fence();
    ASSERT_TRUE(win->get(v.data(), 64, Datatype::float64(), peer, 0));
    win->fence();
    const int group[] = {comm.rank() == 0 ? 1 : 0};
    if (comm.rank() < 2) {
        win->post(group);
        win->start(group);
        ASSERT_TRUE(win->put(v.data(), 32, Datatype::float64(), group[0], 2_KiB));
        win->complete();
        win->wait();
    }
    comm.barrier();
    win->lock(0);
    ASSERT_TRUE(win->accumulate_sum(v.data(), 16, 0, 3_KiB));
    win->unlock(0);
    comm.barrier();
}

/// p2p traffic while link 0 flaps: sends back off and retry.
void faults_workload(Comm& comm) {
    std::vector<double> buf(2_KiB / sizeof(double), 1.0);
    if (comm.rank() == 0)
        ASSERT_TRUE(comm.send(buf.data(), static_cast<int>(buf.size()),
                              Datatype::float64(), 1, 0));
    else if (comm.rank() == 1)
        comm.recv(buf.data(), static_cast<int>(buf.size()), Datatype::float64(), 0, 0);
}

/// Nonblocking ring exchange under the per-rank progress daemons.
void async_workload(Comm& comm) {
    std::vector<double> out(64_KiB / sizeof(double), 1.0);
    std::vector<double> in(out.size());
    const int n = static_cast<int>(out.size());
    Request reqs[2] = {
        comm.irecv(in.data(), n, Datatype::float64(),
                   (comm.rank() + comm.size() - 1) % comm.size(), 3),
        comm.isend(out.data(), n, Datatype::float64(), (comm.rank() + 1) % comm.size(), 3)};
    ASSERT_TRUE(comm.wait_all(reqs));
}

struct CellResult {
    std::uint64_t sim_time_ns = 0;
    std::uint64_t events = 0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::set<std::string> recorded;  // the flight recorder's series names
    std::size_t samples = 0;         // flight-recorder samples taken
    /// Every counter's per-object slots, read from the live registry.
    std::map<std::string, std::vector<std::uint64_t>> slots;
};

CellResult run_cell(Workload w, Toggle t, bool stats = true) {
    ClusterOptions opt;
    opt.nodes = 4;
    opt.collect_stats = stats;
    const std::string base = ::testing::TempDir() + "/scimpi_matrix_" +
                             workload_name(w) + "_" + toggle_name(t);
    const bool all = t == Toggle::all;
    opt.profile = all || t == Toggle::profile;
    if (all || t == Toggle::trace) opt.trace_file = base + ".trace.json";
    if (all || t == Toggle::evlog) opt.evlog = base + ".evlog";
    opt.check = all || t == Toggle::check;
    if (all || t == Toggle::record) opt.record = 1_us;
    void (*body)(Comm&) = nullptr;
    switch (w) {
        case Workload::seg_coll: body = seg_coll_workload; break;
        case Workload::rma_private: body = rma_private_workload; break;
        case Workload::faults:
            opt.faults.flap(0, 0, 200_us);
            body = faults_workload;
            break;
        case Workload::async:
            opt.async_progress = true;
            body = async_workload;
            break;
    }
    CellResult out;
    {
        Cluster c(opt);
        c.run(body);
        const obs::RunReport r = c.stats_report();
        out.sim_time_ns = r.sim_time_ns;
        out.events = r.events_dispatched;
        out.counters = r.counters;
        out.gauges = r.gauges;
        for (const obs::TimeSeries& ts : c.recorder().series()) out.recorded.insert(ts.name);
        out.samples = c.recorder().sample_count();
        const obs::MetricsRegistry& m = c.metrics();
        for (const auto& [name, value] : r.counters) {
            std::vector<std::uint64_t>& slots = out.slots[name];
            for (std::size_t l = 0; l < m.labels(name); ++l)
                slots.push_back(m.value(name, static_cast<int>(l)));
        }
    }
    std::remove((base + ".trace.json").c_str());
    std::remove((base + ".evlog").c_str());
    return out;
}

class ObserverMatrix : public ::testing::TestWithParam<std::tuple<Workload, Toggle>> {};

TEST_P(ObserverMatrix, MatchesTheAllOffRun) {
    const auto [w, t] = GetParam();
    const CellResult off = run_cell(w, Toggle::none);
    const CellResult on = run_cell(w, t);
    // Each workload really drives the path it stands for.
    const std::map<std::string, std::uint64_t> base(off.counters.begin(),
                                                    off.counters.end());
    const auto count = [&](const char* name) {
        const auto it = base.find(name);
        return it == base.end() ? 0u : it->second;
    };
    switch (w) {
        case Workload::seg_coll: EXPECT_GT(count("coll.seg_ops"), 0u); break;
        case Workload::rma_private: EXPECT_GT(count("rma.emulated_puts"), 0u); break;
        case Workload::faults: EXPECT_GT(count("mpi.send_retries"), 0u); break;
        case Workload::async: EXPECT_GT(count("mpi.sends_rndv"), 0u); break;
    }
    if (t == Toggle::record || t == Toggle::all) {
        EXPECT_GT(on.samples, 0u);
    }
    EXPECT_EQ(on.sim_time_ns, off.sim_time_ns);
    EXPECT_EQ(on.events, off.events);
    // Every counter and gauge of the all-off run keeps its value; the only
    // extras an observer may add are its own: the checker's check.*
    // counters and the gauges the flight recorder samples.
    std::map<std::string, std::uint64_t> seen(on.counters.begin(), on.counters.end());
    for (const auto& [name, value] : off.counters) {
        const auto it = seen.find(name);
        ASSERT_NE(it, seen.end()) << name;
        EXPECT_EQ(it->second, value) << name;
        seen.erase(it);
    }
    for (const auto& [name, value] : seen)
        EXPECT_EQ(name.rfind("check.", 0), 0u) << "observer-only counter " << name;
    std::map<std::string, double> gauges(on.gauges.begin(), on.gauges.end());
    for (const auto& [name, value] : off.gauges) {
        const auto it = gauges.find(name);
        ASSERT_NE(it, gauges.end()) << name;
        EXPECT_EQ(it->second, value) << name;
        gauges.erase(it);
    }
    for (const auto& [name, value] : gauges)
        EXPECT_EQ(on.recorded.count(name), 1u) << "observer-only gauge " << name;
}

INSTANTIATE_TEST_SUITE_P(
    StatsReport, ObserverMatrix,
    ::testing::Combine(::testing::Values(Workload::seg_coll, Workload::rma_private,
                                         Workload::faults, Workload::async),
                       ::testing::Values(Toggle::none, Toggle::profile, Toggle::trace,
                                         Toggle::evlog, Toggle::check, Toggle::all,
                                         Toggle::record)),
    [](const ::testing::TestParamInfo<ObserverMatrix::ParamType>& p) {
        return std::string(workload_name(std::get<0>(p.param))) + "_" +
               toggle_name(std::get<1>(p.param));
    });

TEST(StatsReport, PerObjectSlotsCountWithStatsOffAndSumToTheExport) {
    // Per workload: the slot every object (node or world rank) must fill.
    const std::pair<Workload, const char*> cells[] = {
        {Workload::seg_coll, "sci.pio_bytes"},
        {Workload::rma_private, "rma.emulated_puts"},
        {Workload::faults, "mpi.send_retries"},
        {Workload::async, "mpi.sends_rndv"},
    };
    for (const auto& [w, busy] : cells) {
        SCOPED_TRACE(workload_name(w));
        const CellResult on = run_cell(w, Toggle::none);
        const CellResult off = run_cell(w, Toggle::none, /*stats=*/false);
        // (a) Counting does not depend on the stats switch, slot by slot;
        // only the export is gated.
        EXPECT_EQ(off.slots, on.slots);
        for (const auto& [name, value] : off.counters) EXPECT_EQ(value, 0u) << name;
        // (b) The exported value of every counter is the sum of its slots.
        int labelled = 0;
        for (const auto& [name, value] : on.counters) {
            const std::vector<std::uint64_t>& slots = on.slots.at(name);
            labelled += slots.size() > 1 ? 1 : 0;
            std::uint64_t sum = 0;
            for (const std::uint64_t v : slots) sum += v;
            EXPECT_EQ(sum, value) << name;
        }
        EXPECT_GT(labelled, 0);
        // Each object counts into its own slot: one slot per node / rank,
        // and every one that did the work has counted it.
        const std::vector<std::uint64_t>& per_object = on.slots.at(busy);
        ASSERT_EQ(per_object.size(), 4u) << busy;
        const std::size_t workers = w == Workload::faults ? 1 : per_object.size();
        for (std::size_t l = 0; l < workers; ++l)
            EXPECT_GT(per_object[l], 0u) << busy << " slot " << l;
        if (w == Workload::async) {
            for (const std::uint64_t v : per_object) EXPECT_EQ(v, 1u) << busy;
        }
    }
}

TEST(StatsReport, OmitsHistogramsThatRecordedNoSamples) {
    // v4: the report drops all-zero histogram snapshots. The RMA latency
    // histograms are registered by every run (bind_metrics at construction)
    // but this p2p-only workload never records into them.
    Cluster c(two_nodes_with_stats());
    c.run(p2p_workload);
    EXPECT_GT(c.metrics().histograms().size(), 0u);
    bool registry_has_empty = false;
    for (const obs::HistogramSnapshot& h : c.metrics().histograms())
        if (h.count == 0) registry_has_empty = true;
    EXPECT_TRUE(registry_has_empty);  // the filter has something to drop

    const obs::RunReport r = c.stats_report();
    ASSERT_FALSE(r.histograms.empty());
    for (const obs::HistogramSnapshot& h : r.histograms)
        EXPECT_GT(h.count, 0u) << h.name;
    EXPECT_EQ(r.histogram("rma.latency_direct_ns"), nullptr);
    const std::string json = r.to_json();
    EXPECT_EQ(json.find("rma.latency_direct_ns"), std::string::npos);
}

TEST(StatsReport, RecorderFillsTimeseriesAndHotspots) {
    ClusterOptions opt = two_nodes_with_stats();
    opt.record = 1_us;
    Cluster c(opt);
    c.run(p2p_workload);
    const obs::RunReport r = c.stats_report();
    EXPECT_EQ(r.record_cadence_ns, 1000u);
    ASSERT_FALSE(r.timeseries.empty());

    // The cumulative engine-event series must exist, be monotone, and end at
    // the run's final event count (modulo events after the last sample).
    const obs::TimeSeries* ev = r.series("sim.events");
    ASSERT_NE(ev, nullptr);
    ASSERT_GT(ev->t.size(), 1u);
    ASSERT_EQ(ev->t.size(), ev->v.size());
    for (std::size_t i = 1; i < ev->t.size(); ++i) {
        EXPECT_GT(ev->t[i], ev->t[i - 1]);
        EXPECT_GE(ev->v[i], ev->v[i - 1]);
    }
    EXPECT_LE(ev->v.back(), static_cast<double>(r.events_dispatched));

    // The p2p traffic crosses link 0 (node 0 -> node 1), so its utilization
    // series must show activity and rank it as a hot spot.
    const obs::TimeSeries* util = r.series("link0.util");
    ASSERT_NE(util, nullptr);
    double peak = 0.0;
    for (const double v : util->v) peak = std::max(peak, v);
    EXPECT_GT(peak, 0.0);
    ASSERT_FALSE(r.hotspots.empty());
    EXPECT_EQ(r.hotspots[0].link, 0);
    EXPECT_DOUBLE_EQ(r.hotspots[0].peak_util, peak);

    const std::string json = r.to_json();
    EXPECT_TRUE(testsupport::json_valid(json));
    EXPECT_NE(json.find("\"timeseries\": [\n"), std::string::npos);
    EXPECT_NE(json.find("\"hotspots\": [\n"), std::string::npos);
    EXPECT_NE(json.find("link0.util"), std::string::npos);
}

TEST(StatsReport, RecorderDoesNotPerturbTheSimulation) {
    std::uint64_t time_off = 0, events_off = 0;
    {
        ClusterOptions opt;
        opt.nodes = 2;
        Cluster c(opt);
        c.run(p2p_workload);
        time_off = static_cast<std::uint64_t>(c.engine().now());
        events_off = c.engine().events_dispatched();
    }
    ClusterOptions opt = two_nodes_with_stats();
    opt.record = 500_ns;  // aggressive cadence: many samples
    Cluster c(opt);
    c.run(p2p_workload);
    EXPECT_EQ(static_cast<std::uint64_t>(c.engine().now()), time_off);
    EXPECT_EQ(c.engine().events_dispatched(), events_off);
    EXPECT_GT(c.recorder().sample_count(), 0u);
}

TEST(StatsReport, AbortPathStillWritesStatsAndTraceFiles) {
    const std::string stats = ::testing::TempDir() + "/scimpi_abort_stats.json";
    const std::string trace = ::testing::TempDir() + "/scimpi_abort.trace.json";
    std::remove(stats.c_str());
    std::remove(trace.c_str());
    {
        ClusterOptions opt = two_nodes_with_stats();
        opt.stats_file = stats;
        opt.trace_file = trace;
        opt.record = 1_us;
        Cluster c(opt);
        EXPECT_THROW(c.run([](Comm& comm) {
            std::vector<double> buf(128, 1.0);  // 1 KiB: the eager path
            if (comm.rank() == 0) {
                ASSERT_TRUE(
                    comm.send(buf.data(), 128, Datatype::float64(), 1, 0));
                panic("injected failure after first send");
            }
            comm.recv(buf.data(), 128, Datatype::float64(), 0, 0);
        }),
                     Panic);
        // flush_telemetry() ran on the abort path: both files exist already,
        // before ~Cluster.
        std::ifstream s_in(stats), t_in(trace);
        EXPECT_TRUE(s_in.good()) << stats;
        EXPECT_TRUE(t_in.good()) << trace;
    }
    // And they are valid, useful JSON (not truncated by the unwind).
    for (const std::string& path : {stats, trace}) {
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << path;
        std::stringstream ss;
        ss << in.rdbuf();
        EXPECT_TRUE(testsupport::json_valid(ss.str())) << path;
    }
    std::ifstream in(stats);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    // The pre-panic traffic made it into the aborted run's report.
    EXPECT_NE(json.find("\"mpi.sends_eager\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\": 6"), std::string::npos);
    std::remove(stats.c_str());
    std::remove(trace.c_str());
}

TEST(StatsReport, EnvVarTogglesTheRegistry) {
    ASSERT_EQ(setenv("SCIMPI_STATS", "1", 1), 0);
    {
        ClusterOptions opt;
        opt.nodes = 2;
        Cluster c(opt);
        EXPECT_TRUE(c.metrics().enabled());
    }
    ASSERT_EQ(setenv("SCIMPI_STATS", "0", 1), 0);
    {
        ClusterOptions opt;
        opt.nodes = 2;
        Cluster c(opt);
        EXPECT_FALSE(c.metrics().enabled());
    }
    unsetenv("SCIMPI_STATS");
}

}  // namespace
}  // namespace scimpi::mpi
