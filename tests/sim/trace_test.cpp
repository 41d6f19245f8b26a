#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mpi/comm.hpp"
#include "mpi/rma/window.hpp"
#include "obs/span.hpp"
#include "sim/sync.hpp"

namespace scimpi::sim {
namespace {

TEST(Tracer, SpanDetailJoinsTheLabelOnlyWhenRecorded) {
    Engine eng;
    eng.enable_views(kViewTrace);
    eng.spawn("p", [](Process& p) {
        const obs::Span scope(p, {.name = "bcast", .detail = "binomial", .trace = "coll"});
        p.delay(10);
    });
    eng.run();
    ASSERT_EQ(eng.tracer().event_count(), 1u);
    EXPECT_EQ(eng.tracer().name_of(eng.tracer().events()[0]), "bcast:binomial");
    EXPECT_EQ(eng.tracer().cat_of(eng.tracer().events()[0]), "coll");
}

TEST(Tracer, DisabledByDefaultRecordsNothing) {
    Engine eng;
    eng.spawn("p", [](Process& p) {
        const obs::Span scope(p, {.name = "work", .trace = ""});
        p.delay(100);
    });
    eng.run();
    EXPECT_EQ(eng.tracer().event_count(), 0u);
}

TEST(Tracer, SpansCaptureSimulatedDurations) {
    Engine eng;
    eng.enable_views(kViewTrace);
    eng.spawn("p", [](Process& p) {
        p.delay(50);
        {
            const obs::Span scope(p, {.name = "phase-one", .trace = ""});
            p.delay(200);
        }
        const obs::Span scope(p, {.name = "phase-two", .trace = ""});
        p.delay(300);
    });
    eng.run();
    const auto& events = eng.tracer().events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(eng.tracer().name_of(events[0]), "phase-one");
    EXPECT_EQ(events[0].t0, 50);
    EXPECT_EQ(events[0].t1, 250);
    EXPECT_EQ(eng.tracer().name_of(events[1]), "phase-two");
    EXPECT_EQ(events[1].t1 - events[1].t0, 300);
}

TEST(Tracer, InstantMarkers) {
    Engine eng;
    eng.enable_views(kViewTrace);
    eng.spawn("p", [&](Process& p) {
        p.delay(42);
        eng.tracer().instant(p.id(), "marker", p.now());
    });
    eng.run();
    ASSERT_EQ(eng.tracer().event_count(), 1u);
    EXPECT_EQ(eng.tracer().events()[0].kind, Tracer::Kind::instant);
    EXPECT_EQ(eng.tracer().events()[0].t0, 42);
}

TEST(Tracer, ChromeJsonIsWellFormed) {
    Engine eng;
    eng.enable_views(kViewTrace);
    eng.spawn("p", [](Process& p) {
        const obs::Span scope(p, {.name = R"(weird "name" \ here)", .trace = ""});
        p.delay(10);
    });
    eng.run();
    const std::string json = eng.tracer().to_chrome_json();
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find(R"("ph": "X")"), std::string::npos);
    EXPECT_NE(json.find(R"(\"name\")"), std::string::npos);  // escaped quotes
    EXPECT_NE(json.find("\"dur\": 0.010"), std::string::npos);
    // Balanced braces.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(Tracer, MpiWorkloadProducesProtocolSpans) {
    mpi::ClusterOptions opt;
    opt.nodes = 2;
    mpi::Cluster c(opt);
    c.engine().enable_views(kViewTrace);
    c.run([](mpi::Comm& comm) {
        std::vector<double> buf(64_KiB / 8, 1.0);
        if (comm.rank() == 0)
            ASSERT_TRUE(comm.send(buf.data(), static_cast<int>(buf.size()),
                                  mpi::Datatype::float64(), 1, 0));
        else
            comm.recv(buf.data(), static_cast<int>(buf.size()),
                      mpi::Datatype::float64(), 0, 0);
    });
    const Tracer& tr = c.engine().tracer();
    int packs = 0, unpacks = 0, starts = 0;
    for (const auto& e : tr.events()) {
        if (tr.name_of(e) == "rndv:pack_chunk") ++packs;
        if (tr.name_of(e) == "rndv:unpack_chunk") ++unpacks;
        if (tr.name_of(e) == "mpi:send_start") ++starts;
        EXPECT_GE(e.t1, e.t0);
    }
    EXPECT_EQ(packs, 1);    // 64 KiB = exactly one rendezvous chunk
    EXPECT_EQ(unpacks, 1);
    EXPECT_GE(starts, 1);   // user send + finalize barrier tokens
}

TEST(Tracer, FlowEventsPairUpAcrossMpiRanks) {
    mpi::ClusterOptions opt;
    opt.nodes = 2;
    mpi::Cluster c(opt);
    c.engine().enable_views(kViewTrace);
    c.run([](mpi::Comm& comm) {
        std::vector<double> small(16, 1.0);   // 128 B -> short path
        std::vector<double> mid(128, 1.0);    // 1 KiB -> eager path
        std::vector<double> big(64_KiB / 8, 1.0);  // -> rendezvous path
        if (comm.rank() == 0) {
            ASSERT_TRUE(comm.send(small.data(), 16, mpi::Datatype::float64(), 1, 0));
            ASSERT_TRUE(comm.send(mid.data(), 128, mpi::Datatype::float64(), 1, 1));
            ASSERT_TRUE(comm.send(big.data(), static_cast<int>(big.size()),
                                  mpi::Datatype::float64(), 1, 2));
        } else {
            comm.recv(small.data(), 16, mpi::Datatype::float64(), 0, 0);
            comm.recv(mid.data(), 128, mpi::Datatype::float64(), 0, 1);
            comm.recv(big.data(), static_cast<int>(big.size()),
                      mpi::Datatype::float64(), 0, 2);
        }
    });

    const Tracer& tr = c.engine().tracer();
    std::multiset<std::uint64_t> starts, ends;
    for (const auto& e : tr.events()) {
        if (e.kind == Tracer::Kind::flow_start) {
            EXPECT_EQ(tr.name_of(e), "msg");
            EXPECT_EQ(tr.cat_of(e), "p2p");
            starts.insert(e.arg);
        } else if (e.kind == Tracer::Kind::flow_end) {
            ends.insert(e.arg);
        }
    }
    // Every message on the wire opens exactly one flow and closes it at
    // delivery: 3 user messages plus the finalize-barrier tokens.
    EXPECT_GE(starts.size(), 3u);
    EXPECT_EQ(starts, ends);
    // Flow ids are unique per message.
    std::set<std::uint64_t> unique(starts.begin(), starts.end());
    EXPECT_EQ(unique.size(), starts.size());
}

TEST(Tracer, FlowEndpointsLandOnSenderAndReceiverTracks) {
    mpi::ClusterOptions opt;
    opt.nodes = 2;
    mpi::Cluster c(opt);
    c.engine().enable_views(kViewTrace);
    c.run([](mpi::Comm& comm) {
        std::vector<double> buf(128, 1.0);
        if (comm.rank() == 0)
            ASSERT_TRUE(comm.send(buf.data(), 128, mpi::Datatype::float64(), 1, 7));
        else
            comm.recv(buf.data(), 128, mpi::Datatype::float64(), 0, 7);
    });
    const Tracer& tr = c.engine().tracer();
    // Find the flow of the user eager message: its "s" is on rank 0's track
    // and its "f" on rank 1's (the finalize barrier contributes flows in
    // both directions, so match the pair up by id).
    std::map<std::uint64_t, std::pair<int, int>> pairs;  // id -> (s-track, f-track)
    for (const auto& e : tr.events()) {
        if (e.kind == Tracer::Kind::flow_start) pairs[e.arg].first = e.track;
        if (e.kind == Tracer::Kind::flow_end) pairs[e.arg].second = e.track;
    }
    ASSERT_FALSE(pairs.empty());
    bool cross_rank = false;
    for (const auto& [id, p] : pairs)
        if (p.first != p.second) cross_rank = true;
    EXPECT_TRUE(cross_rank);  // at least one arrow actually crosses tracks
}

TEST(Tracer, RmaOpsEmitFlowArrows) {
    mpi::ClusterOptions opt;
    opt.nodes = 2;
    mpi::Cluster c(opt);
    c.engine().enable_views(kViewTrace);
    c.run([](mpi::Comm& comm) {
        constexpr std::size_t kWin = 8_KiB;
        std::vector<std::byte> heap(kWin, std::byte{0});  // private -> emulated
        auto win = comm.win_create(heap.data(), kWin);
        std::vector<double> buf(8, 1.0);
        win->fence();
        if (comm.rank() == 0) {
            ASSERT_TRUE(win->put(buf.data(), 8, mpi::Datatype::float64(), 1, 0));
        }
        win->fence();
    });
    const Tracer& tr = c.engine().tracer();
    std::multiset<std::uint64_t> starts, ends;
    for (const auto& e : tr.events()) {
        if (e.cat_id == 0 || tr.cat_of(e) != "rma") continue;
        if (e.kind == Tracer::Kind::flow_start) starts.insert(e.arg);
        if (e.kind == Tracer::Kind::flow_end) ends.insert(e.arg);
    }
    EXPECT_EQ(starts.size(), 1u);  // the emulated put, origin -> handler
    EXPECT_EQ(starts, ends);
}

TEST(Tracer, ChromeJsonNamesTracksAndSerializesFlows) {
    mpi::ClusterOptions opt;
    opt.nodes = 2;
    mpi::Cluster c(opt);
    c.engine().enable_views(kViewTrace);
    c.run([](mpi::Comm& comm) {
        std::vector<double> buf(128, 1.0);
        if (comm.rank() == 0)
            ASSERT_TRUE(comm.send(buf.data(), 128, mpi::Datatype::float64(), 1, 0));
        else
            comm.recv(buf.data(), 128, mpi::Datatype::float64(), 0, 0);
    });
    const std::string json = c.engine().tracer().to_chrome_json();
    // Perfetto metadata: the process is named once, every rank track too.
    EXPECT_NE(json.find(R"("ph": "M")"), std::string::npos);
    EXPECT_NE(json.find(R"("name": "process_name")"), std::string::npos);
    EXPECT_NE(json.find(R"("name": "thread_name")"), std::string::npos);
    EXPECT_NE(json.find(R"("name": "rank 0")"), std::string::npos);
    EXPECT_NE(json.find(R"("name": "rank 1")"), std::string::npos);
    // Flow endpoints with Perfetto's enclosing-slice binding on the finish.
    EXPECT_NE(json.find(R"("ph": "s")"), std::string::npos);
    EXPECT_NE(json.find(R"("ph": "f", "bp": "e")"), std::string::npos);
    // Balanced braces (the cheap well-formedness proxy used elsewhere).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(Tracer, TrackNamesAreRecordedEvenWhileDisabled) {
    mpi::ClusterOptions opt;
    opt.nodes = 2;
    mpi::Cluster c(opt);  // tracer stays disabled
    c.run([](mpi::Comm& comm) { (void)comm; });
    EXPECT_EQ(c.engine().tracer().event_count(), 0u);
    // Every spawned process gets a track name (ranks, RMA handler daemons);
    // the rank processes carry the Perfetto-friendly "rank N" labels.
    const auto& names = c.engine().tracer().track_names();
    EXPECT_GE(names.size(), 2u);
    int ranks_named = 0;
    for (const auto& [track, name] : names)
        if (name == "rank 0" || name == "rank 1") ++ranks_named;
    EXPECT_EQ(ranks_named, 2);
}

TEST(Tracer, WriteToFileRoundTrips) {
    Engine eng;
    eng.enable_views(kViewTrace);
    eng.spawn("p", [](Process& p) {
        const obs::Span scope(p, {.name = "io", .trace = ""});
        p.delay(5);
    });
    eng.run();
    const std::string path = ::testing::TempDir() + "/scimpi_trace.json";
    ASSERT_TRUE(eng.tracer().write_chrome_json(path).is_ok());
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char head[2] = {};
    ASSERT_EQ(std::fread(head, 1, 1, f), 1u);
    std::fclose(f);
    EXPECT_EQ(head[0], '[');
}

// ---- obs::Span: one record, three views ----

TEST(Span, OneSpanFeedsAllThreeViewsOverTheSameInterval) {
    Engine eng;
    eng.enable_views(kViewTrace | kViewProfile | kViewGraph);
    int track = -1;
    eng.spawn("p", [&](Process& p) {
        track = p.id();
        p.delay(40);
        {
            const obs::Span span(p, {.name = "pack:stage",
                                     .trace = "p2p",
                                     .prof = obs::ProfState::pack,
                                     .ev = obs::EvCat::pack,
                                     .bytes = 512});
            p.delay(100);
        }
        p.delay(10);
    });
    eng.run();
    // Chrome trace: exactly one "X" slice.
    const Tracer& tr = eng.tracer();
    ASSERT_EQ(tr.event_count(), 1u);
    const Tracer::Event& x = tr.events()[0];
    EXPECT_EQ(x.kind, Tracer::Kind::span);
    EXPECT_EQ(tr.name_of(x), "pack:stage");
    EXPECT_EQ(x.t0, 40);
    EXPECT_EQ(x.t1, 140);
    EXPECT_EQ(x.arg, 512u);
    // Profiler: the interval, and only it, is attributed to `pack`.
    const obs::Profiler::Snapshot snap = eng.profiler().snapshot(track, eng.now());
    EXPECT_EQ(snap.state_ns[static_cast<std::size_t>(obs::ProfState::pack)], 100u);
    EXPECT_EQ(snap.state_ns[static_cast<std::size_t>(obs::ProfState::compute)], 50u);
    // Event graph: exactly one node over the same [t0, t1].
    const obs::EventGraph& g = eng.evgraph();
    ASSERT_EQ(g.nodes().size(), 1u);
    const obs::EvNode& n = g.nodes()[0];
    EXPECT_EQ(n.cat, obs::EvCat::pack);
    EXPECT_EQ(g.name(n.name), "pack:stage");
    EXPECT_EQ(n.t0, x.t0);
    EXPECT_EQ(n.t1, x.t1);
    EXPECT_EQ(n.bytes, 512u);
}

TEST(Span, AllViewsOffRecordsAndInternsNothing) {
    Engine eng;
    std::uint64_t id = 99;
    eng.spawn("p", [&](Process& p) {
        obs::Span span(p, {.name = "work",
                           .detail = "phase",
                           .trace = "p2p",
                           .prof = obs::ProfState::pack,
                           .ev = obs::EvCat::pack,
                           .bytes = 64});
        p.delay(100);
        id = span.close();
    });
    eng.run();
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(eng.tracer().event_count(), 0u);
    EXPECT_TRUE(eng.evgraph().nodes().empty());
    // Nothing was interned: the first name either view sees gets id 1.
    EXPECT_EQ(eng.tracer().intern("x"), 1u);
    EXPECT_EQ(eng.evgraph().intern("x"), 1u);
}

TEST(Span, NestedSpanWithoutEvCatLeavesTheProgramOrderChain) {
    Engine eng;
    eng.enable_views(kViewTrace | kViewProfile | kViewGraph);
    std::uint64_t first = 0, outer = 0;
    eng.spawn("p", [&](Process& p) {
        first = obs::Span::point(p, {.name = "a", .ev = obs::EvCat::proto});
        obs::Span span(p, {.name = "b", .ev = obs::EvCat::pio});
        {
            const obs::Span inner(p, {.name = "inner",
                                      .trace = "p2p",
                                      .prof = obs::ProfState::pio_write});
            p.delay(30);
        }
        outer = span.close();
    });
    eng.run();
    const obs::EventGraph& g = eng.evgraph();
    ASSERT_EQ(g.nodes().size(), 2u);  // the inner span made no node
    ASSERT_NE(first, 0u);
    ASSERT_NE(outer, 0u);
    EXPECT_EQ(g.at(outer).prev, first);
    EXPECT_EQ(g.at(outer).t1 - g.at(outer).t0, 30);
    EXPECT_EQ(eng.tracer().event_count(), 1u);  // the inner slice
}

TEST(Span, DropEmptyRecordsOnlySpansThatTookTime) {
    Engine eng;
    eng.enable_views(kViewTrace | kViewGraph);
    eng.spawn("p", [](Process& p) {
        const obs::SpanInfo info{.name = "wait", .trace = "p2p",
                                 .ev = obs::EvCat::wait_recv, .drop_empty = true};
        { const obs::Span idle(p, info); }
        const obs::Span busy(p, info);
        p.delay(5);
    });
    eng.run();
    EXPECT_EQ(eng.tracer().event_count(), 1u);
    ASSERT_EQ(eng.evgraph().nodes().size(), 1u);
    EXPECT_TRUE(eng.evgraph().nodes()[0].transparent);
}

TEST(Span, LandDrawsTheGraphEdgeAndTheFlowArrowFromOneCause) {
    Engine eng;
    eng.enable_views(kViewTrace | kViewGraph);
    obs::Cause cause;
    eng.spawn("tx", [&](Process& p) {
        cause = p.engine().start_flow(p, obs::Flow::msg);
        cause.node = obs::Span::point(p, {.name = "push", .ev = obs::EvCat::pio});
    });
    eng.spawn("rx", [&](Process& p) {
        p.delay(100);
        const std::uint64_t to =
            obs::Span::point(p, {.name = "arrive", .ev = obs::EvCat::proto});
        p.engine().land(p, cause, to, obs::EvCat::link, true, 0, 1);
    });
    eng.run();
    const obs::EventGraph& g = eng.evgraph();
    ASSERT_EQ(g.edges().size(), 1u);
    EXPECT_EQ(g.edges()[0].from, cause.node);
    EXPECT_EQ(g.edges()[0].cat, obs::EvCat::link);
    int starts = 0, ends = 0;
    for (const auto& e : eng.tracer().events()) {
        if (e.kind == Tracer::Kind::flow_start) ++starts;
        if (e.kind == Tracer::Kind::flow_end) {
            ++ends;
            EXPECT_EQ(e.arg, cause.flow);
            EXPECT_EQ(e.t0, 100);
        }
    }
    EXPECT_EQ(starts, 1);
    EXPECT_EQ(ends, 1);
}

}  // namespace
}  // namespace scimpi::sim
