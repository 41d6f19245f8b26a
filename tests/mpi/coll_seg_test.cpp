// Tests for the SCI-native collective engine (src/mpi/coll/): segment-routed
// algorithms, size/override-driven selection, sub-communicators, non-
// contiguous datatypes flattened straight into the collective segments,
// one pack path and one pack cost on every transport, p2p-fallback
// resilience and scimpi-check cleanliness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype/pack_ff.hpp"
#include "mpi/rma/window.hpp"
#include "obs/profiler.hpp"
#include "sim/schedule.hpp"

namespace scimpi::mpi {
namespace {

TEST(CollSeg, BcastEverySizeAndRootThroughSegments) {
    ClusterOptions opt;
    opt.nodes = 8;
    opt.collect_stats = true;
    Cluster c(opt);
    // 512 B rides p2p (below coll_seg_min), 4 KiB takes the flat fan-out,
    // 16 KiB the binomial tree, 256 KiB scatter + ring allgather; every
    // root, so parent/child maps (and ring orders) rotate.
    const std::vector<std::size_t> sizes = {512, 4_KiB, 16_KiB, 256_KiB};
    c.run([&](Comm& comm) {
        for (const std::size_t bytes : sizes) {
            for (int root = 0; root < comm.size(); ++root) {
                std::vector<double> data(bytes / sizeof(double), -1.0);
                if (comm.rank() == root)
                    std::iota(data.begin(), data.end(), root * 1000.0);
                ASSERT_TRUE(comm.bcast(data.data(), static_cast<int>(data.size()),
                                       Datatype::float64(), root));
                EXPECT_EQ(data.front(), root * 1000.0);
                EXPECT_EQ(data.back(),
                          root * 1000.0 + static_cast<double>(data.size()) - 1.0);
            }
        }
    });
    const obs::RunReport r = c.stats_report();
    EXPECT_GT(r.counter("coll.bcast.flat"), 0u);
    EXPECT_GT(r.counter("coll.bcast.binomial"), 0u);
    EXPECT_GT(r.counter("coll.bcast.scatter_ag"), 0u);
    EXPECT_GT(r.counter("coll.bcast.p2p"), 0u);
    EXPECT_GT(r.counter("coll.seg_bytes"), 0u);
    EXPECT_EQ(r.counter("coll.fallbacks"), 0u);
}

TEST(CollSeg, SplitSubCommunicatorsRunSegmentCollectives) {
    ClusterOptions opt;
    opt.nodes = 6;
    opt.coll = "seg";  // ignore size thresholds: route everything possible
    Cluster c(opt);
    c.run([](Comm& comm) {
        // Two disjoint sub-communicators of 3; each gets its own segment set
        // (fresh context id), so streams cannot cross.
        Comm half = comm.split(comm.rank() % 2, comm.rank());
        std::vector<double> data(8_KiB / 8);
        const int root = 1;
        if (half.rank() == root)
            std::iota(data.begin(), data.end(), 100.0 * (comm.rank() % 2));
        ASSERT_TRUE(half.bcast(data.data(), static_cast<int>(data.size()),
                               Datatype::float64(), root));
        EXPECT_EQ(data.front(), 100.0 * (comm.rank() % 2));

        double in = half.rank() + 1.0;
        double out = 0.0;
        ASSERT_TRUE(half.allreduce_sum(&in, &out, 1));
        EXPECT_DOUBLE_EQ(out, 1.0 + 2.0 + 3.0);
        half.barrier();

        // Size-1 communicators short-circuit every operation.
        Comm solo = comm.split(comm.rank(), 0);
        ASSERT_EQ(solo.size(), 1);
        solo.barrier();
        double v = 42.0;
        double w = 0.0;
        ASSERT_TRUE(solo.bcast(&v, 1, Datatype::float64(), 0));
        ASSERT_TRUE(solo.allreduce_sum(&v, &w, 1));
        EXPECT_DOUBLE_EQ(w, 42.0);
        comm.barrier();
    });
}

TEST(CollSeg, NonContiguousBcastFlattensIntoSegments) {
    ClusterOptions opt;
    opt.nodes = 4;
    opt.coll = "seg";
    opt.collect_stats = true;
    Cluster c(opt);
    // 1024 blocks of 4 doubles every 8: 32 KiB of payload in a 64 KiB
    // footprint. Leaf-major order is canonical, so the publish side must
    // gather the blocks straight into the remote segment (ff path).
    constexpr int kBlocks = 1024;
    constexpr int kStride = 8;
    constexpr int kBlock = 4;
    c.run([&](Comm& comm) {
        const Datatype vec =
            Datatype::vector(kBlocks, kBlock, kStride, Datatype::float64());
        std::vector<double> field(kBlocks * kStride, -1.0);
        if (comm.rank() == 0) {
            for (int b = 0; b < kBlocks; ++b)
                for (int i = 0; i < kBlock; ++i)
                    field[static_cast<std::size_t>(b * kStride + i)] = b * 10.0 + i;
        }
        ASSERT_TRUE(comm.bcast(field.data(), 1, vec, 0));
        for (int b = 0; b < kBlocks; ++b) {
            for (int i = 0; i < kStride; ++i) {
                const double v = field[static_cast<std::size_t>(b * kStride + i)];
                if (i < kBlock)
                    EXPECT_EQ(v, b * 10.0 + i);
                else
                    EXPECT_EQ(v, -1.0) << "gap bytes must stay untouched";
            }
        }
    });
    const obs::RunReport r = c.stats_report();
    EXPECT_GT(r.counter("coll.ff_seg_packs"), 0u);
    EXPECT_EQ(r.counter("coll.generic_seg_packs"), 0u);
}

/// One vector layout sent by rendezvous and broadcast through segments on
/// two nodes: both transports must take the path the pack-path policy
/// picks. `gathers`: SCI writes gather the blocks directly (ff) rather than
/// stage them; `unpacks_ff`: receivers unpack with ff (the D6 gate applies
/// to writes only).
void expect_same_pack_path(void (*tweak)(Config&), bool gathers, bool unpacks_ff) {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.coll = "seg";
    opt.collect_stats = true;
    tweak(opt.cfg);
    Cluster c(opt);
    // 1024 blocks of 4 doubles (32 B) every 8: 32 KiB of payload, above the
    // eager threshold and one chunk on either transport.
    constexpr int kBlocks = 1024;
    constexpr int kStride = 8;
    constexpr int kBlock = 4;
    c.run([&](Comm& comm) {
        const Datatype vec =
            Datatype::vector(kBlocks, kBlock, kStride, Datatype::float64());
        std::vector<double> p2p(kBlocks * kStride, -1.0);
        std::vector<double> bc(kBlocks * kStride, -1.0);
        if (comm.rank() == 0) {
            std::iota(p2p.begin(), p2p.end(), 0.0);
            std::iota(bc.begin(), bc.end(), 0.0);
            ASSERT_TRUE(comm.send(p2p.data(), 1, vec, 1, 0));
        } else {
            ASSERT_TRUE(comm.recv(p2p.data(), 1, vec, 0, 0).status);
        }
        ASSERT_TRUE(comm.bcast(bc.data(), 1, vec, 0));
        if (comm.rank() == 1) {
            for (int i = 0; i < kBlocks * kStride; ++i) {
                const double want = i % kStride < kBlock ? i : -1.0;
                ASSERT_EQ(p2p[static_cast<std::size_t>(i)], want) << "rendezvous at " << i;
                ASSERT_EQ(bc[static_cast<std::size_t>(i)], want) << "bcast at " << i;
            }
        }
    });
    const obs::RunReport r = c.stats_report();
    EXPECT_EQ(r.counter("pack.ff_direct_blocks"), gathers ? kBlocks : 0u);
    EXPECT_EQ(r.counter("pack.generic_staged_bytes"), gathers ? 0u : 32_KiB);
    // Every published chunk has one reader here.
    const std::uint64_t chunks = r.counter("coll.seg_chunks");
    ASSERT_GT(chunks, 0u);
    EXPECT_EQ(r.counter("coll.ff_seg_packs"),
              (gathers ? chunks : 0u) + (unpacks_ff ? chunks : 0u));
    EXPECT_EQ(r.counter("coll.generic_seg_packs"),
              (gathers ? 0u : chunks) + (unpacks_ff ? 0u : chunks));
}

TEST(PackPath, FFGathersOnRendezvousAndSegments) {
    expect_same_pack_path([](Config&) {}, /*gathers=*/true, /*unpacks_ff=*/true);
}

TEST(PackPath, DirectPackOffStagesOnRendezvousAndSegments) {
    expect_same_pack_path([](Config& cfg) { cfg.use_direct_pack_ff = false; },
                          /*gathers=*/false, /*unpacks_ff=*/false);
}

TEST(PackPath, MinBlockGateStagesOnRendezvousAndSegments) {
    expect_same_pack_path([](Config& cfg) { cfg.ff_min_block = 64; },
                          /*gathers=*/false, /*unpacks_ff=*/true);
}

/// Simulated time `body` takes on the calling rank.
template <class Body>
SimTime elapsed(Comm& comm, Body&& body) {
    const SimTime t0 = comm.proc().now();
    body();
    return comm.proc().now() - t0;
}

/// Comm::pack then Comm::unpack of `count` x `type` on one rank: each must
/// charge exactly what pack_stream / unpack_stream charge for the same
/// move, count in the pack.* counter of its path, and the round trip must
/// restore the data. Returns the pack charge.
SimTime expect_pack_stream_charges(const Datatype& type, int count, Config cfg = {}) {
    ClusterOptions opt;
    opt.nodes = 1;
    opt.cfg = cfg;
    Cluster c(opt);
    SimTime pack_ns = 0;
    PackPath path = PackPath::copy;
    c.run([&](Comm& comm) {
        Datatype t = type;
        if (!t.committed()) t.commit(c.options().cfg);
        const std::size_t bytes = t.size() * static_cast<std::size_t>(count);
        const std::size_t span = static_cast<std::size_t>(t.extent()) *
                                 static_cast<std::size_t>(count);
        std::vector<std::byte> in(span);
        for (std::size_t i = 0; i < span; ++i) in[i] = static_cast<std::byte>(i * 7 + 1);
        std::vector<std::byte> packed(bytes);
        std::vector<std::byte> out(span);
        std::vector<std::byte> ref(bytes);
        const bool ff = ff_may_move(c.options().cfg, t);
        const mem::CopyModel& cm = comm.rank_state().copy_model();
        std::size_t pos = 0;
        pack_ns = elapsed(comm, [&] {
            ASSERT_TRUE(comm.pack(in.data(), count, t, packed, &pos));
        });
        EXPECT_EQ(pos, bytes);
        const StreamMove want = pack_stream(&t, count, in.data(), 0, bytes, ref.data(), ff, cm);
        EXPECT_EQ(pack_ns, want.cost);
        path = want.path;
        EXPECT_EQ(packed, ref);
        pos = 0;
        const SimTime unpack_ns = elapsed(comm, [&] {
            ASSERT_TRUE(comm.unpack(packed, &pos, out.data(), count, t));
        });
        EXPECT_EQ(unpack_ns,
                  unpack_stream(&t, count, out.data(), 0, bytes, packed.data(), ff, cm).cost);
        t.for_each_block(0, count, [&](std::ptrdiff_t off, std::size_t len) {
            EXPECT_EQ(std::memcmp(out.data() + off, in.data() + off, len), 0) << "at " << off;
        });
    });
    // A contiguous copy counts as neither path; a generic pack stages its
    // bytes, an unpack stages none.
    const obs::MetricsRegistry& m = c.metrics();
    const std::uint64_t bytes = type.size() * static_cast<std::uint64_t>(count);
    EXPECT_EQ(m.value("pack.ff_packs", 0), path == PackPath::ff ? 2u : 0u);
    EXPECT_EQ(m.value("pack.generic_packs", 0), path == PackPath::generic ? 2u : 0u);
    EXPECT_EQ(m.value("pack.generic_staged_bytes", 0), path == PackPath::generic ? bytes : 0u);
    return pack_ns;
}

// MPI_Pack of a contiguous layout costs what a memcpy of its bytes costs
// (Hunold, Carpen-Amarie and Träff's guideline), not a strided walk with
// one block per element.
TEST(PackCost, ContiguousCommPackChargesWhatPackStreamCharges) {
    for (const int n : {1024, 8192}) {
        SCOPED_TRACE(n);
        expect_pack_stream_charges(Datatype::float64(), n);
    }
}

// The non-contiguous charges are pinned: the ff walk of an order-safe
// vector and the generic walk with direct_pack_ff off (the noncontig_pack
// workload's path).
TEST(PackCost, NonContiguousCommPackChargeIsUnchanged) {
    const Datatype vec = Datatype::vector(256, 4, 8, Datatype::float64());
    EXPECT_EQ(expect_pack_stream_charges(vec, 2), 70'791);
    Config generic;
    generic.use_direct_pack_ff = false;
    EXPECT_EQ(expect_pack_stream_charges(vec, 2, generic), 121'791);
}

/// Rank 0 puts `count` x `type` into rank 1's private window (the emulated
/// path): the time it spends in the pack state must be the origin pack
/// pack_stream charges, and the pack counts in the counter of its path.
void expect_emulated_put_packs_like_pack_stream(const Datatype& type, int count) {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.profile = true;
    Cluster c(opt);
    c.run([&](Comm& comm) {
        Datatype t = type;
        if (!t.committed()) t.commit(c.options().cfg);
        const std::size_t bytes = t.size() * static_cast<std::size_t>(count);
        const std::size_t span = static_cast<std::size_t>(t.extent()) *
                                 static_cast<std::size_t>(count);
        std::vector<std::byte> heap(span, std::byte{0});
        auto win = comm.win_create(heap.data(), heap.size());
        win->fence();
        if (comm.rank() == 0) {
            std::vector<std::byte> in(span);
            for (std::size_t i = 0; i < span; ++i) in[i] = static_cast<std::byte>(i + 3);
            sim::Engine& eng = comm.proc().engine();
            const auto pack_state = [&] {
                return eng.profiler()
                    .snapshot(comm.proc().id(), eng.now())
                    .state_ns[static_cast<std::size_t>(obs::ProfState::pack)];
            };
            const obs::MetricsRegistry& m = c.metrics();
            const std::uint64_t before = pack_state();
            const std::uint64_t ff_before = m.value("pack.ff_packs", 0);
            ASSERT_TRUE(win->put(in.data(), count, t, 1, 0));
            std::vector<std::byte> ref(bytes);
            const StreamMove want = pack_stream(&t, count, in.data(), 0, bytes, ref.data(),
                                                ff_may_move(c.options().cfg, t),
                                                comm.rank_state().copy_model());
            EXPECT_EQ(pack_state() - before, want.cost);
            EXPECT_EQ(m.value("pack.ff_packs", 0) - ff_before,
                      want.path == PackPath::ff ? 1u : 0u);
            EXPECT_EQ(c.metrics().value("rma.emulated_puts", 0), 1u);
        }
        win->fence();
    });
}

TEST(PackCost, EmulatedPutPacksAContiguousRunLikePackStream) {
    expect_emulated_put_packs_like_pack_stream(Datatype::byte_(), 4096);
}

TEST(PackCost, EmulatedPutPacksAnFFSafeVectorLikePackStream) {
    Datatype vec = Datatype::vector(64, 4, 8, Datatype::float64());
    vec.commit(Config{});
    ASSERT_TRUE(ff_may_move(Config{}, vec));
    expect_emulated_put_packs_like_pack_stream(vec, 2);
}

TEST(CollSeg, TypedAllgatherUnpacksFromOwnSegment) {
    ClusterOptions opt;
    opt.nodes = 4;
    opt.coll = "seg";
    opt.collect_stats = true;
    Cluster c(opt);
    // Each rank contributes one strided instance; block i of the result is
    // written by rank i's remote flatten and unpacked out of the local
    // segment — the extent gaps must stay untouched.
    constexpr int kBlocks = 256;
    constexpr int kStride = 8;
    constexpr int kBlock = 4;
    c.run([&](Comm& comm) {
        Datatype vec =
            Datatype::vector(kBlocks, kBlock, kStride, Datatype::float64());
        vec.commit(c.options().cfg);
        const std::size_t ext_elems = vec.extent() / sizeof(double);
        std::vector<double> mine(ext_elems, -1.0);
        for (int b = 0; b < kBlocks; ++b)
            for (int i = 0; i < kBlock; ++i)
                mine[static_cast<std::size_t>(b * kStride + i)] =
                    comm.rank() * 1e6 + b * 10.0 + i;
        std::vector<double> all(
            static_cast<std::size_t>(comm.size()) * ext_elems, -1.0);
        ASSERT_TRUE(comm.allgather(mine.data(), 1, vec, all.data()));
        for (int r = 0; r < comm.size(); ++r) {
            const double* blk = all.data() + static_cast<std::size_t>(r) * ext_elems;
            for (int b = 0; b < kBlocks; ++b)
                for (int i = 0; i < kBlock; ++i)
                    EXPECT_EQ(blk[b * kStride + i], r * 1e6 + b * 10.0 + i);
        }
    });
    EXPECT_GT(c.stats_report().counter("coll.ff_seg_packs"), 0u);
}

/// The alltoall ordering fix: the pairwise schedule is deterministic, so the
/// segment and p2p paths must produce byte-identical outputs, and repeated
/// runs must reproduce themselves exactly.
TEST(CollSeg, AlltoallDeterministicAcrossPathsAndRuns) {
    constexpr int kNodes = 5;
    constexpr std::size_t kEach = 96_KiB;  // > chunk: multi-chunk streams
    auto run_once = [&](const std::string& coll) {
        ClusterOptions opt;
        opt.nodes = kNodes;
        opt.coll = coll;
        Cluster c(opt);
        std::vector<std::vector<std::byte>> outs(kNodes);
        c.run([&](Comm& comm) {
            std::vector<std::byte> in(kEach * kNodes);
            for (std::size_t i = 0; i < in.size(); ++i)
                in[i] = static_cast<std::byte>(
                    (static_cast<std::size_t>(comm.rank()) * 131 + i * 7) & 0xFF);
            std::vector<std::byte> out(kEach * kNodes);
            ASSERT_TRUE(comm.alltoall(in.data(), kEach, out.data()));
            outs[static_cast<std::size_t>(comm.rank())] = out;
        });
        return outs;
    };
    const auto seg1 = run_once("alltoall=pairwise");
    const auto seg2 = run_once("alltoall=pairwise");
    const auto p2p = run_once("p2p");
    for (int r = 0; r < kNodes; ++r) {
        EXPECT_EQ(seg1[static_cast<std::size_t>(r)], seg2[static_cast<std::size_t>(r)])
            << "segment path must be run-to-run deterministic (rank " << r << ")";
        EXPECT_EQ(seg1[static_cast<std::size_t>(r)], p2p[static_cast<std::size_t>(r)])
            << "segment and p2p paths must agree byte-for-byte (rank " << r << ")";
    }
}

TEST(CollSeg, AllreduceSmallFastPathAndLargeRing) {
    ClusterOptions opt;
    opt.nodes = 4;
    opt.collect_stats = true;
    Cluster c(opt);
    c.run([](Comm& comm) {
        // 16 doubles = 128 B <= coll_small_allreduce: pinned rdouble path.
        std::vector<double> sin(16, comm.rank() + 1.0);
        std::vector<double> sout(16, 0.0);
        ASSERT_TRUE(comm.allreduce_sum(sin.data(), sout.data(), 16));
        for (const double v : sout) EXPECT_DOUBLE_EQ(v, 1.0 + 2.0 + 3.0 + 4.0);
        // 256 KiB >= coll_ring_min with 4 ranks: bandwidth-optimal ring.
        const int n = static_cast<int>(256_KiB / sizeof(double));
        std::vector<double> lin(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            lin[static_cast<std::size_t>(i)] = comm.rank() + i * 0.5;
        std::vector<double> lout(static_cast<std::size_t>(n), 0.0);
        ASSERT_TRUE(comm.allreduce_sum(lin.data(), lout.data(), n));
        for (int i = 0; i < n; i += 997)
            EXPECT_DOUBLE_EQ(lout[static_cast<std::size_t>(i)],
                             (0.0 + 1.0 + 2.0 + 3.0) + 4 * (i * 0.5));
    });
    const obs::RunReport r = c.stats_report();
    EXPECT_GT(r.counter("coll.small_allreduce"), 0u);
    EXPECT_GT(r.counter("coll.allreduce.rdouble"), 0u);
    EXPECT_GT(r.counter("coll.allreduce.ring"), 0u);
}

TEST(CollSeg, OverridesSteerSelection) {
    ClusterOptions opt;
    opt.nodes = 4;
    opt.collect_stats = true;
    opt.coll = "bcast=p2p,allreduce=ring";
    Cluster c(opt);
    c.run([](Comm& comm) {
        std::vector<double> data(64_KiB / 8, 0.0);
        if (comm.rank() == 0) data.assign(data.size(), 7.0);
        ASSERT_TRUE(comm.bcast(data.data(), static_cast<int>(data.size()),
                               Datatype::float64(), 0));
        EXPECT_EQ(data.back(), 7.0);
        double in = 1.0;
        double out = 0.0;
        ASSERT_TRUE(comm.allreduce_sum(&in, &out, 1));
        EXPECT_DOUBLE_EQ(out, 4.0);
    });
    const obs::RunReport r = c.stats_report();
    EXPECT_GT(r.counter("coll.bcast.p2p"), 0u);
    EXPECT_EQ(r.counter("coll.bcast.flat") + r.counter("coll.bcast.binomial"), 0u);
    EXPECT_GT(r.counter("coll.allreduce.ring"), 0u);
}

TEST(CollSeg, MalformedOverrideSpecPanics) {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.coll = "bcast=warpspeed";
    EXPECT_THROW({ Cluster c(opt); }, Panic);
}

/// A link that dies mid-broadcast for longer than the retry budget forces
/// the writer onto the p2p fallback; the collective still completes with
/// intact data once the protocol-level retries ride out the outage.
TEST(CollSeg, LinkFlapMidBcastDegradesToP2PWithoutHanging) {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.collect_stats = true;
    // Down for 30 ms at t=100us: longer than the 20 ms segment retry budget
    // (forcing the fallback) but short enough that the fallback's own p2p
    // retries recover.
    opt.faults.flap(100'000, 0, 30'000'000);
    Status st;
    double tail = -1.0;
    Cluster c(opt);
    c.run([&](Comm& comm) {
        std::vector<double> data(4_MiB / 8);
        if (comm.rank() == 0) std::iota(data.begin(), data.end(), 1.0);
        st = comm.bcast(data.data(), static_cast<int>(data.size()),
                        Datatype::float64(), 0);
        if (comm.rank() == 1) tail = data.back();
    });
    EXPECT_TRUE(st) << st.to_string();
    EXPECT_EQ(tail, static_cast<double>(4_MiB / 8));
    const obs::RunReport r = c.stats_report();
    EXPECT_GE(r.counter("coll.fallbacks"), 1u);
    EXPECT_GE(r.counter("coll.fallback_recvs"), 1u);
    EXPECT_GE(r.counter("coll.degraded_edges"), 1u);
}

/// One 4 MiB bcast from rank 0 on a faulty 2-node cluster: the combined
/// status, rank 1's last element and the stats report.
struct FaultyBcast {
    Status st;
    double tail = -1.0;
    obs::RunReport report;
};

FaultyBcast faulty_bcast(ClusterOptions opt) {
    opt.nodes = 2;
    opt.collect_stats = true;
    FaultyBcast out;
    Cluster c(opt);
    c.run([&](Comm& comm) {
        std::vector<double> data(4_MiB / 8);
        if (comm.rank() == 0) std::iota(data.begin(), data.end(), 1.0);
        const Status s = comm.bcast(data.data(), static_cast<int>(data.size()),
                                    Datatype::float64(), 0);
        if (!s) out.st = s;
        if (comm.rank() == 1) out.tail = data.back();
    });
    out.report = c.stats_report();
    return out;
}

/// The reverse link dying mid-broadcast starves the writer of acks. The
/// reader's ack retries give up, pin the edge and wake the writer, which
/// diverts the rest of the transfer to p2p; the data still arrives intact.
TEST(CollSeg, LostAcksDivertTheWriterToP2P) {
    ClusterOptions opt;
    // Link 1 carries node 1 -> node 0, the ack direction of a bcast from
    // rank 0. Down for 30 ms at t=100us: longer than the 20 ms retry budget.
    opt.faults.flap(100'000, 1, 30'000'000);
    const FaultyBcast b = faulty_bcast(opt);
    EXPECT_TRUE(b.st) << b.st.to_string();
    EXPECT_EQ(b.tail, static_cast<double>(4_MiB / 8));
    EXPECT_GE(b.report.counter("coll.ack_drops"), 1u);
    EXPECT_GE(b.report.counter("coll.fallbacks"), 1u);
    EXPECT_GE(b.report.counter("coll.degraded_edges"), 1u);
}

/// Under async progress the daemon, not the parked reader, dispatches the
/// writer's p2p divert; the reader still sees it and completes.
TEST(CollSeg, LinkFlapDivertReachesTheReaderUnderAsyncProgress) {
    ClusterOptions opt;
    opt.async_progress = true;
    opt.faults.flap(100'000, 0, 30'000'000);  // link 0: node 0 -> node 1, the data path
    const FaultyBcast b = faulty_bcast(opt);
    EXPECT_TRUE(b.st) << b.st.to_string();
    EXPECT_EQ(b.tail, static_cast<double>(4_MiB / 8));
    EXPECT_GE(b.report.counter("coll.fallbacks"), 1u);
    EXPECT_GE(b.report.counter("coll.fallback_recvs"), 1u);
}

/// Dispatches a rank before a progress daemon it ties with: the reverse of
/// the FIFO default, where a control message's arrival wakes the daemon
/// (inbox) before the parked rank (coll_waiters).
struct RanksBeforeDaemons : sim::ScheduleController {
    std::uint64_t flips = 0;
    std::size_t choose(const sim::ChoicePoint& cp) override {
        if (cp.kind != sim::ChoiceKind::dispatch) return 0;
        bool daemon = false;
        for (const sim::ChoiceAlt& a : cp.alts) daemon = daemon || a.label.starts_with("prog");
        if (!daemon) return 0;
        for (std::size_t i = 0; i < cp.alts.size(); ++i) {
            if (!cp.alts[i].label.starts_with("rank")) continue;
            if (i != 0) ++flips;
            return i;
        }
        return 0;
    }
};

/// The same divert with the reader dispatched before its daemon when the
/// divert arrives: the reader probes too early, re-parks, and only the
/// daemon's coll_waiters() wake after it dispatched the message lets it
/// see the divert. Nothing else would wake it: the writer's divert is a
/// rendezvous send blocked on the reader's clear-to-send.
TEST(CollSeg, ProgressDaemonWakesAReaderDispatchedBeforeIt) {
    RanksBeforeDaemons ctrl;
    ClusterOptions opt;
    opt.async_progress = true;
    opt.schedule = &ctrl;
    opt.faults.flap(100'000, 0, 30'000'000);
    const FaultyBcast b = faulty_bcast(opt);
    EXPECT_TRUE(b.st) << b.st.to_string();
    EXPECT_EQ(b.tail, static_cast<double>(4_MiB / 8));
    EXPECT_GE(b.report.counter("coll.fallback_recvs"), 1u);
    EXPECT_GT(ctrl.flips, 0u);
}

/// Segment-set waits have no re-poll timer: a collective that one rank never
/// joins ends in the engine's deadlock panic, naming the wait, not in a
/// livelock of timed re-polls.
TEST(CollSeg, CollectiveOneRankNeverJoinsIsANamedDeadlock) {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.coll = "seg";
    Cluster c(opt);
    try {
        c.run([](Comm& comm) {
            std::vector<double> data(128_KiB / 8, 1.0);
            ASSERT_TRUE(comm.bcast(data.data(), static_cast<int>(data.size()),
                                   Datatype::float64(), 0));
            if (comm.rank() == 1) {
                (void)comm.bcast(data.data(), static_cast<int>(data.size()),
                                 Datatype::float64(), 0);
            } else {
                int v = 0;
                (void)comm.recv(&v, 1, Datatype::int32(), 1, 7);  // never sent
            }
        });
        FAIL() << "expected deadlock panic";
    } catch (const Panic& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
        EXPECT_NE(what.find("rank1 (in coll segment wait)"), std::string::npos) << what;
    }
}

/// No stale wake outlives the work: the run ends right after the last rank's
/// last operation (plus the implicit finalize barrier), not a poll period
/// later.
TEST(CollSeg, RunEndsWithTheLastRanksWork) {
    ClusterOptions opt;
    opt.nodes = 4;
    opt.coll = "seg";
    Cluster c(opt);
    std::vector<double> done(4, 0.0);
    c.run([&](Comm& comm) {
        std::vector<double> data(128_KiB / 8, 1.0);
        ASSERT_TRUE(comm.bcast(data.data(), static_cast<int>(data.size()),
                               Datatype::float64(), 0));
        comm.barrier();
        done[static_cast<std::size_t>(comm.rank())] = comm.wtime();
    });
    const double last = *std::max_element(done.begin(), done.end());
    EXPECT_GT(last, 0.0);
    EXPECT_LT(c.wtime() - last, 10e-6);
}

/// scimpi-check sees every store into the watched collective data segments;
/// the ready/ack flag protocol must therefore carry happens-before edges
/// that make slot and parity reuse race-free across repeated collectives.
TEST(CollSeg, CheckedSegmentCollectivesReportNoViolations) {
    ClusterOptions opt;
    opt.nodes = 4;
    opt.procs_per_node = 2;  // loopback segment accesses are checked too
    opt.coll = "seg";
    opt.check = true;
    Cluster c(opt);
    c.run([](Comm& comm) {
        std::vector<double> data(128_KiB / 8);
        std::vector<double> sum(data.size());
        std::vector<std::byte> a2a_in(16_KiB * static_cast<std::size_t>(comm.size()));
        std::vector<std::byte> a2a_out(a2a_in.size());
        // Two rounds: the second reuses every stream's slots and parities,
        // which is exactly where a missing ack edge would race.
        for (int round = 0; round < 2; ++round) {
            if (comm.rank() == round)
                std::iota(data.begin(), data.end(), round * 1.0);
            ASSERT_TRUE(comm.bcast(data.data(), static_cast<int>(data.size()),
                                   Datatype::float64(), round));
            ASSERT_TRUE(comm.allreduce_sum(data.data(), sum.data(),
                                           static_cast<int>(data.size())));
            ASSERT_TRUE(comm.alltoall(a2a_in.data(), 16_KiB, a2a_out.data()));
            comm.barrier();
        }
    });
    ASSERT_NE(c.checker(), nullptr);
    EXPECT_TRUE(c.checker()->violations().empty())
        << c.checker()->violations().size() << " violation(s)";
}

}  // namespace
}  // namespace scimpi::mpi
