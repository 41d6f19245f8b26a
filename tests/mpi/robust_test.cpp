// Robustness and infrastructure tests: bit-determinism of the simulation,
// error-injection end-to-end, connection monitoring (dead links), torus
// topologies, and the DMA rendezvous path.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/rma/window.hpp"

namespace scimpi::mpi {
namespace {

/// A mixed workload touching p2p, collectives and one-sided communication.
double mixed_workload(const ClusterOptions& opt) {
    double checksum = 0.0;
    double finish_time = 0.0;
    Cluster c(opt);
    c.run([&](Comm& comm) {
        std::vector<double> data(4096);
        std::iota(data.begin(), data.end(), comm.rank() * 1.0);
        const int peer = comm.rank() ^ 1;
        std::vector<double> theirs(4096, 0.0);
        ASSERT_TRUE(comm.sendrecv(data.data(), 4096, Datatype::float64(), peer, 0,
                                  theirs.data(), 4096, Datatype::float64(), peer,
                                  0));
        double local = std::accumulate(theirs.begin(), theirs.end(), 0.0);
        double global = 0.0;
        ASSERT_TRUE(comm.allreduce_sum(&local, &global, 1));

        auto mem = comm.alloc_mem(1024);
        auto win = comm.win_create(mem.value().data(), 1024);
        win->fence();
        ASSERT_TRUE(win->put(&global, 1, Datatype::float64(), peer, 0));
        win->fence();
        if (comm.rank() == 0) {
            checksum = *reinterpret_cast<double*>(mem.value().data());
            finish_time = comm.wtime();
        }
        win->fence();
    });
    return checksum + finish_time * 1e9;
}

TEST(Determinism, IdenticalRunsProduceIdenticalTimesAndData) {
    ClusterOptions opt;
    opt.nodes = 4;
    const double a = mixed_workload(opt);
    const double b = mixed_workload(opt);
    EXPECT_EQ(a, b);  // bit-identical, including simulated finish time
}

TEST(Determinism, SeedChangesErrorPatternButNotResults) {
    auto retries_for = [](std::uint64_t seed, double* checksum) {
        ClusterOptions opt;
        opt.nodes = 2;
        opt.cfg.link_error_rate = 0.01;
        opt.cfg.seed = seed;
        Cluster c(opt);
        c.run([&](Comm& comm) {
            std::vector<double> mine(8192, 1.5), theirs(8192);
            ASSERT_TRUE(comm.sendrecv(mine.data(), 8192, Datatype::float64(),
                                      1 - comm.rank(), 0, theirs.data(), 8192,
                                      Datatype::float64(), 1 - comm.rank(), 0));
            if (comm.rank() == 0)
                *checksum = std::accumulate(theirs.begin(), theirs.end(), 0.0);
        });
        return c.metrics().value("sci.retries", 0) + 1000 * c.metrics().value("sci.retries", 1);
    };
    double sum1 = 0.0, sum2 = 0.0;
    const auto r1 = retries_for(1, &sum1);
    const auto r2 = retries_for(2, &sum2);
    EXPECT_NE(r1, r2);          // the error pattern moved
    EXPECT_EQ(sum1, sum2);      // the data did not
    EXPECT_EQ(sum1, 8192 * 1.5);
}

TEST(ErrorInjection, LargeTransfersSurviveRetries) {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.cfg.link_error_rate = 0.01;
    Cluster c(opt);
    c.run([](Comm& comm) {
        std::vector<double> data(1_MiB / 8);
        if (comm.rank() == 0) {
            std::iota(data.begin(), data.end(), 0.0);
            ASSERT_TRUE(comm.send(data.data(), static_cast<int>(data.size()),
                                  Datatype::float64(), 1, 0));
        } else {
            ASSERT_TRUE(comm.recv(data.data(), static_cast<int>(data.size()),
                                  Datatype::float64(), 0, 0)
                            .status);
            EXPECT_EQ(data[131071], 131071.0);
        }
    });
    EXPECT_GT(c.metrics().value("sci.retries", 0), 10u);
}

TEST(ErrorInjection, RetriesSlowTheTransferDown) {
    auto timed = [](double rate) {
        ClusterOptions opt;
        opt.nodes = 2;
        opt.cfg.link_error_rate = rate;
        double seconds = 0.0;
        Cluster c(opt);
        c.run([&](Comm& comm) {
            std::vector<double> data(512_KiB / 8, 1.0);
            const double t0 = comm.wtime();
            if (comm.rank() == 0)
                ASSERT_TRUE(comm.send(data.data(), static_cast<int>(data.size()),
                                      Datatype::float64(), 1, 0));
            else {
                comm.recv(data.data(), static_cast<int>(data.size()),
                          Datatype::float64(), 0, 0);
                seconds = comm.wtime() - t0;
            }
        });
        return seconds;
    };
    EXPECT_GT(timed(0.05), 1.1 * timed(0.0));
}

TEST(ConnectionMonitoring, DeadLinkFailsWritesAndProbes) {
    ClusterOptions opt;
    opt.nodes = 4;
    Cluster c(opt);
    c.engine().spawn("prober", [&](sim::Process& p) {
        auto span = c.memory(1).allocate(4096);
        const auto seg = c.directory().create(1, span.value());
        auto map = c.directory().import(0, seg).value();
        const std::uint64_t v = 7;

        EXPECT_TRUE(c.adapter(0).probe_peer(p, 1));
        ASSERT_TRUE(c.adapter(0).write(p, map, 0, &v, 8));

        c.fabric().set_link_up(0, false);  // pull the cable 0 -> 1
        EXPECT_FALSE(c.adapter(0).probe_peer(p, 1));
        EXPECT_EQ(c.adapter(0).write(p, map, 0, &v, 8).code(), Errc::link_failure);
        // Reads come back over the remaining ring links 1..3, which are up,
        // but the request cannot reach node 1 in the first place... the
        // request route 0->1 is exactly link 0:
        std::uint64_t out = 0;
        EXPECT_TRUE(c.adapter(0).read(p, map, 0, &out, 8));  // return path distinct

        c.fabric().set_link_up(0, true);  // plug it back in
        EXPECT_TRUE(c.adapter(0).probe_peer(p, 1));
        EXPECT_TRUE(c.adapter(0).write(p, map, 0, &v, 8));
    });
    c.engine().run();
}

TEST(ConnectionMonitoring, DmaChecksRouteHealth) {
    ClusterOptions opt;
    opt.nodes = 2;
    Cluster c(opt);
    c.engine().spawn("p", [&](sim::Process& p) {
        auto span = c.memory(1).allocate(64_KiB);
        const auto seg = c.directory().create(1, span.value());
        auto map = c.directory().import(0, seg).value();
        std::vector<std::byte> buf(32_KiB, std::byte{1});
        c.fabric().set_link_up(0, false);
        EXPECT_EQ(c.adapter(0).dma_write(p, map, 0, buf.data(), buf.size()).code(),
                  Errc::link_failure);
    });
    c.engine().run();
}

TEST(Torus, SixteenNodeTorusAllToAll) {
    ClusterOptions opt;
    opt.nodes = 16;
    opt.torus_w = 4;  // 4x4 torus of ringlets
    opt.arena_bytes = 8_MiB;
    Cluster c(opt);
    c.run([](Comm& comm) {
        std::vector<std::uint64_t> out_data(16), in_data(16, 0);
        for (int r = 0; r < 16; ++r)
            out_data[static_cast<std::size_t>(r)] =
                static_cast<std::uint64_t>(comm.rank()) * 100 + static_cast<std::uint64_t>(r);
        ASSERT_TRUE(comm.alltoall(out_data.data(), 8, in_data.data()));
        for (int r = 0; r < 16; ++r)
            EXPECT_EQ(in_data[static_cast<std::size_t>(r)],
                      static_cast<std::uint64_t>(r) * 100 +
                          static_cast<std::uint64_t>(comm.rank()));
    });
}

TEST(Torus, RmaAcrossDimensions) {
    ClusterOptions opt;
    opt.nodes = 9;
    opt.torus_w = 3;
    opt.arena_bytes = 8_MiB;
    Cluster c(opt);
    c.run([](Comm& comm) {
        auto mem = comm.alloc_mem(1024);
        std::memset(mem.value().data(), 0, 1024);
        auto win = comm.win_create(mem.value().data(), 1024);
        win->fence();
        // Diagonal neighbour: crosses both torus dimensions.
        const int target = (comm.rank() + 4) % comm.size();
        const double v = 1000.0 + comm.rank();
        ASSERT_TRUE(win->put(&v, 1, Datatype::float64(), target,
                             static_cast<std::size_t>(comm.rank()) * 8));
        win->fence();
        const int source = (comm.rank() + comm.size() - 4) % comm.size();
        const auto* d = reinterpret_cast<const double*>(win->local().data());
        EXPECT_EQ(d[source], 1000.0 + source);
        win->fence();
    });
}

TEST(DmaRendezvous, CorrectAndFasterForLargeContiguous) {
    auto timed = [](bool use_dma) {
        ClusterOptions opt;
        opt.nodes = 2;
        opt.cfg.use_dma_rndv = use_dma;
        opt.cfg.rndv_chunk = 256_KiB;
        double seconds = 0.0;
        Cluster c(opt);
        c.run([&](Comm& comm) {
            std::vector<double> data(4_MiB / 8);
            const double t0 = comm.wtime();
            if (comm.rank() == 0) {
                std::iota(data.begin(), data.end(), 0.0);
                ASSERT_TRUE(comm.send(data.data(), static_cast<int>(data.size()),
                                      Datatype::float64(), 1, 0));
            } else {
                comm.recv(data.data(), static_cast<int>(data.size()),
                          Datatype::float64(), 0, 0);
                EXPECT_EQ(data[1000], 1000.0);
                seconds = comm.wtime() - t0;
            }
        });
        return seconds;
    };
    // DMA streams at 235 MiB/s vs the PIO path's ~160.
    EXPECT_LT(timed(true), 0.85 * timed(false));
}

TEST(DmaRendezvous, GatherModeHandlesNoncontig) {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.cfg.use_dma_rndv = true;
    opt.cfg.dma_rndv_threshold = 16_KiB;
    Cluster c(opt);
    c.run([](Comm& comm) {
        // 64 KiB blocks with gaps: large enough for chained-descriptor DMA.
        auto t = Datatype::vector(8, 8192, 16384, Datatype::float64());
        const std::size_t span = static_cast<std::size_t>(t.extent()) / 8 + 16;
        std::vector<double> buf(span, -1.0);
        if (comm.rank() == 0) {
            std::iota(buf.begin(), buf.end(), 0.0);
            ASSERT_TRUE(comm.send(buf.data(), 1, t, 1, 0));
        } else {
            ASSERT_TRUE(comm.recv(buf.data(), 1, t, 0, 0).status);
            EXPECT_EQ(buf[0], 0.0);
            EXPECT_EQ(buf[8191], 8191.0);
            EXPECT_EQ(buf[8192], -1.0);  // gap
            EXPECT_EQ(buf[16384], 16384.0);
        }
    });
    EXPECT_GT(c.metrics().value("sci.dma_bytes", 0), 0u);
}

TEST(DmaRendezvous, StagedGenericChunksGoByDmaToo) {
    // DMA is a property of the ring sink, not of the ff path: a chunk the
    // generic walker stages still moves by DMA once it reaches the threshold.
    ClusterOptions opt;
    opt.nodes = 2;
    opt.cfg.use_dma_rndv = true;
    opt.cfg.use_direct_pack_ff = false;
    opt.cfg.rndv_chunk = 64_KiB;
    opt.cfg.dma_rndv_threshold = 64_KiB;
    Cluster c(opt);
    c.run([](Comm& comm) {
        // 128 KiB of payload: two full 64 KiB chunks, both staged.
        auto t = Datatype::vector(4096, 4, 8, Datatype::float64());
        std::vector<double> buf(4096 * 8, -1.0);
        if (comm.rank() == 0) {
            std::iota(buf.begin(), buf.end(), 0.0);
            ASSERT_TRUE(comm.send(buf.data(), 1, t, 1, 0));
        } else {
            ASSERT_TRUE(comm.recv(buf.data(), 1, t, 0, 0).status);
            EXPECT_EQ(buf[3], 3.0);
            EXPECT_EQ(buf[4], -1.0);  // gap
            EXPECT_EQ(buf[4095 * 8 + 3], 4095.0 * 8 + 3);
        }
    });
    EXPECT_EQ(c.metrics().value("sci.dma_bytes", 0), 128_KiB);
}

TEST(DmaRendezvous, SmallChunksStayOnPio) {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.cfg.use_dma_rndv = true;
    opt.cfg.dma_rndv_threshold = 1_MiB;  // nothing qualifies
    Cluster c(opt);
    c.run([](Comm& comm) {
        std::vector<double> data(64_KiB / 8, 2.0);
        if (comm.rank() == 0)
            ASSERT_TRUE(comm.send(data.data(), static_cast<int>(data.size()),
                                  Datatype::float64(), 1, 0));
        else
            ASSERT_TRUE(comm.recv(data.data(), static_cast<int>(data.size()),
                                  Datatype::float64(), 0, 0)
                            .status);
    });
    EXPECT_EQ(c.metrics().value("sci.dma_bytes", 0), 0u);
}

}  // namespace
}  // namespace scimpi::mpi
