// Boundary-condition tests: exact protocol-threshold edges, resized-type
// tiling, simulated-clock monotonicity and arena accounting after heavy use.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpi/comm.hpp"

namespace scimpi::mpi {
namespace {

TEST(Boundary, ExactProtocolThresholdEdges) {
    ClusterOptions opt;
    opt.nodes = 2;
    Cluster c(opt);
    const std::size_t short_thr = opt.cfg.short_threshold;
    const std::size_t eager_thr = opt.cfg.eager_threshold;
    c.run([&](Comm& comm) {
        const auto t = Datatype::byte_();
        // Sizes straddling both protocol switches, including the exact edge.
        const std::size_t sizes[] = {short_thr - 1, short_thr, short_thr + 1,
                                     eager_thr - 1, eager_thr, eager_thr + 1};
        for (std::size_t i = 0; i < std::size(sizes); ++i) {
            std::vector<std::byte> buf(sizes[i], std::byte{static_cast<unsigned char>(i)});
            if (comm.rank() == 0) {
                ASSERT_TRUE(comm.send(buf.data(), static_cast<int>(buf.size()), t, 1,
                                      static_cast<int>(i)));
            } else {
                std::vector<std::byte> out(sizes[i]);
                ASSERT_TRUE(comm.recv(out.data(), static_cast<int>(out.size()), t, 0,
                                      static_cast<int>(i))
                                .status);
                EXPECT_EQ(out, buf) << "size " << sizes[i];
            }
        }
    });
    // Inclusive thresholds: 127 and 128 go short; 129, 16383 and 16384 go
    // eager; only 16385 needs a rendezvous.
    const obs::MetricsRegistry& m = c.metrics();
    EXPECT_GE(m.value("mpi.sends_short", 0), 2u);  // plus finalize-barrier tokens
    EXPECT_EQ(m.value("mpi.sends_eager", 0), 3u);
    EXPECT_EQ(m.value("mpi.sends_rndv", 0), 1u);
}

TEST(Boundary, ResizedTypeTilesWithCustomExtent) {
    // A resized vector whose instances interleave: count > 1 must honour the
    // overridden extent.
    Cluster c(ClusterOptions{});
    c.run([](Comm& comm) {
        // One double, extent stretched to 24 bytes: instances at 0, 24, 48...
        auto t = Datatype::resized(Datatype::float64(), 0, 24);
        if (comm.rank() == 0) {
            std::vector<double> buf(12, 0.0);
            buf[0] = 1.0;
            buf[3] = 2.0;
            buf[6] = 3.0;
            ASSERT_TRUE(comm.send(buf.data(), 3, t, 1, 0));
        } else {
            std::vector<double> out(12, -1.0);
            ASSERT_TRUE(comm.recv(out.data(), 3, t, 0, 0).status);
            EXPECT_EQ(out[0], 1.0);
            EXPECT_EQ(out[3], 2.0);
            EXPECT_EQ(out[6], 3.0);
            EXPECT_EQ(out[1], -1.0);  // padding untouched
        }
    });
}

TEST(Boundary, WtimeIsMonotoneAcrossOperations) {
    ClusterOptions opt;
    opt.nodes = 2;
    Cluster c(opt);
    c.run([](Comm& comm) {
        double prev = comm.wtime();
        for (int i = 0; i < 5; ++i) {
            comm.barrier();
            std::vector<double> buf(1024, 1.0);
            const int peer = 1 - comm.rank();
            ASSERT_TRUE(comm.sendrecv(buf.data(), 1024, Datatype::float64(),
                                      peer, i, buf.data(), 1024,
                                      Datatype::float64(), peer, i));
            const double now = comm.wtime();
            EXPECT_GE(now, prev);
            prev = now;
        }
    });
}

TEST(Boundary, ArenaFullyReleasedAfterHeavyRendezvousTraffic) {
    ClusterOptions opt;
    opt.nodes = 2;
    Cluster c(opt);
    c.run([](Comm& comm) {
        const auto t = Datatype::float64();
        std::vector<double> buf(512_KiB / 8, 1.0);
        for (int i = 0; i < 8; ++i) {
            if (comm.rank() == 0)
                ASSERT_TRUE(comm.send(buf.data(), static_cast<int>(buf.size()), t, 1, i));
            else
                ASSERT_TRUE(
                    comm.recv(buf.data(), static_cast<int>(buf.size()), t, 0, i).status);
        }
    });
    // Every per-transfer ring and staging buffer must be returned.
    EXPECT_EQ(c.memory(0).bytes_in_use(), 0u);
    EXPECT_EQ(c.memory(1).bytes_in_use(), 0u);
}

TEST(Boundary, ManySmallMessagesKeepFifoPerPairUnderLoad) {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.procs_per_node = 2;
    Cluster c(opt);
    c.run([](Comm& comm) {
        const auto t = Datatype::int32();
        const int peer = comm.rank() ^ 2;  // cross-node pairs
        if (comm.rank() < 2) {
            for (int i = 0; i < 200; ++i)
                ASSERT_TRUE(comm.send(&i, 1, t, peer, 3));
        } else {
            for (int i = 0; i < 200; ++i) {
                int v = -1;
                ASSERT_TRUE(comm.recv(&v, 1, t, peer, 3).status);
                ASSERT_EQ(v, i);
            }
        }
    });
}

TEST(Boundary, RecvCountLargerThanMessageIsFine) {
    // MPI allows receiving into a bigger buffer; r.bytes reports actual size.
    ClusterOptions opt;
    opt.nodes = 2;
    Cluster c(opt);
    c.run([](Comm& comm) {
        if (comm.rank() == 0) {
            const double v[2] = {1.5, 2.5};
            ASSERT_TRUE(comm.send(v, 2, Datatype::float64(), 1, 0));
        } else {
            std::vector<double> big(64, -1.0);
            const RecvResult r = comm.recv(big.data(), 64, Datatype::float64(), 0, 0);
            ASSERT_TRUE(r.status);
            EXPECT_EQ(r.bytes, 16u);
            EXPECT_EQ(big[0], 1.5);
            EXPECT_EQ(big[1], 2.5);
            EXPECT_EQ(big[2], -1.0);
        }
    });
}

}  // namespace
}  // namespace scimpi::mpi
