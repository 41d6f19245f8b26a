#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/comm.hpp"

namespace scimpi::mpi {
namespace {

std::vector<double> iota_doubles(std::size_t n, double start = 0.0) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), start);
    return v;
}

ClusterOptions two_nodes() {
    ClusterOptions opt;
    opt.nodes = 2;
    return opt;
}

TEST(P2P, ShortMessageRoundTrip) {
    Cluster c(two_nodes());
    c.run([](Comm& comm) {
        const auto t = Datatype::int32();
        if (comm.rank() == 0) {
            const int v = 4711;
            ASSERT_TRUE(comm.send(&v, 1, t, 1, 5));
        } else {
            int v = 0;
            const RecvResult r = comm.recv(&v, 1, t, 0, 5);
            ASSERT_TRUE(r.status);
            EXPECT_EQ(v, 4711);
            EXPECT_EQ(r.source, 0);
            EXPECT_EQ(r.tag, 5);
            EXPECT_EQ(r.bytes, 4u);
        }
    });
    // The user message plus the finalize-barrier token are both short sends.
    EXPECT_GE(c.metrics().value("mpi.sends_short", 0), 1u);
    EXPECT_EQ(c.metrics().value("mpi.sends_eager", 0), 0u);
    EXPECT_EQ(c.metrics().value("mpi.sends_rndv", 0), 0u);
}

TEST(P2P, ShortMessageLatencyIsMicroseconds) {
    Cluster c(two_nodes());
    double latency_us = 0.0;
    c.run([&](Comm& comm) {
        const auto t = Datatype::byte_();
        std::byte b{1};
        // Ping-pong of 16 one-byte messages.
        const double t0 = comm.wtime();
        for (int i = 0; i < 16; ++i) {
            if (comm.rank() == 0) {
                ASSERT_TRUE(comm.send(&b, 1, t, 1, 1));
                comm.recv(&b, 1, t, 1, 2);
            } else {
                comm.recv(&b, 1, t, 0, 1);
                ASSERT_TRUE(comm.send(&b, 1, t, 0, 2));
            }
        }
        if (comm.rank() == 0) latency_us = (comm.wtime() - t0) / 32 * 1e6;
    });
    EXPECT_GT(latency_us, 1.0);
    EXPECT_LT(latency_us, 15.0);  // SCI-MPICH class small-message latency
}

TEST(P2P, EagerMessageRoundTrip) {
    Cluster c(two_nodes());
    c.run([](Comm& comm) {
        const auto data = iota_doubles(512);  // 4 KiB: eager range
        if (comm.rank() == 0) {
            ASSERT_TRUE(comm.send(data.data(), 512, Datatype::float64(), 1, 0));
        } else {
            std::vector<double> out(512);
            ASSERT_TRUE(comm.recv(out.data(), 512, Datatype::float64(), 0, 0).status);
            EXPECT_EQ(out, data);
        }
    });
    EXPECT_EQ(c.metrics().value("mpi.sends_eager", 0), 1u);
}

TEST(P2P, RendezvousLargeMessageRoundTrip) {
    Cluster c(two_nodes());
    c.run([](Comm& comm) {
        const auto data = iota_doubles(128_KiB / 8);  // 128 KiB: 2 chunks
        if (comm.rank() == 0) {
            ASSERT_TRUE(comm.send(data.data(), static_cast<int>(data.size()),
                                  Datatype::float64(), 1, 0));
        } else {
            std::vector<double> out(data.size());
            ASSERT_TRUE(comm.recv(out.data(), static_cast<int>(out.size()),
                                  Datatype::float64(), 0, 0)
                            .status);
            EXPECT_EQ(out, data);
        }
    });
    EXPECT_EQ(c.metrics().value("mpi.sends_rndv", 0), 1u);
}

TEST(P2P, RendezvousMultiChunkUsesRingTwice) {
    Cluster c(two_nodes());
    c.run([](Comm& comm) {
        const auto data = iota_doubles(1_MiB / 8);  // 16 chunks of 64 KiB
        if (comm.rank() == 0) {
            ASSERT_TRUE(comm.send(data.data(), static_cast<int>(data.size()),
                                  Datatype::float64(), 1, 0));
        } else {
            std::vector<double> out(data.size());
            ASSERT_TRUE(comm.recv(out.data(), static_cast<int>(out.size()),
                                  Datatype::float64(), 0, 0)
                            .status);
            EXPECT_EQ(out, data);
        }
    });
    // The ring memory must be fully released afterwards.
    EXPECT_EQ(c.memory(1).bytes_in_use(), 0u);
}

TEST(P2P, NonContiguousVectorSendViaFF) {
    Cluster c(two_nodes());
    c.run([](Comm& comm) {
        // 256 KiB payload in 1 KiB blocks with equal gaps (the paper's
        // noncontig micro-benchmark layout).
        const int blocks = 256;
        const int elems = 128;  // doubles per block
        auto t = Datatype::vector(blocks, elems, 2 * elems, Datatype::float64());
        const std::size_t span = static_cast<std::size_t>(t.extent()) / 8 + 256;
        if (comm.rank() == 0) {
            auto buf = iota_doubles(span);
            ASSERT_TRUE(comm.send(buf.data(), 1, t, 1, 0));
        } else {
            std::vector<double> out(span, -1.0);
            ASSERT_TRUE(comm.recv(out.data(), 1, t, 0, 0).status);
            // Block i starts at element i*256 and holds 128 ascending values.
            for (int b = 0; b < blocks; ++b)
                for (int e = 0; e < elems; ++e) {
                    const std::size_t idx =
                        static_cast<std::size_t>(b) * 256 + static_cast<std::size_t>(e);
                    ASSERT_EQ(out[idx], static_cast<double>(idx)) << idx;
                }
            // Gap elements untouched.
            EXPECT_EQ(out[128], -1.0);
        }
    });
    EXPECT_GT(c.metrics().value("pack.ff_packs", 0), 0u);
    EXPECT_EQ(c.metrics().value("pack.generic_packs", 0), 0u);
}

TEST(P2P, NonContiguousFallsBackToGenericWhenFFDisabled) {
    ClusterOptions opt = two_nodes();
    opt.cfg.use_direct_pack_ff = false;
    Cluster c(opt);
    c.run([](Comm& comm) {
        auto t = Datatype::vector(64, 16, 32, Datatype::float64());
        const std::size_t span = static_cast<std::size_t>(t.extent()) / 8;
        if (comm.rank() == 0) {
            auto buf = iota_doubles(span);
            ASSERT_TRUE(comm.send(buf.data(), 1, t, 1, 0));
        } else {
            std::vector<double> out(span, -1.0);
            ASSERT_TRUE(comm.recv(out.data(), 1, t, 0, 0).status);
            EXPECT_EQ(out[0], 0.0);
            EXPECT_EQ(out[1], 1.0);
        }
    });
    EXPECT_EQ(c.metrics().value("pack.ff_packs", 0), 0u);
    EXPECT_GT(c.metrics().value("pack.generic_packs", 0), 0u);
}

TEST(P2P, MixedTypeSignatures) {
    // Send as strided vector, receive as contiguous doubles: canonical
    // order on the wire makes this work.
    Cluster c(two_nodes());
    c.run([](Comm& comm) {
        auto vec = Datatype::vector(8, 1, 2, Datatype::float64());
        if (comm.rank() == 0) {
            auto buf = iota_doubles(16);
            ASSERT_TRUE(comm.send(buf.data(), 1, vec, 1, 0));
        } else {
            std::vector<double> out(8, -1.0);
            ASSERT_TRUE(comm.recv(out.data(), 8, Datatype::float64(), 0, 0).status);
            // Strided elements 0,2,4,... arrive densely.
            for (int i = 0; i < 8; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 2.0 * i);
        }
    });
}

TEST(P2P, MessageOrderingPreservedPerPair) {
    Cluster c(two_nodes());
    c.run([](Comm& comm) {
        const auto t = Datatype::int32();
        if (comm.rank() == 0) {
            for (int i = 0; i < 32; ++i) ASSERT_TRUE(comm.send(&i, 1, t, 1, 7));
        } else {
            for (int i = 0; i < 32; ++i) {
                int v = -1;
                ASSERT_TRUE(comm.recv(&v, 1, t, 0, 7).status);
                EXPECT_EQ(v, i);
            }
        }
    });
}

TEST(P2P, TagSelectionOutOfOrder) {
    Cluster c(two_nodes());
    c.run([](Comm& comm) {
        const auto t = Datatype::int32();
        if (comm.rank() == 0) {
            const int a = 1, b = 2;
            ASSERT_TRUE(comm.send(&a, 1, t, 1, 10));
            ASSERT_TRUE(comm.send(&b, 1, t, 1, 20));
        } else {
            int v = 0;
            // Receive the tag-20 message first although it was sent second.
            ASSERT_TRUE(comm.recv(&v, 1, t, 0, 20).status);
            EXPECT_EQ(v, 2);
            ASSERT_TRUE(comm.recv(&v, 1, t, 0, 10).status);
            EXPECT_EQ(v, 1);
        }
    });
}

TEST(P2P, AnySourceAnyTag) {
    ClusterOptions opt;
    opt.nodes = 4;
    Cluster c(opt);
    c.run([](Comm& comm) {
        const auto t = Datatype::int32();
        if (comm.rank() == 0) {
            int sum = 0;
            for (int i = 0; i < 3; ++i) {
                int v = 0;
                const RecvResult r = comm.recv(&v, 1, t, ANY_SOURCE, ANY_TAG);
                ASSERT_TRUE(r.status);
                EXPECT_EQ(v, r.source * 100 + r.tag);
                sum += v;
            }
            EXPECT_EQ(sum, 1 * 100 + 1 + 2 * 100 + 2 + 3 * 100 + 3);
        } else {
            const int v = comm.rank() * 100 + comm.rank();
            ASSERT_TRUE(comm.send(&v, 1, t, 0, comm.rank()));
        }
    });
}

TEST(P2P, TruncationReportedOnTooSmallBuffer) {
    Cluster c(two_nodes());
    c.run([](Comm& comm) {
        const auto t = Datatype::float64();
        if (comm.rank() == 0) {
            const auto data = iota_doubles(64);
            ASSERT_TRUE(comm.send(data.data(), 64, t, 1, 0));
        } else {
            std::vector<double> out(16);
            const RecvResult r = comm.recv(out.data(), 16, t, 0, 0);
            EXPECT_EQ(r.status.code(), Errc::truncated);
            EXPECT_EQ(out[15], 15.0);  // prefix delivered
        }
    });
}

TEST(P2P, IsendIrecvOverlap) {
    Cluster c(two_nodes());
    c.run([](Comm& comm) {
        const auto t = Datatype::float64();
        auto mine = iota_doubles(8192, comm.rank() * 10000.0);
        std::vector<double> theirs(8192);
        const int peer = 1 - comm.rank();
        Request rx = comm.irecv(theirs.data(), 8192, t, peer, 3);
        Request tx = comm.isend(mine.data(), 8192, t, peer, 3);
        ASSERT_TRUE(comm.wait(tx));
        ASSERT_TRUE(comm.wait(rx));
        EXPECT_EQ(theirs[0], peer * 10000.0);
        EXPECT_EQ(theirs[8191], peer * 10000.0 + 8191);
    });
}

TEST(P2P, SendrecvExchanges) {
    ClusterOptions opt;
    opt.nodes = 4;
    Cluster c(opt);
    c.run([](Comm& comm) {
        const auto t = Datatype::int32();
        const int right = (comm.rank() + 1) % comm.size();
        const int left = (comm.rank() + comm.size() - 1) % comm.size();
        const int mine = comm.rank() * 7;
        int theirs = -1;
        ASSERT_TRUE(comm.sendrecv(&mine, 1, t, right, 2, &theirs, 1, t, left, 2));
        EXPECT_EQ(theirs, left * 7);
    });
}

TEST(P2P, IntraNodeSharedMemoryPath) {
    ClusterOptions opt;
    opt.nodes = 1;
    opt.procs_per_node = 2;
    Cluster c(opt);
    double elapsed_us = 0.0;
    c.run([&](Comm& comm) {
        const auto data = iota_doubles(64_KiB / 8);
        const double t0 = comm.wtime();
        if (comm.rank() == 0) {
            ASSERT_TRUE(comm.send(data.data(), static_cast<int>(data.size()),
                                  Datatype::float64(), 1, 0));
        } else {
            std::vector<double> out(data.size());
            ASSERT_TRUE(comm.recv(out.data(), static_cast<int>(out.size()),
                                  Datatype::float64(), 0, 0)
                            .status);
            EXPECT_EQ(out, data);
            elapsed_us = (comm.wtime() - t0) * 1e6;
        }
    });
    EXPECT_GT(elapsed_us, 10.0);  // not free
    EXPECT_LT(elapsed_us, 2000.0);
}

TEST(P2P, ManyPairsConcurrently) {
    ClusterOptions opt;
    opt.nodes = 8;
    Cluster c(opt);
    c.run([](Comm& comm) {
        const auto t = Datatype::float64();
        const int peer = comm.rank() ^ 1;
        auto mine = iota_doubles(4096, comm.rank() * 1.0);
        std::vector<double> theirs(4096);
        ASSERT_TRUE(comm.sendrecv(mine.data(), 4096, t, peer, 0, theirs.data(), 4096,
                                  t, peer, 0));
        EXPECT_EQ(theirs[100], peer * 1.0 + 100);
    });
}

TEST(P2P, EagerFlowControlUnderFlood) {
    ClusterOptions opt = two_nodes();
    opt.cfg.eager_slots = 2;
    Cluster c(opt);
    c.run([](Comm& comm) {
        const auto t = Datatype::float64();
        const int n = 64;  // far more than the 2 credits
        if (comm.rank() == 0) {
            const auto data = iota_doubles(1024);
            for (int i = 0; i < n; ++i)
                ASSERT_TRUE(comm.send(data.data(), 1024, t, 1, i));
        } else {
            std::vector<double> out(1024);
            for (int i = 0; i < n; ++i)
                ASSERT_TRUE(comm.recv(out.data(), 1024, t, 0, i).status);
        }
    });
}

TEST(P2P, ZeroByteMessage) {
    Cluster c(two_nodes());
    c.run([](Comm& comm) {
        if (comm.rank() == 0) {
            ASSERT_TRUE(comm.send(nullptr, 0, Datatype::byte_(), 1, 9));
        } else {
            const RecvResult r = comm.recv(nullptr, 0, Datatype::byte_(), 0, 9);
            ASSERT_TRUE(r.status);
            EXPECT_EQ(r.bytes, 0u);
        }
    });
}

TEST(P2P, UnmatchedRecvDeadlocksWithDiagnostic) {
    Cluster c(two_nodes());
    try {
        c.run([](Comm& comm) {
            if (comm.rank() == 1) {
                int v;
                comm.recv(&v, 1, Datatype::int32(), 0, 0);  // never sent
            }
        });
        FAIL() << "expected deadlock panic";
    } catch (const Panic& e) {
        EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
    }
}

}  // namespace
}  // namespace scimpi::mpi
