// Tests for the extended user-facing API: explicit pack/unpack, probe,
// sendrecv_replace, gather/scatter/alltoall, subarray/indexed_block types
// and generalized accumulate.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/rma/window.hpp"

namespace scimpi::mpi {
namespace {

ClusterOptions nodes(int n) {
    ClusterOptions opt;
    opt.nodes = n;
    return opt;
}

TEST(PackApi, RoundTripContiguousAndStrided) {
    Cluster c(nodes(1));
    c.run([](Comm& comm) {
        std::vector<double> data(64);
        std::iota(data.begin(), data.end(), 0.0);
        auto vec = Datatype::vector(8, 2, 4, Datatype::float64());

        std::vector<std::byte> buf(comm.pack_size(16, Datatype::float64()) +
                                   comm.pack_size(1, vec));
        std::size_t pos = 0;
        ASSERT_TRUE(comm.pack(data.data(), 16, Datatype::float64(), buf, &pos));
        ASSERT_TRUE(comm.pack(data.data(), 1, vec, buf, &pos));
        EXPECT_EQ(pos, buf.size());

        std::vector<double> out1(16, -1.0);
        std::vector<double> out2(32, -1.0);
        pos = 0;
        ASSERT_TRUE(comm.unpack(buf, &pos, out1.data(), 16, Datatype::float64()));
        ASSERT_TRUE(comm.unpack(buf, &pos, out2.data(), 1, vec));
        for (int i = 0; i < 16; ++i) EXPECT_EQ(out1[static_cast<std::size_t>(i)], i);
        // vector blocks: elements 0,1 then 4,5 then 8,9 ...
        EXPECT_EQ(out2[0], 0.0);
        EXPECT_EQ(out2[1], 1.0);
        EXPECT_EQ(out2[4], 4.0);
        EXPECT_EQ(out2[2], -1.0);  // gap untouched
    });
}

TEST(PackApi, OverflowReportsTruncated) {
    Cluster c(nodes(1));
    c.run([](Comm& comm) {
        std::vector<double> data(8, 1.0);
        std::vector<std::byte> buf(32);  // too small for 64 bytes
        std::size_t pos = 0;
        EXPECT_EQ(comm.pack(data.data(), 8, Datatype::float64(), buf, &pos).code(),
                  Errc::truncated);
        EXPECT_EQ(pos, 0u);
    });
}

TEST(PackApi, PackedDataIsSendable) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto vec = Datatype::vector(16, 1, 2, Datatype::float64());
        if (comm.rank() == 0) {
            std::vector<double> data(32);
            std::iota(data.begin(), data.end(), 0.0);
            std::vector<std::byte> buf(comm.pack_size(1, vec));
            std::size_t pos = 0;
            ASSERT_TRUE(comm.pack(data.data(), 1, vec, buf, &pos));
            ASSERT_TRUE(comm.send(buf.data(), static_cast<int>(buf.size()),
                                  Datatype::byte_(), 1, 0));
        } else {
            // Receive the packed stream and unpack with the same layout.
            std::vector<std::byte> buf(16 * 8);
            ASSERT_TRUE(comm.recv(buf.data(), static_cast<int>(buf.size()),
                                  Datatype::byte_(), 0, 0)
                            .status);
            std::vector<double> out(32, -1.0);
            std::size_t pos = 0;
            ASSERT_TRUE(comm.unpack(buf, &pos, out.data(), 1, vec));
            EXPECT_EQ(out[0], 0.0);
            EXPECT_EQ(out[2], 2.0);
            EXPECT_EQ(out[1], -1.0);
        }
    });
}

TEST(Probe, BlockingProbeReportsEnvelope) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        if (comm.rank() == 0) {
            std::vector<double> data(100, 3.0);
            ASSERT_TRUE(comm.send(data.data(), 100, Datatype::float64(), 1, 42));
        } else {
            const RecvResult info = comm.probe(0, 42);
            EXPECT_EQ(info.bytes, 800u);
            EXPECT_EQ(info.source, 0);
            EXPECT_EQ(info.tag, 42);
            // Size the buffer from the probe, then receive.
            std::vector<double> buf(info.bytes / 8);
            ASSERT_TRUE(
                comm.recv(buf.data(), static_cast<int>(buf.size()),
                          Datatype::float64(), info.source, info.tag)
                    .status);
            EXPECT_EQ(buf[99], 3.0);
        }
    });
}

TEST(Probe, IprobeNonBlocking) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        if (comm.rank() == 1) {
            EXPECT_FALSE(comm.iprobe(0, 7));  // nothing sent yet
            comm.barrier();
            // Wait until the message arrives.
            RecvResult info;
            while (!comm.iprobe(0, 7, &info)) comm.proc().delay(1000);
            EXPECT_EQ(info.bytes, 4u);
            int v = 0;
            ASSERT_TRUE(comm.recv(&v, 1, Datatype::int32(), 0, 7).status);
            EXPECT_EQ(v, 99);
        } else {
            comm.barrier();
            const int v = 99;
            ASSERT_TRUE(comm.send(&v, 1, Datatype::int32(), 1, 7));
        }
    });
}

TEST(SendrecvReplace, RotatesAroundRing) {
    Cluster c(nodes(4));
    c.run([](Comm& comm) {
        std::vector<double> buf(64, comm.rank() * 1.0);
        const int right = (comm.rank() + 1) % comm.size();
        const int left = (comm.rank() + comm.size() - 1) % comm.size();
        ASSERT_TRUE(comm.sendrecv_replace(buf.data(), 64, Datatype::float64(), right,
                                          3, left, 3));
        for (const double v : buf) EXPECT_EQ(v, left * 1.0);
    });
}

TEST(Coll2, GatherCollectsAtRoot) {
    Cluster c(nodes(5));
    c.run([](Comm& comm) {
        const std::uint64_t mine = 7000u + static_cast<std::uint64_t>(comm.rank());
        std::vector<std::uint64_t> all(static_cast<std::size_t>(comm.size()), 0);
        ASSERT_TRUE(comm.gather(&mine, sizeof mine, all.data(), 2));
        if (comm.rank() == 2) {
            for (int r = 0; r < comm.size(); ++r)
                EXPECT_EQ(all[static_cast<std::size_t>(r)],
                          7000u + static_cast<std::uint64_t>(r));
        }
    });
}

TEST(Coll2, ScatterDistributesFromRoot) {
    Cluster c(nodes(4));
    c.run([](Comm& comm) {
        std::vector<double> all(static_cast<std::size_t>(comm.size()));
        if (comm.rank() == 1)
            for (int r = 0; r < comm.size(); ++r)
                all[static_cast<std::size_t>(r)] = 50.0 + r;
        double mine = -1.0;
        ASSERT_TRUE(comm.scatter(all.data(), sizeof(double), &mine, 1));
        EXPECT_EQ(mine, 50.0 + comm.rank());
    });
}

TEST(Coll2, AlltoallTransposes) {
    Cluster c(nodes(4));
    c.run([](Comm& comm) {
        std::vector<int> out_data(4), in_data(4, -1);
        for (int r = 0; r < 4; ++r)
            out_data[static_cast<std::size_t>(r)] = comm.rank() * 10 + r;
        ASSERT_TRUE(comm.alltoall(out_data.data(), sizeof(int), in_data.data()));
        // in_data[r] is what rank r addressed to us.
        for (int r = 0; r < 4; ++r)
            EXPECT_EQ(in_data[static_cast<std::size_t>(r)], r * 10 + comm.rank());
    });
}

TEST(Subarray, ExtractsInterior2D) {
    // 8x8 array of doubles, 4x2 slab starting at (2,3).
    const std::array<int, 2> sizes{8, 8};
    const std::array<int, 2> subsizes{4, 2};
    const std::array<int, 2> starts{2, 3};
    auto t = Datatype::subarray(sizes, subsizes, starts, Datatype::float64());
    EXPECT_EQ(t.size(), 4u * 2 * 8);
    EXPECT_EQ(t.extent(), 8 * 8 * 8);  // full array pitch
    t.commit();

    std::vector<double> grid(64);
    std::iota(grid.begin(), grid.end(), 0.0);
    FFPacker p(t, 1, grid.data());
    std::vector<std::byte> out(t.size());
    p.pack(0, out.size(), out.data());
    const auto* d = reinterpret_cast<const double*>(out.data());
    // Row-major: rows 2..5, columns 3..4.
    int k = 0;
    for (int y = 2; y < 6; ++y)
        for (int x = 3; x < 5; ++x) EXPECT_EQ(d[k++], y * 8.0 + x);
}

TEST(Subarray, HaloColumnExchange) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        constexpr int N = 16;
        const std::array<int, 2> sizes{N, N};
        const std::array<int, 2> col_sub{N, 1};
        const std::array<int, 2> east{0, N - 1};
        const std::array<int, 2> west{0, 0};
        auto east_col = Datatype::subarray(sizes, col_sub, east, Datatype::float64());
        auto west_col = Datatype::subarray(sizes, col_sub, west, Datatype::float64());
        std::vector<double> grid(N * N, comm.rank() + 1.0);
        if (comm.rank() == 0) {
            ASSERT_TRUE(comm.send(grid.data(), 1, east_col, 1, 0));
        } else {
            ASSERT_TRUE(comm.recv(grid.data(), 1, west_col, 0, 0).status);
            for (int y = 0; y < N; ++y) {
                EXPECT_EQ(grid[static_cast<std::size_t>(y) * N], 1.0);      // received
                EXPECT_EQ(grid[static_cast<std::size_t>(y) * N + 1], 2.0);  // own
            }
        }
    });
}

TEST(IndexedBlock, EqualBlocksAtDispls) {
    const std::array<int, 3> displs{0, 5, 9};
    auto t = Datatype::indexed_block(2, displs, Datatype::int32());
    EXPECT_EQ(t.size(), 3u * 2 * 4);
    std::vector<std::pair<std::ptrdiff_t, std::size_t>> blocks;
    t.for_each_block(0, 1, [&](std::ptrdiff_t off, std::size_t len) {
        blocks.emplace_back(off, len);
    });
    const std::vector<std::pair<std::ptrdiff_t, std::size_t>> expected{
        {0, 8}, {20, 8}, {36, 8}};
    EXPECT_EQ(blocks, expected);
}

// Types whose bounds look dense (lb 0, extent == size) but whose type map is
// permuted or duplicated must be sent in type-map order, not memory order.
void expect_type_map_order(const Datatype& t, const std::vector<int>& map, int n) {
    Cluster c(nodes(2));
    c.run([&](Comm& comm) {
        const std::size_t per = map.size();
        if (comm.rank() == 0) {
            std::vector<std::int32_t> src(per * static_cast<std::size_t>(n));
            std::iota(src.begin(), src.end(), 0);
            ASSERT_TRUE(comm.send(src.data(), n, t, 1, 0));
        } else {
            std::vector<std::int32_t> dst(per * static_cast<std::size_t>(n), -1);
            ASSERT_TRUE(comm.recv(dst.data(), static_cast<int>(dst.size()),
                                  Datatype::int32(), 0, 0)
                            .status);
            for (std::size_t i = 0; i < dst.size(); ++i)
                ASSERT_EQ(dst[i], static_cast<std::int32_t>((i / per) * per + map[i % per]))
                    << "element " << i;
        }
    });
}

TEST(TypeMapOrder, PermutedIndexedIsNotContiguous) {
    const std::array<int, 2> lens{1, 1};
    const std::array<int, 2> displs{1, 0};
    const auto t = Datatype::indexed(lens, displs, Datatype::int32());
    ASSERT_EQ(t.lb(), 0);
    ASSERT_EQ(static_cast<std::size_t>(t.extent()), t.size());
    EXPECT_FALSE(t.is_contiguous());
    for (const int n : {4, 65536}) {
        SCOPED_TRACE(n);
        expect_type_map_order(t, {1, 0}, n);
    }
}

TEST(TypeMapOrder, DuplicatedResizedHindexedIsNotContiguous) {
    const std::array<int, 2> lens{1, 1};
    const std::array<std::ptrdiff_t, 2> displs{0, 0};
    const auto t =
        Datatype::resized(Datatype::hindexed(lens, displs, Datatype::int32()), 0, 8);
    ASSERT_EQ(static_cast<std::size_t>(t.extent()), t.size());
    EXPECT_FALSE(t.is_contiguous());
    for (const int n : {4, 65536}) {
        SCOPED_TRACE(n);
        expect_type_map_order(t, {0, 0}, n);
    }
}

TEST(Accumulate, AllOpsApplyAtTarget) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto mem = comm.alloc_mem(64);
        auto* vals = reinterpret_cast<double*>(mem.value().data());
        for (int i = 0; i < 8; ++i) vals[i] = 10.0;
        auto win = comm.win_create(mem.value().data(), 64);
        win->fence();
        if (comm.rank() == 0) {
            const double v[1] = {4.0};
            ASSERT_TRUE(win->accumulate(v, 1, Datatype::float64(), 1, 0,
                                        Win::ReduceOp::sum));
            ASSERT_TRUE(win->accumulate(v, 1, Datatype::float64(), 1, 8,
                                        Win::ReduceOp::prod));
            ASSERT_TRUE(win->accumulate(v, 1, Datatype::float64(), 1, 16,
                                        Win::ReduceOp::min));
            ASSERT_TRUE(win->accumulate(v, 1, Datatype::float64(), 1, 24,
                                        Win::ReduceOp::max));
            ASSERT_TRUE(win->accumulate(v, 1, Datatype::float64(), 1, 32,
                                        Win::ReduceOp::replace));
        }
        win->fence();
        if (comm.rank() == 1) {
            EXPECT_DOUBLE_EQ(vals[0], 14.0);  // sum
            EXPECT_DOUBLE_EQ(vals[1], 40.0);  // prod
            EXPECT_DOUBLE_EQ(vals[2], 4.0);   // min
            EXPECT_DOUBLE_EQ(vals[3], 10.0);  // max
            EXPECT_DOUBLE_EQ(vals[4], 4.0);   // replace
        }
        win->fence();
    });
}

TEST(Accumulate, NonContiguousLayout) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto mem = comm.alloc_mem(256);
        auto* vals = reinterpret_cast<double*>(mem.value().data());
        for (int i = 0; i < 32; ++i) vals[i] = 1.0;
        auto win = comm.win_create(mem.value().data(), 256);
        win->fence();
        if (comm.rank() == 0) {
            // Every second double: vector(4, 1, 2).
            auto t = Datatype::vector(4, 1, 2, Datatype::float64());
            const double v[7] = {2, 0, 3, 0, 4, 0, 5};  // strided source view
            ASSERT_TRUE(win->accumulate(v, 1, t, 1, 0, Win::ReduceOp::sum));
        }
        win->fence();
        if (comm.rank() == 1) {
            EXPECT_DOUBLE_EQ(vals[0], 3.0);  // 1 + 2
            EXPECT_DOUBLE_EQ(vals[1], 1.0);  // gap untouched
            EXPECT_DOUBLE_EQ(vals[2], 4.0);  // 1 + 3
            EXPECT_DOUBLE_EQ(vals[4], 5.0);
            EXPECT_DOUBLE_EQ(vals[6], 6.0);
        }
        win->fence();
    });
}

TEST(Accumulate, LocalTargetShortCircuit) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto mem = comm.alloc_mem(16);
        auto* vals = reinterpret_cast<double*>(mem.value().data());
        vals[0] = 5.0;
        auto win = comm.win_create(mem.value().data(), 16);
        win->fence();
        const double v = 2.5;
        ASSERT_TRUE(win->accumulate(&v, 1, Datatype::float64(), comm.rank(), 0,
                                    Win::ReduceOp::sum));
        EXPECT_DOUBLE_EQ(vals[0], 7.5);  // applied immediately, locally
        win->fence();
    });
}

}  // namespace
}  // namespace scimpi::mpi
