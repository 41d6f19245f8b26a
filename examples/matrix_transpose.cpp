// Distributed matrix transpose: the classic all-to-all workload whose local
// data movement is all strided — a natural fit for subarray datatypes and
// the direct_pack_ff engine.
//
// An N x N matrix is distributed by block columns over P ranks. The
// transpose sends block (r, c) of the column slab as a *subarray datatype*
// (no manual packing in user code) and receives into the transposed
// position. Verified against a serial transpose.
#include <cstdio>
#include <numeric>
#include <vector>

#include "mpi/comm.hpp"

using namespace scimpi;
using namespace scimpi::mpi;

namespace {
constexpr int kRanks = 4;
constexpr int kN = 256;                 // global matrix is kN x kN doubles
constexpr int kCols = kN / kRanks;      // columns per rank

double value_at(int row, int col) { return row * 1000.0 + col; }
}  // namespace

int main() {
    ClusterOptions opt;
    opt.nodes = kRanks;
    Cluster cluster(opt);

    bool ok = true;
    cluster.run([&](Comm& comm) {
        const int rank = comm.rank();
        // Local slab: kN rows x kCols columns, row-major.
        std::vector<double> slab(static_cast<std::size_t>(kN) * kCols);
        for (int r = 0; r < kN; ++r)
            for (int c = 0; c < kCols; ++c)
                slab[static_cast<std::size_t>(r) * kCols + c] =
                    value_at(r, rank * kCols + c);

        // The (block-row p) x (all my columns) tile I send to rank p, and
        // the transposed tile layout I receive into, both as subarrays.
        const std::array<int, 2> sizes{kN, kCols};
        const std::array<int, 2> tile{kCols, kCols};
        std::vector<double> result(slab.size(), -1.0);

        std::vector<Request> reqs;
        for (int p = 0; p < kRanks; ++p) {
            const std::array<int, 2> send_start{p * kCols, 0};
            auto send_t = Datatype::subarray(sizes, tile, send_start,
                                             Datatype::float64());
            const std::array<int, 2> recv_start{p * kCols, 0};
            auto recv_t = Datatype::subarray(sizes, tile, recv_start,
                                             Datatype::float64());
            if (p == rank) {
                // Local tile: transpose in place into the result.
                for (int r = 0; r < kCols; ++r)
                    for (int c = 0; c < kCols; ++c)
                        result[static_cast<std::size_t>(p * kCols + r) * kCols + c] =
                            slab[static_cast<std::size_t>(p * kCols + c) * kCols + r];
                continue;
            }
            reqs.push_back(comm.irecv(result.data(), 1, recv_t, p, 1));
            reqs.push_back(comm.isend(slab.data(), 1, send_t, p, 1));
        }
        SCIMPI_REQUIRE(comm.wait_all(reqs).is_ok(), "wait_all failed");

        // Received tiles hold the *untransposed* remote data; transpose each
        // tile locally (cache-friendly small tiles).
        for (int p = 0; p < kRanks; ++p) {
            if (p == rank) continue;
            for (int r = 0; r < kCols; ++r)
                for (int c = r + 1; c < kCols; ++c)
                    std::swap(result[static_cast<std::size_t>(p * kCols + r) * kCols + c],
                              result[static_cast<std::size_t>(p * kCols + c) * kCols + r]);
        }
        comm.proc().delay(static_cast<SimTime>(slab.size()) * 2);  // transpose flops

        // result now holds columns [rank*kCols, ...) of the transposed
        // matrix: result[r][c] == value_at(c_global, r)? Verify.
        int errors = 0;
        for (int r = 0; r < kN; ++r)
            for (int c = 0; c < kCols; ++c) {
                const double want = value_at(rank * kCols + c, r);  // transposed
                const double got = result[static_cast<std::size_t>(r) * kCols + c];
                if (want != got && ++errors < 3)
                    std::printf("[rank %d] mismatch at (%d,%d): %f != %f\n", rank, r,
                                c, got, want);
            }
        if (errors > 0) ok = false;
        if (comm.rank() == 0)
            std::printf("transpose of %dx%d over %d ranks: ff packs used: %llu\n",
                        kN, kN, kRanks,
                        static_cast<unsigned long long>(
                            cluster.metrics().value("pack.ff_packs", 0)));
    });

    std::printf("matrix transpose %s, simulated %.3f ms\n", ok ? "verified" : "FAILED",
                cluster.wtime() * 1e3);
    return ok ? 0 : 1;
}
