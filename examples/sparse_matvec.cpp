// Distributed sparse matrix-vector product with one-sided communication —
// the "irregularly distributed data" use case from Section 4 of the paper.
//
// The matrix is a random sparse band matrix distributed by block rows; the
// input vector x lives in an MPI-2 window (one block per rank, allocated
// with alloc_mem so remote ranks can MPI_Get directly). Each rank fetches
// exactly the remote x entries its nonzeros touch — fine-grained MPI_Get
// calls inside a fence epoch, just like the paper's *sparse* benchmark.
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "mpi/comm.hpp"
#include "mpi/rma/window.hpp"

using namespace scimpi;
using namespace scimpi::mpi;

namespace {

constexpr int kRanks = 4;
constexpr int kRowsPerRank = 256;
constexpr int kN = kRanks * kRowsPerRank;
constexpr int kNnzPerRow = 12;
constexpr int kBand = 300;  // nonzeros cluster around the diagonal

struct Csr {
    std::vector<int> row_ptr, col;
    std::vector<double> val;
};

Csr build_rows(int first_row, int rows, std::uint64_t seed) {
    Csr m;
    Rng rng(seed);
    m.row_ptr.push_back(0);
    for (int r = 0; r < rows; ++r) {
        const int gr = first_row + r;
        for (int k = 0; k < kNnzPerRow; ++k) {
            const int c = static_cast<int>(
                (gr - kBand / 2 + static_cast<int>(rng.below(kBand)) + kN) % kN);
            m.col.push_back(c);
            m.val.push_back(1.0 + static_cast<double>(rng.below(9)));
        }
        m.row_ptr.push_back(static_cast<int>(m.col.size()));
    }
    return m;
}

double reference_x(int i) { return 0.5 + (i % 17) * 0.25; }

}  // namespace

int main() {
    ClusterOptions opt;
    opt.nodes = kRanks;
    Cluster cluster(opt);

    bool ok = true;
    cluster.run([&](Comm& comm) {
        const int rank = comm.rank();
        const int first_row = rank * kRowsPerRank;
        const Csr A = build_rows(first_row, kRowsPerRank, 42 + rank);

        // x block in a shared window.
        auto xmem = comm.alloc_mem(kRowsPerRank * sizeof(double));
        auto* x_local = reinterpret_cast<double*>(xmem.value().data());
        for (int i = 0; i < kRowsPerRank; ++i)
            x_local[i] = reference_x(first_row + i);
        auto win = comm.win_create(xmem.value().data(), kRowsPerRank * sizeof(double));
        win->fence();

        // Gather the needed x entries: local ones directly, remote ones via
        // fine-grained MPI_Get from the owner's window.
        const double t0 = comm.wtime();
        std::vector<double> xg(static_cast<std::size_t>(A.col.size()));
        std::uint64_t remote_gets = 0;
        for (std::size_t k = 0; k < A.col.size(); ++k) {
            const int c = A.col[k];
            const int owner = c / kRowsPerRank;
            const std::size_t disp =
                static_cast<std::size_t>(c % kRowsPerRank) * sizeof(double);
            if (owner == rank) {
                xg[k] = x_local[c % kRowsPerRank];
            } else {
                SCIMPI_REQUIRE(
                    win->get(&xg[k], 1, Datatype::float64(), owner, disp).is_ok(),
                    "remote get failed");
                ++remote_gets;
            }
        }
        win->fence();
        const double gather_us = (comm.wtime() - t0) * 1e6;

        // y = A x over the gathered entries.
        std::vector<double> y(kRowsPerRank, 0.0);
        for (int r = 0; r < kRowsPerRank; ++r)
            for (int k = A.row_ptr[static_cast<std::size_t>(r)];
                 k < A.row_ptr[static_cast<std::size_t>(r) + 1]; ++k)
                y[static_cast<std::size_t>(r)] +=
                    A.val[static_cast<std::size_t>(k)] * xg[static_cast<std::size_t>(k)];
        comm.proc().delay(kRowsPerRank * kNnzPerRow * 2);  // 2 flops/nnz

        // Verify against a serial recomputation of this rank's rows.
        double err = 0.0;
        for (int r = 0; r < kRowsPerRank; ++r) {
            double want = 0.0;
            for (int k = A.row_ptr[static_cast<std::size_t>(r)];
                 k < A.row_ptr[static_cast<std::size_t>(r) + 1]; ++k)
                want += A.val[static_cast<std::size_t>(k)] *
                        reference_x(A.col[static_cast<std::size_t>(k)]);
            err += std::abs(want - y[static_cast<std::size_t>(r)]);
        }
        if (err > 1e-9) ok = false;

        std::printf(
            "[rank %d] %d rows, %zu nnz, %llu remote gets (%llu direct / %llu "
            "remote-put) in %.0f us, residual %.1e\n",
            rank, kRowsPerRank, A.col.size(),
            static_cast<unsigned long long>(remote_gets),
            static_cast<unsigned long long>(cluster.metrics().value("rma.direct_gets", rank)),
            static_cast<unsigned long long>(
                cluster.metrics().value("rma.remote_put_gets", rank)),
            gather_us,
            err);
        win->fence();
    });

    std::printf("sparse matvec %s, simulated time %.3f ms\n",
                ok ? "verified" : "FAILED", cluster.wtime() * 1e3);
    return ok ? 0 : 1;
}
