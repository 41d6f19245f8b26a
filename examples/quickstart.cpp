// Quickstart: a 10-minute tour of the library.
//
// Simulates a 4-node SCI cluster and exercises the three pillars of the
// paper: two-sided messaging, non-contiguous datatypes packed with
// direct_pack_ff, and MPI-2 one-sided communication over a shared window.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
//
// Observability: `--stats` prints the structured run report (JSON) after the
// run; `--trace FILE` writes a Chrome trace (open in ui.perfetto.dev);
// `--profile` prints the per-rank time-attribution table (where each rank's
// simulated time went — compute, packing, PIO, waiting; DESIGN.md §9). The
// SCIMPI_STATS / SCIMPI_STATS_FILE / SCIMPI_TRACE_FILE / SCIMPI_PROFILE
// environment variables do the same without flags. `--faults SPEC` (or
// SCIMPI_FAULTS) replays a deterministic fault schedule while the tour runs
// — see DESIGN.md §8. `--check` (or SCIMPI_CHECK=1) runs the tour under
// scimpi-check, the one-sided race/epoch checker — see DESIGN.md §10; a
// clean tour reports zero violations.
#include <cstdio>
#include <numeric>
#include <string_view>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/rma/window.hpp"

using namespace scimpi;
using namespace scimpi::mpi;

int main(int argc, char** argv) {
    ClusterOptions opt;
    opt.nodes = 4;  // 4 nodes on one SCI ringlet, 1 rank each

    bool print_stats = false;
    bool print_profile = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--stats") {
            print_stats = true;
            opt.collect_stats = true;
        } else if (arg == "--profile") {
            print_profile = true;
            opt.profile = true;
        } else if (arg == "--trace" && i + 1 < argc) {
            opt.trace_file = argv[++i];
        } else if (arg == "--faults" && i + 1 < argc) {
            // Deterministic fault injection from a text spec (see
            // src/fault/schedule.hpp for the format; env: SCIMPI_FAULTS).
            opt.fault_spec_file = argv[++i];
        } else if (arg == "--check") {
            opt.check = true;
        } else if (arg == "--record") {
            // Flight recorder (DESIGN.md §12): sample gauges/counters every
            // 10 simulated us into RunReport v4 timeseries. SCIMPI_RECORD
            // sets a custom cadence ("500ns", "1ms", ...) without the flag.
            opt.record = 10_us;
            opt.collect_stats = true;
        } else {
            // Name the offender: a silent catch-all would let `--chekc`
            // typos run unchecked. Flags that take a value also land here
            // when the value is missing.
            std::fprintf(stderr, "quickstart: unknown or incomplete flag '%s'\n",
                         std::string(arg).c_str());
            std::fprintf(stderr,
                         "usage: quickstart [--stats] [--profile] [--check] "
                         "[--record] [--trace FILE] [--faults SPEC]\n");
            return 2;
        }
    }

    Cluster cluster(opt);
    cluster.run([](Comm& comm) {
        const int rank = comm.rank();
        const int size = comm.size();

        // ---- 1. plain two-sided messaging ----------------------------------
        if (rank == 0) {
            std::vector<double> payload(1024);
            std::iota(payload.begin(), payload.end(), 0.0);
            SCIMPI_REQUIRE(
                comm.send(payload.data(), 1024, Datatype::float64(), 1, /*tag=*/0)
                    .is_ok(),
                "send failed");
        } else if (rank == 1) {
            std::vector<double> inbox(1024);
            const RecvResult r = comm.recv(inbox.data(), 1024, Datatype::float64(),
                                           0, 0);
            std::printf("[rank 1] received %zu bytes from rank %d (sum tail %.0f)\n",
                        r.bytes, r.source, inbox.back());
        }
        comm.barrier();

        // ---- 2. non-contiguous datatype (direct_pack_ff under the hood) ----
        // A strided vector: 512 blocks of 4 doubles with equal-sized gaps.
        auto column = Datatype::vector(512, 4, 8, Datatype::float64());
        const double t0 = comm.wtime();
        if (rank == 0) {
            std::vector<double> grid(512 * 8);
            std::iota(grid.begin(), grid.end(), 0.0);
            SCIMPI_REQUIRE(comm.send(grid.data(), 1, column, 1, 1).is_ok(),
                           "strided send failed");
        } else if (rank == 1) {
            std::vector<double> grid(512 * 8, -1.0);
            comm.recv(grid.data(), 1, column, 0, 1);
            std::printf("[rank 1] strided recv in %.1f us, grid[8]=%.0f (gap %.0f)\n",
                        (comm.wtime() - t0) * 1e6, grid[8], grid[4]);
        }
        comm.barrier();

        // ---- 3. one-sided communication over a shared window ---------------
        auto wmem = comm.alloc_mem(4096);  // SCI-shared: enables direct puts
        auto win = comm.win_create(wmem.value().data(), 4096);
        win->fence();
        // Everyone deposits its rank into the right neighbour's window.
        const double stamp = 100.0 + rank;
        SCIMPI_REQUIRE(
            win->put(&stamp, 1, Datatype::float64(), (rank + 1) % size, 0).is_ok(),
            "put failed");
        win->fence();
        const double got = *reinterpret_cast<double*>(win->local().data());
        std::printf("[rank %d] window holds %.0f (from rank %d), path: %s\n", rank,
                    got, (rank + size - 1) % size,
                    comm.cluster().metrics().value("rma.direct_puts", rank) > 0
                        ? "direct SCI put"
                        : "emulated");
        win->fence();
    });

    std::printf("simulated time: %.3f ms\n", cluster.wtime() * 1e3);
    if (check::Checker* ck = cluster.checker())
        std::printf("scimpi-check: %zu violation(s) detected\n",
                    ck->violations().size());
    if (print_stats)
        std::printf("%s\n", cluster.stats_report().to_json().c_str());
    if (print_profile) {
        const obs::RunReport report = cluster.stats_report();
        std::printf("\nper-rank time attribution (%% of %.3f ms simulated):\n",
                    cluster.wtime() * 1e3);
        std::printf("%6s", "rank");
        for (int s = 0; s < obs::kProfStates; ++s)
            std::printf(" %13s",
                        obs::prof_state_name(static_cast<obs::ProfState>(s)));
        std::printf("  late-snd  late-rcv\n");
        for (const auto& p : report.profiles) {
            std::printf("%6d", p.rank);
            for (int s = 0; s < obs::kProfStates; ++s)
                std::printf(" %12.1f%%",
                            p.total_ns == 0
                                ? 0.0
                                : 100.0 *
                                      static_cast<double>(
                                          p.state_ns[static_cast<std::size_t>(s)]) /
                                      static_cast<double>(p.total_ns));
            std::printf("  %8llu  %8llu\n",
                        static_cast<unsigned long long>(p.late_senders),
                        static_cast<unsigned long long>(p.late_receivers));
        }
    }
    return 0;
}
