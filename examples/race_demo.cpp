// race_demo: deliberately mis-synchronized one-sided programs, used to
// demonstrate (and smoke-test) scimpi-check and the schedule explorer.
//
// Default mode plants a textbook MPI-2 epoch violation: ranks 1 and 2 both
// put into rank 0's window inside the *same* fence epoch, and their byte
// ranges overlap. On real SCI hardware the direct PIO path makes the result
// silently non-deterministic; under the simulator the outcome is fixed, so
// the bug would survive any benchmark. With checking on, every run reports
// the conflict with the exact overlapping byte range.
//
// The --pscw mode plants the opposite kind of bug: an *order-dependent*
// PSCW race that every single deterministic run misses. Rank 1 completes its
// access epoch and then sends a "data is ready" token; rank 0 receives the
// token and uses MPI_Win_test to decide whether the exposure epoch is over —
// touching its own window when test() says no. In the deterministic schedule
// the complete-interrupt always beats the token, test() succeeds, and the
// window write is legal; flip the two deliveries (as real interrupt jitter
// would) and rank 0 writes exposed window memory. `--explore` hands the
// program to check::Explorer, which hunts that schedule systematically and
// emits a replayable decision trace.
//
//   ./build/examples/race_demo                  # fence race: expects 1+
//   ./build/examples/race_demo --clean          # disjoint ranges: expects 0
//   ./build/examples/race_demo --pscw           # one run: expects clean
//   ./build/examples/race_demo --pscw --seeds 100   # N seeds: all clean
//   ./build/examples/race_demo --pscw --explore     # must find the race
//
// All modes self-verify: the exit code is 0 only when the checker's (or
// explorer's) verdict matches the mode's expectation. With
// SCIMPI_EXPLORE_REPLAY set, --pscw expects the replayed schedule to *hit*
// the race instead — that is the smoke test for portable repro traces.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/explore.hpp"
#include "mpi/rma/window.hpp"

using namespace scimpi;
using namespace scimpi::mpi;

namespace {

/// The order-dependent PSCW program (2 ranks). Clean under the default
/// deterministic schedule; racy when the kComplete interrupt is delivered
/// after the token message.
void pscw_program(Comm& comm) {
    auto wmem = comm.alloc_mem(4096);
    SCIMPI_REQUIRE(wmem.is_ok(), "alloc_mem failed");
    auto win = comm.win_create(wmem.value().data(), 4096);
    constexpr int kTokenTag = 7;

    if (comm.rank() == 1) {
        const std::array<int, 1> targets{0};
        std::vector<double> payload(8, 41.0);
        win->start(targets);
        SCIMPI_REQUIRE(
            win->put(payload.data(), 8, Datatype::float64(), 0, 0).is_ok(),
            "put failed");
        win->complete();
        // Post-processing before announcing the data: the complete-interrupt
        // is already in flight and this compute time normally lets it land
        // well before the token — but nothing *orders* it before the token.
        comm.proc().delay(15000);
        const int token = 1;
        SCIMPI_REQUIRE(
            comm.send(&token, 1, Datatype::int32(), 0, kTokenTag).is_ok(),
            "send failed");
    } else if (comm.rank() == 0) {
        const std::array<int, 1> origins{1};
        win->post(origins);
        int token = 0;
        comm.recv(&token, 1, Datatype::int32(), 1, kTokenTag);
        // Bug: the token only proves rank 1 called complete(), not that the
        // completion reached us. When test() fails the epoch is still open,
        // and the "scratch" write below touches exposed window memory.
        if (!win->test()) {
            const double scratch = 0.0;
            SCIMPI_REQUIRE(
                win->put(&scratch, 1, Datatype::float64(), 0, 128).is_ok(),
                "local put failed");
            win->wait();
        }
    }
}

ClusterOptions pscw_options() {
    ClusterOptions opt;
    opt.nodes = 2;
    opt.check = true;
    return opt;
}

int run_fence_mode(bool clean) {
    ClusterOptions opt;
    opt.nodes = 3;
    opt.check = true;  // scimpi-check on: this demo exists to be diagnosed

    Cluster cluster(opt);
    cluster.run([clean](Comm& comm) {
        auto wmem = comm.alloc_mem(4096);
        auto win = comm.win_create(wmem.value().data(), 4096);

        std::vector<double> payload(8, 100.0 + comm.rank());
        win->fence();
        if (comm.rank() == 1) {
            // Bytes [0, 64) of rank 0's window.
            SCIMPI_REQUIRE(win->put(payload.data(), 8, Datatype::float64(), 0, 0)
                               .is_ok(),
                           "put failed");
        } else if (comm.rank() == 2) {
            // Racy: bytes [32, 96) — the halves [32, 64) collide with rank
            // 1's put in this very epoch. Clean: disjoint [64, 128).
            SCIMPI_REQUIRE(win->put(payload.data(), 8, Datatype::float64(), 0,
                                    clean ? 64 : 32)
                               .is_ok(),
                           "put failed");
        }
        win->fence();
        win->fence();
    });

    const std::size_t n = cluster.checker()->violations().size();
    std::printf("race_demo (%s): scimpi-check reported %zu violation(s)\n",
                clean ? "clean" : "racy", n);
    const bool as_expected = clean ? n == 0 : n > 0;
    if (!as_expected)
        std::fprintf(stderr, "race_demo: checker verdict does not match mode\n");
    return as_expected ? 0 : 1;
}

/// N single deterministic runs over distinct seeds: the PSCW bug must stay
/// invisible in every one (that is the point of the demo). With
/// SCIMPI_EXPLORE_REPLAY set the expectation flips: the replayed schedule
/// must hit the race.
int run_pscw_seeds(int seeds) {
    const bool replaying = std::getenv("SCIMPI_EXPLORE_REPLAY") != nullptr;
    std::size_t dirty = 0;
    for (int s = 1; s <= seeds; ++s) {
        ClusterOptions opt = pscw_options();
        opt.cfg.seed = static_cast<std::uint64_t>(s);
        Cluster cluster(opt);
        cluster.run(pscw_program);
        if (!cluster.checker()->violations().empty()) ++dirty;
    }
    if (replaying) {
        std::printf("race_demo (pscw replay): %zu of %d run(s) hit the race\n",
                    dirty, seeds);
        return dirty == static_cast<std::size_t>(seeds) ? 0 : 1;
    }
    std::printf("race_demo (pscw): %d single-seed run(s), %zu dirty (want 0)\n",
                seeds, dirty);
    if (dirty != 0)
        std::fprintf(stderr, "race_demo: single runs were supposed to be clean\n");
    return dirty == 0 ? 0 : 1;
}

int run_pscw_explore(const check::ExploreOptions& xopt, const std::string& trace_file) {
    const ExploreClusterResult res =
        explore_cluster(pscw_options(), xopt, trace_file, pscw_program);
    const check::ExploreResult& r = res.result;

    std::printf(
        "race_demo (pscw explore): %s after %llu schedule(s), %llu pruned, "
        "%zu decision(s) in the minimized trace\n",
        r.found ? "race found" : "nothing found",
        static_cast<unsigned long long>(r.schedules),
        static_cast<unsigned long long>(r.pruned), r.trace.decisions.size());
    if (!r.found) {
        std::fprintf(stderr, "race_demo: explorer exhausted=%d budget=%llu\n",
                     r.exhausted ? 1 : 0,
                     static_cast<unsigned long long>(xopt.max_schedules));
        return 1;
    }
    std::fputs(r.finding.report.c_str(), stdout);
    if (!res.replay_matches) {
        std::fprintf(stderr,
                     "race_demo: replay of the minimized trace did not "
                     "reproduce the identical report\n%s",
                     res.replay_report.c_str());
        return 1;
    }
    std::printf("race_demo (pscw explore): trace replay byte-identical%s%s\n",
                trace_file.empty() ? "" : ", trace written to ", trace_file.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    bool clean = false;
    bool pscw = false;
    bool explore = false;
    int seeds = 1;
    check::ExploreOptions xopt;
    xopt.fuzz = 20000;  // 20us: generous co-enabled window for irq jitter
    xopt.progress = stderr;
    std::string trace_file;

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const bool has_next = i + 1 < argc;
        if (arg == "--clean") {
            clean = true;
        } else if (arg == "--pscw") {
            pscw = true;
        } else if (arg == "--explore") {
            explore = true;
        } else if (arg == "--seeds" && has_next) {
            seeds = std::atoi(argv[++i]);
        } else if (arg == "--budget" && has_next) {
            xopt.max_schedules = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--fuzz" && has_next) {
            xopt.fuzz = static_cast<SimTime>(std::atoll(argv[++i]));
        } else if (arg == "--naive") {
            xopt.dpor = false;
        } else if (arg == "--trace" && has_next) {
            trace_file = argv[++i];
        } else {
            std::fprintf(stderr, "race_demo: unknown flag '%s'\n",
                         std::string(arg).c_str());
            std::fprintf(stderr,
                         "usage: race_demo [--clean] | --pscw [--seeds N] "
                         "[--explore [--budget N] [--fuzz NS] [--naive] "
                         "[--trace FILE]]\n");
            return 2;
        }
    }
    if (seeds < 1) {
        std::fprintf(stderr, "race_demo: --seeds wants a positive count\n");
        return 2;
    }

    if (!pscw) return run_fence_mode(clean);
    if (explore) return run_pscw_explore(xopt, trace_file);
    return run_pscw_seeds(seeds);
}
