// check::Explorer — stateless model checking over the engine's schedule
// space (DESIGN.md §16).
//
// A single deterministic run verifies one interleaving; the explorer replays
// the same program under systematically perturbed schedules until the
// happens-before checker flags a violation (or the run panics/deadlocks), or
// the reduced schedule space is exhausted. It is *stateless*: every schedule
// is a fresh execution of the program driven by a sparse decision prefix, so
// the simulator needs no snapshot/restore machinery.
//
// Pruning is classic dynamic partial-order reduction (DPOR, Flanagan &
// Godefroid): each executed run is cut into per-dispatch "slices" carrying a
// vector clock and the set of shared objects touched; two slices race when
// their footprints intersect and their clocks are concurrent. For every race
// the choice point that scheduled the earlier slice gains a backtrack
// alternative steering toward the later slice's process (its causal ancestor
// among the alternatives; all alternatives when none can be identified —
// conservative, never unsound). Per-node done-sets play the sleep-set role:
// an alternative explored once at a node is never re-added there. Timed
// engine callbacks take part as one actor (sim::kCallbackActor), so their
// reorderings are pruned by the same relation.
//
// The explorer is generic: it drives any `RunFn` that executes the program
// under a given ScheduleController and reports what happened. The MPI-level
// front end (a fresh mpi::Cluster per schedule) lives in mpi/explore.hpp so
// this layer keeps its "mpi calls into check, never the reverse" rule.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "sim/schedule.hpp"

namespace scimpi::check {

struct ExploreOptions {
    std::uint64_t max_schedules = 256;  ///< executed-schedule budget
    std::uint64_t max_depth = 4096;     ///< choice points eligible for backtracking
    SimTime fuzz = 2000;                ///< co-enabled dispatch window, ns
    bool dpor = true;                   ///< false: naive DFS (every alternative)
    std::uint64_t minimize_budget = 64; ///< extra replays for trace minimization
    obs::MetricsRegistry* metrics = nullptr;  ///< explore.* counters (optional)
    std::FILE* progress = nullptr;            ///< progress lines (optional)
};

/// What one schedule of the program did. RunFn fills this; panics thrown out
/// of RunFn are converted to deadlock findings by the explorer.
struct RunOutcome {
    bool violation = false;  ///< the checker recorded at least one violation
    bool deadlock = false;   ///< the run panicked (deadlock / engine abort)
    std::string report;      ///< human-readable report (checker table / panic)
    std::string signature;   ///< stable bug identity for minimization
};

/// Executes the program once under `ctrl` and reports the outcome. Must be
/// deterministic given the controller's decisions.
using RunFn = std::function<RunOutcome(sim::ScheduleController&)>;

struct ExploreResult {
    bool found = false;      ///< a violating/deadlocking schedule was found
    bool exhausted = false;  ///< the reduced space was fully explored
    RunOutcome finding;      ///< outcome of the (minimized) violating schedule
    sim::DecisionTrace trace;       ///< replayable schedule of the finding
    std::uint64_t schedules = 0;    ///< program executions during the search
    std::uint64_t replays = 0;      ///< further executions spent minimizing
    std::uint64_t pruned = 0;       ///< alternatives DPOR discarded as independent
    std::uint64_t choice_points = 0;  ///< deepest run's choice-point count
    double wall_seconds = 0.0;
};

ExploreResult explore(const RunFn& run, const ExploreOptions& opt);

}  // namespace scimpi::check
