// mpi::explore_cluster — the MPI front end of check::Explorer: runs a rank
// program across systematically perturbed schedules, one fresh Cluster per
// candidate schedule, until the checker flags a violation (or the run
// deadlocks) or the DPOR-reduced schedule space / budget is exhausted.
//
// On a finding the minimized decision trace is written to the given trace
// file (when set); SCIMPI_EXPLORE_REPLAY=<that file> re-runs the exact
// schedule in a normal single-run Cluster and must reproduce the
// byte-identical violation report.
#pragma once

#include <functional>
#include <string>

#include "check/explorer.hpp"
#include "mpi/runtime.hpp"
#include "obs/metrics.hpp"

namespace scimpi::mpi {

struct ExploreClusterResult {
    check::ExploreResult result;
    /// Stats snapshot of the verification replay of the minimized schedule
    /// (an empty default report when nothing was found), with the
    /// RunReport::explore summary section filled either way.
    obs::RunReport report;
    /// Checker report of that verification replay; byte-identical to
    /// result.finding.report when the replay reproduced the finding.
    std::string replay_report;
    bool replay_matches = false;
};

/// Explore the schedule space of `rank_main` under `base` (`base.schedule`
/// must be null) with the budget, depth, fuzz, DPOR and progress settings of
/// `xopt`; its `metrics` is replaced by a cross-schedule registry whose
/// explore.* counters land in the report. Each schedule runs with checking
/// enabled regardless of base.check. A non-empty `trace_file` receives the
/// minimized decision trace of a finding.
ExploreClusterResult explore_cluster(const ClusterOptions& base,
                                     check::ExploreOptions xopt,
                                     const std::string& trace_file,
                                     const std::function<void(Comm&)>& rank_main);

}  // namespace scimpi::mpi
