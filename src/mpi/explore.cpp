#include "mpi/explore.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/status.hpp"

namespace scimpi::mpi {

ExploreClusterResult explore_cluster(const ClusterOptions& base,
                                     check::ExploreOptions xopt,
                                     const std::string& trace_file,
                                     const std::function<void(Comm&)>& rank_main) {
    SCIMPI_REQUIRE(base.schedule == nullptr,
                   "explore_cluster: base options already carry a controller");
    ExploreClusterResult out;

    // Cross-schedule registry: explore.* counters survive the per-schedule
    // Clusters (each of which has its own registry).
    obs::MetricsRegistry metrics;
    metrics.enable(true);

    xopt.metrics = &metrics;

    // Captures the stats snapshot of the most recent violating schedule; the
    // final value comes from the verification replay below, so it always
    // matches the minimized trace.
    std::optional<obs::RunReport> finding_report;

    const check::RunFn run = [&](sim::ScheduleController& ctrl) {
        ClusterOptions o = base;
        o.check = true;
        o.schedule = &ctrl;
        check::RunOutcome ro;
        Cluster cl(o);
        cl.run(rank_main);  // Panic propagates; the explorer records it
        check::Checker* ck = cl.checker();
        if (ck != nullptr && !ck->violations().empty()) {
            ro.violation = true;
            ro.report = ck->report_string();
            ro.signature = ck->signature();
            finding_report = cl.stats_report();
        }
        return ro;
    };

    out.result = check::explore(run, xopt);
    check::ExploreResult& r = out.result;

    std::string written;
    if (r.found && !trace_file.empty()) {
        const Status st = r.trace.save(trace_file);
        if (st.is_ok())
            written = trace_file;
        else
            std::fprintf(stderr, "explore: %s\n", st.to_string().c_str());
    }

    if (r.found) {
        // Verification replay of the minimized schedule through the plain
        // replay path — the same code SCIMPI_EXPLORE_REPLAY uses — so the
        // reported repro artifact is known-good before anyone ships it.
        sim::ReplayController rc(r.trace);
        const check::RunOutcome ro = [&] {
            try {
                return run(rc);
            } catch (const Panic& p) {
                check::RunOutcome o;
                o.deadlock = true;
                o.report = std::string(p.what()) + "\n";
                o.signature = std::string("panic:") + p.what();
                return o;
            }
        }();
        out.replay_report = ro.report;
        out.replay_matches = ro.report == r.finding.report;
    }

    if (finding_report.has_value()) out.report = std::move(*finding_report);
    obs::RunReport::ExploreSummary& xs = out.report.explore;
    xs.enabled = true;
    xs.found = r.found;
    xs.exhausted = r.exhausted;
    xs.schedules = r.schedules;
    xs.replays = r.replays;
    xs.pruned = r.pruned;
    xs.choice_points = r.choice_points;
    xs.trace_decisions = r.trace.decisions.size();
    xs.fuzz_ns = static_cast<std::uint64_t>(xopt.fuzz);
    xs.wall_seconds = r.wall_seconds;
    xs.schedules_per_sec =
        r.wall_seconds > 0 ? static_cast<double>(r.schedules) / r.wall_seconds : 0.0;
    xs.trace_file = written;

    // Fold the cross-schedule explore.* counters into the report so stats
    // consumers see them alongside the finding run's own counters.
    for (auto& [name, value] : metrics.counters())
        out.report.counters.emplace_back(name, value);
    std::sort(out.report.counters.begin(), out.report.counters.end());
    return out;
}

}  // namespace scimpi::mpi
