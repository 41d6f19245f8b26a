// Cluster: owns the whole simulated machine (engine, fabric, node memories,
// adapters, ranks) and launches rank main functions as simulated processes.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "common/config.hpp"
#include "fault/controller.hpp"
#include "fault/monitor.hpp"
#include "mem/machine_profile.hpp"
#include "mem/node_memory.hpp"
#include "mpi/rank.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sci/fabric.hpp"
#include "sci/segment.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"

namespace scimpi::mpi {

class Comm;

namespace coll {
class CollRuntime;
}

struct ClusterOptions {
    int nodes = 2;
    int procs_per_node = 1;
    Config cfg = default_config();
    sci::SciParams sci{};
    mem::MachineProfile host = mem::pentium3_800();
    std::size_t arena_bytes = 32_MiB;
    /// 0 = single ringlet; torus_w > 0 = 2D torus of torus_w x
    /// (nodes/torus_w); torus_w and torus_h > 0 = 3D torus of
    /// torus_w x torus_h x (nodes/(torus_w*torus_h)).
    int torus_w = 0;
    int torus_h = 0;
    /// Observability. collect_stats enables the metrics registry (also
    /// forced on by SCIMPI_STATS=1 or a stats_file). stats_file / trace_file
    /// are dumped at Cluster teardown (env: SCIMPI_STATS_FILE,
    /// SCIMPI_TRACE_FILE; a trace file auto-enables the tracer).
    bool collect_stats = false;
    std::string stats_file;
    std::string trace_file;
    /// Per-rank time-attribution profiling (obs/profiler.hpp); exported in
    /// stats_report() / the stats file. Also forced on by SCIMPI_PROFILE=1.
    bool profile = false;
    /// Flight-recorder sampling cadence in simulated ns; 0 disables the
    /// recorder. Also settable via SCIMPI_RECORD (accepts ns/us/ms/s
    /// suffixes, e.g. "10us"; the option wins when both are given). Sampled
    /// series land in RunReport::timeseries and, when tracing, as
    /// Chrome-trace counter tracks.
    SimTime record = 0;
    /// Causal event log (obs/evgraph.hpp): a non-empty path enables the
    /// per-run event graph and dumps it as JSONL at teardown — including on
    /// abort paths, where the writer still terminates the stream with a
    /// valid trailer so scimpi-analyze can read truncated runs. Env:
    /// SCIMPI_EVLOG. Enabling the graph also adds the critical_path section
    /// to stats_report() (RunReport schema v5) and, when tracing, a
    /// "critical path" overlay track in the Chrome trace.
    std::string evlog;
    /// Node cap for the event graph (0 = default, 4M nodes); recording stops
    /// (drop counter in the trailer) once reached. Env: SCIMPI_EVLOG_CAP.
    std::size_t evlog_cap = 0;
    /// scimpi-check: happens-before race and epoch-discipline checking for
    /// one-sided communication (src/check/checker.hpp). Also forced on by
    /// SCIMPI_CHECK=1. Checked runs are bit-identical to unchecked ones.
    bool check = false;
    /// Asynchronous progress: spawn one daemon process per rank that drains
    /// the control inbox and pumps the request engine, so nonblocking
    /// operations advance while rank code computes (the overlap the req/
    /// engine measures). Also forced on by SCIMPI_ASYNC=1. Off, progress
    /// only happens inside blocking MPI calls, as in classic single-threaded
    /// MPICH.
    bool async_progress = false;
    /// Fault injection: a programmatic schedule and/or a text spec file
    /// (see src/fault/schedule.hpp for the format; env: SCIMPI_FAULTS).
    /// A non-empty schedule spawns a FaultController alongside the ranks.
    fault::FaultSchedule faults;
    std::string fault_spec_file;
    /// Collective algorithm override (src/mpi/coll/tuning.hpp): empty means
    /// size/topology-based auto selection; "p2p"/"seg" force one path
    /// globally; "bcast=flat,alltoall=p2p" overrides per operation. Also
    /// settable via SCIMPI_COLL (the option wins when both are given).
    std::string coll;
    /// External schedule controller (sim/schedule.hpp), installed on the
    /// engine for the run's lifetime. The explorer drives one fresh Cluster
    /// per candidate schedule through this; when set by the caller, the
    /// checker's stderr report at teardown is suppressed (the explorer owns
    /// reporting). SCIMPI_EXPLORE_REPLAY=<trace file> loads a decision trace
    /// emitted by exploration and replays that exact schedule (the report is
    /// printed normally in that case).
    sim::ScheduleController* schedule = nullptr;
};

class Cluster {
public:
    explicit Cluster(ClusterOptions opt);
    ~Cluster();
    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    /// Spawn all world ranks running `rank_main` and run the simulation to
    /// completion. An implicit finalize barrier runs after rank_main.
    void run(const std::function<void(Comm&)>& rank_main);

    [[nodiscard]] int world_size() const { return static_cast<int>(ranks_.size()); }
    [[nodiscard]] int node_of(int rank) const { return rank / opt_.procs_per_node; }

    [[nodiscard]] const ClusterOptions& options() const { return opt_; }
    sim::Engine& engine() { return engine_; }
    sci::Fabric& fabric() { return fabric_; }
    sci::SegmentDirectory& directory() { return directory_; }
    mem::NodeMemory& memory(int node) { return *memories_.at(static_cast<std::size_t>(node)); }
    sci::SciAdapter& adapter(int node) { return *adapters_.at(static_cast<std::size_t>(node)); }
    Rank& rank_state(int r) { return *ranks_.at(static_cast<std::size_t>(r)); }

    /// Simulated seconds since simulation start.
    [[nodiscard]] double wtime() const { return to_seconds(engine_.now()); }

    /// The cluster-wide counter/gauge registry (see src/obs/metrics.hpp).
    [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

    /// The flight recorder (see src/obs/recorder.hpp); inert unless
    /// ClusterOptions::record / SCIMPI_RECORD set a sampling cadence.
    [[nodiscard]] obs::Recorder& recorder() { return recorder_; }

    /// Write the stats/trace files configured for this run (idempotent).
    /// Runs automatically at destruction *and* on abort paths out of run()
    /// (panic, deadlock, rndv_fail teardown), so a failed run still leaves
    /// usable telemetry on disk.
    void flush_telemetry();

    /// Fault-injection controller; null when the run has no fault schedule.
    [[nodiscard]] fault::FaultController* fault_controller() { return faults_.get(); }
    /// Connection monitor; null unless Config::monitor_period > 0. The MPI
    /// layer consults it to fail fast on peers declared dead.
    [[nodiscard]] fault::ConnectionMonitor* monitor() { return monitor_.get(); }

    /// scimpi-check happens-before checker; null unless the run enabled
    /// checking. Callers cache the pointer: a disabled hook is one null test.
    [[nodiscard]] check::Checker* checker() { return checker_.get(); }

    /// Collective engine state: tuning decisions plus the per-communicator
    /// segment-set pool (src/mpi/coll/). Always present.
    [[nodiscard]] coll::CollRuntime& coll_runtime() { return *coll_; }

    /// Structured snapshot of the run: every registry counter/gauge plus the
    /// per-link wire statistics. Valid any time; typically taken after run().
    [[nodiscard]] obs::RunReport stats_report() const;

private:
    void init_recorder();

    ClusterOptions opt_;
    obs::MetricsRegistry metrics_;
    obs::Recorder recorder_;
    bool telemetry_flushed_ = false;
    sim::Engine engine_;
    sci::Fabric fabric_;
    sci::SegmentDirectory directory_;
    std::vector<std::unique_ptr<mem::NodeMemory>> memories_;
    std::vector<std::unique_ptr<sci::SciAdapter>> adapters_;
    std::vector<std::unique_ptr<Rank>> ranks_;
    std::unique_ptr<fault::FaultController> faults_;
    std::unique_ptr<fault::ConnectionMonitor> monitor_;
    std::unique_ptr<check::Checker> checker_;
    std::unique_ptr<sim::ReplayController> replay_;  ///< SCIMPI_EXPLORE_REPLAY
    bool external_schedule_ = false;  ///< caller-installed controller (explorer)
    std::unique_ptr<coll::CollRuntime> coll_;  // destroyed before the directory
};

}  // namespace scimpi::mpi
