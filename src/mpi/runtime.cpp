#include "mpi/runtime.hpp"

#include <cstdlib>

#include "common/log.hpp"
#include "mpi/coll/coll.hpp"
#include "mpi/comm.hpp"
#include "mpi/rma/window.hpp"

namespace scimpi::mpi {

namespace {

/// SCIMPI_STATS=1 style boolean toggle ("", "0" -> false).
bool env_flag(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

std::string env_path(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr ? std::string(v) : std::string();
}

/// SCIMPI_RECORD=10us style duration: a number with an optional ns/us/ms/s
/// suffix (bare numbers are ns). Unparseable or non-positive -> 0 (off).
SimTime env_duration(const char* name) {
    const char* v = std::getenv(name);
    if (v == nullptr || v[0] == '\0') return 0;
    char* end = nullptr;
    const double x = std::strtod(v, &end);
    if (end == v || x <= 0.0) return 0;
    const std::string suffix(end);
    double mult = 0.0;
    if (suffix.empty() || suffix == "ns") mult = 1.0;
    else if (suffix == "us") mult = 1e3;
    else if (suffix == "ms") mult = 1e6;
    else if (suffix == "s") mult = 1e9;
    else return 0;
    return static_cast<SimTime>(x * mult);
}

/// SCIMPI_EVLOG_CAP=1000000 style unsigned count; unparseable/zero -> 0.
std::uint64_t env_u64(const char* name) {
    const char* v = std::getenv(name);
    if (v == nullptr || v[0] == '\0') return 0;
    char* end = nullptr;
    const unsigned long long x = std::strtoull(v, &end, 10);
    return end == v ? 0 : x;
}

sci::Topology make_topology(const ClusterOptions& opt) {
    if (opt.torus_w > 0 && opt.torus_h > 0) {
        const int plane = opt.torus_w * opt.torus_h;
        SCIMPI_REQUIRE(opt.nodes % plane == 0, "nodes not divisible by torus plane");
        return sci::Topology::torus3d(opt.torus_w, opt.torus_h, opt.nodes / plane);
    }
    if (opt.torus_w > 0) {
        SCIMPI_REQUIRE(opt.nodes % opt.torus_w == 0, "nodes not divisible by torus_w");
        return sci::Topology::torus2d(opt.torus_w, opt.nodes / opt.torus_w);
    }
    return sci::Topology::ring(opt.nodes);
}
}  // namespace

Cluster::Cluster(ClusterOptions opt)
    : opt_(opt), fabric_(make_topology(opt), opt.sci) {
    SCIMPI_REQUIRE(opt_.nodes >= 1 && opt_.procs_per_node >= 1,
                   "cluster needs at least one node and one process");
    if (env_flag("SCIMPI_STATS")) opt_.collect_stats = true;
    if (env_flag("SCIMPI_PROFILE")) opt_.profile = true;
    if (env_flag("SCIMPI_CHECK")) opt_.check = true;
    if (env_flag("SCIMPI_ASYNC")) opt_.async_progress = true;
    if (opt_.stats_file.empty()) opt_.stats_file = env_path("SCIMPI_STATS_FILE");
    if (opt_.trace_file.empty()) opt_.trace_file = env_path("SCIMPI_TRACE_FILE");
    if (opt_.fault_spec_file.empty()) opt_.fault_spec_file = env_path("SCIMPI_FAULTS");
    if (opt_.coll.empty()) opt_.coll = env_path("SCIMPI_COLL");
    if (opt_.evlog.empty()) opt_.evlog = env_path("SCIMPI_EVLOG");
    // Schedule-space exploration (see sim/schedule.hpp, check/explorer.hpp).
    // A caller-installed controller means an explorer drives this Cluster:
    // it owns violation reporting, so the teardown stderr report is muted.
    external_schedule_ = opt_.schedule != nullptr;
    if (const std::string replay = env_path("SCIMPI_EXPLORE_REPLAY");
        opt_.schedule == nullptr && !replay.empty()) {
        auto trace = sim::DecisionTrace::load(replay);
        SCIMPI_REQUIRE(trace.is_ok(), "SCIMPI_EXPLORE_REPLAY '" + replay +
                                          "': " + trace.status().to_string());
        replay_ = std::make_unique<sim::ReplayController>(std::move(trace.value()));
        opt_.schedule = replay_.get();
        opt_.check = true;  // replaying a violation schedule implies checking
    }
    if (opt_.schedule != nullptr) engine_.set_schedule_controller(opt_.schedule);
    apply_direct_pack_env(opt_.cfg);
    if (!opt_.stats_file.empty()) opt_.collect_stats = true;
    metrics_.enable(opt_.collect_stats);
    engine_.enable_views((opt_.profile ? sim::kViewProfile : 0u) |
                         (opt_.trace_file.empty() ? 0u : sim::kViewTrace) |
                         (opt_.evlog.empty() ? 0u : sim::kViewGraph));
    if (!opt_.evlog.empty()) {
        if (opt_.evlog_cap == 0)
            opt_.evlog_cap = static_cast<std::size_t>(env_u64("SCIMPI_EVLOG_CAP"));
        if (opt_.evlog_cap > 0) engine_.evgraph().set_cap(opt_.evlog_cap);
    }
    engine_.bind_metrics(metrics_);
    fabric_.bind_metrics(metrics_);
    fabric_.bind_engine(&engine_);
    if (!opt_.fault_spec_file.empty()) {
        auto loaded = fault::FaultSchedule::load(opt_.fault_spec_file);
        SCIMPI_REQUIRE(loaded.is_ok(), "fault spec '" + opt_.fault_spec_file +
                                           "': " + loaded.status().to_string());
        opt_.faults.merge(loaded.value());
    }
    if (opt_.check) {
        checker_ = std::make_unique<check::Checker>(opt_.nodes * opt_.procs_per_node);
        checker_->enable();
        checker_->bind_metrics(metrics_);
        checker_->bind_tracer(&engine_.tracer());
        checker_->bind_event_graph(&engine_.evgraph());
        directory_.bind_checker(checker_.get());
    }
    for (int n = 0; n < opt_.nodes; ++n) {
        memories_.push_back(std::make_unique<mem::NodeMemory>(n, opt_.arena_bytes));
        adapters_.push_back(std::make_unique<sci::SciAdapter>(
            n, fabric_, opt_.host, opt_.cfg, metrics_));
        adapters_.back()->bind_checker(checker_.get());
    }
    const int world = opt_.nodes * opt_.procs_per_node;
    for (int r = 0; r < world; ++r) {
        ranks_.push_back(std::make_unique<Rank>(*this, r, node_of(r)));
        ranks_.back()->init_world(world);
    }
    for (const auto& r : ranks_) {
        r->set_rma(std::make_unique<RmaState>(*r));
        r->rma().channel().bind_metrics(metrics_);
    }
    if (!opt_.faults.empty()) {
        faults_ = std::make_unique<fault::FaultController>(engine_, fabric_,
                                                           opt_.faults, metrics_);
        for (int n = 0; n < opt_.nodes; ++n)
            faults_->set_adapter(n, adapters_[static_cast<std::size_t>(n)].get());
        for (const auto& r : ranks_)
            faults_->add_channel(r->node(), &r->rma().channel());
    }
    if (opt_.cfg.monitor_period > 0) {
        monitor_ = std::make_unique<fault::ConnectionMonitor>(engine_, fabric_,
                                                              opt_.cfg, metrics_);
        for (int n = 0; n < opt_.nodes; ++n)
            monitor_->set_adapter(n, adapters_[static_cast<std::size_t>(n)].get());
    }
    coll_ = std::make_unique<coll::CollRuntime>(*this, opt_.coll);
    if (opt_.record <= 0) opt_.record = env_duration("SCIMPI_RECORD");
    if (opt_.record > 0) init_recorder();
}

void Cluster::init_recorder() {
    recorder_.configure({opt_.record, 2048});
    // Per-link utilization: cumulative wire traffic (data + echo), with the
    // rate scaled by the link's nominal capacity in bytes/ns so a fully
    // saturated link samples at 1.0.
    const double cap_bytes_per_ns =
        fabric_.params().nominal_link_bw() * static_cast<double>(1_MiB) / 1e9;
    for (int l = 0; l < fabric_.topology().links(); ++l) {
        const std::string base = "link" + std::to_string(l);
        recorder_.add_cumulative(base + ".wire_bytes", [this, l] {
            return static_cast<double>(fabric_.link_stats(l).total());
        });
        recorder_.add_rate(base + ".util", base + ".wire_bytes",
                           1.0 / cap_bytes_per_ns);
    }
    recorder_.add_gauge(
        "fabric.inflight_bytes",
        [this] { return static_cast<double>(fabric_.inflight_bytes()); },
        &metrics_.gauge("fabric.inflight_bytes"));
    recorder_.add_gauge("fabric.active_transfers", [this] {
        return static_cast<double>(fabric_.active_transfers());
    });
    recorder_.add_gauge(
        "adapter.pending_stores",
        [this] {
            int n = 0;
            for (const auto& a : adapters_) n += a->pending_store_count();
            return static_cast<double>(n);
        },
        &metrics_.gauge("adapter.pending_stores"));
    recorder_.add_gauge(
        "mpi.live_sends",
        [this] {
            std::size_t n = 0;
            for (const auto& r : ranks_) n += r->live_send_count();
            return static_cast<double>(n);
        },
        &metrics_.gauge("mpi.live_sends"));
    recorder_.add_gauge(
        "mpi.live_recvs",
        [this] {
            std::size_t n = 0;
            for (const auto& r : ranks_) n += r->live_recv_count();
            return static_cast<double>(n);
        },
        &metrics_.gauge("mpi.live_recvs"));
    recorder_.add_gauge(
        "mpi.unexpected_queued",
        [this] {
            std::size_t n = 0;
            for (const auto& r : ranks_) n += r->unexpected_count();
            return static_cast<double>(n);
        },
        &metrics_.gauge("mpi.unexpected_queued"));
    recorder_.add_gauge("mpi.posted_recvs", [this] {
        std::size_t n = 0;
        for (const auto& r : ranks_) n += r->posted_count();
        return static_cast<double>(n);
    });
    // DES engine self-metrics. The wall-clock series is host-dependent by
    // nature; everything sim-side stays bit-deterministic.
    recorder_.add_cumulative("sim.events", [this] {
        return static_cast<double>(engine_.events_dispatched());
    });
    recorder_.add_gauge(
        "sim.heap", [this] { return static_cast<double>(engine_.heap_size()); },
        &metrics_.gauge("sim.heap"));
    recorder_.add_cumulative("sim.wall_ns", [this] {
        return static_cast<double>(engine_.wall_ns());
    });
    recorder_.add_rate("sim.events_per_sim_sec", "sim.events", 1e9);
    recorder_.add_ratio("sim.events_per_sec_wall", "sim.events", "sim.wall_ns",
                        1e9);
    recorder_.add_rate("sim.wall_per_sim_second", "sim.wall_ns", 1.0);
    engine_.set_sampler(opt_.record, [this] { recorder_.sample(engine_.now()); });
}

Cluster::~Cluster() {
    if (checker_ != nullptr && !external_schedule_) checker_->print_report(stderr);
    flush_telemetry();
}

void Cluster::flush_telemetry() {
    if (telemetry_flushed_) return;
    telemetry_flushed_ = true;
    if (!opt_.stats_file.empty()) {
        const Status st = stats_report().write_json(opt_.stats_file);
        if (!st) SCIMPI_WARN("stats dump failed: ", st.to_string());
    }
    if (!opt_.evlog.empty()) {
        // Satellite of the causal layer: the event log is flushed on every
        // teardown path — including Panic aborts — and write_jsonl always
        // terminates the stream with a trailer, so scimpi-analyze can read
        // logs from runs that died mid-flight.
        const Status st = engine_.evgraph().write_jsonl(opt_.evlog, engine_.now());
        if (!st) SCIMPI_WARN("evlog dump failed: ", st.to_string());
    }
    if (!opt_.trace_file.empty()) {
        // Critical-path overlay: Perfetto shows *where* the path ran
        // alongside the per-rank spans.
        engine_.trace_critical_path();
        // Replay the recorded series as Chrome-trace counter tracks so
        // Perfetto shows utilization/queue-depth curves beside the spans.
        if (recorder_.enabled() && engine_.tracer().enabled()) {
            for (const obs::TimeSeries& ts : recorder_.series())
                for (std::size_t i = 0; i < ts.t.size(); ++i)
                    engine_.tracer().counter(ts.name,
                                             static_cast<SimTime>(ts.t[i]),
                                             ts.v[i]);
        }
        const Status st = engine_.tracer().write_chrome_json(opt_.trace_file);
        if (!st) SCIMPI_WARN("trace dump failed: ", st.to_string());
    }
}

obs::RunReport Cluster::stats_report() const {
    obs::RunReport r;
    r.world = static_cast<int>(ranks_.size());
    r.nodes = opt_.nodes;
    r.sim_seconds = to_seconds(engine_.now());
    r.sim_time_ns = static_cast<std::uint64_t>(engine_.now());
    r.events_dispatched = engine_.events_dispatched();
    r.stats_enabled = metrics_.enabled();
    r.profile_enabled = engine_.profiler().enabled();
    r.check_enabled = checker_ != nullptr;
    if (checker_ != nullptr) {
        for (const check::Violation& v : checker_->violations())
            r.violations.push_back({check::kind_name(v.kind), v.win, v.rank_a,
                                    v.rank_b, v.range.lo, v.range.hi,
                                    static_cast<std::uint64_t>(v.time_a),
                                    static_cast<std::uint64_t>(v.time_b), v.detail});
        r.check_suppressed = checker_->suppressed();
    }
    r.seed = opt_.cfg.seed;
    r.fault_seed = opt_.faults.seed();
    r.fault_spec = opt_.fault_spec_file;
    r.wall_ns = engine_.wall_ns();
    if (r.wall_ns > 0)
        r.events_per_sec_wall = static_cast<double>(r.events_dispatched) * 1e9 /
                                static_cast<double>(r.wall_ns);
    if (r.sim_time_ns > 0)
        r.wall_per_sim_second = static_cast<double>(r.wall_ns) /
                                static_cast<double>(r.sim_time_ns);
    if (recorder_.enabled()) {
        r.record_cadence_ns = static_cast<std::uint64_t>(recorder_.cadence());
        r.timeseries = recorder_.series();
        r.hotspots = obs::congestion_hotspots(r.timeseries, 5);
    }
    if (engine_.evgraph().enabled()) {
        const obs::CriticalPath cp =
            obs::critical_path(engine_.evgraph(), engine_.now());
        r.critical_path.enabled = true;
        r.critical_path.total_ns = cp.total_ns;
        r.critical_path.steps = cp.steps;
        for (int c = 0; c < obs::kEvCats; ++c)
            if (cp.cat_ns[static_cast<std::size_t>(c)] > 0)
                r.critical_path.categories.emplace_back(
                    obs::ev_cat_name(static_cast<obs::EvCat>(c)),
                    cp.cat_ns[static_cast<std::size_t>(c)]);
        for (const auto& [name, ns] : cp.link_ns)
            r.critical_path.links.emplace_back(name, ns);
        for (const auto& [rank, ns] : cp.rank_ns)
            r.critical_path.ranks.emplace_back(rank, ns);
    }
    r.counters = metrics_.counters();
    r.gauges = metrics_.gauge_maxima();
    // v4: histograms that recorded no samples are omitted (their snapshot
    // rows are all zeros and only bloat the report).
    r.histograms = metrics_.histograms();
    std::erase_if(r.histograms,
                  [](const obs::HistogramSnapshot& h) { return h.count == 0; });
    for (int l = 0; l < fabric_.topology().links(); ++l) {
        const sci::LinkStats& ls = fabric_.link_stats(l);
        r.links.push_back({l, ls.payload_bytes, ls.wire_bytes, ls.echo_bytes});
    }
    if (engine_.profiler().enabled()) {
        for (const auto& rk : ranks_) {
            if (rk->proc_ == nullptr) continue;  // run() never started
            r.profiles.push_back(
                {engine_.profiler().snapshot(rk->proc_->id(), engine_.now()),
                 rk->rank()});
        }
    }
    return r;
}

void Cluster::run(const std::function<void(Comm&)>& rank_main) {
    if (faults_ != nullptr) faults_->start();
    if (monitor_ != nullptr) monitor_->start();
    for (const auto& r : ranks_) {
        Rank* rank = r.get();
        sim::Process& proc = engine_.spawn("rank" + std::to_string(rank->rank()),
                                           [this, rank,
                                            &rank_main](sim::Process& p) {
            rank->bind(p);
            rank->rma().start_handler();
            Comm comm(*this, *rank);
            rank_main(comm);
            comm.barrier();  // implicit finalize: drain pending protocol traffic
        });
        // Perfetto track label: "rank 3" reads better than the raw spawn name.
        engine_.tracer().set_track_name(proc.id(),
                                        "rank " + std::to_string(rank->rank()));
        engine_.evgraph().set_track_rank(proc.id(), rank->rank());
        if (checker_ != nullptr) checker_->register_actor(proc.id(), rank->rank());
    }
    if (opt_.async_progress) {
        // One progress daemon per rank: drains the control inbox and pumps
        // the request engine while rank code computes. Daemons park in
        // Mailbox::recv until traffic arrives, are exempt from deadlock
        // detection, and are unwound by the engine at teardown.
        for (const auto& r : ranks_) {
            Rank* rank = r.get();
            sim::Process& dproc = engine_.spawn_daemon(
                "prog" + std::to_string(rank->rank()),
                [rank](sim::Process& p) { rank->progress_daemon_body(p); });
            // Daemon work is charged to the rank it serves, so critical-path
            // blame lands on the right rank under async progress.
            engine_.evgraph().set_track_rank(dproc.id(), rank->rank());
        }
    }
    try {
        engine_.run();
    } catch (...) {
        // Abort path (process panic, deadlock, rndv_fail teardown): write
        // the telemetry files now, with whatever the run accumulated, so a
        // failed run still leaves usable evidence on disk.
        flush_telemetry();
        throw;
    }
    // All rank processes have finished: tear the collective segment sets
    // down so the node arenas drain back to empty (bytes_in_use() == 0).
    coll_->release_sets();
}

void Rank::init_world(int world_size) {
    eager_credits_.assign(static_cast<std::size_t>(world_size),
                          static_cast<int>(cluster_.options().cfg.eager_slots));
    send_seq_.assign(static_cast<std::size_t>(world_size), 0);
    last_credit_ev_.assign(static_cast<std::size_t>(world_size), 0);
}

}  // namespace scimpi::mpi
