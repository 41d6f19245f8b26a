// scimpi_perfbench: host and simulated performance of the scimpi simulator
// on one named workload.
//
//   scimpi_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--short] [--spans-out FILE]
//
// One run replays the workload's seed-drawn inputs on fresh Clusters, one
// Cluster at a time, until S seconds have passed. --trace 0 reports the
// end-to-end metrics (host medians over the instances, simulated values of
// the instance); --trace 1 reports the per-layer metrics from instances
// with driver spans and stats counters on, interleaved with untraced
// instances for the overhead comparison. Every instance must leave the
// same simulated results: the run fails with the first differing field.
// The last stdout line is the JSON result object.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mem/node_memory.hpp"
#include "mpi/comm.hpp"
#include "spans.hpp"
#include "util.hpp"
#include "workload.hpp"

extern char** environ;

namespace perfbench {
namespace {

using scimpi::mpi::Cluster;
using scimpi::mpi::ClusterOptions;
using scimpi::obs::RunReport;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool short_mode = false;
    std::string spans_out;
};

struct Mode {
    bool stats = false;   ///< ClusterOptions::collect_stats
    bool traced = false;  ///< driver spans
};

/// One Cluster built, run and torn down.
struct Instance {
    double setup_s = 0.0;
    double run_s = 0.0;
    double report_s = 0.0;
    double teardown_s = 0.0;
    RunReport report;
    Tally tally;
    std::string error;  ///< exception escaping run(), if any

    [[nodiscard]] double wall_s() const { return setup_s + run_s + teardown_s; }
    [[nodiscard]] std::uint64_t failed() const {
        std::uint64_t f = 0;
        for (const std::uint8_t b : tally.bad) f += b;
        return error.empty() ? f : tally.bad.size();
    }
};

/// RSS growth across the process's first Cluster construction, KiB.
long g_first_ctor_rss_kib = -1;

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

Instance run_instance(Workload& wl, Mode mode, std::uint32_t iter) {
    Instance in;
    wl.reset();
    in.tally.op_sim_ns.assign(wl.op_slots(), 0.0);
    in.tally.bad.assign(wl.op_slots(), 0);
    ClusterOptions opt = wl.options();
    opt.collect_stats = mode.stats;
    Tracer& tr = tracer();
    tr.set_enabled(mode.traced);
    tr.set_iter(iter);

    std::unique_ptr<Cluster> cluster;
    const long rss0 = peak_rss_kib();
    const std::int64_t t0 = host_ns();
    {
        const Scope s(SpanKind::cluster_ctor);
        cluster = std::make_unique<Cluster>(opt);
    }
    const std::int64_t t1 = host_ns();
    if (g_first_ctor_rss_kib < 0) g_first_ctor_rss_kib = peak_rss_kib() - rss0;
    try {
        const Scope s(SpanKind::cluster_run);
        tr.set_root(s.index());
        cluster->run([&](scimpi::mpi::Comm& comm) { wl.rank_main(comm, in.tally); });
    } catch (const std::exception& e) {
        in.error = e.what();
    }
    tr.set_root(-1);
    const std::int64_t t2 = host_ns();
    {
        const Scope s(SpanKind::stats_report);
        in.report = cluster->stats_report();
    }
    const std::int64_t t3 = host_ns();
    {
        const Scope s(SpanKind::cluster_teardown);
        cluster.reset();
    }
    const std::int64_t t4 = host_ns();
    tr.set_enabled(false);
    in.setup_s = secs(t1 - t0);
    in.run_s = secs(t2 - t1);
    in.report_s = secs(t3 - t2);
    in.teardown_s = secs(t4 - t3);
    return in;
}

/// First field in which two instances' simulated results differ, or "".
/// `counters` also compares the stats registry (counters and histograms).
std::string first_diff(const Instance& a, const Instance& b, bool counters) {
    const RunReport& x = a.report;
    const RunReport& y = b.report;
    const auto num = [](const std::string& field, std::uint64_t u, std::uint64_t v) {
        return field + ": " + std::to_string(u) + " vs " + std::to_string(v);
    };
    if (x.sim_time_ns != y.sim_time_ns) return num("sim_time_ns", x.sim_time_ns, y.sim_time_ns);
    if (x.events_dispatched != y.events_dispatched)
        return num("sim.events", x.events_dispatched, y.events_dispatched);
    if (x.links.size() != y.links.size()) return num("links", x.links.size(), y.links.size());
    for (std::size_t i = 0; i < x.links.size(); ++i) {
        const auto& l = x.links[i];
        const auto& m = y.links[i];
        const std::string at = "link" + std::to_string(i);
        if (l.payload_bytes != m.payload_bytes)
            return num(at + ".payload_bytes", l.payload_bytes, m.payload_bytes);
        if (l.wire_bytes != m.wire_bytes) return num(at + ".wire_bytes", l.wire_bytes, m.wire_bytes);
        if (l.echo_bytes != m.echo_bytes) return num(at + ".echo_bytes", l.echo_bytes, m.echo_bytes);
    }
    for (std::size_t i = 0; i < a.tally.op_sim_ns.size(); ++i)
        if (a.tally.op_sim_ns[i] != b.tally.op_sim_ns[i])
            return "op " + std::to_string(i) + " simulated latency: " +
                   std::to_string(a.tally.op_sim_ns[i]) + " vs " +
                   std::to_string(b.tally.op_sim_ns[i]);
    if (!counters) return "";
    const std::map<std::string, std::uint64_t> cx(x.counters.begin(), x.counters.end());
    const std::map<std::string, std::uint64_t> cy(y.counters.begin(), y.counters.end());
    for (const auto& [name, v] : cx) {
        const auto it = cy.find(name);
        const std::uint64_t w = it == cy.end() ? 0 : it->second;
        if (v != w) return num(name, v, w);
    }
    for (const auto& [name, w] : cy)
        if (!cx.contains(name) && w != 0) return num(name, 0, w);
    if (x.histograms.size() != y.histograms.size())
        return num("histograms", x.histograms.size(), y.histograms.size());
    for (std::size_t i = 0; i < x.histograms.size(); ++i) {
        const auto& h = x.histograms[i];
        const auto& k = y.histograms[i];
        if (h.name != k.name) return "histogram " + h.name + " vs " + k.name;
        if (h.count != k.count) return num(h.name + ".count", h.count, k.count);
        if (h.sum != k.sum) return num(h.name + ".sum", h.sum, k.sum);
    }
    return "";
}

// ---- metric output --------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

class Result {
public:
    void add(std::string name, double value, std::string unit) {
        metrics_.push_back({std::move(name), value, std::move(unit)});
    }
    void fail(const std::string& why) {
        if (correct_) std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        correct_ = false;
    }
    /// Add an instance's ops to the attempted/failed totals.
    void count(const Instance& in) {
        attempted_ += in.tally.bad.size();
        const std::uint64_t f = in.failed();
        failed_ += f;
        if (!in.error.empty()) fail("run aborted: " + in.error);
        else if (f > 0) fail(std::to_string(f) + " failed ops; first: " + in.tally.first_error);
    }
    [[nodiscard]] bool correct() const { return correct_; }
    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }

    void print() const {
        for (const Metric& m : metrics_)
            std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        std::string json = "{\"correct\": ";
        json += correct_ ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(attempted_);
        json += ", \"failed\": " + std::to_string(failed_);
        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            char num[64];
            const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
            std::snprintf(num, sizeof num, "%.17g", v);
            json += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + num +
                    ", \"unit\": \"" + metrics_[i].unit + "\"}";
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
        std::fflush(stdout);
    }

private:
    std::vector<Metric> metrics_;
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_instance(const char* label, std::uint32_t iter, const Instance& in) {
    std::printf("%-9s %3u  setup %8.4f s  run %8.4f s  teardown %8.4f s  wall %8.4f s"
                "  events %llu\n",
                label, iter, in.setup_s, in.run_s, in.teardown_s, in.wall_s(),
                static_cast<unsigned long long>(in.report.events_dispatched));
}

bool out_of_time(std::int64_t start, double seconds) {
    return secs(host_ns() - start) >= seconds;
}

// ---- --trace 0: end-to-end ------------------------------------------------

Result end_to_end(Workload& wl, const Args& args) {
    Result res;
    const std::int64_t start = host_ns();
    const std::uint32_t min_iters = args.short_mode ? 2 : 3;
    std::optional<Instance> ref;
    std::vector<double> setup, wall;
    for (std::uint32_t it = 0;; ++it) {
        Instance in = run_instance(wl, {}, it);
        print_instance("instance", it, in);
        res.count(in);
        setup.push_back(in.setup_s);
        wall.push_back(in.wall_s());
        if (!ref) ref = std::move(in);
        else if (const std::string d = first_diff(*ref, in, true); !d.empty())
            res.fail("instance " + std::to_string(it) + " is not deterministic: " + d);
        if (!res.correct() || (it + 1 >= min_iters && out_of_time(start, args.seconds)))
            break;
    }
    const double sim_s = static_cast<double>(ref->report.sim_time_ns) * 1e-9;
    res.add("setup_s", median(setup), "s");
    res.add("wall_s", median(wall), "s");
    res.add("peak_rss_mib", static_cast<double>(peak_rss_kib()) / 1024.0, "MiB");
    res.add("sim_time_ms", sim_s * 1e3, "ms");
    res.add("sim_goodput_mibs", ratio(mib(wl.payload_bytes()), sim_s), "MiB/s");
    res.add("sim_op_p50_us", percentile(ref->tally.op_sim_ns, 50) * 1e-3, "us");
    res.add("sim_op_p99_us", percentile(ref->tally.op_sim_ns, 99) * 1e-3, "us");
    return res;
}

// ---- --trace 1: per layer -------------------------------------------------

std::vector<double> span_us(const std::vector<Span>& spans,
                            std::initializer_list<SpanKind> kinds) {
    std::vector<double> out;
    for (const Span& s : spans)
        for (const SpanKind k : kinds)
            if (s.kind == k) out.push_back(static_cast<double>(s.dur()) * 1e-3);
    return out;
}

double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
}

void add_p50_p99(Result& res, const std::string& name, const std::vector<double>& us) {
    res.add(name + ".p50", percentile(us, 50), "us");
    res.add(name + ".p99", percentile(us, 99), "us");
}

/// Mean busy (thread CPU) and waited (wall minus CPU) microseconds per call.
void add_busy_wait(Result& res, const std::string& name, const std::vector<Span>& spans,
                   SpanKind kind) {
    double busy = 0.0;
    double wait = 0.0;
    double calls = 0.0;
    for (const Span& s : spans)
        if (s.kind == kind) {
            busy += static_cast<double>(s.cpu_ns) * 1e-3;
            wait += static_cast<double>(s.dur() - s.cpu_ns) * 1e-3;
            calls += 1.0;
        }
    res.add(name + "_busy_us", ratio(busy, calls), "us");
    res.add(name + "_wait_us", ratio(wait, calls), "us");
}

Result per_layer(Workload& wl, const Args& args) {
    Result res;
    const std::int64_t start = host_ns();
    const std::uint32_t min_pairs = args.short_mode ? 1 : 2;

    // Reference: stats counters on, no spans. The traced instances must
    // match it counter for counter; the untraced ones (stats at their
    // default, off) must match its simulated results.
    Instance stats_ref = run_instance(wl, {.stats = true, .traced = false}, 0);
    print_instance("stats", 0, stats_ref);
    res.count(stats_ref);
    std::optional<Instance> plain_ref;
    std::vector<double> plain_wall, plain_run, traced_wall, report_ms;
    std::uint32_t traced_iters = 0;
    const auto guard = [&](const Instance& ref, const Instance& in, bool counters,
                           const char* what) {
        if (const std::string d = first_diff(ref, in, counters); !d.empty())
            res.fail(std::string(what) + " differs: " + d);
    };
    for (std::uint32_t it = 1;; ++it) {
        Instance plain = run_instance(wl, {}, it);
        print_instance("untraced", it, plain);
        res.count(plain);
        guard(plain_ref ? *plain_ref : stats_ref, plain, plain_ref.has_value(),
              "untraced instance");
        plain_wall.push_back(plain.wall_s());
        plain_run.push_back(plain.run_s);
        if (!plain_ref) plain_ref = std::move(plain);

        const Instance tr = run_instance(wl, {.stats = true, .traced = true}, it);
        print_instance("traced", it, tr);
        res.count(tr);
        guard(stats_ref, tr, true, "traced instance");
        traced_wall.push_back(tr.wall_s());
        report_ms.push_back(tr.report_s * 1e3);
        ++traced_iters;
        if (!res.correct() || (it >= min_pairs && out_of_time(start, args.seconds))) break;
    }

    // mem: one node arena on its own, outside any Cluster and any span.
    const std::size_t arena = wl.options().arena_bytes;
    std::vector<double> node_mem_ms;
    for (int i = 0; i < 5; ++i) {
        const std::int64_t t0 = host_ns();
        { const scimpi::mem::NodeMemory m(0, arena); }
        node_mem_ms.push_back(static_cast<double>(host_ns() - t0) * 1e-6);
    }

    const std::vector<Span>& spans = tracer().spans();
    const RunReport& rep = stats_ref.report;
    const auto c = [&](const char* name) { return static_cast<double>(rep.counter(name)); };
    const auto count = [&](const char* name) { res.add(name, c(name), "count"); };
    const double events = static_cast<double>(rep.events_dispatched);
    const double iters = static_cast<double>(traced_iters);

    // sim
    res.add("sim.events", events, "count");
    count("sim.context_switches");
    res.add("sim.host_ns_per_event", ratio(median(plain_run) * 1e9, events), "ns");
    res.add("sim.events_per_s", ratio(events, median(plain_run)), "1/s");
    // mem
    res.add("mem.node_memory_ctor_ms", median(node_mem_ms), "ms");
    res.add("mem.rss_mib_per_node",
            static_cast<double>(g_first_ctor_rss_kib) / 1024.0 /
                static_cast<double>(wl.options().nodes),
            "MiB");
    // mpi.coll
    add_p50_p99(res, "coll.bcast_us", span_us(spans, {SpanKind::coll_bcast}));
    add_p50_p99(res, "coll.allreduce_us", span_us(spans, {SpanKind::coll_allreduce}));
    add_p50_p99(res, "coll.alltoall_us", span_us(spans, {SpanKind::coll_alltoall}));
    add_p50_p99(res, "coll.barrier_us", span_us(spans, {SpanKind::coll_barrier}));
    res.add("coll.bootstrap_ms",
            (median(span_us(spans, {SpanKind::coll_bootstrap})) -
             median(span_us(spans, {SpanKind::coll_barrier}))) * 1e-3,
            "ms");
    count("coll.seg_ops");
    count("coll.p2p_ops");
    count("coll.fallbacks");
    res.add("coll.seg_share", ratio(c("coll.seg_ops"), c("coll.seg_ops") + c("coll.p2p_ops")),
            "ratio");
    // mpi.req
    add_p50_p99(res, "req.start_all_us", span_us(spans, {SpanKind::req_start_all}));
    add_p50_p99(res, "req.wait_all_us", span_us(spans, {SpanKind::req_wait_all}));
    // mpi.p2p
    add_busy_wait(res, "p2p.send", spans, SpanKind::p2p_send);
    add_busy_wait(res, "p2p.recv", spans, SpanKind::p2p_recv);
    for (const char* n : {"mpi.sends_short", "mpi.sends_eager", "mpi.sends_rndv",
                          "mpi.send_retries", "mpi.unexpected_msgs"})
        count(n);
    // mpi.datatype
    const std::vector<double> build = span_us(spans, {SpanKind::dt_build});
    res.add("datatype.build_us", ratio(sum(build), static_cast<double>(build.size())), "us");
    res.add("datatype.pack_ns_per_block",
            ratio(sum(span_us(spans, {SpanKind::dt_pack})) * 1e3,
                  static_cast<double>(wl.packed_blocks()) * iters),
            "ns");
    count("pack.ff_direct_blocks");
    count("pack.ff_direct_bytes");
    count("pack.generic_staged_bytes");
    res.add("pack.ff_share",
            ratio(c("pack.ff_direct_bytes"),
                  c("pack.ff_direct_bytes") + c("pack.generic_staged_bytes")),
            "ratio");
    // mpi.rma
    add_p50_p99(res, "rma.put_us", span_us(spans, {SpanKind::rma_put}));
    add_p50_p99(res, "rma.get_us", span_us(spans, {SpanKind::rma_get}));
    add_p50_p99(res, "rma.acc_us", span_us(spans, {SpanKind::rma_acc}));
    add_p50_p99(res, "rma.fence_us", span_us(spans, {SpanKind::rma_fence}));
    add_p50_p99(res, "rma.pscw_us",
                span_us(spans, {SpanKind::rma_post, SpanKind::rma_start,
                                SpanKind::rma_complete, SpanKind::rma_wait}));
    add_p50_p99(res, "rma.lock_us", span_us(spans, {SpanKind::rma_lock, SpanKind::rma_unlock}));
    for (const char* n : {"rma.direct_puts", "rma.emulated_puts", "rma.direct_gets",
                          "rma.remote_put_gets", "rma.path_fallbacks"})
        count(n);
    const double direct = c("rma.direct_puts") + c("rma.direct_gets");
    res.add("rma.direct_share",
            ratio(direct, direct + c("rma.emulated_puts") + c("rma.remote_put_gets")), "ratio");
    // sci / smi
    for (const char* n : {"sci.pio_bytes", "sci.read_bytes", "sci.stream_restarts",
                          "fabric.transfers", "smi.irq_retransmits"})
        count(n);
    double payload = 0.0;
    double wire = 0.0;
    for (const auto& l : rep.links) {
        payload += static_cast<double>(l.payload_bytes);
        wire += static_cast<double>(l.wire_bytes);
    }
    res.add("fabric.wire_efficiency", ratio(payload, wire), "ratio");
    // obs
    res.add("obs.stats_report_ms", median(report_ms), "ms");
    res.add("obs.trace_overhead_pct",
            (ratio(median(traced_wall), median(plain_wall)) - 1.0) * 100.0, "%");
    // self time per layer, per traced instance
    const auto self = layer_self(spans);
    for (int l = 0; l < kLayers; ++l) {
        const std::string base = std::string("layer.") + layer_name(static_cast<Layer>(l));
        const SelfTime& s = self[static_cast<std::size_t>(l)];
        res.add(base + ".self_ms", static_cast<double>(s.wall) * 1e-6 / iters, "ms");
        res.add(base + ".cpu_ms", static_cast<double>(s.cpu) * 1e-6 / iters, "ms");
    }
    // the op base of the end-to-end numbers
    res.add("ops_total", static_cast<double>(res.attempted()), "count");
    res.add("op_error_rate",
            ratio(static_cast<double>(res.failed()), static_cast<double>(res.attempted())),
            "ratio");
    res.add("sim_op_samples", static_cast<double>(stats_ref.tally.op_sim_ns.size()), "count");

    if (!args.spans_out.empty() && !tracer().write_jsonl(args.spans_out))
        res.fail("cannot write spans to " + args.spans_out);
    return res;
}

int usage() {
    std::fprintf(stderr,
                 "usage: scimpi_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--short] [--spans-out FILE]\n  workloads:");
    for (const std::string& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool parse(int argc, char** argv, Args& a) {
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const bool has_value = i + 1 < argc;
        char* end = nullptr;
        if (k == "--short") {
            a.short_mode = true;
        } else if (k == "--workload" && has_value) {
            a.workload = argv[++i];
        } else if (k == "--seed" && has_value) {
            a.seed = std::strtoull(argv[++i], &end, 10);
            if (*end != '\0') return false;
        } else if (k == "--seconds" && has_value) {
            a.seconds = std::strtod(argv[++i], &end);
            if (*end != '\0' || !(a.seconds > 0.0)) return false;
        } else if (k == "--trace" && has_value) {
            const std::string v = argv[++i];
            if (v != "0" && v != "1") return false;
            a.trace = v == "1";
        } else if (k == "--spans-out" && has_value) {
            a.spans_out = argv[++i];
        } else {
            return false;
        }
    }
    return !a.workload.empty();
}

/// The simulator's threads pass one baton, so a run is sequential. Keep
/// them all on the CPU the driver started on: every handoff is then a
/// same-CPU switch. Unpinned, the scheduler spreads the rank threads over
/// the CPUs and identical instances vary twofold in run time.
void pin_to_one_cpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0)
        std::fprintf(stderr, "perfbench: cannot pin to CPU %d; running unpinned\n", cpu);
}

/// The simulator reads SCIMPI_* switches from the environment; the
/// benchmark measures the default configuration, so drop them all.
void clear_simulator_env() {
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "SCIMPI_", 7) == 0) {
            const char* eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e)
                                                 : std::strlen(*e));
        }
    for (const std::string& n : names) unsetenv(n.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args args;
    if (!parse(argc, argv, args)) return usage();
    std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed, args.short_mode);
    if (wl == nullptr) return usage();
    clear_simulator_env();
    pin_to_one_cpu();
    std::printf("workload %s  seed %llu  seconds %g  trace %d%s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
                args.short_mode ? "  (short)" : "");
    const Result res = args.trace ? per_layer(*wl, args) : end_to_end(*wl, args);
    res.print();
    return res.correct() ? 0 : 1;
}
