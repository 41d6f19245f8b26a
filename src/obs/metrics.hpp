// Cluster-wide observability: a typed counter/gauge registry plus the
// structured per-run report it feeds.
//
// Design goals (mirroring what the rest of the library needs):
//   * one counter per fact — a counter is the only record of its event;
//     there is no per-object struct beside it. Counters always count (an
//     increment is one add through a held handle); only their export is
//     gated: counters() reports zeros while the registry is disabled, so a
//     run report without stats stays all-zero. Gauges and histograms are
//     gated at the source: a disabled update is one predictable load +
//     branch with no side effects,
//   * per-object slots — a named counter holds one slot per label (the
//     node for sci.*, the world rank for mpi.*, pack.* and rma.*; slot 0
//     for counters with a single owner). value(name, label) reads one
//     object's count, value(name) and the export sum the slots,
//   * stable handles — modules resolve `Counter&` once (at construction) and
//     increment through it on hot paths; no name lookups after startup.
//     Names are node-based and slots never move,
//   * structured export — RunReport is the JSON-serializable snapshot
//     returned by Cluster::stats_report() and dumped at teardown when
//     SCIMPI_STATS_FILE is set.
//
// This header depends only on common/status.hpp so every layer (sim, sci,
// mem, mpi) may include it.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "obs/profiler.hpp"

namespace scimpi::obs {

/// Append `s` to `out` as JSON string *content* (no surrounding quotes):
/// escapes quotes, backslashes and all control characters (U+0000..U+001F).
void json_escape(std::string& out, std::string_view s);

/// Monotonic event count: one slot of a named counter. Obtain via
/// MetricsRegistry::counter(); increments land whether or not the registry
/// is enabled.
class Counter {
public:
    void add(std::uint64_t d) { value_ += d; }
    void inc() { ++value_; }

    [[nodiscard]] std::uint64_t value() const { return value_; }

private:
    friend class MetricsRegistry;
    std::uint64_t value_ = 0;
};

/// Instantaneous level with high-water-mark tracking (e.g. concurrent
/// transfers in flight). Inert while the registry is disabled.
class Gauge {
public:
    Gauge(std::string name, const bool* enabled)
        : name_(std::move(name)), enabled_(enabled) {}

    void set(double v) {
        if (!*enabled_) return;
        value_ = v;
        if (v > max_) max_ = v;
    }
    void add(double d) { set(value_ + d); }

    [[nodiscard]] double value() const { return value_; }
    [[nodiscard]] double max() const { return max_; }
    [[nodiscard]] const std::string& name() const { return name_; }

private:
    friend class MetricsRegistry;
    std::string name_;
    double value_ = 0.0;
    double max_ = 0.0;
    const bool* enabled_;
};

/// Log2-bucketed latency/size distribution. Fixed storage (64 buckets, one
/// per bit width), so recording never allocates; like Gauge, a disabled
/// record() is one predictable load + branch with no side effects. Bucket i
/// holds values whose bit width is i, i.e. [2^(i-1), 2^i - 1] (bucket 0
/// holds exactly the value 0). Percentiles interpolate linearly inside the
/// winning bucket and are clamped to the observed [min, max].
class Histogram {
public:
    static constexpr int kBuckets = 64;

    Histogram(std::string name, const bool* enabled)
        : name_(std::move(name)), enabled_(enabled) {}

    void record(std::uint64_t v) {
        if (!*enabled_) return;
        ++count_;
        sum_ += v;
        if (v < min_ || count_ == 1) min_ = v;
        if (v > max_) max_ = v;
        // Values >= 2^63 have bit width 64; fold them into the last bucket.
        const int b = bucket_index(v);
        ++buckets_[static_cast<std::size_t>(b < kBuckets ? b : kBuckets - 1)];
    }

    /// Bucket of value `v`: 0 for 0, otherwise its bit width.
    static int bucket_index(std::uint64_t v) {
        int w = 0;
        while (v != 0) {
            v >>= 1;
            ++w;
        }
        return w;
    }

    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] std::uint64_t sum() const { return sum_; }
    [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    [[nodiscard]] std::uint64_t max() const { return max_; }
    [[nodiscard]] std::uint64_t bucket(int i) const {
        return buckets_.at(static_cast<std::size_t>(i));
    }
    [[nodiscard]] const std::string& name() const { return name_; }

    /// Estimate the p-th percentile (p in [0, 100]); 0 when empty. Linear
    /// interpolation inside the bucket, clamped to [min, max] so single
    /// samples and single-bucket populations report exact endpoints.
    [[nodiscard]] double percentile(double p) const;

private:
    friend class MetricsRegistry;
    std::string name_;
    const bool* enabled_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    std::array<std::uint64_t, kBuckets> buckets_{};
};

/// Point-in-time export of one histogram (percentiles precomputed).
struct HistogramSnapshot {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;

    /// Serialize the value part as a JSON object (no name).
    [[nodiscard]] std::string to_json() const;
};

class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    void enable(bool on = true) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Find-or-create; the returned reference stays valid for the registry's
    /// lifetime (storage is node-based).
    Gauge& gauge(std::string_view name);
    Histogram& histogram(std::string_view name);
    /// Find-or-create slot `label` (>= 0) of the named counter: the node for
    /// sci.*, the world rank for mpi.*, pack.* and rma.*, 0 for a counter
    /// with a single owner. A new label adds a slot to the name's existing
    /// entry, no map node; earlier slots never move.
    Counter& counter(std::string_view name, int label = 0);

    /// Sum of a counter's slots, 0 when it was never registered.
    [[nodiscard]] std::uint64_t value(std::string_view name) const;
    /// One slot of a counter, 0 when the name or the label is absent.
    [[nodiscard]] std::uint64_t value(std::string_view name, int label) const;
    /// Number of slots of a counter (highest label + 1; 0 when absent).
    [[nodiscard]] std::size_t labels(std::string_view name) const;

    /// Zero every value; registrations (and resolved handles) survive.
    void reset();

    /// Every counter's slot sum, name-sorted; all zero while disabled.
    [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters() const;
    [[nodiscard]] std::vector<std::pair<std::string, double>> gauge_maxima() const;
    [[nodiscard]] std::vector<HistogramSnapshot> histograms() const;

private:
    bool enabled_ = false;
    /// A counter's slots: label 0 inline, higher labels in a deque made on
    /// first use (growing a deque at its end keeps references valid), so a
    /// single-owner counter costs one map node.
    struct Slots {
        Counter first;
        std::unique_ptr<std::deque<Counter>> rest;

        [[nodiscard]] std::size_t size() const { return 1 + (rest ? rest->size() : 0); }
        [[nodiscard]] const Counter& operator[](std::size_t l) const {
            return l == 0 ? first : (*rest)[l - 1];
        }
        [[nodiscard]] std::uint64_t sum() const;
    };
    /// Counters are resolved by name once per object at construction: a
    /// hash lookup keeps that cheap; counters() sorts the export.
    struct NameHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const {
            return std::hash<std::string_view>{}(s);
        }
    };
    std::unordered_map<std::string, Slots, NameHash, std::equal_to<>> counters_;
    std::map<std::string, Gauge, std::less<>> gauges_;
    std::map<std::string, Histogram, std::less<>> histograms_;
};

/// One recorded metric stream (see obs/recorder.hpp): parallel arrays of
/// sample times (simulated ns) and values.
struct TimeSeries {
    std::string name;
    std::vector<std::uint64_t> t;
    std::vector<double> v;

    /// {"name": "...", "t": [...], "v": [...]}
    [[nodiscard]] std::string to_json() const;
};

/// One row of the derived congestion table: a link ranked by its peak
/// sampled utilization (fraction of nominal bandwidth over a sample window).
struct HotSpot {
    int link = -1;
    double peak_util = 0.0;
    std::uint64_t peak_t_ns = 0;  ///< window end where the peak occurred
    double mean_util = 0.0;       ///< time-weighted mean over the run
};

/// Structured snapshot of one simulated run: every registry counter/gauge/
/// histogram, per-rank time-attribution profiles, plus the per-link wire
/// statistics the fabric keeps unconditionally.
struct RunReport {
    /// Bumped whenever the JSON layout changes incompatibly. v2 added
    /// schema_version/seed/fault_spec/sim_time_ns, histograms and profiles;
    /// v3 added check_enabled and the scimpi-check violations array; v4
    /// added the flight-recorder timeseries/hotspots arrays, the DES
    /// self-metric scalars (wall_ns, events_per_sec_wall,
    /// wall_per_sim_second, record_cadence_ns), and omits histograms that
    /// recorded no samples; v5 added the critical_path section (enabled flag,
    /// total_ns, per-category/link/rank breakdowns from the causal event
    /// graph — see obs/evgraph.hpp); v6 added the explore section (schedule-
    /// space exploration summary: schedules executed, DPOR-pruned
    /// alternatives, choice points, replay-trace size — see
    /// check/explorer.hpp).
    static constexpr int kSchemaVersion = 6;

    int schema_version = kSchemaVersion;
    int world = 0;
    int nodes = 0;
    double sim_seconds = 0.0;
    std::uint64_t sim_time_ns = 0;
    /// Engine queue entries run: process wakeups plus timed callbacks
    /// (counter sim.context_switches counts only the process wakeups).
    std::uint64_t events_dispatched = 0;
    /// Registry enabled. Counters always count, but the report carries
    /// them (and gauges, histograms) only when true; all zero when false.
    bool stats_enabled = false;
    bool profile_enabled = false;
    bool check_enabled = false;  ///< scimpi-check ran (violations meaningful)

    /// Run configuration needed to tell a config regression from a code one:
    /// the Config RNG seed, the fault schedule's soak seed, and the fault
    /// spec (file path, empty when the run injected no faults from a spec).
    std::uint64_t seed = 0;
    std::uint64_t fault_seed = 0;
    std::string fault_spec;

    /// DES engine self-metrics (v4). wall_ns is the host wall-clock the
    /// engine spent inside run(); the two derived scalars are whole-run
    /// averages (the timeseries below carry their evolution). All three are
    /// host-dependent: bench_compare.py skips them by default.
    std::uint64_t wall_ns = 0;
    double events_per_sec_wall = 0.0;
    double wall_per_sim_second = 0.0;
    /// Flight-recorder base cadence (ns); 0 when the recorder was off.
    std::uint64_t record_cadence_ns = 0;

    std::vector<std::pair<std::string, std::uint64_t>> counters;  // sorted by name
    std::vector<std::pair<std::string, double>> gauges;           // max values
    std::vector<HistogramSnapshot> histograms;                    // sorted by name

    struct Link {
        int id = 0;
        std::uint64_t payload_bytes = 0;
        std::uint64_t wire_bytes = 0;
        std::uint64_t echo_bytes = 0;
    };
    std::vector<Link> links;

    /// Per-rank time attribution (see obs/profiler.hpp); filled only when
    /// the run's Profiler was enabled. State times sum to sim_time_ns.
    /// A rank's profiler snapshot (JSON adds the derived overlap_ratio).
    struct RankProfile : Profiler::Snapshot {
        int rank = 0;
    };
    std::vector<RankProfile> profiles;

    /// One scimpi-check diagnostic (see src/check/checker.hpp); filled only
    /// when the run's Checker was enabled. `win` is -1 for raw-segment
    /// violations, `rank_a` is -1 for single-site ones (OOB, epoch misuse).
    struct Violation {
        std::string kind;
        int win = -1;
        int rank_a = -1;
        int rank_b = -1;
        std::uint64_t byte_lo = 0;
        std::uint64_t byte_hi = 0;
        std::uint64_t time_a = 0;
        std::uint64_t time_b = 0;
        std::string detail;
    };
    std::vector<Violation> violations;
    /// Repeats of already-reported violation sites that were only counted.
    std::uint64_t check_suppressed = 0;

    /// Flight-recorder output (v4): raw + derived sampled series, and the
    /// top-K links by peak utilization. Empty when the recorder was off.
    std::vector<TimeSeries> timeseries;
    std::vector<HotSpot> hotspots;

    /// Critical-path attribution (v5): the causal-event-graph walk's
    /// end-to-end breakdown. `enabled` is false (and the rest zero/empty)
    /// when the run recorded no event graph; when true, the category
    /// nanoseconds sum exactly to total_ns (== sim_time_ns).
    struct CriticalPathSummary {
        bool enabled = false;
        std::uint64_t total_ns = 0;
        std::uint64_t steps = 0;  ///< graph nodes visited by the walk
        std::vector<std::pair<std::string, std::uint64_t>> categories;
        std::vector<std::pair<std::string, std::uint64_t>> links;  // "a->b"
        std::vector<std::pair<int, std::uint64_t>> ranks;  // blamed rank -> ns
    };
    CriticalPathSummary critical_path;

    /// Schedule-space exploration summary (v6): what check::Explorer did
    /// when the run was driven by mpi::explore_cluster. `enabled` is
    /// false (and the rest zero/empty) for ordinary single-schedule runs.
    struct ExploreSummary {
        bool enabled = false;
        bool found = false;      ///< a violating/deadlocking schedule exists
        bool exhausted = false;  ///< the reduced schedule space was completed
        std::uint64_t schedules = 0;
        std::uint64_t replays = 0;  ///< minimization re-executions
        std::uint64_t pruned = 0;   ///< alternatives DPOR discarded
        std::uint64_t choice_points = 0;
        std::uint64_t trace_decisions = 0;  ///< minimized repro trace size
        std::uint64_t fuzz_ns = 0;
        double wall_seconds = 0.0;
        double schedules_per_sec = 0.0;
        std::string trace_file;  ///< emitted repro artifact ("" = none)
    };
    ExploreSummary explore;

    /// Value of a named counter in this snapshot (0 when absent).
    [[nodiscard]] std::uint64_t counter(std::string_view name) const;
    /// Max value of a named gauge in this snapshot (0 when absent).
    [[nodiscard]] double gauge(std::string_view name) const;
    /// Named histogram snapshot (nullptr when absent).
    [[nodiscard]] const HistogramSnapshot* histogram(std::string_view name) const;
    /// Named recorded series (nullptr when absent).
    [[nodiscard]] const TimeSeries* series(std::string_view name) const;

    [[nodiscard]] std::string to_json() const;
    /// Serialize to `path`; on failure the Status detail names the path and
    /// the errno message.
    [[nodiscard]] Status write_json(const std::string& path) const;
};

}  // namespace scimpi::obs
