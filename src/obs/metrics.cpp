#include "obs/metrics.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace scimpi::obs {

void json_escape(std::string& out, std::string_view s) {
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (c < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out.push_back(ch);
                }
        }
    }
}

Counter& MetricsRegistry::counter(std::string_view name, int label) {
    SCIMPI_REQUIRE(label >= 0, "counter label must be >= 0");
    auto it = counters_.find(name);
    if (it == counters_.end()) it = counters_.try_emplace(std::string(name)).first;
    Slots& s = it->second;
    if (label == 0) return s.first;
    if (s.rest == nullptr) s.rest = std::make_unique<std::deque<Counter>>();
    const auto l = static_cast<std::size_t>(label);
    if (l > s.rest->size()) s.rest->resize(l);
    return (*s.rest)[l - 1];
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
    const auto it = gauges_.find(name);
    if (it != gauges_.end()) return it->second;
    return gauges_.emplace(std::string(name), Gauge(std::string(name), &enabled_))
        .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second;
    return histograms_
        .emplace(std::string(name), Histogram(std::string(name), &enabled_))
        .first->second;
}

double Histogram::percentile(double p) const {
    if (count_ == 0) return 0.0;
    if (p <= 0.0) return static_cast<double>(min_);
    if (p >= 100.0) return static_cast<double>(max_);
    const double target = p / 100.0 * static_cast<double>(count_);
    double cum = 0.0;
    for (int i = 0; i < kBuckets; ++i) {
        const auto n = static_cast<double>(buckets_[static_cast<std::size_t>(i)]);
        if (n == 0.0) continue;
        if (cum + n >= target) {
            const double lo =
                i == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << (i - 1));
            const double hi =
                i == 0 ? 0.0
                       : (i >= 63 ? static_cast<double>(~std::uint64_t{0})
                                  : static_cast<double>((std::uint64_t{1} << i) - 1));
            double v = lo + (hi - lo) * ((target - cum) / n);
            // Clamp to the observed range: exact for single samples and for
            // populations confined to one bucket's edge.
            if (v < static_cast<double>(min_)) v = static_cast<double>(min_);
            if (v > static_cast<double>(max_)) v = static_cast<double>(max_);
            return v;
        }
        cum += n;
    }
    return static_cast<double>(max_);
}

std::string HistogramSnapshot::to_json() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"count\": %llu, \"sum\": %llu, \"min\": %llu, \"max\": %llu, "
                  "\"p50\": %.6g, \"p90\": %.6g, \"p99\": %.6g}",
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(sum),
                  static_cast<unsigned long long>(min),
                  static_cast<unsigned long long>(max), p50, p90, p99);
    return buf;
}

std::uint64_t MetricsRegistry::Slots::sum() const {
    std::uint64_t total = first.value();
    if (rest != nullptr)
        for (const Counter& c : *rest) total += c.value();
    return total;
}

std::uint64_t MetricsRegistry::value(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.sum();
}

std::uint64_t MetricsRegistry::value(std::string_view name, int label) const {
    const auto it = counters_.find(name);
    if (it == counters_.end() || label < 0) return 0;
    const auto l = static_cast<std::size_t>(label);
    return l < it->second.size() ? it->second[l].value() : 0;
}

std::size_t MetricsRegistry::labels(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.size();
}

void MetricsRegistry::reset() {
    for (auto& [_, s] : counters_) {
        s.first.value_ = 0;
        if (s.rest != nullptr)
            for (Counter& c : *s.rest) c.value_ = 0;
    }
    for (auto& [_, g] : gauges_) {
        g.value_ = 0.0;
        g.max_ = 0.0;
    }
    for (auto& [_, h] : histograms_) {
        h.count_ = 0;
        h.sum_ = 0;
        h.min_ = 0;
        h.max_ = 0;
        h.buckets_.fill(0);
    }
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters() const {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto& [name, slots] : counters_)
        out.emplace_back(name, enabled_ ? slots.sum() : 0);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauge_maxima() const {
    std::vector<std::pair<std::string, double>> out;
    out.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) out.emplace_back(name, g.max());
    return out;
}

std::vector<HistogramSnapshot> MetricsRegistry::histograms() const {
    std::vector<HistogramSnapshot> out;
    out.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
        HistogramSnapshot s;
        s.name = name;
        s.count = h.count();
        s.sum = h.sum();
        s.min = h.min();
        s.max = h.max();
        s.p50 = h.percentile(50.0);
        s.p90 = h.percentile(90.0);
        s.p99 = h.percentile(99.0);
        out.push_back(std::move(s));
    }
    return out;  // std::map iteration is already name-sorted
}

std::uint64_t RunReport::counter(std::string_view name) const {
    for (const auto& [n, v] : counters)
        if (n == name) return v;
    return 0;
}

double RunReport::gauge(std::string_view name) const {
    for (const auto& [n, v] : gauges)
        if (n == name) return v;
    return 0.0;
}

const HistogramSnapshot* RunReport::histogram(std::string_view name) const {
    for (const HistogramSnapshot& h : histograms)
        if (h.name == name) return &h;
    return nullptr;
}

const TimeSeries* RunReport::series(std::string_view name) const {
    for (const TimeSeries& ts : timeseries)
        if (ts.name == name) return &ts;
    return nullptr;
}

std::string TimeSeries::to_json() const {
    std::string out = "{\"name\": \"";
    json_escape(out, name);
    out += "\", \"t\": [";
    char buf[32];
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (i != 0) out += ", ";
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(t[i]));
        out += buf;
    }
    out += "], \"v\": [";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out += ", ";
        std::snprintf(buf, sizeof buf, "%.6g", v[i]);
        out += buf;
    }
    out += "]}";
    return out;
}

std::string RunReport::to_json() const {
    std::string out = "{\n";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "  \"schema_version\": %d,\n  \"world\": %d,\n  \"nodes\": %d,\n"
                  "  \"sim_seconds\": %.9f,\n  \"sim_time_ns\": %llu,\n"
                  "  \"events_dispatched\": %llu,\n  \"stats_enabled\": %s,\n"
                  "  \"profile_enabled\": %s,\n  \"check_enabled\": %s,\n"
                  "  \"seed\": %llu,\n  \"fault_seed\": %llu,\n",
                  schema_version, world, nodes, sim_seconds,
                  static_cast<unsigned long long>(sim_time_ns),
                  static_cast<unsigned long long>(events_dispatched),
                  stats_enabled ? "true" : "false",
                  profile_enabled ? "true" : "false",
                  check_enabled ? "true" : "false",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(fault_seed));
    out += buf;
    out += "  \"fault_spec\": \"";
    json_escape(out, fault_spec);
    out += "\",\n";
    std::snprintf(buf, sizeof buf,
                  "  \"wall_ns\": %llu,\n  \"events_per_sec_wall\": %.6g,\n"
                  "  \"wall_per_sim_second\": %.6g,\n"
                  "  \"record_cadence_ns\": %llu,\n",
                  static_cast<unsigned long long>(wall_ns), events_per_sec_wall,
                  wall_per_sim_second,
                  static_cast<unsigned long long>(record_cadence_ns));
    out += buf;

    out += "  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters) {
        out += first ? "\n    \"" : ",\n    \"";
        first = false;
        json_escape(out, name);
        std::snprintf(buf, sizeof buf, "\": %llu",
                      static_cast<unsigned long long>(value));
        out += buf;
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, value] : gauges) {
        out += first ? "\n    \"" : ",\n    \"";
        first = false;
        json_escape(out, name);
        std::snprintf(buf, sizeof buf, "\": %.6g", value);
        out += buf;
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const HistogramSnapshot& h : histograms) {
        out += first ? "\n    \"" : ",\n    \"";
        first = false;
        json_escape(out, h.name);
        out += "\": ";
        out += h.to_json();
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"profiles\": [";
    first = true;
    for (const RankProfile& p : profiles) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        std::snprintf(buf, sizeof buf, "{\"rank\": %d, \"total_ns\": %llu, ",
                      p.rank, static_cast<unsigned long long>(p.total_ns));
        out += buf;
        out += "\"states\": {";
        for (int s = 0; s < kProfStates; ++s) {
            if (s != 0) out += ", ";
            std::snprintf(buf, sizeof buf, "\"%s\": %llu",
                          prof_state_name(static_cast<ProfState>(s)),
                          static_cast<unsigned long long>(
                              p.state_ns[static_cast<std::size_t>(s)]));
            out += buf;
        }
        std::snprintf(buf, sizeof buf,
                      "}, \"late_senders\": %llu, \"late_receivers\": %llu, "
                      "\"late_sender_wait_ns\": %llu, \"late_receiver_wait_ns\": %llu, ",
                      static_cast<unsigned long long>(p.late_senders),
                      static_cast<unsigned long long>(p.late_receivers),
                      static_cast<unsigned long long>(p.late_sender_wait_ns),
                      static_cast<unsigned long long>(p.late_receiver_wait_ns));
        out += buf;
        const double ratio =
            p.comm_window_ns > 0
                ? static_cast<double>(p.overlap_ns) /
                      static_cast<double>(p.comm_window_ns)
                : 0.0;
        std::snprintf(buf, sizeof buf,
                      "\"overlap_ops\": %llu, \"overlap_ns\": %llu, "
                      "\"comm_window_ns\": %llu, \"overlap_ratio\": %.6f}",
                      static_cast<unsigned long long>(p.overlap_ops),
                      static_cast<unsigned long long>(p.overlap_ns),
                      static_cast<unsigned long long>(p.comm_window_ns), ratio);
        out += buf;
    }
    out += first ? "],\n" : "\n  ],\n";

    out += "  \"violations\": [";
    first = true;
    for (const Violation& v : violations) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        out += "{\"kind\": \"";
        json_escape(out, v.kind);
        std::snprintf(buf, sizeof buf,
                      "\", \"win\": %d, \"rank_a\": %d, \"rank_b\": %d, "
                      "\"byte_lo\": %llu, \"byte_hi\": %llu, "
                      "\"time_a\": %llu, \"time_b\": %llu, \"detail\": \"",
                      v.win, v.rank_a, v.rank_b,
                      static_cast<unsigned long long>(v.byte_lo),
                      static_cast<unsigned long long>(v.byte_hi),
                      static_cast<unsigned long long>(v.time_a),
                      static_cast<unsigned long long>(v.time_b));
        out += buf;
        json_escape(out, v.detail);
        out += "\"}";
    }
    out += first ? "],\n" : "\n  ],\n";
    std::snprintf(buf, sizeof buf, "  \"check_suppressed\": %llu,\n",
                  static_cast<unsigned long long>(check_suppressed));
    out += buf;

    out += "  \"links\": [";
    first = true;
    for (const Link& l : links) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        std::snprintf(buf, sizeof buf,
                      "{\"id\": %d, \"payload_bytes\": %llu, \"wire_bytes\": %llu, "
                      "\"echo_bytes\": %llu}",
                      l.id, static_cast<unsigned long long>(l.payload_bytes),
                      static_cast<unsigned long long>(l.wire_bytes),
                      static_cast<unsigned long long>(l.echo_bytes));
        out += buf;
    }
    out += first ? "],\n" : "\n  ],\n";

    out += "  \"timeseries\": [";
    first = true;
    for (const TimeSeries& ts : timeseries) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        out += ts.to_json();
    }
    out += first ? "],\n" : "\n  ],\n";

    out += "  \"critical_path\": {";
    std::snprintf(buf, sizeof buf,
                  "\"enabled\": %s, \"total_ns\": %llu, \"steps\": %llu",
                  critical_path.enabled ? "true" : "false",
                  static_cast<unsigned long long>(critical_path.total_ns),
                  static_cast<unsigned long long>(critical_path.steps));
    out += buf;
    out += ", \"categories\": {";
    first = true;
    for (const auto& [name, ns] : critical_path.categories) {
        out += first ? "\"" : ", \"";
        first = false;
        json_escape(out, name);
        std::snprintf(buf, sizeof buf, "\": %llu",
                      static_cast<unsigned long long>(ns));
        out += buf;
    }
    out += "}, \"links\": {";
    first = true;
    for (const auto& [name, ns] : critical_path.links) {
        out += first ? "\"" : ", \"";
        first = false;
        json_escape(out, name);
        std::snprintf(buf, sizeof buf, "\": %llu",
                      static_cast<unsigned long long>(ns));
        out += buf;
    }
    out += "}, \"ranks\": {";
    first = true;
    for (const auto& [rank, ns] : critical_path.ranks) {
        std::snprintf(buf, sizeof buf, "%s\"%d\": %llu", first ? "" : ", ", rank,
                      static_cast<unsigned long long>(ns));
        first = false;
        out += buf;
    }
    out += "}},\n";

    out += "  \"explore\": {";
    std::snprintf(buf, sizeof buf,
                  "\"enabled\": %s, \"found\": %s, \"exhausted\": %s, "
                  "\"schedules\": %llu, \"replays\": %llu, \"pruned\": %llu, "
                  "\"choice_points\": %llu, \"trace_decisions\": %llu, "
                  "\"fuzz_ns\": %llu, \"wall_seconds\": %.6g, "
                  "\"schedules_per_sec\": %.6g, \"trace_file\": \"",
                  explore.enabled ? "true" : "false",
                  explore.found ? "true" : "false",
                  explore.exhausted ? "true" : "false",
                  static_cast<unsigned long long>(explore.schedules),
                  static_cast<unsigned long long>(explore.replays),
                  static_cast<unsigned long long>(explore.pruned),
                  static_cast<unsigned long long>(explore.choice_points),
                  static_cast<unsigned long long>(explore.trace_decisions),
                  static_cast<unsigned long long>(explore.fuzz_ns),
                  explore.wall_seconds, explore.schedules_per_sec);
    out += buf;
    json_escape(out, explore.trace_file);
    out += "\"},\n";

    out += "  \"hotspots\": [";
    first = true;
    for (const HotSpot& h : hotspots) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        std::snprintf(buf, sizeof buf,
                      "{\"link\": %d, \"peak_util\": %.6g, \"peak_t_ns\": %llu, "
                      "\"mean_util\": %.6g}",
                      h.link, h.peak_util,
                      static_cast<unsigned long long>(h.peak_t_ns), h.mean_util);
        out += buf;
    }
    out += first ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

Status RunReport::write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return Status::error(Errc::io_error, "stats report: cannot open '" + path +
                                                 "': " + std::strerror(errno));
    const std::string json = to_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    const int write_errno = errno;
    if (std::fclose(f) != 0)
        return Status::error(Errc::io_error, "stats report: close failed for '" + path +
                                                 "': " + std::strerror(errno));
    if (!ok)
        return Status::error(Errc::io_error, "stats report: short write to '" + path +
                                                 "': " + std::strerror(write_errno));
    return Status::ok();
}

}  // namespace scimpi::obs
