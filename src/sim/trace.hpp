// Event tracing for simulated runs: named spans, instant markers, counter
// tracks, and cross-track flow arrows on the virtual timeline, exportable as
// Chrome trace JSON (chrome://tracing, https://ui.perfetto.dev). Disabled by
// default — zero overhead unless enabled.
//
// Names and categories are interned: each event stores two 32-bit string ids
// instead of a std::string, so tracing a long run does not allocate per
// event. Spans may carry a category (Perfetto colours/filters by it) and an
// optional "bytes" argument explaining how much data the span moved; counter
// events ("ph":"C") render as stacked counter tracks, e.g. the per-link load
// emitted by sci::Fabric.
//
// Flow events ("ph":"s"/"f") draw arrows between spans on different tracks:
// a message / RMA op starts one when it goes on the wire and the delivery
// side ends it, so Perfetto shows the causal arrow from a send on the origin
// rank to its completion on the target rank (Engine::start_flow/land).
//
// The tracer is an exporter: slices and flow arrows reach it through
// obs::Span and the engine's causal calls, never from call sites directly.
// Track metadata events ("ph":"M") name the tracks — "rank 3" instead of a
// bare thread id.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "obs/intern.hpp"

namespace scimpi::sim {

class Tracer {
public:
    /// Sentinel for "span carries no byte argument".
    static constexpr std::uint64_t kNoArg = ~0ull;

    enum class Kind : std::uint8_t { span, instant, counter, flow_start, flow_end };

    /// Switched on only through Engine::enable_views, so spans and the
    /// engine's view bits can never disagree.
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Intern `s`, returning its stable id (0 is reserved for the empty
    /// string). Call sites on hot paths may cache the id.
    std::uint32_t intern(std::string_view s) { return names_.intern(s); }
    [[nodiscard]] const std::string& name(std::uint32_t id) const {
        return names_.name(id);
    }

    /// Record a completed span [t0, t1] on `track` (usually a process id).
    void span(int track, std::string_view name, std::string_view cat, SimTime t0,
              SimTime t1, std::uint64_t bytes = kNoArg) {
        if (!enabled_) return;
        events_.push_back(
            {intern(name), intern(cat), track, t0, t1, Kind::span, bytes, 0.0});
    }

    /// Record an instantaneous marker.
    void instant(int track, std::string_view name, SimTime t) {
        if (!enabled_) return;
        events_.push_back({intern(name), 0, track, t, t, Kind::instant, kNoArg, 0.0});
    }

    /// Record a counter sample: `name` is the counter track, `value` its
    /// level at simulated time `t` (Chrome trace "ph":"C").
    void counter(std::string_view name, SimTime t, double value) {
        if (!enabled_) return;
        events_.push_back({intern(name), 0, 0, t, t, Kind::counter, kNoArg, value});
    }

    /// Flow arrow endpoints ("ph":"s"/"f"). Perfetto binds a start to a
    /// finish by (name, cat, id), so both endpoints must pass the same name
    /// and category; `track` is the rank/process the endpoint lands on.
    void flow_start(int track, std::string_view name, std::string_view cat,
                    SimTime t, std::uint64_t flow_id) {
        if (!enabled_) return;
        events_.push_back(
            {intern(name), intern(cat), track, t, t, Kind::flow_start, flow_id, 0.0});
    }
    void flow_end(int track, std::string_view name, std::string_view cat, SimTime t,
                  std::uint64_t flow_id) {
        if (!enabled_) return;
        events_.push_back(
            {intern(name), intern(cat), track, t, t, Kind::flow_end, flow_id, 0.0});
    }

    /// Human-readable track name, emitted as a "thread_name" metadata event
    /// ("ph":"M") by write_json so Perfetto shows "rank 3" instead of a bare
    /// tid. Recorded even while disabled (it is cheap and set-up-time only).
    void set_track_name(int track, std::string name) {
        track_names_[track] = std::move(name);
    }
    [[nodiscard]] const std::map<int, std::string>& track_names() const {
        return track_names_;
    }

    [[nodiscard]] std::size_t event_count() const { return events_.size(); }
    void clear() { events_.clear(); }

    struct Event {
        std::uint32_t name_id;
        std::uint32_t cat_id;  ///< 0 == no category
        int track;
        SimTime t0, t1;
        Kind kind;
        std::uint64_t arg;  ///< span byte count (kNoArg when absent) or flow id
        double value;       ///< counter level (Kind::counter only)
    };
    [[nodiscard]] const std::vector<Event>& events() const { return events_; }
    [[nodiscard]] const std::string& name_of(const Event& e) const {
        return names_.name(e.name_id);
    }
    [[nodiscard]] const std::string& cat_of(const Event& e) const {
        return names_.name(e.cat_id);
    }

    /// Serialize as a Chrome trace JSON array (timestamps in microseconds).
    [[nodiscard]] std::string to_chrome_json() const;

    /// Write to a file; the error Status names the failing path and errno.
    [[nodiscard]] Status write_chrome_json(const std::string& path) const;

private:
    friend class Engine;
    static constexpr std::size_t kReserveEvents = 4096;

    void enable() {
        enabled_ = true;
        if (events_.capacity() < kReserveEvents) events_.reserve(kReserveEvents);
    }

    bool enabled_ = false;
    std::vector<Event> events_;
    obs::Interner names_;
    std::map<int, std::string> track_names_;
};

}  // namespace scimpi::sim
