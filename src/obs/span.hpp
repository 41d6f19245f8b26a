// One instrumentation record per simulated interval.
//
// An obs::Span covers [open, close] on the track of the process that opened
// it and feeds the views its SpanInfo names: a Chrome trace "X" slice when
// `trace` names a category ("" for none), the profiler state `prof` (pushed
// on open, popped on close), and a causal-graph node when `ev` is set. A
// span without an EvCat never becomes a node, so nesting it inside a node
// span leaves the track's program-order chain untouched. The engine is the
// one place spans open and close (Engine::open_span/close_span). With every
// view off, opening a span is one load and one branch; the label is joined
// ("name:detail") only when a view records it.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/units.hpp"
#include "obs/cause.hpp"
#include "obs/evgraph.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace scimpi::obs {

struct SpanInfo {
    std::string_view name{};         ///< label in the trace and the graph
    std::string_view detail{};       ///< appended as "name:detail" when set
    const char* trace = nullptr;     ///< Chrome trace category; nullptr: untraced
    std::optional<ProfState> prof{}; ///< profiler state held while open
    std::optional<EvCat> ev{};       ///< graph category; unset: no graph node
    bool transparent = false;        ///< graph node passes attribution through
    bool drop_empty = false;         ///< record nothing if no time passed
    std::uint64_t bytes = sim::Tracer::kNoArg;  ///< trace "bytes" arg / node bytes
};

class Span {
public:
    Span(sim::Process& p, const SpanInfo& info) {
        if (p.engine().views() == 0) return;
        proc_ = &p;
        info_ = info;
        p.engine().open_span(*this);
    }
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Close now (later calls are no-ops); returns the graph node id, the
    /// anchor later causal edges hang off (0 when no node was made).
    std::uint64_t close() {
        if (proc_ != nullptr) proc_->engine().close_span(*this);
        proc_ = nullptr;
        return id_;
    }
    /// Close with no slice or node (the profiler state still ends): for a
    /// wait that turned out not to block.
    void cancel() {
        info_.trace = nullptr;
        info_.ev.reset();
        close();
    }
    void set_bytes(std::uint64_t bytes) { info_.bytes = bytes; }

    /// A zero-width span at the current time; returns its graph node id.
    static std::uint64_t point(sim::Process& p, const SpanInfo& info) {
        return Span(p, info).close();
    }

private:
    friend class sim::Engine;

    sim::Process* proc_ = nullptr;  ///< null: closed, or nothing to record
    SpanInfo info_;
    SimTime t0_ = 0;
    std::uint64_t id_ = 0;
};

}  // namespace scimpi::obs
