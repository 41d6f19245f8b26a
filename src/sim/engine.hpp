// Deterministic discrete-event simulation engine.
//
// Every simulated MPI rank is a sim::Process running as a fiber: a stackful
// user-space context on the engine's own OS thread. The run loop switches
// into one fiber at a time and the fiber switches back when it delays or
// blocks, so exactly one process (or the scheduler) runs at any moment. Rank
// code therefore calls blocking library routines naturally, while results
// stay bit-deterministic on any host regardless of core count.
//
// Scheduling is one min-heap ordered by (time, insertion sequence) that holds
// both process wakeups and timed callbacks (at/after), so simultaneous events
// of either kind run in FIFO order of insertion.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "obs/cause.hpp"
#include "obs/evgraph.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "sim/trace.hpp"

namespace scimpi::obs {
class Span;
}  // namespace scimpi::obs

namespace scimpi::sim {

class Process;
class ScheduleController;

/// The views an obs::Span can feed (bit flags for Engine::enable_views).
enum View : unsigned { kViewTrace = 1, kViewProfile = 2, kViewGraph = 4 };

class Engine {
public:
    Engine();
    ~Engine();
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Create a process. May be called before run() or from a running
    /// process (the child is scheduled at the current time).
    Process& spawn(std::string name, std::function<void(Process&)> body);

    /// Like spawn(), but the process is a service daemon: it may block
    /// forever without tripping deadlock detection (it is unwound at engine
    /// teardown instead).
    Process& spawn_daemon(std::string name, std::function<void(Process&)> body);

    /// Run until every process has finished. Throws Panic if a process threw
    /// or if all remaining processes are blocked (deadlock), listing them.
    void run();

    [[nodiscard]] SimTime now() const { return now_; }
    [[nodiscard]] std::size_t process_count() const { return processes_.size(); }
    [[nodiscard]] Process* current() const { return current_; }
    /// Queue entries run so far: process wakeups plus timed callbacks.
    [[nodiscard]] std::uint64_t events_dispatched() const { return events_dispatched_; }
    /// Pending queue entries: scheduled process wakeups plus timed callbacks.
    [[nodiscard]] std::size_t heap_size() const { return queue_.size(); }
    /// Host wall-clock spent inside run() so far, in nanoseconds; valid
    /// mid-run (the flight recorder samples it) and after run() returns.
    [[nodiscard]] std::uint64_t wall_ns() const;

    /// Install a flight-recorder hook: whenever the event loop's clock first
    /// reaches the next multiple of `cadence` it calls `fn(now)` between two
    /// event dispatches (sampling never perturbs simulated time, and cannot
    /// keep the queue alive the way a self-rescheduling daemon would).
    /// cadence <= 0 removes the hook.
    void set_sampler(SimTime cadence, std::function<void(SimTime)> fn);

    /// Turn on views (View bits, or-ed in); all are off by default. Spans
    /// (obs/span.hpp) feed exactly the enabled views; the views themselves
    /// are read by the exporters (trace JSON, RunReport, event log).
    void enable_views(unsigned views);
    [[nodiscard]] unsigned views() const { return views_; }
    [[nodiscard]] Tracer& tracer() { return tracer_; }
    [[nodiscard]] const obs::Profiler& profiler() const { return profiler_; }
    [[nodiscard]] obs::Profiler& profiler() { return profiler_; }
    [[nodiscard]] obs::EventGraph& evgraph() { return evgraph_; }
    [[nodiscard]] const obs::EventGraph& evgraph() const { return evgraph_; }

    /// Called by obs::Span only: the one place where profiler states are
    /// pushed and popped, trace slices recorded and graph nodes added.
    void open_span(obs::Span& s);
    void close_span(obs::Span& s);

    /// A Cause carrying a fresh flow arrow of `kind` started at `p`'s
    /// current time (empty while not tracing); callers set its node.
    obs::Cause start_flow(Process& p, obs::Flow kind);
    /// `c` caused graph node `to` on `p`'s track: records the edge c.node
    /// -> to (gap charged to `cat`; a->b names the SCI link crossed) and,
    /// when `ends_flow`, the tip of c's flow arrow there and now.
    void land(Process& p, const obs::Cause& c, std::uint64_t to, obs::EvCat cat,
              bool ends_flow, int a = -1, int b = -1);

    /// Replay the graph's critical path as slices on a "critical path" trace
    /// track (no-op unless both views run).
    void trace_critical_path();

    /// Attach a metrics registry: the engine then feeds `sim.context_switches`
    /// (switches into a process; timed callbacks run without one) and
    /// `sim.deadlock_checks` (end-of-run blocked-process scans). Handles
    /// resolve once; increments are no-ops while disabled.
    void bind_metrics(obs::MetricsRegistry& m);

    /// The bound registry, nullptr before bind_metrics(). Lets deep layers
    /// (fault retry) resolve cold-path histograms without plumbing.
    [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_; }

    /// Install a schedule controller (see sim/schedule.hpp): the event loop
    /// then offers every co-enabled dispatch set (entries within the
    /// controller's fuzz() window of the earliest one, timed callbacks
    /// included) as a choice point, and the sync primitives report hand-over
    /// choices and shared-object footprints. nullptr restores plain
    /// deterministic FIFO dispatch.
    void set_schedule_controller(ScheduleController* c) { sched_ = c; }
    [[nodiscard]] ScheduleController* schedule_controller() const { return sched_; }

    /// Low-level: insert `p` into the ready queue at absolute time `t`
    /// (>= now). Requires that `p` is suspended and not already scheduled.
    void schedule(Process& p, SimTime t);

    /// Wake a blocked process at the current time.
    void wake(Process& p) { schedule(p, now_); }

    /// Run `fn` on the engine thread at absolute time `t` (>= now), between
    /// two process dispatches. It shares the (time, insertion sequence)
    /// queue with process wakeups, and the closure is moved in and out of
    /// it, never copied. A callback must not delay or block; it may wake
    /// processes and post further callbacks. If it throws, run() ends in a
    /// Panic like a throwing process does.
    void at(SimTime t, std::function<void()> fn);

    /// Run `fn` after `delay` ns.
    void after(SimTime delay, std::function<void()> fn) { at(now_ + delay, std::move(fn)); }

    /// True while a timed callback runs (no process is current then).
    [[nodiscard]] bool in_callback() const { return in_callback_; }

private:
    friend class Process;

    struct QEntry {
        SimTime t;
        std::uint64_t seq;
        Process* p;                // nullptr: a timed callback
        std::function<void()> fn;  // the callback, when p is nullptr
        bool operator>(const QEntry& o) const {
            return t != o.t ? t > o.t : seq > o.seq;
        }
    };

    void push(QEntry e);
    QEntry pop();
    QEntry choose(QEntry first);  // controller pick among co-enabled entries
    void resume(Process& p);      // switch into p until it suspends
    void run_callback(QEntry& e);
    void run_loop();              // dispatch until quiescent or error
    void shutdown_remaining();    // unwind parked fibers before throwing/destroying

    std::vector<std::unique_ptr<Process>> processes_;
    /// A min-heap on (t, seq) kept with std::push_heap/pop_heap, so entries
    /// (and the closures they own) are moved, never copied.
    std::vector<QEntry> queue_;
    SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t events_dispatched_ = 0;
    std::uint64_t wall_base_ns_ = 0;
    std::chrono::steady_clock::time_point wall_run_start_{};
    SimTime sampler_cadence_ = 0;
    SimTime sampler_next_ = 0;
    std::function<void(SimTime)> sampler_;
    Process* current_ = nullptr;
    unsigned views_ = 0;
    std::uint64_t next_flow_ = 1;
    Tracer tracer_;
    obs::Profiler profiler_;
    obs::EventGraph evgraph_;
    obs::MetricsRegistry* metrics_ = nullptr;
    ScheduleController* sched_ = nullptr;
    obs::Counter* ctx_switches_ = nullptr;
    obs::Counter* deadlock_checks_ = nullptr;
    bool running_ = false;
    bool in_callback_ = false;
    std::string pending_error_;   // first process or callback exception, for run()
};

}  // namespace scimpi::sim
