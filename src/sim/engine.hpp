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
// of either kind run in FIFO order of insertion. Heap entries are small
// trivially copyable {t, seq, target} records; a timed callback's closure
// lives in an engine-owned slot pool of inline sim::Callbacks, so posting
// and running one allocates nothing once the pool has grown to the peak
// number of pending callbacks.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "obs/cause.hpp"
#include "obs/evgraph.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "sim/callback.hpp"
#include "sim/process.hpp"
#include "sim/trace.hpp"

namespace scimpi::obs {
class Span;
}  // namespace scimpi::obs

namespace scimpi::sim {

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
    Process& spawn(std::string name, Process::Body body);

    /// Like spawn(), but the process is a service daemon: it may block
    /// forever without tripping deadlock detection (it is unwound at engine
    /// teardown instead).
    Process& spawn_daemon(std::string name, Process::Body body);

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
    /// reaches the next multiple of `cadence` it calls `fn()` between two
    /// event dispatches, with now() at the time reached (sampling never
    /// perturbs simulated time, and cannot keep the queue alive the way a
    /// self-rescheduling daemon would).
    /// cadence <= 0 removes the hook.
    void set_sampler(SimTime cadence, Callback fn);

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
    /// queue with process wakeups. The closure is constructed in place in a
    /// pooled sim::Callback slot (a closure too large for one does not
    /// compile), never copied, and destroyed right after it runs or at
    /// engine teardown. A callback must not delay or block; it may wake
    /// processes and post further callbacks. If it throws, run() ends in a
    /// Panic naming it ("timed callback d<seq>") like a throwing process.
    template <class F>
    void at(SimTime t, F&& fn) {
        const std::uint32_t s = claim_slot(t);
        slot(s).emplace(std::forward<F>(fn));
        post(t, s);
    }

    /// Run `fn` after `delay` ns.
    template <class F>
    void after(SimTime delay, F&& fn) {
        at(now_ + delay, std::forward<F>(fn));
    }

    /// True while a timed callback runs (no process is current then).
    [[nodiscard]] bool in_callback() const { return in_callback_; }

private:
    friend class Process;

    /// One queue entry: a process wakeup (pid >= 0) or the timed callback
    /// in slot `slot` (pid == kCallbackEntry).
    /// (t, seq) as one 128-bit key (t >= 0). Comparing keys is branch-free,
    /// so the heap's sift loops have no data-dependent branch to mispredict.
    __extension__ typedef unsigned __int128 Key;
    struct QEntry {
        SimTime t;
        std::uint64_t seq;
        std::int32_t pid;
        std::uint32_t slot;
        bool operator>(const QEntry& o) const { return key() > o.key(); }
        [[nodiscard]] Key key() const {
            return static_cast<Key>(static_cast<std::uint64_t>(t)) << 64 | seq;
        }
    };
    static constexpr std::int32_t kCallbackEntry = -1;
    static_assert(std::is_trivially_copyable_v<QEntry>);

    /// Callback slots come in fixed chunks, so a slot never moves while its
    /// closure runs (the closure may post further callbacks).
    static constexpr std::uint32_t kSlotChunk = 64;
    Callback& slot(std::uint32_t s) { return slot_chunks_[s / kSlotChunk][s % kSlotChunk]; }
    std::uint32_t claim_slot(SimTime t);    // checks t, returns a free slot
    void post(SimTime t, std::uint32_t s);  // queue the filled slot at t

    [[nodiscard]] bool stale(const QEntry& e) const;  // a finished process's wakeup
    void push(QEntry e);
    QEntry pop();
    QEntry choose(QEntry first);  // controller pick among co-enabled entries
    void resume(Process& p);      // switch into p until it suspends
    void run_callback(const QEntry& e);
    void run_loop();              // dispatch until quiescent or error
    void shutdown_remaining();    // unwind parked fibers, drop pending callbacks

    std::vector<std::unique_ptr<Process>> processes_;
    /// A min-heap on (t, seq) kept with std::push_heap/pop_heap.
    std::vector<QEntry> queue_;
    std::vector<std::unique_ptr<Callback[]>> slot_chunks_;
    std::vector<std::uint32_t> free_slots_;
    std::uint32_t slots_made_ = 0;
    SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t events_dispatched_ = 0;
    std::uint64_t wall_base_ns_ = 0;
    std::chrono::steady_clock::time_point wall_run_start_{};
    SimTime sampler_cadence_ = 0;
    SimTime sampler_next_ = 0;
    Callback sampler_;
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
