// Schedule-space exploration hooks for the deterministic engine.
//
// A ScheduleController observes (and may perturb) the points where the
// simulation's outcome could legitimately depend on ordering:
//
//   dispatch  — which co-enabled queue entry runs next: a process wakeup or
//               a timed callback (Engine::at: message/signal deliveries,
//               posted stores landing). With fuzz() = F every queued entry
//               within F ns of the earliest one is considered co-enabled;
//               dispatching a later entry first models bounded timing jitter
//               (interrupt latency, link jitter) that a real cluster exhibits
//               but a single deterministic run hides.
//   handover  — which parked process a WaitQueue::wake_one / SimMutex::unlock
//               hands control to.
//
// Timed callbacks run on the engine thread, not in a process; the hooks see
// all of them as the one reserved actor kCallbackActor (its slices, the
// subjects it touches and the wakes it makes), so DPOR prunes them like any
// process.
//
// Alternative 0 is always the deterministic FIFO default, so a controller
// that returns 0 everywhere (or no controller at all) reproduces the normal
// seed run bit-for-bit. Choices are indexed in encounter order; a sparse
// {index -> label} decision map therefore replays any explored schedule.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace scimpi::sim {

enum class ChoiceKind : std::uint8_t { dispatch, handover };

const char* choice_kind_name(ChoiceKind k);

/// The actor id every timed engine callback reports under in the controller
/// hooks (on_dispatch, on_subject, on_edge) and in ChoiceAlt::proc.
inline constexpr int kCallbackActor = -1;

/// One selectable alternative at a choice point. `label` is stable across
/// runs of the same program (process name, or "d<seq>" with the engine's
/// insertion sequence for a timed callback) and is what decision traces
/// store; `proc` is the process about to run, or kCallbackActor.
struct ChoiceAlt {
    std::string label;
    int proc = -1;
    SimTime t = 0;
};

struct ChoicePoint {
    ChoiceKind kind = ChoiceKind::dispatch;
    SimTime now = 0;
    std::vector<ChoiceAlt> alts;  // alts[0] = deterministic FIFO default
};

/// Base controller: deterministic defaults, no perturbation. Exploration and
/// replay derive from this. All hooks are invoked on the engine's one OS
/// thread (from the run loop or the running process), so implementations
/// need no locking.
class ScheduleController {
public:
    virtual ~ScheduleController() = default;

    /// Pick one of cp.alts; called only when cp.alts.size() >= 2.
    virtual std::size_t choose(const ChoicePoint& cp) {
        (void)cp;
        return 0;
    }

    /// Co-enabled window in ns for engine dispatch (0 = exact ties only).
    [[nodiscard]] virtual SimTime fuzz() const { return 0; }

    /// A happens-before edge: the running actor `from` scheduled/woke `to`
    /// (either may be kCallbackActor: a post, or a callback's wake).
    virtual void on_edge(int from, int to) { (void)from, (void)to; }

    /// The running actor `proc` (a process id or kCallbackActor) touched
    /// shared object `subject` (a sync primitive or a domain-level shared
    /// counter). Footprints feed DPOR's
    /// dependence relation.
    virtual void on_subject(int proc, const void* subject) { (void)proc, (void)subject; }

    /// Actor `proc` was dispatched at time `t` (one "slice" begins): a
    /// process switched in, or one timed callback as kCallbackActor.
    virtual void on_dispatch(int proc, SimTime t) { (void)proc, (void)t; }
};

/// One recorded non-default decision: at choice point `index`, pick the
/// alternative whose label is `label`.
struct Decision {
    std::uint64_t index = 0;
    std::string label;
};

/// A portable, replayable schedule: the fuzz window plus the sparse list of
/// non-default decisions. Text format (one directive per line, '#' comments):
///
///   # scimpi explore trace v1
///   fuzz 2000
///   choice 7 rank0
///   choice 12 handler1
struct DecisionTrace {
    SimTime fuzz = 0;
    std::vector<Decision> decisions;

    [[nodiscard]] std::string to_string() const;
    [[nodiscard]] Status save(const std::string& path) const;
    static Result<DecisionTrace> parse(const std::string& text);
    static Result<DecisionTrace> load(const std::string& path);
};

/// Replays a DecisionTrace: at choice point i, picks the recorded label if
/// one exists (panicking if the program no longer offers it — the trace
/// belongs to a different program or binary) and the FIFO default otherwise.
class ReplayController : public ScheduleController {
public:
    explicit ReplayController(DecisionTrace trace);

    std::size_t choose(const ChoicePoint& cp) override;
    [[nodiscard]] SimTime fuzz() const override { return trace_.fuzz; }

    [[nodiscard]] std::uint64_t choice_points_seen() const { return next_index_; }

private:
    DecisionTrace trace_;
    std::map<std::uint64_t, std::string> by_index_;
    std::uint64_t next_index_ = 0;
};

class Engine;

/// The engine whose process or timed callback is running on this thread, or
/// nullptr outside both. Lets argument-less primitives (Mailbox::send,
/// Event::set) report subjects without plumbing a Process&.
Engine* current_engine();

/// Internal: bound by Process::resume_from_engine and Engine::run_callback
/// for each slice they run, and restored after it. Not for user code.
void set_current_engine(Engine* e);

/// Report `subject` as touched by the running process or timed callback, if
/// a controller is installed. No-op (and cheap) otherwise.
void note_subject(const void* subject);

}  // namespace scimpi::sim
