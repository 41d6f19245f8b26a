#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/units.hpp"

namespace scimpi::sim {

class Engine;

/// A simulated thread of control (an MPI rank, a progress daemon, a handler
/// thread...). Created via Engine::spawn. All member functions except those
/// documented as engine-side must be called from the process's own body.
///
/// Each process runs on its own stack as a fiber on the engine's OS thread:
/// resuming it and suspending it are register switches (process.cpp) to and
/// from the engine's scheduler stack, so exactly one fiber or the scheduler
/// runs at any moment.
class Process {
public:
    /// A process body; made once per process, never per event.
    using Body = std::function<void(Process&)>;

    ~Process();
    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    [[nodiscard]] Engine& engine() const { return engine_; }
    [[nodiscard]] int id() const { return id_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] SimTime now() const;

    /// Advance simulated time by `ns` (charge compute / transfer cost).
    void delay(SimTime ns);

    /// Reschedule at the current time, after every other already-scheduled
    /// same-time event (cooperative yield).
    void yield() { delay(0); }

    /// Low-level: suspend until another process calls Engine::wake(*this) or
    /// schedules us. Used by the synchronization primitives. `why` names the
    /// wait object (e.g. "mailbox recv", "rma post/complete signals") and is
    /// reported by the engine's deadlock diagnostic; it is cleared on wakeup.
    void block(std::string_view why = {});

    /// The wait-object label of the current/last block(), for diagnostics.
    [[nodiscard]] const std::string& wait_why() const { return wait_why_; }

    /// True while suspended with no pending wakeup (engine-side query).
    [[nodiscard]] bool is_blocked() const { return state_ == State::blocked && !scheduled_; }
    [[nodiscard]] bool finished() const { return state_ == State::finished; }

private:
    friend class Engine;
    enum class State { created, ready, running, blocked, finished };
    struct ShutdownSignal {};
    struct Fiber;  // stack, saved stack pointers and sanitizer state (process.cpp)

    Process(Engine& engine, int id, std::string name, Body body);
    [[noreturn]] static void fiber_entry(Process* p);
    [[noreturn]] void fiber_main();
    void suspend();             // switch back to the scheduler until resumed
    void resume_from_engine();  // engine-side: run this fiber until it suspends

    Engine& engine_;
    const int id_;
    const std::string name_;
    Body body_;

    std::unique_ptr<Fiber> fiber_;  // made on the first resume
    bool shutdown_ = false;         // true: unwind instead of resuming

    State state_ = State::created;
    std::string wait_why_;        // wait-object label while blocked
    bool daemon_ = false;         // exempt from deadlock detection
    bool scheduled_ = false;      // present in the engine ready queue
};

}  // namespace scimpi::sim
