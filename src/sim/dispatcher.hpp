// Timed-callback service: runs closures at requested simulation times on a
// dedicated service process. Used to model asynchronous completions — e.g.
// a message becoming visible at the receiver some latency after the sender
// finished pushing it onto the wire.
#pragma once

#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace scimpi::sim {

class Dispatcher {
public:
    /// Spawns the service process on `engine`. The dispatcher must outlive
    /// the engine's run().
    explicit Dispatcher(Engine& engine, std::string name = "dispatcher");

    /// Run `fn` at absolute simulation time `t` (>= now). Callable from any
    /// process. Callbacks with equal times run in insertion order.
    void at(SimTime t, std::function<void()> fn);

    /// Run `fn` after `delay` ns.
    void after(SimTime delay, std::function<void()> fn) {
        at(engine_.now() + delay, std::move(fn));
    }

    [[nodiscard]] std::size_t pending() const { return items_.size(); }

private:
    struct Item {
        SimTime t;
        std::uint64_t seq;
        std::function<void()> fn;
        bool operator>(const Item& o) const {
            return t != o.t ? t > o.t : seq > o.seq;
        }
    };

    void service_loop(Process& self);
    [[nodiscard]] bool due(const Process& self) const {
        return !items_.empty() && items_.front().t <= self.now();
    }
    Item pop();
    void push(Item it);
    Item pop_chosen(Process& self, ScheduleController& c);

    Engine& engine_;
    Process* proc_ = nullptr;
    /// A min-heap on (t, seq) kept with std::push_heap/pop_heap, so items
    /// (and the closures they own) are moved in and out, never copied.
    std::vector<Item> items_;
    std::uint64_t seq_ = 0;
};

}  // namespace scimpi::sim
