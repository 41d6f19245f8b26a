#include "sim/dispatcher.hpp"

#include "sim/schedule.hpp"

namespace scimpi::sim {

Dispatcher::Dispatcher(Engine& engine, std::string name) : engine_(engine) {
    proc_ = &engine_.spawn_daemon(std::move(name),
                                  [this](Process& self) { service_loop(self); });
}

void Dispatcher::at(SimTime t, std::function<void()> fn) {
    SCIMPI_REQUIRE(t >= engine_.now(), "Dispatcher::at() into the past");
    note_subject(this);
    items_.push(Item{t, seq_++, std::move(fn)});
    // The service process is suspended (the caller is running); make sure
    // it wakes no later than the new item's deadline.
    engine_.reschedule_earlier(*proc_, t);
}

std::size_t Dispatcher::pop_due(Process& self, std::vector<Item>& due) {
    due.clear();
    while (!items_.empty() && items_.top().t <= self.now()) {
        due.push_back(items_.top());
        items_.pop();
    }
    if (due.size() < 2) return 0;
    ScheduleController* c = engine_.schedule_controller();
    if (c == nullptr) return 0;
    // Several deliveries are due in the same service slice: which callback
    // fires first is a delivery choice point. Labels are the per-dispatcher
    // insertion sequence numbers, stable across runs of the same program.
    ChoicePoint cp;
    cp.kind = ChoiceKind::delivery;
    cp.now = self.now();
    cp.alts.reserve(due.size());
    for (const Item& it : due)
        cp.alts.push_back(ChoiceAlt{"d" + std::to_string(it.seq), -1, it.t});
    const std::size_t pick = c->choose(cp);
    SCIMPI_REQUIRE(pick < due.size(), "delivery choice out of range");
    return pick;
}

void Dispatcher::service_loop(Process& self) {
    // The dispatcher blocks forever when idle; the engine's deadlock check
    // must not count it, so it finishes only at engine teardown
    // (ShutdownSignal unwinds the block()). Idle blocking is fine because
    // at() always arms a wakeup for newly added work.
    std::vector<Item> due;
    for (;;) {
        while (!items_.empty() && items_.top().t <= self.now()) {
            const std::size_t pick = pop_due(self, due);
            if (due.size() == 1) {
                // Common case: run the single due callback directly.
                due.front().fn();
            } else {
                // Run the chosen callback; re-queue the rest (still due, so
                // the outer loop immediately re-collects them and offers the
                // remaining order as further choice points).
                for (std::size_t i = 0; i < due.size(); ++i)
                    if (i != pick) items_.push(due[i]);
                due[pick].fn();
            }
            due.clear();
        }
        if (items_.empty()) {
            self.block("dispatcher idle");
        } else {
            // Under schedule fuzzing the engine clock may already be past the
            // next deadline (a later co-enabled event ran first); never arm a
            // wakeup in the past.
            const SimTime next = items_.top().t;
            engine_.schedule(self, next > self.now() ? next : self.now());
            self.block("dispatcher timer");
        }
    }
}

}  // namespace scimpi::sim
