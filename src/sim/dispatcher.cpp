#include "sim/dispatcher.hpp"

#include <algorithm>

#include "sim/schedule.hpp"

namespace scimpi::sim {

Dispatcher::Dispatcher(Engine& engine, std::string name) : engine_(engine) {
    proc_ = &engine_.spawn_daemon(std::move(name),
                                  [this](Process& self) { service_loop(self); });
}

void Dispatcher::at(SimTime t, std::function<void()> fn) {
    SCIMPI_REQUIRE(t >= engine_.now(), "Dispatcher::at() into the past");
    note_subject(this);
    push(Item{t, seq_++, std::move(fn)});
    // The service process is suspended (the caller is running); make sure
    // it wakes no later than the new item's deadline.
    engine_.reschedule_earlier(*proc_, t);
}

void Dispatcher::push(Item it) {
    items_.push_back(std::move(it));
    std::push_heap(items_.begin(), items_.end(), std::greater<>{});
}

Dispatcher::Item Dispatcher::pop() {
    std::pop_heap(items_.begin(), items_.end(), std::greater<>{});
    Item it = std::move(items_.back());
    items_.pop_back();
    return it;
}

Dispatcher::Item Dispatcher::pop_chosen(Process& self, ScheduleController& c) {
    std::vector<Item> due_now;
    while (due(self)) due_now.push_back(pop());
    if (due_now.size() == 1) return std::move(due_now.front());
    // Several deliveries are due in the same service slice: which callback
    // fires first is a delivery choice point. Labels are the per-dispatcher
    // insertion sequence numbers, stable across runs of the same program.
    ChoicePoint cp;
    cp.kind = ChoiceKind::delivery;
    cp.now = self.now();
    cp.alts.reserve(due_now.size());
    for (const Item& it : due_now)
        cp.alts.push_back(ChoiceAlt{"d" + std::to_string(it.seq), -1, it.t});
    const std::size_t pick = c.choose(cp);
    SCIMPI_REQUIRE(pick < due_now.size(), "delivery choice out of range");
    // The rest stay queued under their own (t, seq): still due, so the next
    // pass offers the remaining order as a further choice point.
    for (std::size_t i = 0; i < due_now.size(); ++i)
        if (i != pick) push(std::move(due_now[i]));
    return std::move(due_now[pick]);
}

void Dispatcher::service_loop(Process& self) {
    // The dispatcher blocks forever when idle; the engine's deadlock check
    // must not count it, so it finishes only at engine teardown
    // (ShutdownSignal unwinds the block()). Idle blocking is fine because
    // at() always arms a wakeup for newly added work.
    //
    // Without a schedule controller, due items run one at a time in (t, seq)
    // order. A callback's own at() calls get a larger seq and t >= now, so
    // they run after every item that was already due.
    for (;;) {
        while (due(self)) {
            ScheduleController* c = engine_.schedule_controller();
            Item it = c == nullptr ? pop() : pop_chosen(self, *c);
            it.fn();
        }
        if (items_.empty()) {
            self.block("dispatcher idle");
        } else {
            // Under schedule fuzzing the engine clock may already be past the
            // next deadline (a later co-enabled event ran first); never arm a
            // wakeup in the past.
            const SimTime next = items_.front().t;
            engine_.schedule(self, next > self.now() ? next : self.now());
            self.block("dispatcher timer");
        }
    }
}

}  // namespace scimpi::sim
