// Synchronization primitives for simulated processes. All of them rely on
// the engine running one fiber at a time on one OS thread: their internal
// state is only ever touched by the running process (or the scheduler), so
// no host-level locking is needed.
//
// Every primitive reports itself to the schedule controller (when one is
// installed) via sim::note_subject, and the points where several parked
// processes could legitimately be woken in either order (WaitQueue::wake_one,
// SimMutex::unlock) are exposed as `handover` choice points. Without a
// controller all of this is a null-pointer check.
#pragma once

#include <deque>
#include <optional>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/schedule.hpp"

namespace scimpi::sim {

/// FIFO queue of parked processes. Building block for the other primitives.
class WaitQueue {
public:
    /// Park the calling process until woken. `why` names the wait object for
    /// deadlock diagnostics (see Process::block).
    void park(Process& self, std::string_view why = "wait queue") {
        note_subject(this);
        waiters_.push_back(&self);
        self.block(why);
    }

    /// Wake the longest-waiting process (returns false if none). With a
    /// schedule controller installed and several waiters parked, which one
    /// receives the hand-over is a choice point.
    bool wake_one() {
        note_subject(this);
        if (waiters_.empty()) return false;
        const std::size_t pick = choose_waiter();
        Process* p = waiters_[pick];
        waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(pick));
        p->engine().wake(*p);
        return true;
    }

    void wake_all() {
        while (wake_one()) {}
    }

    [[nodiscard]] bool empty() const { return waiters_.empty(); }
    [[nodiscard]] std::size_t size() const { return waiters_.size(); }

private:
    std::size_t choose_waiter() {
        if (waiters_.size() < 2) return 0;
        ScheduleController* c = waiters_.front()->engine().schedule_controller();
        if (c == nullptr) return 0;
        Engine& eng = waiters_.front()->engine();
        ChoicePoint cp;
        cp.kind = ChoiceKind::handover;
        cp.now = eng.now();
        cp.alts.reserve(waiters_.size());
        for (Process* w : waiters_)
            cp.alts.push_back(ChoiceAlt{w->name(), w->id(), eng.now()});
        const std::size_t pick = c->choose(cp);
        SCIMPI_REQUIRE(pick < waiters_.size(), "handover choice out of range");
        return pick;
    }

    std::deque<Process*> waiters_;
};

/// Manual-reset event: wait() passes while set.
class Event {
public:
    void wait(Process& self) {
        note_subject(this);
        while (!set_) q_.park(self, "event wait");
    }
    void set() {
        note_subject(this);
        set_ = true;
        q_.wake_all();
    }
    void reset() { set_ = false; }
    [[nodiscard]] bool is_set() const { return set_; }

private:
    bool set_ = false;
    WaitQueue q_;
};

/// Unbounded message queue with blocking receive. Items sit in a vector
/// read from `head_`, which is rewound whenever the queue drains, so a
/// steady message flow reuses one buffer instead of allocating per item.
template <typename T>
class Mailbox {
public:
    void send(T v) {
        note_subject(this);
        items_.push_back(std::move(v));
        q_.wake_one();
    }

    T recv(Process& self, std::string_view why = "mailbox recv") {
        note_subject(this);
        while (empty()) q_.park(self, why);
        T v = take();
        // More items may remain for other waiters parked behind us.
        if (!empty()) q_.wake_one();
        return v;
    }

    std::optional<T> try_recv() {
        note_subject(this);
        if (empty()) return std::nullopt;
        return take();
    }

    [[nodiscard]] bool empty() const { return head_ == items_.size(); }
    [[nodiscard]] std::size_t size() const { return items_.size() - head_; }

private:
    T take() {
        T v = std::move(items_[head_++]);
        if (head_ == items_.size()) {
            items_.clear();
            head_ = 0;
        } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
            // Never drains: drop the consumed prefix.
            items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        return v;
    }

    static constexpr std::size_t kCompactAt = 64;
    std::vector<T> items_;
    std::size_t head_ = 0;
    WaitQueue q_;
};

/// FIFO-fair mutex with direct ownership hand-off on unlock.
class SimMutex {
public:
    void lock(Process& self, std::string_view why = "mutex lock") {
        note_subject(this);
        if (owner_ == nullptr) {
            owner_ = &self;
            return;
        }
        SCIMPI_REQUIRE(owner_ != &self, "SimMutex is not recursive");
        waiters_.push_back(&self);
        self.block(why);
        // unlock() handed ownership to us before waking us.
        SCIMPI_REQUIRE(owner_ == &self, "SimMutex hand-off violated");
    }

    bool try_lock(Process& self) {
        note_subject(this);
        if (owner_ != nullptr) return false;
        owner_ = &self;
        return true;
    }

    void unlock(Process& self) {
        note_subject(this);
        SCIMPI_REQUIRE(owner_ == &self, "SimMutex::unlock by non-owner");
        if (waiters_.empty()) {
            owner_ = nullptr;
            return;
        }
        const std::size_t pick = choose_next(self);
        Process* next = waiters_[pick];
        waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(pick));
        owner_ = next;
        next->engine().wake(*next);
    }

    [[nodiscard]] bool locked() const { return owner_ != nullptr; }
    [[nodiscard]] Process* owner() const { return owner_; }

private:
    std::size_t choose_next(Process& self) {
        if (waiters_.size() < 2) return 0;
        ScheduleController* c = self.engine().schedule_controller();
        if (c == nullptr) return 0;
        ChoicePoint cp;
        cp.kind = ChoiceKind::handover;
        cp.now = self.engine().now();
        cp.alts.reserve(waiters_.size());
        for (Process* w : waiters_)
            cp.alts.push_back(ChoiceAlt{w->name(), w->id(), cp.now});
        const std::size_t pick = c->choose(cp);
        SCIMPI_REQUIRE(pick < waiters_.size(), "handover choice out of range");
        return pick;
    }

    std::deque<Process*> waiters_;
    Process* owner_ = nullptr;
};

/// Reusable cyclic barrier for a fixed participant count.
class SimBarrier {
public:
    explicit SimBarrier(int participants) : n_(participants) {
        SCIMPI_REQUIRE(participants > 0, "SimBarrier needs >= 1 participant");
    }

    void arrive_and_wait(Process& self) {
        note_subject(this);
        const std::uint64_t my_round = round_;
        if (++arrived_ == n_) {
            arrived_ = 0;
            ++round_;
            q_.wake_all();
            return;
        }
        while (round_ == my_round) q_.park(self, "barrier");
    }

    [[nodiscard]] int participants() const { return n_; }

private:
    int n_;
    int arrived_ = 0;
    std::uint64_t round_ = 0;
    WaitQueue q_;
};

}  // namespace scimpi::sim
