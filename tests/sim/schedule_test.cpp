#include "sim/schedule.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/sync.hpp"

namespace scimpi::sim {
namespace {

/// Test controller: records every choice point it is offered and picks the
/// alternative scripted for that encounter index (default 0).
struct ScriptController : ScheduleController {
    SimTime fz = 0;
    std::map<std::uint64_t, std::size_t> picks;
    std::vector<ChoicePoint> seen;
    std::uint64_t n = 0;

    std::size_t choose(const ChoicePoint& cp) override {
        seen.push_back(cp);
        const auto it = picks.find(n++);
        return it == picks.end() ? 0 : it->second;
    }
    [[nodiscard]] SimTime fuzz() const override { return fz; }
};

std::vector<std::string> labels_of(const ChoicePoint& cp) {
    std::vector<std::string> out;
    for (const ChoiceAlt& a : cp.alts) out.push_back(a.label);
    return out;
}

TEST(Schedule, ExactTieIsAChoicePointEvenWithZeroFuzz) {
    ScriptController ctrl;
    Engine eng;
    eng.set_schedule_controller(&ctrl);
    std::vector<std::string> order;
    eng.spawn("a", [&](Process&) { order.push_back("a"); });
    eng.spawn("b", [&](Process&) { order.push_back("b"); });
    eng.run();
    ASSERT_EQ(ctrl.seen.size(), 1u);
    EXPECT_EQ(ctrl.seen[0].kind, ChoiceKind::dispatch);
    EXPECT_EQ(labels_of(ctrl.seen[0]), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));  // default = FIFO
}

TEST(Schedule, FuzzWindowWidensTheCoEnabledSet) {
    // Wakeups at t=1000, 1100 and 5000: with fuzz=200 only the first two are
    // co-enabled; the 5000 wakeup dispatches alone later.
    ScriptController ctrl;
    ctrl.fz = 200;
    Engine eng;
    eng.set_schedule_controller(&ctrl);
    eng.spawn("a", [](Process& p) { p.delay(1000); });
    eng.spawn("b", [](Process& p) { p.delay(1100); });
    eng.spawn("c", [](Process& p) { p.delay(5000); });
    eng.run();
    // First cp: the initial t=0 tie of all three thread starts. Last cp:
    // a@1000 and b@1100 fall in one window; c@5000 is outside it and never
    // pairs with them.
    ASSERT_GE(ctrl.seen.size(), 2u);
    EXPECT_EQ(labels_of(ctrl.seen[0]), (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(labels_of(ctrl.seen.back()), (std::vector<std::string>{"a", "b"}));
}

TEST(Schedule, DefaultChoicesReproduceTheControllerlessRun) {
    auto run_once = [](ScheduleController* ctrl) {
        Engine eng;
        if (ctrl != nullptr) eng.set_schedule_controller(ctrl);
        std::vector<int> order;
        for (int i = 0; i < 5; ++i)
            eng.spawn("p" + std::to_string(i), [&order, i](Process& p) {
                p.delay((i * 13) % 7);
                order.push_back(i);
                p.delay((i * 29) % 11);
                order.push_back(i + 100);
            });
        eng.run();
        return order;
    };
    ScriptController all_default;
    all_default.fz = 500;  // wide windows, but every choice stays at index 0
    EXPECT_EQ(run_once(nullptr), run_once(&all_default));
}

TEST(Schedule, NonDefaultDispatchChoiceReordersExecution) {
    auto run_once = [](ScheduleController* ctrl) {
        Engine eng;
        if (ctrl != nullptr) eng.set_schedule_controller(ctrl);
        std::vector<std::string> order;
        eng.spawn("a", [&](Process&) { order.push_back("a"); });
        eng.spawn("b", [&](Process&) { order.push_back("b"); });
        eng.run();
        return order;
    };
    ScriptController flip;
    flip.picks[0] = 1;  // dispatch "b" first at the t=0 tie
    EXPECT_EQ(run_once(&flip), (std::vector<std::string>{"b", "a"}));
    EXPECT_EQ(run_once(nullptr), (std::vector<std::string>{"a", "b"}));
}

TEST(Schedule, ChoosingALaterEntryAdvancesTimeMonotonically) {
    // Dispatching b@600 before a@500 must clamp the clock forward, never
    // back: a then observes t=600, not its own 500 wakeup stamp.
    ScriptController ctrl;
    ctrl.fz = 1000;
    ctrl.picks[2] = 1;  // cp2 = the {a@500, b@600} window; pick b
    Engine eng;
    eng.set_schedule_controller(&ctrl);
    std::vector<std::pair<std::string, SimTime>> stamps;
    eng.spawn("a", [&](Process& p) {
        p.delay(500);
        stamps.emplace_back("a", p.now());
    });
    eng.spawn("b", [&](Process& p) {
        p.delay(600);
        stamps.emplace_back("b", p.now());
    });
    eng.run();
    ASSERT_EQ(stamps.size(), 2u);
    EXPECT_EQ(stamps[0], (std::pair<std::string, SimTime>{"b", 600}));
    EXPECT_EQ(stamps[1], (std::pair<std::string, SimTime>{"a", 600}));
    EXPECT_EQ(eng.now(), 600);
}

TEST(Schedule, DispatcherDeliveryOrderIsAChoicePoint) {
    // Two callbacks due at once are two alternatives of one dispatch choice
    // point (setup starts alone at t=0, so the pair is cp0).
    ScriptController ctrl;
    ctrl.picks[0] = 1;
    Engine eng;
    eng.set_schedule_controller(&ctrl);
    std::vector<int> order;
    eng.spawn("setup", [&](Process&) {
        eng.at(50, [&] { order.push_back(1); });
        eng.at(50, [&] { order.push_back(2); });
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
    // Labels carry the engine's insertion sequence (setup's start is 0);
    // every callback reports as the one callback actor.
    ASSERT_EQ(ctrl.seen.size(), 1u);
    EXPECT_EQ(ctrl.seen[0].kind, ChoiceKind::dispatch);
    EXPECT_EQ(labels_of(ctrl.seen[0]), (std::vector<std::string>{"d1", "d2"}));
    EXPECT_EQ(ctrl.seen[0].alts[0].proc, kCallbackActor);
    EXPECT_EQ(ctrl.seen[0].alts[1].proc, kCallbackActor);
}

TEST(Schedule, MutexHandoverIsAChoicePoint) {
    auto run_once = [](ScheduleController* ctrl) {
        Engine eng;
        if (ctrl != nullptr) eng.set_schedule_controller(ctrl);
        SimMutex m;
        std::vector<std::string> order;
        eng.spawn("holder", [&](Process& p) {
            m.lock(p);
            p.delay(100);  // let w1 and w2 queue up behind us
            m.unlock(p);
        });
        eng.spawn("w1", [&](Process& p) {
            p.delay(10);
            m.lock(p);
            order.push_back("w1");
            m.unlock(p);
        });
        eng.spawn("w2", [&](Process& p) {
            p.delay(20);
            m.lock(p);
            order.push_back("w2");
            m.unlock(p);
        });
        eng.run();
        return order;
    };
    EXPECT_EQ(run_once(nullptr), (std::vector<std::string>{"w1", "w2"}));
    ScriptController flip;
    // cp0: t=0 three-way start tie; cp1: leftover {w1, w2} start tie;
    // cp2: the unlock hand-over between the two parked waiters.
    flip.picks[2] = 1;
    EXPECT_EQ(run_once(&flip), (std::vector<std::string>{"w2", "w1"}));
    ASSERT_GE(flip.seen.size(), 3u);
    EXPECT_EQ(flip.seen[2].kind, ChoiceKind::handover);
    EXPECT_EQ(labels_of(flip.seen[2]), (std::vector<std::string>{"w1", "w2"}));
}

TEST(Schedule, WaitQueueWakeOneHandoverIsAChoicePoint) {
    ScriptController flip;
    // cp0/cp1: start ties; cp2: the first send's wake_one hand-over.
    flip.picks[2] = 1;
    Engine eng;
    eng.set_schedule_controller(&flip);
    Mailbox<int> box;
    std::vector<std::string> order;
    eng.spawn("r1", [&](Process& p) {
        order.push_back("r1:" + std::to_string(box.recv(p)));
    });
    eng.spawn("r2", [&](Process& p) {
        order.push_back("r2:" + std::to_string(box.recv(p)));
    });
    eng.spawn("sender", [&](Process& p) {
        p.delay(50);
        box.send(7);
        box.send(8);
    });
    eng.run();
    // The wake_one hand-over went to r2 first.
    EXPECT_EQ(order, (std::vector<std::string>{"r2:7", "r1:8"}));
}

TEST(Schedule, DeadlockReportNamesTheWaitObject) {
    Engine eng;
    Mailbox<int> box;
    eng.spawn("starved", [&](Process& p) { (void)box.recv(p); });
    try {
        eng.run();
        FAIL() << "expected deadlock panic";
    } catch (const Panic& p) {
        const std::string msg = p.what();
        EXPECT_NE(msg.find("starved"), std::string::npos) << msg;
        EXPECT_NE(msg.find("(in mailbox recv)"), std::string::npos) << msg;
    }
}

TEST(Schedule, TraceTextRoundTrip) {
    DecisionTrace t;
    t.fuzz = 2000;
    t.decisions.push_back({7, "rank0"});
    t.decisions.push_back({12, "d31"});
    const std::string text = t.to_string();
    EXPECT_NE(text.find("fuzz 2000"), std::string::npos);
    EXPECT_NE(text.find("choice 7"), std::string::npos);
    auto parsed = DecisionTrace::parse(text);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value().fuzz, 2000);
    ASSERT_EQ(parsed.value().decisions.size(), 2u);
    EXPECT_EQ(parsed.value().decisions[0].index, 7u);
    EXPECT_EQ(parsed.value().decisions[0].label, "rank0");
    EXPECT_EQ(parsed.value().decisions[1].index, 12u);
    EXPECT_EQ(parsed.value().decisions[1].label, "d31");
}

TEST(Schedule, TraceParseRejectsGarbage) {
    EXPECT_FALSE(DecisionTrace::parse("fuzz banana\n").is_ok());
    EXPECT_FALSE(DecisionTrace::parse("choice 3\n").is_ok());       // no label
    EXPECT_FALSE(DecisionTrace::parse("frobnicate 1 2\n").is_ok()); // unknown
}

TEST(Schedule, TraceFileRoundTrip) {
    DecisionTrace t;
    t.fuzz = 500;
    t.decisions.push_back({3, "b"});
    const std::string path = ::testing::TempDir() + "/sched_trace_test.txt";
    ASSERT_TRUE(t.save(path).is_ok());
    auto loaded = DecisionTrace::load(path);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    EXPECT_EQ(loaded.value().to_string(), t.to_string());
    std::remove(path.c_str());
}

TEST(Schedule, ReplayReproducesARecordedPerturbation) {
    auto run_once = [](ScheduleController* ctrl) {
        Engine eng;
        if (ctrl != nullptr) eng.set_schedule_controller(ctrl);
        std::vector<std::string> order;
        eng.spawn("a", [&](Process&) { order.push_back("a"); });
        eng.spawn("b", [&](Process&) { order.push_back("b"); });
        eng.run();
        return order;
    };
    DecisionTrace t;
    t.decisions.push_back({0, "b"});
    ReplayController rc(t);
    EXPECT_EQ(run_once(&rc), (std::vector<std::string>{"b", "a"}));
    EXPECT_EQ(rc.choice_points_seen(), 1u);
}

TEST(Schedule, ReplayPanicsOnDivergence) {
    DecisionTrace t;
    t.decisions.push_back({0, "no-such-process"});
    ReplayController rc(t);
    Engine eng;
    eng.set_schedule_controller(&rc);
    eng.spawn("a", [](Process&) {});
    eng.spawn("b", [](Process&) {});
    EXPECT_THROW(eng.run(), Panic);
}

TEST(Schedule, NoteSubjectReachesTheControllerViaCurrentEngine) {
    struct Spy : ScheduleController {
        std::vector<std::pair<int, const void*>> subjects;
        void on_subject(int proc, const void* s) override {
            subjects.emplace_back(proc, s);
        }
    } spy;
    Engine eng;
    eng.set_schedule_controller(&spy);
    int dummy = 0;
    eng.spawn("toucher", [&](Process&) { note_subject(&dummy); });
    eng.run();
    ASSERT_EQ(spy.subjects.size(), 1u);
    EXPECT_EQ(spy.subjects[0].second, &dummy);
}

TEST(Schedule, OnEdgeFiresWhenOneProcessWakesAnother) {
    struct Spy : ScheduleController {
        std::vector<std::pair<int, int>> edges;
        void on_edge(int from, int to) override { edges.emplace_back(from, to); }
    } spy;
    Engine eng;
    eng.set_schedule_controller(&spy);
    Event ev;
    Process& waiter = eng.spawn("waiter", [&](Process& p) { ev.wait(p); });
    Process& setter = eng.spawn("setter", [&](Process& p) {
        p.delay(10);
        ev.set();
    });
    eng.run();
    bool found = false;
    for (auto [from, to] : spy.edges)
        if (from == setter.id() && to == waiter.id()) found = true;
    EXPECT_TRUE(found);
}

}  // namespace
}  // namespace scimpi::sim
