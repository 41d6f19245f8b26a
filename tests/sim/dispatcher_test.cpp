#include "sim/dispatcher.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/schedule.hpp"
#include "sim/sync.hpp"

namespace scimpi::sim {
namespace {

TEST(Dispatcher, RunsCallbacksAtRequestedTimes) {
    Engine eng;
    Dispatcher disp(eng);
    std::vector<SimTime> fired;
    eng.spawn("driver", [&](Process& p) {
        disp.at(500, [&, &e = eng] { fired.push_back(e.now()); });
        disp.at(100, [&, &e = eng] { fired.push_back(e.now()); });
        disp.after(250, [&, &e = eng] { fired.push_back(e.now()); });
        p.delay(1000);
    });
    eng.run();
    EXPECT_EQ(fired, (std::vector<SimTime>{100, 250, 500}));
}

TEST(Dispatcher, EqualTimesRunInInsertionOrder) {
    Engine eng;
    Dispatcher disp(eng);
    std::vector<int> order;
    eng.spawn("driver", [&](Process& p) {
        for (int i = 0; i < 5; ++i) disp.at(42, [&, i] { order.push_back(i); });
        p.delay(100);
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Dispatcher, EarlierItemInsertedAfterLaterItemStillFiresFirst) {
    Engine eng;
    Dispatcher disp(eng);
    std::vector<std::string> order;
    eng.spawn("driver", [&](Process& p) {
        disp.at(900, [&] { order.push_back("late"); });
        p.delay(10);
        disp.at(20, [&] { order.push_back("early"); });
        p.delay(2000);
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<std::string>{"early", "late"}));
}

TEST(Dispatcher, DeliversIntoMailboxWakingReceiver) {
    Engine eng;
    Dispatcher disp(eng);
    Mailbox<int> mb;
    SimTime recv_time = -1;
    eng.spawn("receiver", [&](Process& p) {
        const int v = mb.recv(p);
        EXPECT_EQ(v, 99);
        recv_time = p.now();
    });
    eng.spawn("sender", [&](Process& p) {
        p.delay(300);
        disp.after(700, [&mb] { mb.send(99); });
    });
    eng.run();
    EXPECT_EQ(recv_time, 1000);
}

TEST(Dispatcher, IdleDispatcherDoesNotDeadlockEngine) {
    Engine eng;
    Dispatcher disp(eng);
    eng.spawn("p", [](Process& p) { p.delay(5); });
    eng.run();  // must terminate despite the forever-blocked daemon
    EXPECT_EQ(eng.now(), 5);
}

TEST(Dispatcher, CallbackAfterAllUserProcessesStillRuns) {
    Engine eng;
    Dispatcher disp(eng);
    bool ran = false;
    eng.spawn("p", [&](Process& p) {
        disp.at(10'000, [&] { ran = true; });
        p.delay(1);
    });
    eng.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(eng.now(), 10'000);
}

TEST(Dispatcher, ManyInterleavedCallbacksStaySorted) {
    Engine eng;
    Dispatcher disp(eng);
    std::vector<SimTime> fired;
    eng.spawn("driver", [&](Process& p) {
        // Insert in a scrambled order.
        for (SimTime t : {70, 10, 50, 30, 90, 20, 80, 40, 60, 100})
            disp.at(t, [&, &e = eng] { fired.push_back(e.now()); });
        p.delay(200);
    });
    eng.run();
    for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LE(fired[i - 1], fired[i]);
    EXPECT_EQ(fired.size(), 10u);
}

/// A callback that counts how often it is copied.
struct CopyCounting {
    int* copies;
    int* runs;
    CopyCounting(int* c, int* r) : copies(c), runs(r) {}
    CopyCounting(const CopyCounting& o) : copies(o.copies), runs(o.runs) { ++*copies; }
    CopyCounting(CopyCounting&&) noexcept = default;
    CopyCounting& operator=(const CopyCounting&) = delete;
    CopyCounting& operator=(CopyCounting&&) = delete;
    ~CopyCounting() = default;
    void operator()() const { ++*runs; }
};

TEST(Dispatcher, DeliveryMovesCallbacksAndNeverCopiesThem) {
    Engine eng;
    Dispatcher disp(eng);
    int copies = 0, runs = 0;
    eng.spawn("driver", [&](Process& p) {
        // Equal and scrambled times, so the heap moves items around.
        for (SimTime t : {30, 10, 20, 10, 30, 20}) disp.at(t, CopyCounting(&copies, &runs));
        p.delay(100);
    });
    eng.run();
    EXPECT_EQ(runs, 6);
    EXPECT_EQ(copies, 0);
}

TEST(Dispatcher, SameTimeItemAddedByACallbackRunsAfterEveryDueItem) {
    Engine eng;
    Dispatcher disp(eng);
    std::vector<std::string> order;
    eng.spawn("driver", [&](Process& p) {
        disp.at(50, [&] {
            order.push_back("a");
            disp.after(0, [&] { order.push_back("a.child"); });
        });
        disp.at(50, [&] { order.push_back("b"); });
        disp.at(50, [&] { order.push_back("c"); });
        p.delay(100);
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "a.child"}));
}

TEST(Dispatcher, LargeCapturedPayloadArrivesIntactAndUnmoved) {
    Engine eng;
    Dispatcher disp(eng);
    int intact = 0;
    auto pattern = [](int k) {
        std::vector<std::uint8_t> v(64 * 1024);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<std::uint8_t>(i * 31 + static_cast<std::size_t>(k));
        return v;
    };
    eng.spawn("driver", [&](Process& p) {
        for (int k = 0; k < 4; ++k) {
            std::vector<std::uint8_t> payload = pattern(k);
            const std::uint8_t* const buffer = payload.data();
            disp.at(20 - k, [&, k, buffer, payload = std::move(payload)] {
                // Same buffer: the closure was moved all the way, not copied.
                intact += payload.data() == buffer && payload == pattern(k) ? 1 : 0;
            });
        }
        p.delay(100);
    });
    eng.run();
    EXPECT_EQ(intact, 4);
}

/// Picks the scripted alternative at each delivery choice point and records
/// the labels it was offered.
struct DeliveryScript : ScheduleController {
    std::vector<std::size_t> picks;
    std::vector<std::vector<std::string>> offered;
    std::size_t choose(const ChoicePoint& cp) override {
        if (cp.kind != ChoiceKind::delivery) return 0;
        std::vector<std::string> labels;
        for (const ChoiceAlt& a : cp.alts) labels.push_back(a.label);
        offered.push_back(labels);
        const std::size_t n = offered.size() - 1;
        return n < picks.size() ? picks[n] : 0;
    }
};

TEST(Dispatcher, UnpickedDueItemsKeepTheirLabelsAndOrder) {
    DeliveryScript ctrl;
    ctrl.picks = {2, 1, 1};
    Engine eng;
    eng.set_schedule_controller(&ctrl);
    Dispatcher disp(eng);
    std::vector<int> order;
    eng.spawn("setup", [&](Process&) {
        for (int i = 0; i < 4; ++i) disp.at(50, [&, i] { order.push_back(i); });
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3, 0}));
    EXPECT_EQ(ctrl.offered, (std::vector<std::vector<std::string>>{
                                {"d0", "d1", "d2", "d3"}, {"d0", "d1", "d3"}, {"d0", "d3"}}));
}

}  // namespace
}  // namespace scimpi::sim
