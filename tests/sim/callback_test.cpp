// Timed engine callbacks (Engine::at / Engine::after). The suite keeps the
// name it had when a separate dispatcher process ran these closures, so the
// test ids stay stable; every case now drives the engine's one queue.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/schedule.hpp"
#include "sim/sync.hpp"

namespace scimpi::sim {
namespace {

TEST(Dispatcher, RunsCallbacksAtRequestedTimes) {
    Engine eng;
    std::vector<SimTime> fired;
    eng.spawn("driver", [&](Process& p) {
        eng.at(500, [&] { fired.push_back(eng.now()); });
        eng.at(100, [&] { fired.push_back(eng.now()); });
        eng.after(250, [&] { fired.push_back(eng.now()); });
        p.delay(1000);
    });
    eng.run();
    EXPECT_EQ(fired, (std::vector<SimTime>{100, 250, 500}));
}

TEST(Dispatcher, EqualTimesRunInInsertionOrder) {
    Engine eng;
    std::vector<int> order;
    eng.spawn("driver", [&](Process& p) {
        for (int i = 0; i < 5; ++i) eng.at(42, [&, i] { order.push_back(i); });
        p.delay(100);
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Dispatcher, EarlierItemInsertedAfterLaterItemStillFiresFirst) {
    Engine eng;
    std::vector<std::string> order;
    eng.spawn("driver", [&](Process& p) {
        eng.at(900, [&] { order.push_back("late"); });
        p.delay(10);
        eng.at(20, [&] { order.push_back("early"); });
        p.delay(2000);
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<std::string>{"early", "late"}));
}

TEST(Dispatcher, DeliversIntoMailboxWakingReceiver) {
    Engine eng;
    Mailbox<int> mb;
    SimTime recv_time = -1;
    eng.spawn("receiver", [&](Process& p) {
        const int v = mb.recv(p);
        EXPECT_EQ(v, 99);
        recv_time = p.now();
    });
    eng.spawn("sender", [&](Process& p) {
        p.delay(300);
        eng.after(700, [&mb] { mb.send(99); });
    });
    eng.run();
    EXPECT_EQ(recv_time, 1000);
}

TEST(Dispatcher, IdleDispatcherDoesNotDeadlockEngine) {
    // No callback is ever posted: nothing service-like is left parked.
    Engine eng;
    eng.spawn("p", [](Process& p) { p.delay(5); });
    eng.run();
    EXPECT_EQ(eng.now(), 5);
    EXPECT_EQ(eng.process_count(), 1u);
}

TEST(Dispatcher, CallbackAfterAllUserProcessesStillRuns) {
    Engine eng;
    bool ran = false;
    eng.spawn("p", [&](Process& p) {
        eng.at(10'000, [&] { ran = true; });
        p.delay(1);
    });
    eng.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(eng.now(), 10'000);
}

TEST(Dispatcher, ManyInterleavedCallbacksStaySorted) {
    Engine eng;
    std::vector<SimTime> fired;
    eng.spawn("driver", [&](Process& p) {
        // Insert in a scrambled order.
        for (SimTime t : {70, 10, 50, 30, 90, 20, 80, 40, 60, 100})
            eng.at(t, [&] { fired.push_back(eng.now()); });
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
    int copies = 0, runs = 0;
    eng.spawn("driver", [&](Process& p) {
        // Equal and scrambled times among process wakeups, so the heap
        // moves entries around.
        for (SimTime t : {30, 10, 20, 10, 30, 20}) {
            eng.at(t, CopyCounting(&copies, &runs));
            p.delay(1);
        }
        p.delay(100);
    });
    eng.run();
    EXPECT_EQ(runs, 6);
    EXPECT_EQ(copies, 0);
}

TEST(Dispatcher, SameTimeItemAddedByACallbackRunsAfterEveryDueItem) {
    Engine eng;
    std::vector<std::string> order;
    eng.spawn("driver", [&](Process& p) {
        eng.at(50, [&] {
            order.push_back("a");
            eng.after(0, [&] { order.push_back("a.child"); });
        });
        eng.at(50, [&] { order.push_back("b"); });
        eng.at(50, [&] { order.push_back("c"); });
        p.delay(100);
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "a.child"}));
}

TEST(Dispatcher, LargeCapturedPayloadArrivesIntactAndUnmoved) {
    Engine eng;
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
            eng.at(20 - k, [&, k, buffer, payload = std::move(payload)] {
                // Same buffer: the closure was moved all the way, not copied.
                intact += payload.data() == buffer && payload == pattern(k) ? 1 : 0;
            });
        }
        p.delay(100);
    });
    eng.run();
    EXPECT_EQ(intact, 4);
}

/// Picks the scripted alternative at each choice point and records the
/// labels it was offered.
struct PickScript : ScheduleController {
    std::vector<std::size_t> picks;
    std::vector<std::vector<std::string>> offered;
    std::size_t choose(const ChoicePoint& cp) override {
        std::vector<std::string> labels;
        for (const ChoiceAlt& a : cp.alts) labels.push_back(a.label);
        offered.push_back(labels);
        const std::size_t n = offered.size() - 1;
        return n < picks.size() ? picks[n] : 0;
    }
};

TEST(Dispatcher, UnpickedDueItemsKeepTheirLabelsAndOrder) {
    PickScript ctrl;
    ctrl.picks = {2, 1, 1};
    Engine eng;
    eng.set_schedule_controller(&ctrl);
    std::vector<int> order;
    // Sequence 0 is setup's start; its four callbacks are d1..d4.
    eng.spawn("setup", [&](Process&) {
        for (int i = 0; i < 4; ++i) eng.at(50, [&, i] { order.push_back(i); });
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3, 0}));
    EXPECT_EQ(ctrl.offered, (std::vector<std::vector<std::string>>{
                                {"d1", "d2", "d3", "d4"}, {"d1", "d2", "d4"}, {"d1", "d4"}}));
}

TEST(Dispatcher, ProcessWakeAndLaterInsertedCallbackAtOneTimeRunInInsertionOrder) {
    // At t=100: callback c1 (inserted at t=0), then the driver's wakeup
    // (inserted after c1), then c2 (inserted at t=50, after both). One
    // (t, seq) queue runs them in exactly that order.
    Engine eng;
    std::vector<std::string> order;
    eng.spawn("driver", [&](Process& p) {
        eng.at(100, [&] { order.push_back("c1"); });
        p.delay(100);
        order.push_back("driver");
    });
    eng.spawn("poster", [&](Process& p) {
        p.delay(50);
        eng.at(100, [&] { order.push_back("c2"); });
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<std::string>{"c1", "driver", "c2"}));
}

TEST(Dispatcher, ThrowingCallbackEndsRunInAPanicWithEveryFiberUnwound) {
    int unwound = 0;
    struct Guard {
        int* n;
        ~Guard() { ++*n; }
    };
    bool after_ran = false;
    {
        Engine eng;
        Mailbox<int> never;
        for (int i = 0; i < 3; ++i)
            eng.spawn("parked" + std::to_string(i), [&](Process& p) {
                const Guard g{&unwound};
                (void)never.recv(p);
            });
        eng.spawn("poster", [&](Process& p) {
            eng.after(10, [] { throw std::runtime_error("boom"); });
            eng.after(20, [&] { after_ran = true; });
            p.delay(30);
        });
        try {
            eng.run();
            FAIL() << "expected a panic";
        } catch (const Panic& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("timed callback"), std::string::npos) << what;
            EXPECT_NE(what.find("boom"), std::string::npos) << what;
        }
        // Every parked stack was unwound before run() threw.
        EXPECT_EQ(unwound, 3);
    }
    EXPECT_FALSE(after_ran);
    EXPECT_EQ(unwound, 3);
}

TEST(Dispatcher, CallbackHoldsAMoveOnlyCapture) {
    auto box = std::make_unique<int>(41);
    int seen = 0;
    Callback cb([&seen, b = std::move(box)] { seen = ++*b; });
    Callback moved = std::move(cb);
    EXPECT_FALSE(cb);
    ASSERT_TRUE(moved);
    moved();
    EXPECT_EQ(seen, 42);

    // The same kind of closure, constructed in place in an engine slot.
    Engine eng;
    eng.spawn("driver", [&](Process& p) {
        eng.at(20, [&seen, b = std::make_unique<int>(99)] { seen = *b; });
        p.delay(5);
    });
    eng.run();
    EXPECT_EQ(seen, 99);
}

TEST(Dispatcher, ClosuresThatNeverRanAreDestroyedAtTeardown) {
    auto token = std::make_shared<int>(7);
    Engine eng;
    eng.spawn("poster", [&](Process& p) {
        eng.after(10, [] { throw std::runtime_error("stop"); });
        for (int i = 0; i < 3; ++i) eng.after(100 + i, [token] {});
        p.delay(1);
    });
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_THROW(eng.run(), Panic);
    // run() ended at t = 10: the three closures never ran, and the
    // teardown before the panic destroyed them with their captures.
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Dispatcher, PendingClosuresAreReleasedWhenTheEngineIsDestroyedUnrun) {
    auto token = std::make_shared<int>(1);
    {
        Engine eng;
        eng.spawn("poster", [&](Process&) {});
        for (int i = 0; i < 100; ++i) eng.at(10 + i, [token] {});
        EXPECT_EQ(token.use_count(), 101);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Dispatcher, ThrowingCallbackPanicNamesItsSequenceNumber) {
    Engine eng;
    // Sequence 0 is the driver's start; its callbacks are d1 and d2.
    eng.spawn("driver", [&](Process& p) {
        eng.after(10, [] {});
        eng.after(20, [] { throw std::runtime_error("late boom"); });
        p.delay(30);
    });
    try {
        eng.run();
        FAIL() << "expected a panic";
    } catch (const Panic& e) {
        EXPECT_NE(std::string(e.what()).find("timed callback d2: late boom"),
                  std::string::npos)
            << e.what();
    }
}

}  // namespace
}  // namespace scimpi::sim
