#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace scimpi::sim {
namespace {

TEST(Event, WaitPassesAfterSet) {
    Engine eng;
    Event ev;
    std::vector<std::string> order;
    eng.spawn("waiter", [&](Process& p) {
        ev.wait(p);
        order.push_back("waiter");
        EXPECT_EQ(p.now(), 50);
    });
    eng.spawn("setter", [&](Process& p) {
        p.delay(50);
        order.push_back("setter");
        ev.set();
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<std::string>{"setter", "waiter"}));
}

TEST(Event, AlreadySetDoesNotBlock) {
    Engine eng;
    Event ev;
    ev.set();
    eng.spawn("w", [&](Process& p) {
        ev.wait(p);
        EXPECT_EQ(p.now(), 0);
    });
    eng.run();
}

TEST(Event, ResetBlocksAgain) {
    Engine eng;
    Event ev;
    int passes = 0;
    eng.spawn("w", [&](Process& p) {
        ev.wait(p);
        ++passes;
        ev.reset();
        ev.wait(p);
        ++passes;
    });
    eng.spawn("s", [&](Process& p) {
        ev.set();
        p.delay(10);
        ev.set();
    });
    eng.run();
    EXPECT_EQ(passes, 2);
}

TEST(Event, SetWakesAllWaiters) {
    Engine eng;
    Event ev;
    int woken = 0;
    for (int i = 0; i < 6; ++i)
        eng.spawn("w" + std::to_string(i), [&](Process& p) {
            ev.wait(p);
            ++woken;
        });
    eng.spawn("s", [&](Process& p) {
        p.delay(5);
        ev.set();
    });
    eng.run();
    EXPECT_EQ(woken, 6);
}

TEST(Mailbox, FifoDelivery) {
    Engine eng;
    Mailbox<int> mb;
    std::vector<int> got;
    eng.spawn("recv", [&](Process& p) {
        for (int i = 0; i < 3; ++i) got.push_back(mb.recv(p));
    });
    eng.spawn("send", [&](Process& p) {
        for (int i = 1; i <= 3; ++i) {
            mb.send(i * 10);
            p.delay(1);
        }
    });
    eng.run();
    EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST(Mailbox, TryRecvNonBlocking) {
    Engine eng;
    Mailbox<int> mb;
    eng.spawn("p", [&](Process&) {
        EXPECT_FALSE(mb.try_recv().has_value());
        mb.send(7);
        auto v = mb.try_recv();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, 7);
        EXPECT_TRUE(mb.empty());
    });
    eng.run();
}

TEST(Mailbox, MultipleReceiversEachGetOne) {
    Engine eng;
    Mailbox<int> mb;
    std::vector<int> got;
    for (int i = 0; i < 3; ++i)
        eng.spawn("r" + std::to_string(i), [&](Process& p) { got.push_back(mb.recv(p)); });
    eng.spawn("s", [&](Process& p) {
        p.delay(10);
        mb.send(1);
        mb.send(2);
        mb.send(3);
    });
    eng.run();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(SimMutex, MutualExclusionAndFifoFairness) {
    Engine eng;
    SimMutex m;
    std::vector<int> critical_order;
    for (int i = 0; i < 4; ++i)
        eng.spawn("p" + std::to_string(i), [&, i](Process& p) {
            p.delay(i);  // stagger arrival: 0,1,2,3
            m.lock(p);
            critical_order.push_back(i);
            p.delay(100);  // hold long enough that all others queue up
            m.unlock(p);
        });
    eng.run();
    EXPECT_EQ(critical_order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimMutex, TryLockFailsWhenHeld) {
    Engine eng;
    SimMutex m;
    eng.spawn("a", [&](Process& p) {
        m.lock(p);
        p.delay(100);
        m.unlock(p);
    });
    eng.spawn("b", [&](Process& p) {
        p.delay(50);
        EXPECT_FALSE(m.try_lock(p));
        p.delay(100);
        EXPECT_TRUE(m.try_lock(p));
        m.unlock(p);
    });
    eng.run();
}

TEST(SimMutex, UnlockByNonOwnerPanics) {
    Engine eng;
    SimMutex m;
    eng.spawn("a", [&](Process& p) {
        EXPECT_THROW(m.unlock(p), Panic);
        m.lock(p);
        m.unlock(p);
    });
    eng.run();
}

TEST(SimBarrier, AllArriveBeforeAnyPasses) {
    Engine eng;
    SimBarrier bar(4);
    std::vector<SimTime> pass_times;
    for (int i = 0; i < 4; ++i)
        eng.spawn("p" + std::to_string(i), [&, i](Process& p) {
            p.delay(i * 100);  // last arrives at 300
            bar.arrive_and_wait(p);
            pass_times.push_back(p.now());
        });
    eng.run();
    ASSERT_EQ(pass_times.size(), 4u);
    for (SimTime t : pass_times) EXPECT_EQ(t, 300);
}

TEST(SimBarrier, ReusableAcrossRounds) {
    Engine eng;
    SimBarrier bar(3);
    int rounds_completed = 0;
    for (int i = 0; i < 3; ++i)
        eng.spawn("p" + std::to_string(i), [&, i](Process& p) {
            for (int r = 0; r < 5; ++r) {
                p.delay((i + 1) * (r + 1));
                bar.arrive_and_wait(p);
            }
            if (i == 0) rounds_completed = 5;
        });
    eng.run();
    EXPECT_EQ(rounds_completed, 5);
}

TEST(WaitQueue, WakeOneIsFifo) {
    Engine eng;
    WaitQueue q;
    std::vector<int> order;
    for (int i = 0; i < 3; ++i)
        eng.spawn("w" + std::to_string(i), [&, i](Process& p) {
            p.delay(i);
            q.park(p);
            order.push_back(i);
        });
    eng.spawn("waker", [&](Process& p) {
        p.delay(100);
        while (q.wake_one()) p.delay(10);
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace scimpi::sim
