#include "sim/engine.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>
#include <xmmintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/process.hpp"

namespace scimpi::sim {
namespace {

TEST(Engine, EmptyRunCompletesAtTimeZero) {
    Engine eng;
    eng.run();
    EXPECT_EQ(eng.now(), 0);
    EXPECT_EQ(eng.events_dispatched(), 0u);
}

TEST(Engine, SingleProcessRunsToCompletion) {
    Engine eng;
    bool ran = false;
    eng.spawn("p0", [&](Process& p) {
        EXPECT_EQ(p.now(), 0);
        ran = true;
    });
    eng.run();
    EXPECT_TRUE(ran);
}

TEST(Engine, DelayAdvancesVirtualTime) {
    Engine eng;
    SimTime observed = -1;
    eng.spawn("p0", [&](Process& p) {
        p.delay(1500);
        observed = p.now();
    });
    eng.run();
    EXPECT_EQ(observed, 1500);
    EXPECT_EQ(eng.now(), 1500);
}

TEST(Engine, DelaysAccumulate) {
    Engine eng;
    eng.spawn("p0", [&](Process& p) {
        for (int i = 0; i < 10; ++i) p.delay(100);
        EXPECT_EQ(p.now(), 1000);
    });
    eng.run();
    EXPECT_EQ(eng.now(), 1000);
}

TEST(Engine, ProcessesInterleaveByTimestamp) {
    Engine eng;
    std::vector<std::string> order;
    eng.spawn("a", [&](Process& p) {
        order.push_back("a0");
        p.delay(200);
        order.push_back("a200");
    });
    eng.spawn("b", [&](Process& p) {
        order.push_back("b0");
        p.delay(100);
        order.push_back("b100");
        p.delay(200);
        order.push_back("b300");
    });
    eng.run();
    const std::vector<std::string> expected{"a0", "b0", "b100", "a200", "b300"};
    EXPECT_EQ(order, expected);
}

TEST(Engine, SameTimeEventsRunInScheduleOrder) {
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eng.spawn("p" + std::to_string(i), [&, i](Process& p) {
            p.delay(50);
            order.push_back(i);
        });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, YieldReschedulesBehindPeers) {
    Engine eng;
    std::vector<std::string> order;
    eng.spawn("a", [&](Process& p) {
        order.push_back("a-pre");
        p.yield();
        order.push_back("a-post");
    });
    eng.spawn("b", [&](Process&) { order.push_back("b"); });
    eng.run();
    EXPECT_EQ(order, (std::vector<std::string>{"a-pre", "b", "a-post"}));
}

TEST(Engine, BlockAndWakeTransfersControl) {
    Engine eng;
    std::vector<std::string> order;
    Process& sleeper = eng.spawn("sleeper", [&](Process& p) {
        order.push_back("sleeping");
        p.block();
        order.push_back("woken");
        EXPECT_EQ(p.now(), 400);
    });
    eng.spawn("waker", [&](Process& p) {
        p.delay(400);
        order.push_back("waking");
        p.engine().wake(sleeper);
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<std::string>{"sleeping", "waking", "woken"}));
}

TEST(Engine, DeadlockIsDetectedAndNamed) {
    Engine eng;
    eng.spawn("stuck-proc", [](Process& p) { p.block(); });
    try {
        eng.run();
        FAIL() << "expected Panic";
    } catch (const Panic& e) {
        EXPECT_NE(std::string(e.what()).find("stuck-proc"), std::string::npos);
    }
}

TEST(Engine, ProcessExceptionPropagatesWithName) {
    Engine eng;
    eng.spawn("ok", [](Process& p) { p.delay(10); });
    eng.spawn("thrower", [](Process& p) {
        p.delay(5);
        throw std::runtime_error("boom");
    });
    try {
        eng.run();
        FAIL() << "expected Panic";
    } catch (const Panic& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("thrower"), std::string::npos);
        EXPECT_NE(what.find("boom"), std::string::npos);
    }
}

TEST(Engine, SpawnDuringRunStartsAtCurrentTime) {
    Engine eng;
    SimTime child_start = -1;
    eng.spawn("parent", [&](Process& p) {
        p.delay(300);
        p.engine().spawn("child", [&](Process& c) { child_start = c.now(); });
        p.delay(10);
    });
    eng.run();
    EXPECT_EQ(child_start, 300);
}

TEST(Engine, ManyProcessesAndEventsStayConsistent) {
    Engine eng;
    constexpr int kProcs = 32;
    constexpr int kSteps = 200;
    std::vector<SimTime> finish(kProcs, 0);
    for (int i = 0; i < kProcs; ++i)
        eng.spawn("p" + std::to_string(i), [&, i](Process& p) {
            for (int s = 0; s < kSteps; ++s) p.delay(1 + (i % 7));
            finish[i] = p.now();
        });
    eng.run();
    for (int i = 0; i < kProcs; ++i)
        EXPECT_EQ(finish[i], static_cast<SimTime>(kSteps) * (1 + (i % 7)));
    EXPECT_GE(eng.events_dispatched(), static_cast<std::uint64_t>(kProcs) * kSteps);
}

TEST(Engine, DeterministicAcrossRuns) {
    auto run_once = [] {
        Engine eng;
        std::vector<int> order;
        for (int i = 0; i < 8; ++i)
            eng.spawn("p" + std::to_string(i), [&, i](Process& p) {
                p.delay((i * 37) % 11);
                order.push_back(i);
                p.delay((i * 13) % 7);
                order.push_back(i + 100);
            });
        eng.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, DestructorUnwindsBlockedProcesses) {
    // No run() at all: spawned threads never started. And with run(): a
    // deadlocked engine must still be destructible after the panic.
    auto eng = std::make_unique<Engine>();
    eng->spawn("never-run", [](Process& p) { p.block(); });
    eng.reset();  // must not hang
    SUCCEED();
}

TEST(Engine, DelayFromForeignThreadPanics) {
    Engine eng;
    Process* other = nullptr;
    eng.spawn("a", [&](Process& p) {
        other = &p;
        p.delay(100);
    });
    eng.spawn("b", [&](Process&) {
        ASSERT_NE(other, nullptr);
        EXPECT_THROW(other->delay(1), Panic);
    });
    eng.run();
}

TEST(Engine, ThousandsOfYieldingProcessesRunRoundRobin) {
    constexpr int kProcs = 2048;
    constexpr int kYields = 3;
    auto run_once = [] {
        Engine eng;
        std::vector<int> order;
        order.reserve(static_cast<std::size_t>(kProcs) * (kYields + 1));
        for (int i = 0; i < kProcs; ++i)
            eng.spawn("p" + std::to_string(i), [&order, i](Process& p) {
                for (int y = 0; y < kYields; ++y) {
                    order.push_back(i);
                    p.yield();
                }
                order.push_back(i);
            });
        eng.run();
        EXPECT_EQ(eng.now(), 0);
        return order;
    };
    const std::vector<int> order = run_once();
    // Each yield goes behind every peer already queued: kYields+1 full
    // rounds in spawn order.
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kProcs) * (kYields + 1));
    for (std::size_t k = 0; k < order.size(); ++k)
        ASSERT_EQ(order[k], static_cast<int>(k % kProcs)) << "at " << k;
    EXPECT_EQ(run_once(), order);
}

/// Counts destructor runs: proof that a stack was unwound.
struct Unwound {
    int* count;
    explicit Unwound(int* c) : count(c) {}
    Unwound(const Unwound&) = delete;
    Unwound& operator=(const Unwound&) = delete;
    ~Unwound() { ++*count; }
};

TEST(Engine, ThrowWhilePeersParkedUnwindsEveryParkedStack) {
    constexpr int kParked = 16;
    int unwound = 0;
    int reached = 0;
    {
        Engine eng;
        for (int i = 0; i < kParked; ++i)
            eng.spawn("parked" + std::to_string(i), [&, i](Process& p) {
                const Unwound outer(&unwound);
                p.delay(i);
                const Unwound inner(&unwound);
                ++reached;
                p.block("parked peer");
                ADD_FAILURE() << "a parked peer resumed";
            });
        eng.spawn("thrower", [](Process& p) {
            p.delay(100);
            throw std::runtime_error("kaboom");
        });
        try {
            eng.run();
            FAIL() << "expected Panic";
        } catch (const Panic& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("thrower"), std::string::npos) << what;
            EXPECT_NE(what.find("kaboom"), std::string::npos) << what;
        }
        // run() unwound every parked stack before it rethrew, while the
        // engine (and anything the stacks reference) is still alive.
        EXPECT_EQ(reached, kParked);
        EXPECT_EQ(unwound, 2 * kParked);
    }
    EXPECT_EQ(unwound, 2 * kParked);
}

TEST(Engine, SpawnFromInsideAFiberKeepsStacksApart) {
    Engine eng;
    std::vector<std::string> order;
    bool parent_stack_intact = false;
    eng.spawn("parent", [&](Process& p) {
        std::vector<char> pattern(4096);
        char local[4096];
        for (std::size_t i = 0; i < sizeof local; ++i)
            local[i] = pattern[i] = static_cast<char>(i * 7);
        p.delay(50);
        Process& child = p.engine().spawn("child", [&](Process& c) {
            order.push_back("child@" + std::to_string(c.now()));
            // Deep enough recursion to scribble well past one page of stack.
            std::function<int(int)> dig = [&](int n) {
                volatile char pad[512];
                pad[0] = static_cast<char>(n);
                return n == 0 ? pad[0] : dig(n - 1) + pad[0];
            };
            (void)dig(256);
            c.engine().spawn("grandchild", [&](Process& g) {
                g.delay(5);
                order.push_back("grandchild@" + std::to_string(g.now()));
            });
            c.delay(10);
            order.push_back("child-done@" + std::to_string(c.now()));
        });
        EXPECT_FALSE(child.finished());
        p.delay(100);
        parent_stack_intact = std::equal(pattern.begin(), pattern.end(), local);
        order.push_back("parent-done@" + std::to_string(p.now()));
    });
    eng.run();
    EXPECT_TRUE(parent_stack_intact);
    EXPECT_EQ(order, (std::vector<std::string>{"child@50", "grandchild@55", "child-done@60",
                                              "parent-done@150"}));
    EXPECT_EQ(eng.process_count(), 3u);
}

TEST(Engine, DestroyingUnstartedOrAllBlockedEnginesNeitherLeaksNorHangs) {
    int unwound = 0;
    {
        Engine never_run;
        for (int i = 0; i < 64; ++i)
            never_run.spawn("idle" + std::to_string(i),
                            [&](Process& p) { const Unwound u(&unwound); p.block(); });
    }
    EXPECT_EQ(unwound, 0);  // bodies never started: nothing to unwind

    auto eng = std::make_unique<Engine>();
    for (int i = 0; i < 64; ++i)
        eng->spawn_daemon("daemon" + std::to_string(i), [&](Process& p) {
            const Unwound u(&unwound);
            p.block("forever");
        });
    eng->run();  // daemons may block forever: no deadlock panic
    EXPECT_EQ(unwound, 0);
    eng.reset();
    EXPECT_EQ(unwound, 64);
}

TEST(Engine, FiberKeepsItsOwnExceptionState) {
    // Two processes each park inside a catch block; each must rethrow its
    // own exception, not the one most recently caught on the OS thread.
    Engine eng;
    std::vector<int> rethrown;
    Process* first = nullptr;
    auto body = [&](int value, Process* other) {
        return [&, value, other](Process& p) {
            try {
                try {
                    throw value;
                } catch (int) {
                    if (other != nullptr) p.engine().wake(*other);
                    p.block("inside catch");
                    throw;
                }
            } catch (int v) {
                rethrown.push_back(v);
            }
        };
    };
    first = &eng.spawn("first", body(1, nullptr));
    Process& second = eng.spawn("second", body(2, first));
    eng.spawn("waker", [&](Process& p) {
        p.delay(10);
        p.engine().wake(second);
    });
    eng.run();
    EXPECT_EQ(rethrown, (std::vector<int>{1, 2}));
}

// The fiber-switch contract: a switch preserves what the SysV ABI makes
// callee-saved (rbx, rbp, r12-r15, the MXCSR control bits and the x87
// control word) separately for every fiber and the scheduler, and resumes
// every fiber on a 16-byte aligned stack.

TEST(Engine, CalleeSavedValuesSurviveManyYieldsInEveryFiber) {
    constexpr int kFibers = 4;
    constexpr int kYields = 1000;
    // One LCG step per value, so the values differ per fiber and per step.
    auto step = [](std::uint64_t& a, std::uint64_t& b, std::uint64_t& c, std::uint64_t& d,
                   std::uint64_t& e, std::uint64_t& g) {
        constexpr std::uint64_t kMul = 6364136223846793005ull;
        a = a * kMul + 1;
        b = b * kMul + 3;
        c = c * kMul + 5;
        d = d * kMul + 7;
        e = e * kMul + 9;
        g = g * kMul + 11;
    };
    Engine eng;
    std::vector<int> intact(kFibers, 0);
    for (int f = 0; f < kFibers; ++f)
        eng.spawn("regs" + std::to_string(f), [&, f](Process& p) {
            // Six values live across every yield(): more than the compiler
            // can keep anywhere but in the callee-saved registers or the
            // fiber's own stack. The empty asm pins each in a register.
            const auto seed = static_cast<std::uint64_t>(f + 1) * 0x9E3779B97F4A7C15ull;
            std::uint64_t a = seed, b = seed ^ 1, c = seed ^ 2, d = seed ^ 3, e = seed ^ 4,
                          g = seed ^ 5;
            for (int i = 0; i < kYields; ++i) {
                step(a, b, c, d, e, g);
                asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(g));
                p.yield();
                asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(g));
            }
            std::uint64_t ra = seed, rb = seed ^ 1, rc = seed ^ 2, rd = seed ^ 3,
                          re = seed ^ 4, rg = seed ^ 5;
            for (int i = 0; i < kYields; ++i) step(ra, rb, rc, rd, re, rg);
            intact[static_cast<std::size_t>(f)] =
                a == ra && b == rb && c == rc && d == rd && e == re && g == rg;
        });
    eng.run();
    EXPECT_EQ(intact, std::vector<int>(kFibers, 1));
}

std::uint16_t x87_control_word() {
    std::uint16_t cw = 0;
    asm volatile("fnstcw %0" : "=m"(cw));
    return cw;
}

void set_x87_control_word(std::uint16_t cw) { asm volatile("fldcw %0" : : "m"(cw)); }

TEST(Engine, EachFiberKeepsItsOwnFloatingPointControlState) {
    constexpr unsigned kRoundMask = 0x6000;   // MXCSR.RC
    constexpr unsigned kTowardZero = 0x6000;
    constexpr std::uint16_t kX87RoundMask = 0x0C00;  // x87 CW.RC
    constexpr std::uint16_t kX87Down = 0x0400;
    const unsigned sched_mxcsr = _mm_getcsr() & ~0x3Fu;  // control bits only
    const std::uint16_t sched_cw = x87_control_word();
    ASSERT_NE(sched_mxcsr & kRoundMask, kTowardZero);
    ASSERT_NE(sched_cw & kX87RoundMask, kX87Down);

    Engine eng;
    int sse_bad = 0, x87_bad = 0, plain_bad = 0;
    eng.spawn("sse", [&](Process& p) {
        _mm_setcsr((_mm_getcsr() & ~kRoundMask) | kTowardZero);
        for (int i = 0; i < 100; ++i) {
            p.yield();
            if ((_mm_getcsr() & kRoundMask) != kTowardZero) ++sse_bad;
            if (x87_control_word() != sched_cw) ++sse_bad;
        }
    });
    eng.spawn("x87", [&](Process& p) {
        const auto mine = static_cast<std::uint16_t>((sched_cw & ~kX87RoundMask) | kX87Down);
        set_x87_control_word(mine);
        for (int i = 0; i < 100; ++i) {
            p.yield();
            if (x87_control_word() != mine) ++x87_bad;
            if ((_mm_getcsr() & ~0x3Fu) != sched_mxcsr) ++x87_bad;
        }
    });
    eng.spawn("plain", [&](Process& p) {
        for (int i = 0; i < 100; ++i) {
            p.yield();
            if ((_mm_getcsr() & ~0x3Fu) != sched_mxcsr) ++plain_bad;
            if (x87_control_word() != sched_cw) ++plain_bad;
        }
    });
    eng.run();
    EXPECT_EQ(sse_bad, 0);
    EXPECT_EQ(x87_bad, 0);
    EXPECT_EQ(plain_bad, 0);
    EXPECT_EQ(_mm_getcsr() & ~0x3Fu, sched_mxcsr);  // nothing leaked back
    EXPECT_EQ(x87_control_word(), sched_cw);
}

[[gnu::noinline]] bool frame_is_aligned() {
    const auto addr = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    asm volatile("");  // keep a real frame
    return addr % 16 == 0;
}

TEST(Engine, FibersRunOnSixteenByteAlignedStacks) {
    Engine eng;
    int misaligned = 0;
    int checks = 0;
    for (int f = 0; f < 3; ++f)
        eng.spawn("align" + std::to_string(f), [&](Process& p) {
            ++checks;
            if (!frame_is_aligned()) ++misaligned;
            for (int i = 0; i < 50; ++i) {
                p.delay(i % 3);
                ++checks;
                if (!frame_is_aligned()) ++misaligned;
            }
        });
    eng.run();
    EXPECT_EQ(checks, 3 * 51);
    EXPECT_EQ(misaligned, 0);
}

TEST(Engine, ExceptionsStillWorkAfterManySwitches) {
    constexpr int kSwitches = 10'000;
    Engine eng;
    std::string caught;
    int peer_yields = 0;
    eng.spawn("thrower", [&](Process& p) {
        for (int i = 0; i < kSwitches; ++i) p.yield();
        try {
            throw std::runtime_error("after " + std::to_string(kSwitches));
        } catch (const std::runtime_error& e) {
            caught = e.what();
        }
    });
    eng.spawn("peer", [&](Process& p) {
        for (int i = 0; i < kSwitches; ++i, ++peer_yields) p.yield();
    });
    eng.run();
    EXPECT_EQ(caught, "after 10000");
    EXPECT_EQ(peer_yields, kSwitches);
}

/// Bytes of address space the calling process has mapped.
std::size_t mapped_bytes() {
    std::ifstream statm("/proc/self/statm");
    std::size_t pages = 0;
    statm >> pages;
    return pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(EngineDeathTest, UnmappableStackPanicsNamingTheProcess) {
    EXPECT_EXIT(
        {
            // Cap the address space a little above its current size, below
            // one fiber stack's reservation.
            rlimit lim{};
            ::getrlimit(RLIMIT_AS, &lim);
            lim.rlim_cur = mapped_bytes() + (std::size_t{4} << 20);
            ::setrlimit(RLIMIT_AS, &lim);
            Engine eng;
            eng.spawn("stackless-rank", [](Process& p) { p.delay(1); });
            try {
                eng.run();
            } catch (const Panic& e) {
                std::fputs(e.what(), stderr);
                std::_Exit(0);
            }
            std::_Exit(1);
        },
        ::testing::ExitedWithCode(0), "fiber stack for process stackless-rank");
}

}  // namespace
}  // namespace scimpi::sim
