// Host cost of the simulator's event path, per event (not simulated time):
//   BM_TimedCallback   one Engine::after callback that posts the next one,
//                      with 1 or 32 callbacks pending at once
//   BM_Delay           one Process::delay (a queue entry and two switches)
//   BM_Wake            one WaitQueue wake of a parked peer and its park
//   BM_RemoteWrite8    one remote 8-byte SciAdapter::write to the node half
//                      way round an N-node ring, including its landing
// Each iteration runs a fresh engine through kEvents operations; the
// ns_per_op counter is the thread CPU time of run() per operation, in host
// nanoseconds (CPU time, so a shared host's descheduling does not count).
// Not a gate: the numbers move with the host.
#include <benchmark/benchmark.h>

#include <ctime>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "mem/machine_profile.hpp"
#include "mem/node_memory.hpp"
#include "sci/adapter.hpp"
#include "sci/fabric.hpp"
#include "sci/segment.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace {

using namespace scimpi;

constexpr int kEvents = 1 << 16;

double thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Run a fresh engine set up by `setup` per iteration and report host CPU
/// ns per operation (kEvents per run), timing run() only.
template <class Setup>
void run_engine(benchmark::State& state, Setup setup) {
    double ns = 0;
    for (auto _ : state) {
        sim::Engine eng;
        setup(eng);
        const double t0 = thread_cpu_ns();
        eng.run();
        ns += thread_cpu_ns() - t0;
    }
    state.counters["ns_per_op"] =
        ns / static_cast<double>(state.iterations()) / static_cast<double>(kEvents);
}

void BM_TimedCallback(benchmark::State& state) {
    // `chains` callbacks pending at once (the queue depth), each posting its
    // successor a chain-specific 1..7 ns later.
    const int chains = static_cast<int>(state.range(0));
    run_engine(state, [chains](sim::Engine& eng) {
        eng.spawn("poster", [&eng, chains](sim::Process&) {
            struct Chain {
                sim::Engine* eng;
                int left;
                SimTime step;
                void operator()() const {
                    if (left > 1) eng->after(step, Chain{eng, left - 1, step});
                }
            };
            for (int c = 0; c < chains; ++c)
                eng.after(1 + c % 7, Chain{&eng, kEvents / chains, 1 + c % 7});
        });
    });
}
BENCHMARK(BM_TimedCallback)->Arg(1)->Arg(32);

void BM_Delay(benchmark::State& state) {
    run_engine(state, [](sim::Engine& eng) {
        eng.spawn("sleeper", [](sim::Process& p) {
            for (int i = 0; i < kEvents; ++i) p.delay(1);
        });
    });
}
BENCHMARK(BM_Delay);

void BM_Wake(benchmark::State& state) {
    // Two processes hand a token back and forth through two wait queues.
    struct PingPong {
        sim::WaitQueue q[2];
        bool turn = false;
    };
    auto pp = std::make_unique<PingPong>();
    run_engine(state, [&pp](sim::Engine& eng) {
        *pp = PingPong{};
        for (int side = 0; side < 2; ++side)
            eng.spawn("player" + std::to_string(side), [&pp, side](sim::Process& p) {
                for (int i = 0; i < kEvents / 2; ++i) {
                    while (pp->turn != (side == 1)) pp->q[side].park(p);
                    pp->turn = side == 0;
                    pp->q[1 - side].wake_all();
                }
            });
    });
}
BENCHMARK(BM_Wake);

void BM_RemoteWrite8(benchmark::State& state) {
    const int nodes = static_cast<int>(state.range(0));
    double ns = 0;
    for (auto _ : state) {
        sim::Engine eng;
        sci::Fabric fabric(sci::Topology::ring(nodes), sci::SciParams{});
        sci::SegmentDirectory dir;
        obs::MetricsRegistry metrics;
        std::vector<std::unique_ptr<mem::NodeMemory>> mems;
        std::vector<std::unique_ptr<sci::SciAdapter>> adapters;
        for (int n = 0; n < nodes; ++n) {
            mems.push_back(std::make_unique<mem::NodeMemory>(n, 1_MiB));
            adapters.push_back(std::make_unique<sci::SciAdapter>(
                n, fabric, mem::pentium3_800(), default_config(), metrics));
        }
        const int target = nodes / 2;
        const sci::SegmentId seg = dir.create(target, mems[static_cast<std::size_t>(target)]
                                                          ->allocate(4_KiB)
                                                          .value());
        const sci::SciMapping map = dir.import(0, seg).value();
        eng.spawn("writer", [&](sim::Process& p) {
            const std::uint64_t word = 42;
            for (int i = 0; i < kEvents; ++i)
                benchmark::DoNotOptimize(
                    adapters[0]->write(p, map, static_cast<std::size_t>(i % 64) * 64, &word, 8));
        });
        const double t0 = thread_cpu_ns();
        eng.run();
        ns += thread_cpu_ns() - t0;
    }
    state.counters["ns_per_op"] =
        ns / static_cast<double>(state.iterations()) / static_cast<double>(kEvents);
}
BENCHMARK(BM_RemoteWrite8)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
