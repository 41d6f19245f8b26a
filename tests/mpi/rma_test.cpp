#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/rma/window.hpp"

namespace scimpi::mpi {
namespace {

ClusterOptions nodes(int n) {
    ClusterOptions opt;
    opt.nodes = n;
    return opt;
}

/// Create a window over alloc_mem (SCI-shared) of `bytes` per rank.
std::shared_ptr<Win> shared_window(Comm& comm, std::size_t bytes) {
    auto mem = comm.alloc_mem(bytes);
    SCIMPI_REQUIRE(mem.is_ok(), "alloc_mem failed");
    std::memset(mem.value().data(), 0, bytes);
    return comm.win_create(mem.value().data(), bytes);
}

/// This rank's slot of an rma.* counter (the sum over its windows; each
/// test below gives a rank one window).
std::uint64_t rma_count(Comm& comm, const char* name) {
    return comm.cluster().metrics().value(name, comm.rank_state().rank());
}

TEST(Rma, SharedWindowIsDetected) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 4_KiB);
        EXPECT_TRUE(win->target_shared(0));
        EXPECT_TRUE(win->target_shared(1));
    });
}

TEST(Rma, PrivateWindowIsDetected) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        std::vector<std::byte> heap(4_KiB);
        auto win = comm.win_create(heap.data(), heap.size());
        EXPECT_FALSE(win->target_shared(comm.rank()));
        win->fence();
        win->fence();
    });
}

TEST(Rma, DirectPutVisibleAfterFence) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 4_KiB);
        win->fence();
        if (comm.rank() == 0) {
            std::vector<double> data(64);
            std::iota(data.begin(), data.end(), 100.0);
            ASSERT_TRUE(win->put(data.data(), 64, Datatype::float64(), 1, 128));
        }
        win->fence();
        if (comm.rank() == 1) {
            const auto* d = reinterpret_cast<const double*>(win->local().data() + 128);
            EXPECT_EQ(d[0], 100.0);
            EXPECT_EQ(d[63], 163.0);
        }
        EXPECT_EQ(rma_count(comm, "rma.direct_puts"), comm.rank() == 0 ? 1u : 0u);
    });
}

TEST(Rma, EmulatedPutIntoPrivateWindow) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        std::vector<std::byte> heap(4_KiB, std::byte{0});
        auto win = comm.win_create(heap.data(), heap.size());
        win->fence();
        if (comm.rank() == 0) {
            const double v[2] = {3.5, 4.5};
            ASSERT_TRUE(win->put(v, 2, Datatype::float64(), 1, 64));
        }
        win->fence();
        if (comm.rank() == 1) {
            double out[2];
            std::memcpy(out, heap.data() + 64, sizeof out);
            EXPECT_EQ(out[0], 3.5);
            EXPECT_EQ(out[1], 4.5);
        }
        if (comm.rank() == 0) {
            EXPECT_EQ(rma_count(comm, "rma.emulated_puts"), 1u);
            EXPECT_EQ(rma_count(comm, "rma.direct_puts"), 0u);
        }
    });
}

TEST(Rma, SmallGetUsesDirectRead) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 4_KiB);
        auto* mine = reinterpret_cast<double*>(win->local().data());
        mine[0] = comm.rank() + 0.25;
        win->fence();
        double got = -1.0;
        const int peer = 1 - comm.rank();
        ASSERT_TRUE(win->get(&got, 1, Datatype::float64(), peer, 0));
        win->fence();
        EXPECT_EQ(got, peer + 0.25);
        EXPECT_EQ(rma_count(comm, "rma.direct_gets"), 1u);
        EXPECT_EQ(rma_count(comm, "rma.remote_put_gets"), 0u);
    });
}

TEST(Rma, LargeGetSwitchesToRemotePut) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 64_KiB);
        auto* mine = reinterpret_cast<double*>(win->local().data());
        for (int i = 0; i < 4096; ++i) mine[i] = comm.rank() * 10000.0 + i;
        win->fence();
        std::vector<double> got(4096);
        const int peer = 1 - comm.rank();
        ASSERT_TRUE(win->get(got.data(), 4096, Datatype::float64(), peer, 0));
        win->fence();
        EXPECT_EQ(got[0], peer * 10000.0);
        EXPECT_EQ(got[4095], peer * 10000.0 + 4095);
        EXPECT_EQ(rma_count(comm, "rma.remote_put_gets"), 1u);
        EXPECT_EQ(rma_count(comm, "rma.direct_gets"), 0u);
    });
}

TEST(Rma, GetFromPrivateWindowAlwaysEmulated) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        std::vector<double> heap(16, comm.rank() + 1.5);
        auto win = comm.win_create(heap.data(), heap.size() * sizeof(double));
        win->fence();
        double got = 0.0;
        const int peer = 1 - comm.rank();
        ASSERT_TRUE(win->get(&got, 1, Datatype::float64(), peer, 0));  // 8 bytes,
        // below threshold, but private target memory forces emulation
        win->fence();
        EXPECT_EQ(got, peer + 1.5);
        EXPECT_EQ(rma_count(comm, "rma.remote_put_gets"), 1u);
    });
}

TEST(Rma, StridedPutMatchesSparseBenchmarkPattern) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 64_KiB);
        win->fence();
        if (comm.rank() == 0) {
            // Put 8-byte elements with stride 2 (paper's sparse benchmark).
            const double v = 42.0;
            for (std::size_t off = 0; off + 8 <= 4_KiB; off += 16)
                ASSERT_TRUE(win->put(&v, 1, Datatype::float64(), 1, off));
        }
        win->fence();
        if (comm.rank() == 1) {
            const auto* d = reinterpret_cast<const double*>(win->local().data());
            EXPECT_EQ(d[0], 42.0);
            EXPECT_EQ(d[1], 0.0);  // gap untouched
            EXPECT_EQ(d[2], 42.0);
        }
    });
}

TEST(Rma, NonContiguousDatatypePut) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 16_KiB);
        win->fence();
        if (comm.rank() == 0) {
            auto t = Datatype::vector(16, 2, 4, Datatype::float64());
            std::vector<double> data(static_cast<std::size_t>(t.extent()) / 8);
            std::iota(data.begin(), data.end(), 0.0);
            ASSERT_TRUE(win->put(data.data(), 1, t, 1, 0));
        }
        win->fence();
        if (comm.rank() == 1) {
            const auto* d = reinterpret_cast<const double*>(win->local().data());
            EXPECT_EQ(d[0], 0.0);
            EXPECT_EQ(d[1], 1.0);
            EXPECT_EQ(d[4], 4.0);   // second block
            EXPECT_EQ(d[2], 0.0);   // gap
        }
    });
}

TEST(Rma, AccumulateSumsAtTarget) {
    Cluster c(nodes(4));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 4_KiB);
        auto* mine = reinterpret_cast<double*>(win->local().data());
        mine[0] = 1000.0;
        win->fence();
        const double v = comm.rank() + 1.0;
        // Everyone accumulates into rank 0.
        if (comm.rank() != 0) {
            ASSERT_TRUE(win->accumulate_sum(&v, 1, 0, 0));
        }
        win->fence();
        if (comm.rank() == 0) {
            EXPECT_DOUBLE_EQ(mine[0], 1000.0 + 2 + 3 + 4);
        }
    });
}

TEST(Rma, PostStartCompleteWait) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 4_KiB);
        const int peer = 1 - comm.rank();
        const int origin_group[1] = {peer};
        const int target_group[1] = {peer};
        if (comm.rank() == 1) {
            win->post(origin_group);  // expose to rank 0
            win->wait();
            const auto* d = reinterpret_cast<const double*>(win->local().data());
            EXPECT_EQ(d[0], 7.5);
        } else {
            win->start(target_group);
            const double v = 7.5;
            ASSERT_TRUE(win->put(&v, 1, Datatype::float64(), 1, 0));
            win->complete();
        }
        comm.barrier();
    });
}

TEST(Rma, EarlyPostForTheNextEpochDoesNotReleaseTheCurrentStart) {
    // Rank 0 runs two access epochs back to back: {1}, then {2}. Rank 2
    // posts at once, long before rank 1 (which computes, writes its window,
    // and only then posts). Rank 2's post belongs to rank 0's *second*
    // epoch, so it must not release the first start(): the get from rank 1
    // has to see rank 1's data.
    Cluster c(nodes(3));
    std::vector<double> got(8, -1.0);
    c.run([&got](Comm& comm) {
        auto win = shared_window(comm, 4_KiB);
        const int origin[1] = {0};
        if (comm.rank() == 0) {
            const int first[1] = {1};
            const int second[1] = {2};
            win->start(first);
            ASSERT_TRUE(win->get(got.data(), 8, Datatype::float64(), 1, 0));
            win->complete();
            win->start(second);
            win->complete();
        } else {
            if (comm.rank() == 1) {
                comm.proc().delay(200'000);  // compute
                auto* d = reinterpret_cast<double*>(win->local().data());
                std::fill(d, d + 8, 42.0);
            }
            win->post(origin);
            win->wait();
        }
        comm.barrier();
    });
    for (const double v : got) EXPECT_EQ(v, 42.0);
}

TEST(Rma, LockUnlockPassiveTarget) {
    Cluster c(nodes(4));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 4_KiB);
        win->fence();
        // Everyone increments a counter in rank 0's window under the lock
        // (read-modify-write needs mutual exclusion).
        for (int iter = 0; iter < 5; ++iter) {
            win->lock(0);
            double v = 0.0;
            ASSERT_TRUE(win->get(&v, 1, Datatype::float64(), 0, 0));
            v += 1.0;
            ASSERT_TRUE(win->put(&v, 1, Datatype::float64(), 0, 0));
            win->unlock(0);
        }
        win->fence();
        if (comm.rank() == 0) {
            const auto* d = reinterpret_cast<const double*>(win->local().data());
            EXPECT_DOUBLE_EQ(d[0], 4.0 * 5.0);
        }
    });
}

TEST(Rma, PutBeyondWindowRejected) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 1_KiB);
        win->fence();
        const double v = 1.0;
        const Status st = win->put(&v, 1, Datatype::float64(), 1 - comm.rank(), 1020);
        EXPECT_EQ(st.code(), Errc::invalid_argument);
        win->fence();
    });
}

TEST(Rma, LocalPutGetBypassNetwork) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 4_KiB);
        win->fence();
        const double v = 5.25;
        ASSERT_TRUE(win->put(&v, 1, Datatype::float64(), comm.rank(), 8));
        double got = 0.0;
        ASSERT_TRUE(win->get(&got, 1, Datatype::float64(), comm.rank(), 8));
        EXPECT_EQ(got, 5.25);
        EXPECT_EQ(rma_count(comm, "rma.local_ops"), 2u);
        win->fence();
    });
}

TEST(Rma, ManyConcurrentPutsStressFence) {
    Cluster c(nodes(8));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 64_KiB);
        win->fence();
        // All-to-all puts: rank r writes its id at slot r of every peer.
        const double v = comm.rank() * 1.0;
        for (int t = 0; t < comm.size(); ++t) {
            if (t != comm.rank()) {
                ASSERT_TRUE(win->put(&v, 1, Datatype::float64(), t,
                                     static_cast<std::size_t>(comm.rank()) * 8));
            }
        }
        win->fence();
        const auto* d = reinterpret_cast<const double*>(win->local().data());
        for (int r = 0; r < comm.size(); ++r) {
            if (r != comm.rank()) {
                EXPECT_EQ(d[r], r * 1.0) << "slot " << r;
            }
        }
    });
}


TEST(Rma, WinTestNonBlockingWait) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 4_KiB);
        const int peer = 1 - comm.rank();
        const int group[1] = {peer};
        if (comm.rank() == 1) {
            win->post(group);
            // Poll with MPI_Win_test until rank 0 completes its epoch.
            int polls = 0;
            while (!win->test()) {
                comm.proc().delay(5'000);
                ++polls;
            }
            EXPECT_GT(polls, 0);  // the origin's epoch takes a while
            const auto* d = reinterpret_cast<const double*>(win->local().data());
            EXPECT_EQ(d[0], 3.25);
        } else {
            win->start(group);
            comm.proc().delay(100'000);  // keep the target polling
            const double v = 3.25;
            ASSERT_TRUE(win->put(&v, 1, Datatype::float64(), 1, 0));
            win->complete();
        }
        comm.barrier();
    });
}


TEST(Rma, AccessOutsideEpochRejected) {
    Cluster c(nodes(2));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 4_KiB);
        const double v = 1.0;
        // No fence yet: no epoch is open.
        EXPECT_EQ(win->put(&v, 1, Datatype::float64(), 1 - comm.rank(), 0).code(),
                  Errc::rma_sync_error);
        double out = 0.0;
        EXPECT_EQ(win->get(&out, 1, Datatype::float64(), 1 - comm.rank(), 0).code(),
                  Errc::rma_sync_error);
        EXPECT_EQ(win->accumulate(&v, 1, Datatype::float64(), 1 - comm.rank(), 0,
                                  Win::ReduceOp::sum)
                      .code(),
                  Errc::rma_sync_error);
        // Local access is always allowed (MPI: load/store on own window).
        EXPECT_TRUE(win->put(&v, 1, Datatype::float64(), comm.rank(), 0));
        win->fence();
        EXPECT_TRUE(win->put(&v, 1, Datatype::float64(), 1 - comm.rank(), 0));
        win->fence();
    });
}

TEST(Rma, PscwEpochOnlyCoversItsGroup) {
    Cluster c(nodes(3));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 4_KiB);
        const double v = 2.0;
        if (comm.rank() == 0) {
            const int group[1] = {1};
            win->start(group);  // access epoch covers rank 1 only
            EXPECT_TRUE(win->put(&v, 1, Datatype::float64(), 1, 0));
            EXPECT_EQ(win->put(&v, 1, Datatype::float64(), 2, 0).code(),
                      Errc::rma_sync_error);
            win->complete();
        } else if (comm.rank() == 1) {
            const int group[1] = {0};
            win->post(group);
            win->wait();
        }
        comm.barrier();
    });
}

TEST(Rma, LockOpensPassiveEpochForThatTargetOnly) {
    Cluster c(nodes(3));
    c.run([](Comm& comm) {
        auto win = shared_window(comm, 4_KiB);
        comm.barrier();
        if (comm.rank() == 0) {
            const double v = 3.0;
            win->lock(1);
            EXPECT_TRUE(win->put(&v, 1, Datatype::float64(), 1, 0));
            EXPECT_EQ(win->put(&v, 1, Datatype::float64(), 2, 0).code(),
                      Errc::rma_sync_error);
            win->unlock(1);
            EXPECT_EQ(win->put(&v, 1, Datatype::float64(), 1, 0).code(),
                      Errc::rma_sync_error);  // epoch closed again
        }
        comm.barrier();
    });
}

}  // namespace
}  // namespace scimpi::mpi
