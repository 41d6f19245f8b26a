// osc_sparse: 8 ranks, one per node, running the paper's sparse one-sided
// pattern (Fig. 8: K accesses of `access` bytes at stride 2 x access) on a
// shared window (Comm::alloc_mem, direct SCI access) and on a private one
// (heap memory, emulated through the target's handler). Each epoch draws
// its synchronization (fence, post/start/complete/wait or lock), window,
// operation (put, get, accumulate_sum) and access size (on both sides of
// Config::get_remote_put_threshold) from the seed.
//
// Every rank targets (rank + shift) % 8 in an epoch, so each window has
// exactly one origin per epoch. The origin applies each op to the driver's
// reference copy of the target window as it issues it; after the epoch
// closes every rank compares its whole window with that copy, and origins
// compare fetched data with it.
//
// Lock epochs are bracketed by barriers: that is the only way a passive
// target learns when its epoch starts and ends. PSCW epochs open with a
// barrier too. Win::start and Win::wait count post/complete signals per
// window, not per epoch, so without it a rank that runs ahead into the next
// PSCW epoch releases its new origin's start() (or target's wait()) early,
// and gets and accumulates of the current epoch then fail verification.
#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "mpi/comm.hpp"
#include "mpi/rma/window.hpp"
#include "spans.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using scimpi::mpi::Comm;
using scimpi::mpi::Datatype;
using scimpi::mpi::Win;

constexpr int kRanks = 8;
constexpr std::size_t kAccesses = 8;          // K: accesses per origin per epoch
constexpr std::size_t kMinAccess = 64;
constexpr std::size_t kMaxAccess = 32 * 1024;
constexpr std::size_t kWinBytes = kAccesses * 2 * kMaxAccess;
constexpr std::size_t kWinDoubles = kWinBytes / sizeof(double);

enum class Sync : std::uint8_t { fence, pscw, lock };
enum class RmaOp : std::uint8_t { put, get, acc };

struct Epoch {
    Sync sync = Sync::fence;
    bool shared = true;
    RmaOp op = RmaOp::put;
    std::size_t access = 0;  ///< bytes, a multiple of 8
    int shift = 1;           ///< target = (rank + shift) % kRanks
};

double init_value(int rank, int kind, std::size_t k) {
    return static_cast<double>((static_cast<std::size_t>(rank) * 7 +
                                static_cast<std::size_t>(kind) * 3 + k) %
                               1024);
}

double origin_value(std::size_t epoch, int rank, std::size_t k) {
    return static_cast<double>((epoch * 131 + static_cast<std::size_t>(rank) * 17 + k) %
                               1024);
}

class OscSparse final : public Workload {
public:
    OscSparse(std::uint64_t seed, bool short_mode) {
        Rng rng(seed ^ 0x4f53'0003ULL);
        const int per_combo = short_mode ? 1 : 8;
        std::size_t combo = 0;
        for (const Sync s : {Sync::fence, Sync::pscw, Sync::lock})
            for (const bool shared : {true, false})
                for (const RmaOp op : {RmaOp::put, RmaOp::get, RmaOp::acc}) {
                    const auto sizes = stratified_log(rng, per_combo, kMinAccess, kMaxAccess, 8);
                    // The shift is how many ring links every transfer
                    // crosses, so it scales the load of large epochs. It is
                    // fixed per (combo, size class) and uses every distance,
                    // so the total load does not depend on the seed.
                    for (std::size_t i = 0; i < sizes.size(); ++i) {
                        const auto shift = static_cast<int>((i + combo) % (kRanks - 1));
                        epochs_.push_back({s, shared, op, sizes[i], 1 + shift});
                    }
                    ++combo;
                }
        rng.shuffle(epochs_);
    }

    [[nodiscard]] scimpi::mpi::ClusterOptions options() const override {
        scimpi::mpi::ClusterOptions opt;
        opt.nodes = kRanks;
        opt.procs_per_node = 1;
        return opt;
    }

    [[nodiscard]] std::size_t op_slots() const override {
        return epochs_.size() * kRanks * kAccesses;
    }

    [[nodiscard]] std::uint64_t payload_bytes() const override {
        std::uint64_t b = 0;
        for (const Epoch& e : epochs_) b += e.access * kRanks * kAccesses;
        return b;
    }

    void reset() override {
        for (int r = 0; r < kRanks; ++r)
            for (int kind = 0; kind < 2; ++kind) {
                std::vector<double>& w = ref_[static_cast<std::size_t>(r)][static_cast<std::size_t>(kind)];
                w.resize(kWinDoubles);
                for (std::size_t k = 0; k < kWinDoubles; ++k) w[k] = init_value(r, kind, k);
            }
    }

    void rank_main(Comm& comm, Tally& tally) override;

private:
    [[nodiscard]] std::string describe(std::size_t e) const {
        static constexpr std::array<const char*, 3> kSync = {"fence", "pscw", "lock"};
        static constexpr std::array<const char*, 3> kOp = {"put", "get", "acc"};
        const Epoch& ep = epochs_[e];
        return "epoch " + std::to_string(e) + " (" + kSync[static_cast<std::size_t>(ep.sync)] +
               ", " + (ep.shared ? "shared" : "private") + ", " +
               kOp[static_cast<std::size_t>(ep.op)] + ", " + std::to_string(ep.access) +
               " B, shift " + std::to_string(ep.shift) + ")";
    }

    std::vector<Epoch> epochs_;
    /// Reference contents of every window: [rank][0 = shared, 1 = private].
    std::array<std::array<std::vector<double>, 2>, kRanks> ref_;
};

void OscSparse::rank_main(Comm& comm, Tally& tally) {
    bootstrap_barriers(comm);
    const int n = comm.size();
    const int me = comm.rank();
    const auto byte = Datatype::byte_();

    // Window 0 lives in the node arena (SCI-shared), window 1 on the heap.
    auto arena = traced(SpanKind::mem_alloc, [&] { return comm.alloc_mem(kWinBytes); });
    SCIMPI_REQUIRE(arena.is_ok(), "alloc_mem failed: " + arena.status().to_string());
    const std::span<std::byte> shared_mem = arena.value();
    std::vector<double> heap(kWinDoubles);
    const std::array<void*, 2> base = {shared_mem.data(), heap.data()};
    for (int kind = 0; kind < 2; ++kind)
        std::memcpy(base[static_cast<std::size_t>(kind)],
                    ref_[static_cast<std::size_t>(me)][static_cast<std::size_t>(kind)].data(),
                    kWinBytes);
    std::array<std::shared_ptr<Win>, 2> wins;
    for (int kind = 0; kind < 2; ++kind)
        wins[static_cast<std::size_t>(kind)] = traced(SpanKind::rma_win_create, [&] {
            return comm.win_create(base[static_cast<std::size_t>(kind)], kWinBytes);
        });

    std::vector<double> src(kAccesses * kMaxAccess / sizeof(double));
    std::vector<std::byte> fetched(kAccesses * kMaxAccess);

    for (std::size_t e = 0; e < epochs_.size(); ++e) {
        const Epoch& ep = epochs_[e];
        const Scope op(SpanKind::op, e + 1);
        const int kind = ep.shared ? 0 : 1;
        Win& win = *wins[static_cast<std::size_t>(kind)];
        const int target = (me + ep.shift) % n;
        const int origin = (me - ep.shift + n) % n;
        std::vector<double>& ref_t =
            ref_[static_cast<std::size_t>(target)][static_cast<std::size_t>(kind)];
        const std::size_t a = ep.access;
        const std::size_t ad = a / sizeof(double);
        const auto slot = [&](int rank, std::size_t j) {
            return (e * static_cast<std::size_t>(n) + static_cast<std::size_t>(rank)) *
                       kAccesses + j;
        };
        for (std::size_t k = 0; k < kAccesses * ad; ++k) src[k] = origin_value(e, me, k);

        // Lock and PSCW epochs open with a barrier (see the header comment).
        if (ep.sync != Sync::fence) traced(SpanKind::coll_barrier, [&] { comm.barrier(); });
        switch (ep.sync) {
            case Sync::fence:
                traced(SpanKind::rma_fence, [&] { win.fence(); });
                break;
            case Sync::pscw:
                traced(SpanKind::rma_post, [&] { win.post(std::span<const int>(&origin, 1)); });
                traced(SpanKind::rma_start, [&] { win.start(std::span<const int>(&target, 1)); });
                break;
            case Sync::lock:
                traced(SpanKind::rma_lock, [&] { win.lock(target, true); });
                break;
        }

        for (std::size_t j = 0; j < kAccesses; ++j) {
            const std::size_t disp = j * 2 * a;
            const double t0 = comm.wtime();
            scimpi::Status st;
            switch (ep.op) {
                case RmaOp::put:
                    st = traced(SpanKind::rma_put, [&] {
                        return win.put(src.data() + j * ad, static_cast<int>(a), byte,
                                       target, disp);
                    });
                    std::memcpy(ref_t.data() + disp / sizeof(double), src.data() + j * ad, a);
                    break;
                case RmaOp::get:
                    st = traced(SpanKind::rma_get, [&] {
                        return win.get(fetched.data() + j * a, static_cast<int>(a), byte,
                                       target, disp);
                    });
                    break;
                case RmaOp::acc:
                    st = traced(SpanKind::rma_acc, [&] {
                        return win.accumulate_sum(src.data() + j * ad, static_cast<int>(ad),
                                                  target, disp);
                    });
                    for (std::size_t k = 0; k < ad; ++k)
                        ref_t[disp / sizeof(double) + k] += src[j * ad + k];
                    break;
            }
            tally.op_sim_ns[slot(me, j)] = (comm.wtime() - t0) * 1e9;
            tally.check(slot(me, j), st, "rma op");
        }

        switch (ep.sync) {
            case Sync::fence:
                traced(SpanKind::rma_fence, [&] { win.fence(); });
                break;
            case Sync::pscw:
                traced(SpanKind::rma_complete, [&] { win.complete(); });
                traced(SpanKind::rma_wait, [&] { win.wait(); });
                break;
            case Sync::lock:
                traced(SpanKind::rma_unlock, [&] { win.unlock(target); });
                // The target learns that its origin is done only here.
                traced(SpanKind::coll_barrier, [&] { comm.barrier(); });
                break;
        }

        if (ep.op == RmaOp::get)
            for (std::size_t j = 0; j < kAccesses; ++j)
                if (std::memcmp(fetched.data() + j * a, ref_t.data() + j * 2 * ad, a) != 0)
                    tally.fail(slot(me, j), "get " + std::to_string(j) + " of rank " +
                                                std::to_string(me) + " returned wrong bytes, " +
                                                describe(e));
        const auto& ref_me = ref_[static_cast<std::size_t>(me)][static_cast<std::size_t>(kind)];
        if (std::memcmp(base[static_cast<std::size_t>(kind)], ref_me.data(), kWinBytes) != 0)
            for (std::size_t j = 0; j < kAccesses; ++j)
                tally.fail(slot(origin, j), "window of rank " + std::to_string(me) +
                                                " differs after " + describe(e));
    }

    traced(SpanKind::coll_barrier, [&] { comm.barrier(); });
    wins = {};
    tally.check(0, comm.free_mem(shared_mem), "free_mem");
}

}  // namespace

std::unique_ptr<Workload> make_osc_sparse(std::uint64_t seed, bool short_mode) {
    return std::make_unique<OscSparse>(seed, short_mode);
}

}  // namespace perfbench
