// stencil_coll: 32 ranks, one per node, contiguous data. Each timestep is
// a persistent-request halo exchange with both ring neighbours, then a
// bcast, an allreduce_sum and an alltoall whose payloads come from the
// seed, drawn on both sides of Config::coll_seg_min and coll_ring_min.
// Dominated by the sim engine, the collective segment sets and arena
// set-up; the pack layer does nothing here.
#include <algorithm>
#include <array>
#include <cstring>

#include "mpi/comm.hpp"
#include "spans.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using scimpi::mpi::Comm;
using scimpi::mpi::Datatype;
using scimpi::mpi::Request;

constexpr int kRanks = 32;
constexpr std::uint8_t kSentinel = 0xA5;

/// Bytes 0, 1, ..., 255, 0, 1, ... long enough for any payload here, so a
/// pattern starting at `base` is a memcpy / memcmp away.
const std::uint8_t* ramp(std::size_t base) {
    static const std::vector<std::uint8_t> r = [] {
        std::vector<std::uint8_t> v(256 + 1024 * 1024);
        for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::uint8_t>(i);
        return v;
    }();
    return r.data() + (base & 0xff);
}

double halo_value(int rank, int step, int dir, std::size_t i) {
    return static_cast<double>((static_cast<std::size_t>(rank) * 31 +
                                static_cast<std::size_t>(step) * 7 +
                                static_cast<std::size_t>(dir) * 5 + i) %
                               1021);
}

double allreduce_in(int rank, int step, std::size_t i) {
    return static_cast<double>(
        (static_cast<std::size_t>(rank) * 3 + static_cast<std::size_t>(step) + i) % 17);
}

class StencilColl final : public Workload {
public:
    StencilColl(std::uint64_t seed, bool short_mode) {
        Rng rng(seed ^ 0x5743'0001ULL);
        steps_ = short_mode ? 3 : 13;
        halo_ = static_cast<std::size_t>(rng.range(1920, 2048));  // doubles
        bcast_ = stratified_log(rng, steps_, 256, 256 * 1024, 8);
        allreduce_ = stratified_log(rng, steps_, 256, 256 * 1024, 8);
        alltoall_ = stratified_log(rng, steps_, 64, 8 * 1024, 8);
        // Each step is one size class for all three collectives, and the
        // seed orders the classes: the set of step costs, and with it the
        // latency percentiles, stays nearly the same from seed to seed.
        std::vector<std::size_t> order(bcast_.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        const auto permute = [&](std::vector<std::size_t>& v) {
            std::vector<std::size_t> p(v.size());
            for (std::size_t i = 0; i < v.size(); ++i) p[i] = v[order[i]];
            v = std::move(p);
        };
        permute(bcast_);
        permute(allreduce_);
        permute(alltoall_);
    }

    [[nodiscard]] scimpi::mpi::ClusterOptions options() const override {
        scimpi::mpi::ClusterOptions opt;
        opt.nodes = kRanks;
        opt.procs_per_node = 1;
        return opt;
    }

    [[nodiscard]] std::size_t op_slots() const override {
        return static_cast<std::size_t>(steps_) * kRanks;
    }

    [[nodiscard]] std::uint64_t payload_bytes() const override {
        std::uint64_t b = 0;
        const std::uint64_t n = kRanks;
        for (int t = 0; t < steps_; ++t) {
            const auto i = static_cast<std::size_t>(t);
            b += n * 2 * halo_ * sizeof(double);  // every rank sends two halos
            b += bcast_[i] * (n - 1);             // the root's buffer to n-1 ranks
            b += allreduce_[i] * n;               // every rank contributes
            b += alltoall_[i] * n * (n - 1);      // one block per ordered pair
        }
        return b;
    }

    void rank_main(Comm& comm, Tally& tally) override;

private:
    int steps_ = 0;
    std::size_t halo_ = 0;                // doubles per halo message
    std::vector<std::size_t> bcast_;      // bytes per step
    std::vector<std::size_t> allreduce_;  // bytes per step (multiple of 8)
    std::vector<std::size_t> alltoall_;   // bytes per block per step
};

void StencilColl::rank_main(Comm& comm, Tally& tally) {
    bootstrap_barriers(comm);
    const int n = comm.size();
    const int me = comm.rank();
    const int left = (me + n - 1) % n;
    const int right = (me + 1) % n;
    const auto f64 = Datatype::float64();
    const auto byte = Datatype::byte_();
    const int halo = static_cast<int>(halo_);

    // dir 0 travels rightwards (tag 1), dir 1 leftwards (tag 2).
    std::vector<double> send_r(halo_), send_l(halo_), recv_l(halo_), recv_r(halo_);
    std::vector<Request> reqs;
    traced(SpanKind::req_init, [&] {
        reqs.push_back(comm.recv_init(recv_l.data(), halo, f64, left, 1));
        reqs.push_back(comm.recv_init(recv_r.data(), halo, f64, right, 2));
        reqs.push_back(comm.send_init(send_r.data(), halo, f64, right, 1));
        reqs.push_back(comm.send_init(send_l.data(), halo, f64, left, 2));
    });

    // Sum over ranks of allreduce_in(r, step, i) depends on (step + i) % 17.
    std::array<double, 17> reduced{};
    for (std::size_t c = 0; c < reduced.size(); ++c)
        for (int r = 0; r < n; ++r) reduced[c] += allreduce_in(r, 0, c);

    const std::size_t max_bcast = *std::max_element(bcast_.begin(), bcast_.end());
    const std::size_t max_red = *std::max_element(allreduce_.begin(), allreduce_.end());
    const std::size_t max_a2a = *std::max_element(alltoall_.begin(), alltoall_.end());
    std::vector<std::uint8_t> bbuf(max_bcast);
    std::vector<double> rin(max_red / sizeof(double)), rout(rin.size());
    std::vector<std::uint8_t> ain(max_a2a * static_cast<std::size_t>(n)),
        aout(ain.size());

    for (int t = 0; t < steps_; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        const std::size_t slot = ti * static_cast<std::size_t>(n) +
                                 static_cast<std::size_t>(me);
        const Scope op(SpanKind::op, ti + 1);
        const double t0 = comm.wtime();

        // Halo exchange over the persistent requests.
        for (std::size_t i = 0; i < halo_; ++i) {
            send_r[i] = halo_value(me, t, 0, i);
            send_l[i] = halo_value(me, t, 1, i);
        }
        traced(SpanKind::req_start_all, [&] { comm.start_all(reqs); });
        tally.check(slot, traced(SpanKind::req_wait_all, [&] { return comm.wait_all(reqs); }),
                    "halo wait_all");
        for (std::size_t i = 0; i < halo_; ++i)
            if (recv_l[i] != halo_value(left, t, 0, i) ||
                recv_r[i] != halo_value(right, t, 1, i)) {
                tally.fail(slot, "halo payload mismatch at step " + std::to_string(t));
                break;
            }

        // Broadcast from a rotating root.
        const int root = t % n;
        const std::size_t bb = bcast_[ti];
        const std::size_t bbase = static_cast<std::size_t>(root) * 5 + ti * 13;
        if (me == root) std::memcpy(bbuf.data(), ramp(bbase), bb);
        else std::memset(bbuf.data(), kSentinel, bb);
        tally.check(slot, traced(SpanKind::coll_bcast, [&] {
                        return comm.bcast(bbuf.data(), static_cast<int>(bb), byte, root);
                    }),
                    "bcast");
        if (std::memcmp(bbuf.data(), ramp(bbase), bb) != 0)
            tally.fail(slot, "bcast payload mismatch at step " + std::to_string(t));

        // Allreduce of small integers: the sums are exact.
        const std::size_t rn = allreduce_[ti] / sizeof(double);
        for (std::size_t i = 0; i < rn; ++i) {
            rin[i] = allreduce_in(me, t, i);
            rout[i] = -1.0;
        }
        tally.check(slot, traced(SpanKind::coll_allreduce, [&] {
                        return comm.allreduce_sum(rin.data(), rout.data(),
                                                  static_cast<int>(rn));
                    }),
                    "allreduce_sum");
        for (std::size_t i = 0; i < rn; ++i)
            if (rout[i] != reduced[(ti + i) % reduced.size()]) {
                tally.fail(slot, "allreduce result mismatch at step " + std::to_string(t));
                break;
            }

        // Alltoall: block d of rank s carries pattern s*11 + d*3 + t.
        const std::size_t ab = alltoall_[ti];
        for (int d = 0; d < n; ++d)
            std::memcpy(ain.data() + static_cast<std::size_t>(d) * ab,
                        ramp(static_cast<std::size_t>(me * 11 + d * 3) + ti), ab);
        std::memset(aout.data(), kSentinel, ab * static_cast<std::size_t>(n));
        tally.check(slot, traced(SpanKind::coll_alltoall, [&] {
                        return comm.alltoall(ain.data(), ab, aout.data());
                    }),
                    "alltoall");
        for (int s = 0; s < n; ++s)
            if (std::memcmp(aout.data() + static_cast<std::size_t>(s) * ab,
                            ramp(static_cast<std::size_t>(s * 11 + me * 3) + ti),
                            ab) != 0) {
                tally.fail(slot, "alltoall block mismatch at step " + std::to_string(t));
                break;
            }

        tally.op_sim_ns[slot] = (comm.wtime() - t0) * 1e9;
    }
    traced(SpanKind::coll_barrier, [&] { comm.barrier(); });
}

}  // namespace

std::unique_ptr<Workload> make_stencil_coll(std::uint64_t seed, bool short_mode) {
    return std::make_unique<StencilColl>(seed, short_mode);
}

}  // namespace perfbench
