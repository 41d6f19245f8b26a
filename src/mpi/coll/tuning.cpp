#include "mpi/coll/tuning.hpp"

#include <array>
#include <cstddef>

#include "mpi/coll/sched.hpp"

namespace scimpi::mpi::coll {

namespace {

constexpr std::array<const char*, kOps> kOpNames = {
    "barrier", "bcast", "reduce", "allreduce",
    "allgather", "gather", "scatter", "alltoall",
};

constexpr std::array<const char*, 11> kAlgNames = {
    "auto", "p2p", "flat", "binomial", "ring",
    "pairwise", "flags", "rdouble", "reduce_bcast",
    "scatter_ag", "spread",
};

/// Which algorithms make sense for which operation: the table rows.
bool valid_for(Op op, Alg a) { return a == Alg::auto_ || find_alg(op, a) != nullptr; }

bool parse_op(const std::string& s, Op* out) {
    for (int i = 0; i < kOps; ++i) {
        if (s == kOpNames[static_cast<std::size_t>(i)]) {
            *out = static_cast<Op>(i);
            return true;
        }
    }
    return false;
}

bool parse_alg(const std::string& s, Alg* out) {
    for (std::size_t i = 0; i < kAlgNames.size(); ++i) {
        if (s == kAlgNames[i]) {
            *out = static_cast<Alg>(i);
            return true;
        }
    }
    return false;
}

}  // namespace

const char* op_name(Op op) { return kOpNames[static_cast<std::size_t>(op)]; }
const char* alg_name(Alg a) { return kAlgNames[static_cast<std::size_t>(a)]; }

Result<Tuning> Tuning::parse(const std::string& spec, const Config& cfg) {
    Tuning t;
    t.cfg_ = cfg;
    std::size_t pos = 0;
    while (pos <= spec.size() && !spec.empty()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty()) {
            if (pos > spec.size()) break;
            continue;
        }
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos) {
            // Global token: auto / p2p / seg.
            if (tok == "auto") {
                t.prefer_seg_ = false;
                t.seg_allowed_ = true;
            } else if (tok == "p2p") {
                t.seg_allowed_ = false;
                for (auto& f : t.force_) f = Alg::p2p;
            } else if (tok == "seg") {
                t.prefer_seg_ = true;
                t.seg_allowed_ = true;
            } else {
                return Status::error(Errc::invalid_argument,
                                     "SCIMPI_COLL: unknown token '" + tok + "'");
            }
            continue;
        }
        Op op{};
        Alg alg{};
        if (!parse_op(tok.substr(0, eq), &op))
            return Status::error(Errc::invalid_argument,
                                 "SCIMPI_COLL: unknown op '" + tok.substr(0, eq) + "'");
        if (!parse_alg(tok.substr(eq + 1), &alg))
            return Status::error(
                Errc::invalid_argument,
                "SCIMPI_COLL: unknown algorithm '" + tok.substr(eq + 1) + "'");
        if (!valid_for(op, alg))
            return Status::error(Errc::invalid_argument,
                                 std::string("SCIMPI_COLL: algorithm '") +
                                     alg_name(alg) + "' not valid for '" +
                                     op_name(op) + "'");
        t.force_[static_cast<std::size_t>(op)] = alg;
        if (alg != Alg::auto_ && find_alg(op, alg)->seg) t.seg_allowed_ = true;
        if (pos > spec.size()) break;
    }
    return t;
}

Alg Tuning::select(Op op, const SelectCtx& c) const {
    if (c.comm_size <= 1) return Alg::p2p;  // trivial; p2p algos no-op at n==1
    Alg a = force_[static_cast<std::size_t>(op)];
    if (a == Alg::auto_) a = pick_auto(op, c);
    // A segment algorithm without a usable segment set degrades to the
    // matching p2p implementation (also when SCIMPI_COLL=p2p turns segments off).
    if (find_alg(op, a)->seg && !c.segments_ok) {
        if (op == Op::allreduce) return Alg::rdouble;
        return Alg::p2p;
    }
    return a;
}

Alg Tuning::pick_auto(Op op, const SelectCtx& c) const {
    const std::size_t seg_min = prefer_seg_ ? 0 : cfg_.coll_seg_min;
    switch (op) {
        case Op::barrier:
            return Alg::flags;
        case Op::bcast:
            if (c.bytes < seg_min) return Alg::p2p;
            // Bandwidth-bound regime: scatter + ring allgather moves the
            // payload through the root's port once instead of per subtree.
            if (c.bytes >= cfg_.coll_ring_min && c.comm_size >= 4)
                return Alg::scatter_ag;
            // A flat fan-out wins while the root can stream to everyone
            // faster than relaying adds hops; past that the binomial tree
            // parallelizes the injection.
            return (c.comm_size <= 4 || c.bytes <= 4_KiB) ? Alg::flat
                                                          : Alg::binomial;
        case Op::reduce:
            return c.bytes < seg_min ? Alg::p2p : Alg::binomial;
        case Op::allreduce:
            // Pinned small-message fast path: recursive doubling over the
            // short/eager p2p protocol beats any segment setup below a few
            // KiB (latency-bound regime).
            if (c.bytes <= cfg_.coll_small_allreduce && !prefer_seg_)
                return Alg::rdouble;
            // Large payloads: bandwidth-optimal ring (reduce-scatter +
            // allgather). Medium: tree reduce + tree bcast over segments.
            if (c.bytes >= cfg_.coll_ring_min && c.comm_size >= 4)
                return Alg::ring;
            return Alg::reduce_bcast;
        case Op::allgather:
            return c.bytes < seg_min ? Alg::p2p : Alg::ring;
        case Op::gather:
        case Op::scatter:
            // Rooted, fan-in/fan-out limited by the root's port either way;
            // the p2p eager path is already near-optimal (see DESIGN.md §11).
            return Alg::p2p;
        case Op::alltoall:
            // Spread (all streams posted at once) dominates the stepwise
            // pairwise schedule, which stays available as an override.
            return c.bytes < seg_min ? Alg::p2p : Alg::spread;
    }
    return Alg::p2p;
}

}  // namespace scimpi::mpi::coll
