// Engine dispatch: Comm's collective methods land here, an algorithm is
// selected (tuning.hpp), the per-communicator segment set is bootstrapped on
// first segment-routed use, the algorithm's round schedule runs on the
// executor its table entry names (sched.hpp), and the call is recorded in
// coll.* metrics and the trace.
#include <cstring>
#include <memory>
#include <string>

#include "mpi/coll/coll.hpp"
#include "mpi/coll/sched.hpp"
#include "mpi/coll/segment_set.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"
#include "obs/span.hpp"

namespace scimpi::mpi::coll {

CollRuntime::CollRuntime(Cluster& cluster, const std::string& spec)
    : cluster_(cluster) {
    auto parsed = Tuning::parse(spec, cluster.options().cfg);
    SCIMPI_REQUIRE(parsed.is_ok(), parsed.status().to_string());
    tuning_ = parsed.value();
    obs::MetricsRegistry& reg = cluster.metrics();
    for (int i = 0; i < kOps; ++i) {
        const std::string base = std::string("coll.") + op_name(static_cast<Op>(i));
        cm_.calls[i] = &reg.counter(base + ".calls");
        cm_.latency[i] = &reg.histogram(base + ".latency_ns");
    }
    cm_.seg_ops = &reg.counter("coll.seg_ops");
    cm_.p2p_ops = &reg.counter("coll.p2p_ops");
    cm_.seg_bytes = &reg.counter("coll.seg_bytes");
    cm_.seg_chunks = &reg.counter("coll.seg_chunks");
    cm_.ff_seg_packs = &reg.counter("coll.ff_seg_packs");
    cm_.generic_seg_packs = &reg.counter("coll.generic_seg_packs");
    cm_.fallbacks = &reg.counter("coll.fallbacks");
    cm_.fallback_recvs = &reg.counter("coll.fallback_recvs");
    cm_.ack_drops = &reg.counter("coll.ack_drops");
    cm_.degraded_edges = &reg.counter("coll.degraded_edges");
    cm_.segment_sets = &reg.counter("coll.segment_sets");
    cm_.small_allreduce = &reg.counter("coll.small_allreduce");
}

CollRuntime::~CollRuntime() = default;

void CollRuntime::release_sets() { sets_.clear(); }

CollSegmentSet* CollRuntime::ensure_set(Comm& comm) {
    auto& slot = sets_[comm.context()];
    if (!slot)
        slot = std::make_unique<CollSegmentSet>(cluster_, comm.size(), cm_);
    if (!slot->initialized(comm.rank())) slot->init_member(comm);
    return slot->usable() ? slot.get() : nullptr;
}

namespace {

/// Select the algorithm and, when it is a segment one, bootstrap the set.
/// Selection is deterministic in (op, bytes, comm shape), so every member
/// reaches the bootstrap (and its internal allgather) together; when the
/// set turns out unusable, everyone re-selects with segments off.
Alg choose(Comm& c, Op op, std::size_t bytes, CollSegmentSet** set_out) {
    Cluster& cl = c.cluster();
    CollRuntime& rt = cl.coll_runtime();
    const ClusterOptions& opt = cl.options();
    SelectCtx ctx{
        .bytes = bytes,
        .comm_size = c.size(),
        .segments_ok = rt.tuning().segments_enabled() && c.size() > 1,
        .torus = opt.torus_w > 0,
        .procs_per_node = opt.procs_per_node,
    };
    Alg a = rt.tuning().select(op, ctx);
    if (find_alg(op, a)->seg) {
        CollSegmentSet* s = rt.ensure_set(c);
        if (s == nullptr) {
            ctx.segments_ok = false;
            a = rt.tuning().select(op, ctx);
        } else {
            *set_out = s;
        }
    }
    return a;
}

/// Per-call bookkeeping: invocation counter, routing counter, a per-(op,
/// algorithm) counter, the call's spans and the latency histogram on exit.
///
/// The call is two spans over the same interval, both labelled "op:alg":
/// the trace slice carries the payload size, while the graph's transparent
/// container node carries none (the bytes sit on the transfer nodes inside
/// it), so the critical-path walk sees only the work it contains.
class OpCall {
public:
    OpCall(Comm& c, Op op, Alg alg, std::size_t bytes, bool seg)
        : c_(c),
          op_(op),
          t0_(c.proc().now()),
          slice_(c.proc(), {.name = op_name(op),
                            .detail = alg_name(alg),
                            .trace = "coll",
                            .bytes = bytes}),
          container_(c.proc(),
                     {.name = op_name(op), .detail = alg_name(alg), .ev = obs::EvCat::coll}) {
        CollMetrics& m = c.cluster().coll_runtime().metrics();
        m.calls[static_cast<std::size_t>(op)]->inc();
        (seg ? m.seg_ops : m.p2p_ops)->inc();
        c.cluster()
            .metrics()
            .counter(std::string("coll.") + op_name(op) + "." + alg_name(alg))
            .inc();
        // Causal graph: a zero-width entry marker feeds the epoch's
        // latest-entry slot (the straggler everyone else waits for).
        if (c.proc().engine().evgraph().enabled()) {
            CollRuntime& rt = c.cluster().coll_runtime();
            seq_ = rt.next_coll_seq(c.context(), c.rank());
            entry_ev_ = obs::Span::point(c.proc(),
                                         {.name = "coll:enter", .ev = obs::EvCat::proto});
            rt.coll_enter(c.context(), seq_, entry_ev_);
        }
    }
    ~OpCall() {
        CollMetrics& m = c_.cluster().coll_runtime().metrics();
        m.latency[static_cast<std::size_t>(op_)]->record(
            static_cast<std::uint64_t>(c_.proc().now() - t0_));
        const std::uint64_t exit_ev = container_.close();
        if (entry_ev_ != 0) {
            // The wait_sync edge from the epoch's latest entry routes early
            // exiters' time to the rank that arrived last.
            const std::uint64_t latest = c_.cluster().coll_runtime().coll_exit(
                c_.context(), seq_, c_.size());
            if (latest != 0 && latest != entry_ev_)
                c_.proc().engine().land(c_.proc(), {.node = latest}, exit_ev,
                                        obs::EvCat::wait_sync, false);
        }
    }
    OpCall(const OpCall&) = delete;
    OpCall& operator=(const OpCall&) = delete;

private:
    Comm& c_;
    Op op_;
    SimTime t0_;
    obs::Span slice_;
    obs::Span container_;
    std::uint64_t entry_ev_ = 0;
    std::uint64_t seq_ = 0;
};

/// Select, route and run one collective call (`bytes` of payload per rank).
Status run(Comm& c, Op op, std::size_t bytes, const Args& a) {
    CollSegmentSet* set = nullptr;
    const Alg alg = choose(c, op, bytes, &set);
    const AlgEntry& e = *find_alg(op, alg);
    const OpCall call(c, op, alg, bytes, set != nullptr);
    if (alg == Alg::rdouble && bytes <= c.cluster().options().cfg.coll_small_allreduce)
        c.cluster().coll_runtime().metrics().small_allreduce->inc();
    SCIMPI_REQUIRE(!e.seg || set != nullptr, "coll: segment algorithm without a set");
    if (e.build == nullptr) {
        set->barrier_flags(c);
        return Status::ok();
    }
    const Sched s = e.build(c, a);
    return e.seg ? run_seg(c, *set, s) : run_p2p(c, op, s);
}

}  // namespace

}  // namespace scimpi::mpi::coll

// ---- Comm collective methods ----
namespace scimpi::mpi {

using coll::Op;

void Comm::barrier() {
    if (size() > 1) (void)coll::run(*this, Op::barrier, 0, {});
}

Status Comm::bcast(void* buf, int count, const Datatype& ty, int root) {
    if (size() <= 1) return Status::ok();
    Datatype type = ty;
    if (!type.committed()) type.commit(cluster_->options().cfg);
    return coll::run(*this, Op::bcast, type.size() * static_cast<std::size_t>(count),
                     {.out = buf, .count = count, .type = &type, .root = root});
}

Status Comm::reduce_sum(const double* in, double* out, int n, int root) {
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
    if (size() <= 1) {
        std::memcpy(out, in, bytes);
        return Status::ok();
    }
    return coll::run(*this, Op::reduce, bytes,
                     {.in = in, .out = out, .bytes = bytes, .root = root});
}

Status Comm::allreduce_sum(const double* in, double* out, int n) {
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
    if (size() <= 1) {
        std::memcpy(out, in, bytes);
        return Status::ok();
    }
    return coll::run(*this, Op::allreduce, bytes, {.in = in, .out = out, .bytes = bytes});
}

Status Comm::allgather(const void* in, std::size_t bytes_each, void* out) {
    if (size() <= 1) {
        std::memcpy(out, in, bytes_each);
        return Status::ok();
    }
    return coll::run(*this, Op::allgather, bytes_each,
                     {.in = in, .out = out, .bytes = bytes_each});
}

Status Comm::allgather(const void* in, int count, const Datatype& ty, void* out) {
    Datatype type = ty;
    if (!type.committed()) type.commit(cluster_->options().cfg);
    const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
    if (size() <= 1) {
        // Self-block copy through the canonical stream.
        const auto tmp = std::make_unique_for_overwrite<std::byte[]>(bytes);
        std::size_t pos = 0;
        Status st = pack(in, count, type, {tmp.get(), bytes}, &pos);
        if (!st) return st;
        pos = 0;
        return unpack({tmp.get(), bytes}, &pos, out, count, type);
    }
    return coll::run(*this, Op::allgather, bytes,
                     {.in = in, .out = out, .count = count, .type = &type});
}

Status Comm::gather(const void* in, std::size_t bytes_each, void* out, int root) {
    if (size() <= 1) {
        std::memcpy(out, in, bytes_each);
        return Status::ok();
    }
    return coll::run(*this, Op::gather, bytes_each,
                     {.in = in, .out = out, .bytes = bytes_each, .root = root});
}

Status Comm::scatter(const void* in, std::size_t bytes_each, void* out, int root) {
    if (size() <= 1) {
        std::memcpy(out, in, bytes_each);
        return Status::ok();
    }
    return coll::run(*this, Op::scatter, bytes_each,
                     {.in = in, .out = out, .bytes = bytes_each, .root = root});
}

Status Comm::alltoall(const void* in, std::size_t bytes_each, void* out) {
    if (size() <= 1) {
        std::memcpy(out, in, bytes_each);
        return Status::ok();
    }
    return coll::run(*this, Op::alltoall, bytes_each,
                     {.in = in, .out = out, .bytes = bytes_each});
}

}  // namespace scimpi::mpi
