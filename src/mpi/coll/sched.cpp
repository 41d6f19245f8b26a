#include "mpi/coll/sched.hpp"

#include <algorithm>
#include <cstring>

#include "mpi/coll/coll.hpp"
#include "mpi/coll/segment_set.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype/pack_ff.hpp"
#include "obs/span.hpp"

namespace scimpi::mpi::coll {

void Sched::append(Sched&& o) {
    rounds.insert(rounds.end(), std::make_move_iterator(o.rounds.begin()),
                  std::make_move_iterator(o.rounds.end()));
    scratch.insert(scratch.end(), std::make_move_iterator(o.scratch.begin()),
                   std::make_move_iterator(o.scratch.end()));
}

namespace {

XferView raw(const void* p) { return XferView{.data = const_cast<void*>(p)}; }
XferView typed(const void* p, int count, const Datatype& t) {
    return XferView{.data = const_cast<void*>(p), .count = count, .type = &t};
}
Step send(int peer, XferView v, std::size_t pos, std::size_t len) {
    return Step{.send = true, .peer = peer, .v = v, .pos = pos, .len = len};
}
Step recv(int peer, XferView v, std::size_t pos, std::size_t len) {
    return Step{.send = false, .peer = peer, .v = v, .pos = pos, .len = len};
}

/// The bcast buffer as a view, and its packed length.
XferView buf_view(const Args& a) {
    return a.type != nullptr ? typed(a.out, a.count, *a.type) : raw(a.out);
}
std::size_t payload(const Args& a) {
    return a.type != nullptr ? a.type->size() * static_cast<std::size_t>(a.count)
                             : a.bytes;
}
/// Byte offset of block `i` of `be`-byte blocks.
std::size_t at(int i, std::size_t be) { return static_cast<std::size_t>(i) * be; }

/// acc[i] += tmp[i], charged as one ~1 ns flop per element.
std::function<void()> add_into(Rank* rk, double* acc, const double* tmp, int n) {
    return [rk, acc, tmp, n] {
        rk->cur_proc().delay(n);
        for (int i = 0; i < n; ++i) acc[i] += tmp[i];
    };
}

// ---- the descriptions ----

/// Dissemination: in round t every rank signals (r + 2^t) and hears from
/// (r - 2^t); ceil(log2 n) rounds synchronize everyone.
Sched barrier_dissemination(Comm& c, const Args& /*a*/) {
    Sched s;
    const int n = c.size();
    const int r = c.rank();
    std::byte* const token_byte = s.alloc<std::byte>(1);
    *token_byte = std::byte{0};
    const XferView token = raw(token_byte);
    for (int k = 1; k < n; k <<= 1)
        s.rounds.push_back({.steps = {recv((r - k + n) % n, token, 0, 1),
                                      send((r + k) % n, token, 0, 1)}});
    return s;
}

/// Binomial tree, rounds in descending-mask order: virtual rank vr receives
/// from vr - lowbit(vr), then forwards to vr + mask for every smaller mask,
/// largest first.
Sched bcast_binomial(Comm& c, const Args& a) {
    Sched s;
    const int n = c.size();
    const int vr = (c.rank() - a.root + n) % n;
    const XferView v = buf_view(a);
    const std::size_t len = payload(a);
    int top = 1;
    while (top * 2 < n) top *= 2;
    for (int mask = n > 1 ? top : 0; mask > 0; mask >>= 1) {
        Round& rd = s.rounds.emplace_back();
        if (vr % (2 * mask) == 0 && vr + mask < n)
            rd.steps.push_back(send((vr + mask + a.root) % n, v, 0, len));
        else if (vr % (2 * mask) == mask)
            rd.steps.push_back(recv((vr - mask + a.root) % n, v, 0, len));
    }
    return s;
}

/// Flat fan-out: the root streams to each rank in turn; the posted-write
/// pipeline overlaps the streams, so the root's port is the only
/// serialization point.
Sched bcast_flat(Comm& c, const Args& a) {
    Sched s;
    const int me = c.rank();
    const XferView v = buf_view(a);
    const std::size_t len = payload(a);
    for (int i = 0; i < c.size(); ++i) {
        if (i == a.root) continue;
        Round& rd = s.rounds.emplace_back();
        if (me == a.root) rd.steps.push_back(send(i, v, 0, len));
        if (me == i) rd.steps.push_back(recv(a.root, v, 0, len));
    }
    return s;
}

/// Van de Geijn: the root scatters n byte blocks of the packed stream to all
/// ranks at once (its port carries the payload once, not once per child),
/// then a ring allgather over the virtual ranks reassembles them. Blocks
/// need not align to datatype elements; the root receives bytes it already
/// holds, which keeps every ring step uniform.
Sched bcast_scatter_ag(Comm& c, const Args& a) {
    Sched s;
    const int n = c.size();
    const int vr = (c.rank() - a.root + n) % n;
    const XferView v = buf_view(a);
    const std::size_t len = payload(a);
    const std::size_t base = len / static_cast<std::size_t>(n);
    const std::size_t rem = len % static_cast<std::size_t>(n);
    auto blk_len = [&](int i) {
        return base + (static_cast<std::size_t>(i) < rem ? 1 : 0);
    };
    auto blk_off = [&](int i) {
        const auto ui = static_cast<std::size_t>(i);
        return ui * base + std::min(ui, rem);
    };
    auto rk = [&](int vrank) { return (vrank + a.root) % n; };
    Round& scatter = s.rounds.emplace_back();
    if (vr == 0) {
        for (int i = 1; i < n; ++i)
            scatter.steps.push_back(send(rk(i), v, blk_off(i), blk_len(i)));
    } else {
        scatter.steps.push_back(recv(a.root, v, blk_off(vr), blk_len(vr)));
    }
    for (int t = 1; t < n; ++t) {
        const int sb = (vr - t + 1 + n) % n;
        const int rb = (vr - t + n) % n;
        s.rounds.push_back(
            {.steps = {send(rk((vr + 1) % n), v, blk_off(sb), blk_len(sb)),
                       recv(rk((vr - 1 + n) % n), v, blk_off(rb), blk_len(rb))}});
    }
    return s;
}

/// Binomial reduction to `root` (sum of doubles): in round t a rank whose
/// lower bits are clear receives from vr + 2^t and adds, or sends its
/// partial sum to vr - 2^t and falls idle.
Sched reduce_binomial(Comm& c, const Args& a) {
    Sched s;
    const int n = c.size();
    const int vr = (c.rank() - a.root + n) % n;
    const int elems = static_cast<int>(a.bytes / sizeof(double));
    double* acc = s.alloc<double>(static_cast<std::size_t>(elems));
    double* tmp = s.alloc<double>(static_cast<std::size_t>(elems));
    std::memcpy(acc, a.in, a.bytes);
    for (int mask = 1; mask < n; mask <<= 1) {
        Round& rd = s.rounds.emplace_back();
        if ((vr & (mask - 1)) != 0) continue;  // already sent
        if ((vr & mask) != 0) {
            rd.steps.push_back(send((vr - mask + a.root) % n, raw(acc), 0, a.bytes));
        } else if (vr + mask < n) {
            rd.steps.push_back(recv((vr + mask + a.root) % n, raw(tmp), 0, a.bytes));
            rd.post = add_into(&c.rank_state(), acc, tmp, elems);
        }
    }
    Round& fin = s.rounds.emplace_back();
    if (c.rank() == a.root)
        fin.post = [out = a.out, acc, bytes = a.bytes] { std::memcpy(out, acc, bytes); };
    return s;
}

/// Binomial reduce to rank 0, then binomial bcast of the result.
Sched reduce_bcast(Comm& c, const Args& a) {
    Args r = a;
    r.root = 0;
    Sched s = reduce_binomial(c, r);
    s.append(bcast_binomial(c, Args{.out = a.out, .bytes = a.bytes}));
    return s;
}

/// Recursive doubling with the MPICH non-power-of-two fold/unfold: odd
/// ranks below 2*rem hand their vector to the even neighbour and sit the
/// exchange out; a+b == b+a element-wise, so every rank ends each exchange
/// with the bit-identical partial sum.
Sched allreduce_rdouble(Comm& c, const Args& a) {
    Sched s;
    const int n = c.size();
    const int r = c.rank();
    const int elems = static_cast<int>(a.bytes / sizeof(double));
    double* acc = s.alloc<double>(static_cast<std::size_t>(elems));
    double* tmp = s.alloc<double>(static_cast<std::size_t>(elems));
    std::memcpy(acc, a.in, a.bytes);
    const std::function<void()> add = add_into(&c.rank_state(), acc, tmp, elems);
    int pof2 = 1;
    while (pof2 * 2 <= n) pof2 *= 2;
    const int rem = n - pof2;
    const bool folded = r < 2 * rem;
    const bool odd = (r % 2) != 0;
    const int newrank = folded ? (odd ? -1 : r / 2) : r - rem;
    Round& fold = s.rounds.emplace_back();
    if (folded && odd) fold.steps.push_back(send(r - 1, raw(acc), 0, a.bytes));
    if (folded && !odd) {
        fold.steps.push_back(recv(r + 1, raw(tmp), 0, a.bytes));
        fold.post = add;
    }
    for (int mask = 1; mask < pof2; mask <<= 1) {
        Round& x = s.rounds.emplace_back();
        if (newrank < 0) continue;
        const int pn = newrank ^ mask;
        const int partner = pn < rem ? pn * 2 : pn + rem;
        // The send reads acc and completes before the post reduces into it.
        x.steps = {recv(partner, raw(tmp), 0, a.bytes),
                   send(partner, raw(acc), 0, a.bytes)};
        x.post = add;
    }
    Round& unfold = s.rounds.emplace_back();
    if (folded && odd) unfold.steps.push_back(recv(r - 1, raw(acc), 0, a.bytes));
    if (folded && !odd) unfold.steps.push_back(send(r + 1, raw(acc), 0, a.bytes));
    s.rounds.push_back(
        {.post = [out = a.out, acc, bytes = a.bytes] { std::memcpy(out, acc, bytes); }});
    return s;
}

/// Ring allreduce: a reduce-scatter ring leaves rank r owning the fully
/// reduced block (r+1)%n, then an allgather ring of the owned blocks
/// completes `out`. Bandwidth-optimal; every step moves 1/n of the vector.
Sched allreduce_ring(Comm& c, const Args& a) {
    Sched s;
    const int n = c.size();
    const int r = c.rank();
    const int to = (r + 1) % n;
    const int from = (r - 1 + n) % n;
    const int elems = static_cast<int>(a.bytes / sizeof(double));
    auto* out = static_cast<double*>(a.out);
    // Element partition: block b covers [off[b], off[b+1]).
    std::vector<std::size_t> off(static_cast<std::size_t>(n) + 1, 0);
    const int per = elems / n;
    const auto extra = static_cast<std::size_t>(elems % n);
    for (std::size_t b = 0; b < off.size() - 1; ++b)
        off[b + 1] = off[b] + static_cast<std::size_t>(per + (b < extra ? 1 : 0));
    auto boff = [&off](int b) { return off[static_cast<std::size_t>(b)] * sizeof(double); };
    auto blen = [boff](int b) { return boff(b + 1) - boff(b); };
    std::memcpy(out, a.in, a.bytes);
    double* tmp = s.alloc<double>(static_cast<std::size_t>(per) + 1);
    for (int t = 0; t < n - 1; ++t) {
        const int sb = (r - t + n) % n;
        const int rb = (r - t - 1 + n) % n;
        const int cnt = static_cast<int>(blen(rb) / sizeof(double));
        s.rounds.push_back(
            {.steps = {send(to, raw(out), boff(sb), blen(sb)),
                       recv(from, raw(tmp), 0, blen(rb))},
             .post = add_into(&c.rank_state(), out + boff(rb) / sizeof(double), tmp, cnt)});
    }
    for (int t = 0; t < n - 1; ++t) {
        const int sb = (r + 1 - t + n) % n;
        const int rb = (r - t + n) % n;
        s.rounds.push_back({.steps = {send(to, raw(out), boff(sb), blen(sb)),
                                      recv(from, raw(out), boff(rb), blen(rb))}});
    }
    return s;
}

/// Ring allgather of raw blocks: in step t pass along the block that
/// originated at (r - t); the block sent in step t arrived in step t-1.
/// `in` may already be block r of `out`.
Sched allgather_ring(Comm& c, const Args& a) {
    Sched s;
    const int n = c.size();
    const int r = c.rank();
    const std::size_t be = a.bytes;
    std::byte* mine = static_cast<std::byte*>(a.out) + at(r, be);
    if (mine != a.in) std::memcpy(mine, a.in, be);
    for (int t = 0; t < n - 1; ++t) {
        const int sb = (r - t + n) % n;
        const int rb = (r - t - 1 + n) % n;
        s.rounds.push_back({.steps = {send((r + 1) % n, raw(a.out), at(sb, be), be),
                                      recv((r - 1 + n) % n, raw(a.out), at(rb, be), be)}});
    }
    return s;
}

/// Typed allgather staged through the canonical packed form: pack the local
/// block into its slot of a stage, ring the raw stage, unpack the whole
/// stage (the packed stream of n x count elements) into `out`.
Sched allgather_staged(Comm& c, const Args& a) {
    const int n = c.size();
    const std::size_t be = payload(a);
    const std::size_t total = static_cast<std::size_t>(n) * be;
    Sched s;
    std::byte* stage = s.alloc<std::byte>(total);
    Comm* cp = &c;
    s.rounds.push_back({.post = [cp, a, stage, total, be] {
        std::size_t pos = at(cp->rank(), be);
        (void)cp->pack(a.in, a.count, *a.type, {stage, total}, &pos);
    }});
    s.append(
        allgather_ring(c, Args{.in = stage + at(c.rank(), be), .out = stage, .bytes = be}));
    s.rounds.push_back({.post = [cp, a, stage, total, n] {
        std::size_t pos = 0;
        (void)cp->unpack({stage, total}, &pos, a.out, n * a.count, *a.type);
    }});
    return s;
}

/// Pairwise exchange of typed blocks over segments: the sender flattens its
/// block straight into the peer's segment, the receiver unpacks straight
/// out of its own into block `from` of the result. The only staging copy
/// is the local self-block, done up front.
Sched allgather_pairwise_typed(Comm& c, const Args& a) {
    const int n = c.size();
    const int r = c.rank();
    const std::size_t be = payload(a);
    Sched s;
    Comm* cp = &c;
    s.rounds.push_back({.post = [cp, a, be, n, r] {
        const auto tmp = std::make_unique_for_overwrite<std::byte[]>(be);
        std::size_t pos = 0;
        (void)cp->pack(a.in, a.count, *a.type, {tmp.get(), be}, &pos);
        const obs::Span pk(cp->proc(), {.prof = obs::ProfState::pack});
        const bool ff = ff_may_move(cp->cluster().options().cfg, *a.type);
        cp->proc().delay(unpack_stream(a.type, n * a.count, a.out, at(r, be), be,
                                       tmp.get(), ff, cp->rank_state().copy_model())
                             .cost);
    }});
    const XferView sv = typed(a.in, a.count, *a.type);
    const XferView rv = typed(a.out, n * a.count, *a.type);
    for (int t = 1; t < n; ++t) {
        const int from = (r - t + n) % n;
        s.rounds.push_back(
            {.steps = {send((r + t) % n, sv, 0, be), recv(from, rv, at(from, be), be)}});
    }
    return s;
}

Sched allgather_p2p(Comm& c, const Args& a) {
    return a.type != nullptr ? allgather_staged(c, a) : allgather_ring(c, a);
}
Sched allgather_seg(Comm& c, const Args& a) {
    return a.type != nullptr ? allgather_pairwise_typed(c, a) : allgather_ring(c, a);
}

/// Rooted fan-in: the root receives block i from rank i, one rank per round.
Sched gather_flat(Comm& c, const Args& a) {
    Sched s;
    const int me = c.rank();
    const std::size_t be = a.bytes;
    if (me == a.root) std::memcpy(static_cast<std::byte*>(a.out) + at(me, be), a.in, be);
    for (int i = 0; i < c.size(); ++i) {
        if (i == a.root) continue;
        Round& rd = s.rounds.emplace_back();
        if (me == a.root) rd.steps.push_back(recv(i, raw(a.out), at(i, be), be));
        if (me == i) rd.steps.push_back(send(a.root, raw(a.in), 0, be));
    }
    return s;
}

/// Rooted fan-out: the root sends block i to rank i, one rank per round.
Sched scatter_flat(Comm& c, const Args& a) {
    Sched s;
    const int me = c.rank();
    const std::size_t be = a.bytes;
    if (me == a.root)
        std::memcpy(a.out, static_cast<const std::byte*>(a.in) + at(me, be), be);
    for (int i = 0; i < c.size(); ++i) {
        if (i == a.root) continue;
        Round& rd = s.rounds.emplace_back();
        if (me == a.root) rd.steps.push_back(send(i, raw(a.in), at(i, be), be));
        if (me == i) rd.steps.push_back(recv(a.root, raw(a.out), 0, be));
    }
    return s;
}

/// Pairwise exchange: in step t swap with (r + t) and (r - t). The step
/// fixes the pairing, so the output is deterministic for any arrival order.
Sched alltoall_pairwise(Comm& c, const Args& a) {
    Sched s;
    const int n = c.size();
    const int r = c.rank();
    const std::size_t be = a.bytes;
    std::memcpy(static_cast<std::byte*>(a.out) + at(r, be),
                static_cast<const std::byte*>(a.in) + at(r, be), be);
    for (int t = 1; t < n; ++t) {
        const int to = (r + t) % n;
        const int from = (r - t + n) % n;
        s.rounds.push_back({.steps = {send(to, raw(a.in), at(to, be), be),
                                      recv(from, raw(a.out), at(from, be), be)}});
    }
    return s;
}

/// Every pairwise stream in one round: no step barriers, so per-pair
/// latencies overlap and a slow edge delays only its own block. Blocks land
/// at fixed offsets, so the bytes equal the pairwise schedule's.
Sched alltoall_spread(Comm& c, const Args& a) {
    Sched s = alltoall_pairwise(c, a);
    Round all;
    for (const Round& rd : s.rounds)
        all.steps.insert(all.steps.end(), rd.steps.begin(), rd.steps.end());
    s.rounds.assign(1, std::move(all));
    return s;
}

/// The algorithm table: every (op, alg) pair the engine accepts, its
/// description and its transport. Tuning validates overrides against it and
/// the dispatcher routes through it.
constexpr AlgEntry kTable[] = {
    {Op::barrier, Alg::p2p, false, barrier_dissemination},
    {Op::barrier, Alg::flags, true, nullptr},
    {Op::bcast, Alg::p2p, false, bcast_binomial},
    {Op::bcast, Alg::flat, true, bcast_flat},
    {Op::bcast, Alg::binomial, true, bcast_binomial},
    {Op::bcast, Alg::scatter_ag, true, bcast_scatter_ag},
    {Op::reduce, Alg::p2p, false, reduce_binomial},
    {Op::reduce, Alg::binomial, true, reduce_binomial},
    {Op::allreduce, Alg::p2p, false, reduce_bcast},
    {Op::allreduce, Alg::rdouble, false, allreduce_rdouble},
    {Op::allreduce, Alg::ring, true, allreduce_ring},
    {Op::allreduce, Alg::reduce_bcast, true, reduce_bcast},
    {Op::allgather, Alg::p2p, false, allgather_p2p},
    {Op::allgather, Alg::flat, true, allgather_seg},
    {Op::allgather, Alg::ring, true, allgather_seg},
    {Op::gather, Alg::p2p, false, gather_flat},
    {Op::scatter, Alg::p2p, false, scatter_flat},
    {Op::alltoall, Alg::p2p, false, alltoall_pairwise},
    {Op::alltoall, Alg::pairwise, true, alltoall_pairwise},
    {Op::alltoall, Alg::spread, true, alltoall_spread},
};

}  // namespace

const AlgEntry* find_alg(Op op, Alg alg) {
    for (const AlgEntry& e : kTable)
        if (e.op == op && e.alg == alg) return &e;
    return nullptr;
}

// ---- executors ----

void issue_round(Rank& rk, const Round& r, std::span<const int> members, int tag,
                 int context, std::vector<std::shared_ptr<SendOp>>& tx,
                 std::vector<std::shared_ptr<RecvOp>>& rx) {
    // Pre-post the receives before the sends: a peer's send for this round
    // can then always land on a posted receive.
    for (const bool sending : {false, true}) {
        for (const Step& st : r.steps) {
            if (st.send != sending) continue;
            const int peer = members[static_cast<std::size_t>(st.peer)];
            const bool typed_view = st.v.type != nullptr;
            const std::size_t full =
                typed_view ? st.v.type->size() * static_cast<std::size_t>(st.v.count) : 0;
            const bool whole = !typed_view || (st.pos == 0 && st.len == full);
            SCIMPI_REQUIRE(whole, "coll: partial typed view on the two-sided path");
            auto* data = static_cast<std::byte*>(st.v.data) + st.pos;
            const int count = typed_view ? st.v.count : static_cast<int>(st.len);
            const Datatype type = typed_view ? *st.v.type : Datatype::byte_();
            if (sending)
                tx.push_back(rk.isend(data, count, type, peer, tag, context));
            else
                rx.push_back(rk.irecv(data, count, type, peer, tag, context));
        }
    }
}

Status run_p2p(Comm& c, Op op, const Sched& s) {
    SCIMPI_REQUIRE(s.rounds.size() <= static_cast<std::size_t>(kTagBand),
                   "coll: schedule longer than its tag band");
    Rank& rk = c.rank_state();
    const int base = kTagColl - static_cast<int>(op) * kTagBand;
    std::vector<std::shared_ptr<SendOp>> tx;
    std::vector<std::shared_ptr<RecvOp>> rx;
    for (std::size_t i = 0; i < s.rounds.size(); ++i) {
        const Round& r = s.rounds[i];
        issue_round(rk, r, c.members(), base - static_cast<int>(i), c.context(), tx, rx);
        for (const auto& t : tx) rk.wait(*t);
        for (const auto& x : rx) rk.wait(*x);
        for (const auto& x : rx)
            if (!x->status) return x->status;
        for (const auto& t : tx)
            if (!t->status) return t->status;
        tx.clear();
        rx.clear();
        if (r.post) r.post();
    }
    return Status::ok();
}

Status run_seg(Comm& c, CollSegmentSet& set, const Sched& s) {
    for (const Round& r : s.rounds) {
        if (!r.steps.empty()) {
            const Status st = set.run_streams(c, r.steps);
            if (!st) return st;
        }
        if (r.post) r.post();
    }
    return Status::ok();
}

}  // namespace scimpi::mpi::coll
