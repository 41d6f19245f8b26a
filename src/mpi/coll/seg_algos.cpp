// Collective algorithms over a CollSegmentSet: data moves by remote writes
// into the peers' exported collective segments (adapter PIO path) instead of
// through the two-sided protocol. Rank/step conventions mirror the p2p
// family so the two are drop-in replacements for each other.
#include <cstring>
#include <vector>

#include "mpi/coll/algos.hpp"
#include "mpi/coll/segment_set.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype/pack_ff.hpp"
#include "mpi/datatype/pack_generic.hpp"
#include "obs/span.hpp"

namespace scimpi::mpi::coll::seg {

namespace {

XferView typed(void* buf, int count, const Datatype& type) {
    return XferView{.data = buf, .count = count, .type = &type};
}
XferView typed(const void* buf, int count, const Datatype& type) {
    return typed(const_cast<void*>(buf), count, type);
}
XferView raw(void* buf) { return XferView{.data = buf}; }
XferView raw(const void* buf) { return XferView{.data = const_cast<void*>(buf)}; }

/// Copy the local contribution into block `block` of the typed allgather
/// result: canonical-pack `in`, then unpack that stream range into the
/// n*count-element view at `out` (what a peer's remote write would do).
Status copy_typed_block(Comm& c, const void* in, int count, const Datatype& type,
                        void* out, int n, int block) {
    const std::size_t be = type.size() * static_cast<std::size_t>(count);
    std::vector<std::byte> tmp(be);
    std::size_t pos = 0;
    const Status st = c.pack(in, count, type, tmp, &pos);
    if (!st) return st;
    const std::size_t spos = static_cast<std::size_t>(block) * be;
    const obs::Span pk(c.proc(), {.prof = obs::ProfState::pack});
    const bool ff = c.cluster().options().cfg.use_direct_pack_ff &&
                    type.flat().leaf_major_is_canonical();
    c.proc().delay(unpack_stream(&type, n * count, out, spos, be, tmp.data(), ff,
                                 c.rank_state().copy_model())
                       .cost);
    return Status::ok();
}

}  // namespace

Status bcast_flat(Comm& c, CollSegmentSet& s, void* buf, int count,
                  const Datatype& type, int root) {
    const int n = c.size();
    const std::size_t len = type.size() * static_cast<std::size_t>(count);
    const XferView v = typed(buf, count, type);
    if (c.rank() != root) return s.recv_stream(c, root, 0, v, 0, len);
    // Flat fan-out: the posted-write pipeline overlaps the streams, so the
    // root's injection port is the only serialization point.
    for (int i = 0; i < n; ++i) {
        if (i == root) continue;
        const Status st = s.send_stream(c, i, 0, v, 0, len);
        if (!st) return st;
    }
    return Status::ok();
}

Status bcast_binomial(Comm& c, CollSegmentSet& s, void* buf, int count,
                      const Datatype& type, int root) {
    const int n = c.size();
    const int vr = (c.rank() - root + n) % n;
    const std::size_t len = type.size() * static_cast<std::size_t>(count);
    const XferView v = typed(buf, count, type);
    int mask = 1;
    while (mask < n) {
        if ((vr & mask) != 0) {
            const int parent = ((vr - mask) + root) % n;
            const Status st = s.recv_stream(c, parent, 0, v, 0, len);
            if (!st) return st;
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
        if ((vr & (mask - 1)) == 0 && (vr & mask) == 0 && vr + mask < n) {
            const int child = (vr + mask + root) % n;
            const Status st = s.send_stream(c, child, 0, v, 0, len);
            if (!st) return st;
        }
        mask >>= 1;
    }
    return Status::ok();
}

Status reduce_binomial(Comm& c, CollSegmentSet& s, const double* in, double* out,
                       int n_elems, int root) {
    const int n = c.size();
    const int vr = (c.rank() - root + n) % n;
    const std::size_t bytes = static_cast<std::size_t>(n_elems) * sizeof(double);
    std::vector<double> acc(in, in + n_elems);
    std::vector<double> tmp(static_cast<std::size_t>(n_elems));
    int mask = 1;
    while (mask < n) {
        if ((vr & mask) != 0) {
            const int parent = ((vr - mask) + root) % n;
            const Status st = s.send_stream(c, parent, 0, raw(acc.data()), 0, bytes);
            if (!st) return st;
            break;
        }
        if (vr + mask < n) {
            const int child = (vr + mask + root) % n;
            const Status st = s.recv_stream(c, child, 0, raw(tmp.data()), 0, bytes);
            if (!st) return st;
            c.proc().delay(n_elems);
            for (int i = 0; i < n_elems; ++i)
                acc[static_cast<std::size_t>(i)] += tmp[static_cast<std::size_t>(i)];
        }
        mask <<= 1;
    }
    if (c.rank() == root) std::memcpy(out, acc.data(), bytes);
    return Status::ok();
}

Status allreduce_ring(Comm& c, CollSegmentSet& s, const double* in, double* out,
                      int n_elems) {
    const int n = c.size();
    const int r = c.rank();
    const int to = (r + 1) % n;
    const int from = (r - 1 + n) % n;
    // Element partition: block b covers [off[b], off[b+1]).
    std::vector<std::size_t> off(static_cast<std::size_t>(n) + 1, 0);
    const int per = n_elems / n;
    const int rem = n_elems % n;
    for (int b = 0; b < n; ++b)
        off[static_cast<std::size_t>(b) + 1] =
            off[static_cast<std::size_t>(b)] +
            static_cast<std::size_t>(per + (b < rem ? 1 : 0));
    auto blk_bytes = [&off](int b) {
        return (off[static_cast<std::size_t>(b) + 1] - off[static_cast<std::size_t>(b)]) *
               sizeof(double);
    };
    std::memcpy(out, in, static_cast<std::size_t>(n_elems) * sizeof(double));
    std::vector<double> tmp(static_cast<std::size_t>(per) + 1);
    // Phase 1, reduce-scatter ring: after step t every block has one more
    // contribution; rank r ends up owning the fully reduced block (r+1)%n.
    for (int t = 0; t < n - 1; ++t) {
        const int sb = (r - t + n) % n;
        const int rb = (r - t - 1 + n) % n;
        const Status st = s.xchg_streams(
            c, to, 0, raw(out + off[static_cast<std::size_t>(sb)]), 0, blk_bytes(sb),
            from, 0, raw(tmp.data()), 0, blk_bytes(rb));
        if (!st) return st;
        const int cnt =
            static_cast<int>(blk_bytes(rb) / sizeof(double));
        c.proc().delay(cnt);
        double* dst = out + off[static_cast<std::size_t>(rb)];
        for (int i = 0; i < cnt; ++i) dst[i] += tmp[static_cast<std::size_t>(i)];
    }
    // Phase 2, allgather ring of the owned blocks, straight into `out`.
    for (int t = 0; t < n - 1; ++t) {
        const int sb = (r + 1 - t + n) % n;
        const int rb = (r - t + n) % n;
        const Status st = s.xchg_streams(
            c, to, 0, raw(out + off[static_cast<std::size_t>(sb)]), 0, blk_bytes(sb),
            from, 0, raw(out + off[static_cast<std::size_t>(rb)]), 0, blk_bytes(rb));
        if (!st) return st;
    }
    return Status::ok();
}

Status allgather_ring(Comm& c, CollSegmentSet& s, const void* in,
                      std::size_t bytes_each, void* out) {
    const int n = c.size();
    const int r = c.rank();
    auto* dst = static_cast<std::byte*>(out);
    std::memcpy(dst + static_cast<std::size_t>(r) * bytes_each, in, bytes_each);
    for (int t = 0; t < n - 1; ++t) {
        const int sb = (r - t + n) % n;
        const int rb = (r - t - 1 + n) % n;
        const Status st = s.xchg_streams(
            c, (r + 1) % n, 0, raw(dst + static_cast<std::size_t>(sb) * bytes_each),
            0, bytes_each, (r - 1 + n) % n, 0,
            raw(dst + static_cast<std::size_t>(rb) * bytes_each), 0, bytes_each);
        if (!st) return st;
    }
    return Status::ok();
}

Status allgather_flat_typed(Comm& c, CollSegmentSet& s, const void* in, int count,
                            const Datatype& type, void* out) {
    const int n = c.size();
    const int r = c.rank();
    const std::size_t be = type.size() * static_cast<std::size_t>(count);
    // Pairwise exchange of typed blocks: the send side flattens `in`
    // straight into the peer's segment, the receive side unpacks straight
    // out of its own segment into block `from` of the result — the only
    // staging copy anywhere is the local self-block below.
    Status st = copy_typed_block(c, in, count, type, out, n, r);
    if (!st) return st;
    const XferView rv = typed(out, n * count, type);
    for (int t = 1; t < n; ++t) {
        const int to = (r + t) % n;
        const int from = (r - t + n) % n;
        st = s.xchg_streams(c, to, 0, typed(in, count, type), 0, be, from, 0, rv,
                            static_cast<std::size_t>(from) * be, be);
        if (!st) return st;
    }
    return Status::ok();
}

Status bcast_scatter_ag(Comm& c, CollSegmentSet& s, void* buf, int count,
                        const Datatype& type, int root) {
    const int n = c.size();
    const std::size_t len = type.size() * static_cast<std::size_t>(count);
    const XferView v = typed(buf, count, type);
    // Byte partition of the packed stream into n nearly-equal blocks; the
    // stream views pack/unpack arbitrary byte ranges, so blocks need not
    // align to datatype elements.
    const std::size_t base = len / static_cast<std::size_t>(n);
    const std::size_t rem = len % static_cast<std::size_t>(n);
    auto blk_len = [&](int i) {
        return base + (static_cast<std::size_t>(i) < rem ? 1 : 0);
    };
    auto blk_off = [&](int i) {
        const auto ui = static_cast<std::size_t>(i);
        return ui * base + std::min(ui, rem);
    };
    const int vr = (c.rank() - root + n) % n;  // virtual rank, root first
    auto rk = [&](int vrank) { return (vrank + root) % n; };
    // Phase 1 (van de Geijn): the root scatters block i to virtual rank i,
    // all streams concurrently, moving len bytes through its port once —
    // not once per child like the flat fan-out.
    if (vr == 0) {
        std::vector<CollSegmentSet::StreamOp> sends;
        sends.reserve(static_cast<std::size_t>(n) - 1);
        for (int i = 1; i < n; ++i)
            sends.push_back({.peer = rk(i), .slot = 0, .v = v,
                             .pos = blk_off(i), .len = blk_len(i)});
        const Status st = s.run_streams(c, sends, {});
        if (!st) return st;
    } else {
        const Status st = s.recv_stream(c, root, 0, v, blk_off(vr), blk_len(vr));
        if (!st) return st;
    }
    // Phase 2: ring allgather of the blocks over the virtual-rank ring. The
    // root receives (identical) bytes it already holds, which keeps every
    // stream's schedule uniform.
    for (int t = 1; t < n; ++t) {
        const int sb = (vr - t + 1 + n) % n;
        const int rb = (vr - t + n) % n;
        const Status st =
            s.xchg_streams(c, rk((vr + 1) % n), 0, v, blk_off(sb), blk_len(sb),
                           rk((vr - 1 + n) % n), 0, v, blk_off(rb), blk_len(rb));
        if (!st) return st;
    }
    return Status::ok();
}

Status alltoall_spread(Comm& c, CollSegmentSet& s, const void* in,
                       std::size_t bytes_each, void* out) {
    const int n = c.size();
    const int r = c.rank();
    const auto* src = static_cast<const std::byte*>(in);
    auto* dst = static_cast<std::byte*>(out);
    std::memcpy(dst + static_cast<std::size_t>(r) * bytes_each,
                src + static_cast<std::size_t>(r) * bytes_each, bytes_each);
    // Every pairwise stream posted at once: no step barriers, so per-pair
    // flag/ack latencies overlap and a slow edge delays only its own block.
    // Blocks land at fixed offsets, so the result is byte-identical to the
    // stepwise pairwise schedule.
    std::vector<CollSegmentSet::StreamOp> sends;
    std::vector<CollSegmentSet::StreamOp> recvs;
    sends.reserve(static_cast<std::size_t>(n) - 1);
    recvs.reserve(static_cast<std::size_t>(n) - 1);
    for (int t = 1; t < n; ++t) {
        const int to = (r + t) % n;
        const int from = (r - t + n) % n;
        sends.push_back({.peer = to, .slot = 0,
                         .v = raw(src + static_cast<std::size_t>(to) * bytes_each),
                         .pos = 0, .len = bytes_each});
        recvs.push_back({.peer = from, .slot = 0,
                         .v = raw(dst + static_cast<std::size_t>(from) * bytes_each),
                         .pos = 0, .len = bytes_each});
    }
    return s.run_streams(c, sends, recvs);
}

Status alltoall_pairwise(Comm& c, CollSegmentSet& s, const void* in,
                         std::size_t bytes_each, void* out) {
    const int n = c.size();
    const int r = c.rank();
    const auto* src = static_cast<const std::byte*>(in);
    auto* dst = static_cast<std::byte*>(out);
    std::memcpy(dst + static_cast<std::size_t>(r) * bytes_each,
                src + static_cast<std::size_t>(r) * bytes_each, bytes_each);
    // Same step/peer pairing as the p2p family, so the two paths produce
    // byte-identical results in the same deterministic order.
    for (int t = 1; t < n; ++t) {
        const int to = (r + t) % n;
        const int from = (r - t + n) % n;
        const Status st = s.xchg_streams(
            c, to, 0, raw(src + static_cast<std::size_t>(to) * bytes_each), 0,
            bytes_each, from, 0,
            raw(dst + static_cast<std::size_t>(from) * bytes_each), 0, bytes_each);
        if (!st) return st;
    }
    return Status::ok();
}

}  // namespace scimpi::mpi::coll::seg
