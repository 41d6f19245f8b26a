#include "mpi/coll/segment_set.hpp"

#include <algorithm>
#include <cstring>

#include "check/checker.hpp"
#include "fault/retry.hpp"
#include "mpi/chunk_writer.hpp"
#include "mpi/coll/coll.hpp"
#include "mpi/comm.hpp"
#include "obs/span.hpp"

namespace scimpi::mpi::coll {

CollSegmentSet::CollSegmentSet(Cluster& cluster, int comm_size, CollMetrics& cm)
    : cluster_(cluster), cm_(cm), n_(comm_size) {
    const Config& cfg = cluster_.options().cfg;
    const std::size_t areas = static_cast<std::size_t>(n_) * 2;  // double-buffered
    chunk_ = cfg.coll_chunk;
    if (areas * chunk_ > cfg.coll_seg_max) chunk_ = cfg.coll_seg_max / areas;
    chunk_ &= ~static_cast<std::size_t>(255);  // keep chunk areas line-aligned
    if (chunk_ < 2_KiB) chunk_ = 0;            // too many ranks for the cap
    data_bytes_ = areas * chunk_;
    ctrl_bytes_ =
        static_cast<std::size_t>(kBarrierRounds + 2 * n_) * sizeof(std::uint64_t);
    members_.resize(static_cast<std::size_t>(n_));
    for (Member& m : members_) {
        m.tx.assign(static_cast<std::size_t>(n_), {});
        m.rx.assign(static_cast<std::size_t>(n_), {});
        m.degraded.assign(static_cast<std::size_t>(n_), 0);
        m.ctrl_to.resize(static_cast<std::size_t>(n_));
        m.data_to.resize(static_cast<std::size_t>(n_));
    }
}

CollSegmentSet::~CollSegmentSet() {
    for (Member& m : members_) {
        if (!m.alloc_ok) continue;
        (void)cluster_.directory().destroy(m.data_seg);
        (void)cluster_.directory().destroy(m.ctrl_seg);
        (void)cluster_.memory(m.node).free(m.data_mem);
        (void)cluster_.memory(m.node).free(m.ctrl_mem);
    }
}

void CollSegmentSet::init_member(Comm& c) {
    Member& m = member(c.rank());
    if (m.init_done) return;
    m.init_done = true;
    m.node = c.node();
    bool ok = chunk_ != 0;
    if (ok) {
        auto ctrl = cluster_.memory(m.node).allocate(ctrl_bytes_);
        auto data = cluster_.memory(m.node).allocate(data_bytes_);
        if (ctrl.is_ok() && data.is_ok()) {
            m.ctrl_mem = ctrl.value();
            m.data_mem = data.value();
            std::memset(m.ctrl_mem.data(), 0, m.ctrl_mem.size());
            m.ctrl_seg = cluster_.directory().create(m.node, m.ctrl_mem);
            m.data_seg = cluster_.directory().create(m.node, m.data_mem);
            // Only the data segment carries user payload; the control words
            // are the synchronization protocol itself and stay unwatched.
            if (check::Checker* ck = cluster_.checker())
                ck->watch_segment(m.data_seg.node, m.data_seg.id);
            m.alloc_ok = true;
        } else {
            if (ctrl.is_ok()) (void)cluster_.memory(m.node).free(ctrl.value());
            if (data.is_ok()) (void)cluster_.memory(m.node).free(data.value());
            ok = false;
        }
    }
    // Veto allgather: the set is usable only if every member allocated, so
    // all ranks take identical paths even when one arena is exhausted.
    std::uint8_t mine = ok ? 1 : 0;
    std::vector<std::uint8_t> all(static_cast<std::size_t>(n_));
    const Args args{.in = &mine, .out = all.data(), .bytes = 1};
    const Status st =
        run_p2p(c, Op::allgather, find_alg(Op::allgather, Alg::p2p)->build(c, args));
    SCIMPI_REQUIRE(st.is_ok(),
                   "collective segment-set bootstrap failed: " + st.to_string());
    bool every = true;
    for (const std::uint8_t b : all) every = every && b != 0;
    usable_ = every;
    if (!verdict_known_) {
        verdict_known_ = true;
        if (usable_) cm_.segment_sets->inc();
    }
}

std::size_t CollSegmentSet::barrier_off(int round) const {
    return static_cast<std::size_t>(round) * sizeof(std::uint64_t);
}

std::size_t CollSegmentSet::ready_off(int writer) const {
    return static_cast<std::size_t>(kBarrierRounds + writer) * sizeof(std::uint64_t);
}

std::size_t CollSegmentSet::ack_off(int reader) const {
    return static_cast<std::size_t>(kBarrierRounds + n_ + reader) * sizeof(std::uint64_t);
}

std::size_t CollSegmentSet::area_off(int writer, int parity) const {
    return (static_cast<std::size_t>(writer) * 2 + static_cast<std::size_t>(parity)) * chunk_;
}

smi::Region& CollSegmentSet::ctrl_region(int me, int target) {
    Member& m = member(me);
    auto& slot = m.ctrl_to[static_cast<std::size_t>(target)];
    if (!slot) {
        auto imp = cluster_.directory().import(m.node, member(target).ctrl_seg);
        SCIMPI_REQUIRE(imp.is_ok(), "coll: control-segment import failed");
        slot.emplace(smi::Region::sci(imp.value(), cluster_.adapter(m.node)));
    }
    return *slot;
}

smi::Region& CollSegmentSet::data_region(int me, int target) {
    Member& m = member(me);
    auto& slot = m.data_to[static_cast<std::size_t>(target)];
    if (!slot) {
        auto imp = cluster_.directory().import(m.node, member(target).data_seg);
        SCIMPI_REQUIRE(imp.is_ok(), "coll: data-segment import failed");
        slot.emplace(smi::Region::sci(imp.value(), cluster_.adapter(m.node)));
    }
    return *slot;
}

std::uint64_t CollSegmentSet::read_my_word(Comm& c, std::size_t word_off) {
    // Polling a flag word of my own exported control segment is a plain
    // cached load (all waiting happens on local memory, the SCI way), so it
    // carries no simulated cost — unlike a loopback Region::read, which
    // charges the copy model per call.
    std::uint64_t v = 0;
    std::memcpy(&v, member(c.rank()).ctrl_mem.data() + word_off, sizeof v);
    return v;
}

Status CollSegmentSet::put_word(Comm& c, int target, std::size_t word_off,
                                std::uint64_t v) {
    smi::Region& r = ctrl_region(c.rank(), target);
    const Status st = r.write(c.proc(), word_off, &v, sizeof v);
    if (!st) return st;
    sim::WaitQueue* q = &cluster_.rank_state(c.world_rank(target)).coll_waiters();
    if (!r.remote()) {
        q->wake_all();
        return st;
    }
    // The store is posted, not flushed: it becomes visible write_latency
    // after the call, so schedule the host-side wake for exactly that moment
    // instead of stalling this process in a store barrier. Posted stores of
    // one process share that constant pipeline latency, so the flag can
    // never overtake the chunk data written just before it.
    c.proc().engine().after(cluster_.fabric().params().write_latency + 1,
                            [q] { q->wake_all(); });
    return st;
}

void CollSegmentSet::park(Comm& c) {
    const obs::Span prof(c.proc(), {.prof = obs::ProfState::wait_sync});
    c.rank_state().coll_waiters().park(c.proc(), "coll segment wait");
}

Status CollSegmentSet::publish_chunk(Comm& c, ActiveSend& s, std::size_t ci) {
    const int me = c.rank();
    sim::Process& self = c.proc();
    const Config& cfg = cluster_.options().cfg;
    const std::uint64_t seq = s.base + ci + 1;
    const std::size_t clen = std::min(chunk_, s.len - ci * chunk_);
    const std::size_t spos = s.pos + ci * chunk_;
    const std::size_t doff = area_off(me, static_cast<int>(seq & 1));
    // The paper's §3 trick applied to collectives: a type the policy admits
    // is gathered straight into the remote segment, no staging copy.
    const ChunkWrite w = write_chunk(self, data_region(me, s.to), doff,
                                     {s.v.type, s.v.count, s.v.data}, spos, clen, cfg,
                                     c.rank_state().copy_model(), "coll:write");
    if (!w.status) return w.status;
    const Status st = put_word(c, s.to, ready_off(me), seq);  // wakes the reader
    if (!st) return st;
    member(me).tx[static_cast<std::size_t>(s.to)].sent = seq;
    cm_.seg_chunks->inc();
    cm_.seg_bytes->add(clen);
    if (w.path == PackPath::ff) cm_.ff_seg_packs->inc();
    if (w.path == PackPath::generic) cm_.generic_seg_packs->inc();
    return Status::ok();
}

void CollSegmentSet::consume_chunk(Comm& c, ActiveRecv& r, std::size_t ci) {
    const int me = c.rank();
    sim::Process& self = c.proc();
    Member& m = member(me);
    const Config& cfg = cluster_.options().cfg;
    const std::uint64_t seq = r.base + ci + 1;
    const std::size_t clen = std::min(chunk_, r.len - ci * chunk_);
    const std::size_t spos = r.pos + ci * chunk_;
    const std::size_t doff = area_off(r.from, static_cast<int>(seq & 1));
    // The observed ready flag is the happens-before edge writer -> reader.
    if (check::Checker* ck = cluster_.checker())
        ck->on_p2p(c.world_rank(r.from), c.world_rank(me));
    if (r.v.type == nullptr || r.v.type->is_contiguous()) {
        (void)data_region(me, me).read(
            self, doff, static_cast<std::byte*>(r.v.data) + spos, clen);
    } else {
        // Typed consume: unpack directly out of the segment memory (the
        // loopback read cost is the unpack itself).
        if (check::Checker* ck = cluster_.checker())
            ck->on_segment_access(m.data_seg.node, m.data_seg.id, self.id(), doff,
                                  clen, /*is_store=*/false, self.now());
        const obs::Span pk(self, {.prof = obs::ProfState::pack});
        const StreamMove mv =
            unpack_stream(r.v.type, r.v.count, r.v.data, spos, clen,
                          m.data_mem.data() + doff, ff_may_move(cfg, *r.v.type),
                          c.rank_state().copy_model());
        self.delay(mv.cost);
        (mv.path == PackPath::ff ? cm_.ff_seg_packs : cm_.generic_seg_packs)->inc();
    }
    // Acknowledge under the same retry policy as a publish; acks are
    // cumulative, so a transient failure heals with the retry. Once the
    // policy gives up, the reverse path is dead: pin the writer's edge to
    // p2p and wake the writer, so it diverts the rest of the transfer. A
    // pinned edge takes no more acks: its writer no longer reads them.
    std::uint8_t& pinned = member(r.from).degraded[static_cast<std::size_t>(me)];
    const auto ack = [&] { return put_word(c, r.from, ack_off(me), seq); };
    if (pinned == 0 && !fault::retry_with_backoff(self, cfg, cluster_.monitor(), m.node,
                                                  member(r.from).node, ack)
                            .status) {
        pinned = 1;
        cm_.ack_drops->inc();
        cm_.degraded_edges->inc();
        cluster_.rank_state(c.world_rank(r.from)).coll_waiters().wake_all();
    }
    m.rx[static_cast<std::size_t>(r.from)].rcvd = seq;
}

Status CollSegmentSet::fallback_send(Comm& c, ActiveSend& s, std::size_t ci) {
    const int me = c.rank();
    sim::Process& self = c.proc();
    const Config& cfg = cluster_.options().cfg;
    Member& m = member(me);
    // Flush in-flight posted stores: every chunk published before the divert
    // must be visible at the reader before the p2p message can overtake it.
    data_region(me, s.to).store_barrier(self);
    if (m.degraded[static_cast<std::size_t>(s.to)] == 0) {
        m.degraded[static_cast<std::size_t>(s.to)] = 1;
        cm_.degraded_edges->inc();
    }
    cm_.fallbacks->inc();
    Stream& t = m.tx[static_cast<std::size_t>(s.to)];
    const std::uint64_t start_seq = s.base + ci;
    const std::uint64_t end_seq = s.base + s.n_chunks;
    const std::size_t off0 = ci * chunk_;
    const std::size_t rem = s.len - off0;
    const std::size_t len = 2 * sizeof(std::uint64_t) + rem;
    const auto buf = std::make_unique_for_overwrite<std::byte[]>(len);
    std::memcpy(buf.get(), &start_seq, sizeof start_seq);
    std::memcpy(buf.get() + sizeof start_seq, &end_seq, sizeof end_seq);
    std::byte* payload = buf.get() + 2 * sizeof(std::uint64_t);
    {
        const obs::Span pk(self, {.prof = obs::ProfState::pack});
        self.delay(pack_stream(s.v.type, s.v.count, s.v.data, s.pos + off0, rem, payload,
                               s.v.type != nullptr && ff_may_move(cfg, *s.v.type),
                               c.rank_state().copy_model())
                       .cost);
    }
    // Whatever happens, the stream counters advance so both sides stay in
    // phase for the next transfer on this edge.
    t.sent = end_seq;
    t.acked = end_seq;
    return c.rank_state().send(buf.get(), static_cast<int>(len),
                               Datatype::byte_(), c.world_rank(s.to),
                               kTagStreamFbk, c.context());
}

bool CollSegmentSet::fallback_recv(Comm& c, ActiveRecv& r) {
    const int me = c.rank();
    sim::Process& self = c.proc();
    const Config& cfg = cluster_.options().cfg;
    Member& m = member(me);
    Stream& x = m.rx[static_cast<std::size_t>(r.from)];
    const int tag = kTagStreamFbk;
    const auto env =
        c.rank_state().probe(c.world_rank(r.from), tag, /*blocking=*/false,
                             c.context());
    if (!env.has_value()) return false;
    std::vector<std::byte> buf(env->bytes);
    const RecvResult res =
        c.rank_state().recv(buf.data(), static_cast<int>(buf.size()),
                            Datatype::byte_(), c.world_rank(r.from), tag,
                            c.context());
    SCIMPI_REQUIRE(res.status.is_ok(), "coll: fallback receive failed");
    std::uint64_t start_seq = 0;
    std::uint64_t end_seq = 0;
    std::memcpy(&start_seq, buf.data(), sizeof start_seq);
    std::memcpy(&end_seq, buf.data() + sizeof start_seq, sizeof end_seq);
    // A flag write the writer *thought* failed may still have landed, in
    // which case this transfer already completed on the segment path and
    // the message is a stale duplicate for a finished transfer.
    if (end_seq <= x.rcvd) return false;
    // Chunks the writer published before diverting are guaranteed visible
    // (it store-barriered before sending): consume them from the segment.
    while (x.rcvd < start_seq) consume_chunk(c, r, x.rcvd - r.base);
    // The writer's ack view may lag: skip payload chunks already consumed.
    const std::uint64_t skip = x.rcvd - start_seq;
    const std::size_t ci0 = x.rcvd - r.base;
    const std::size_t spos = r.pos + ci0 * chunk_;
    const std::size_t rem = r.len - ci0 * chunk_;
    const std::byte* payload =
        buf.data() + 2 * sizeof(std::uint64_t) + skip * chunk_;
    {
        const obs::Span pk(self, {.prof = obs::ProfState::pack});
        self.delay(unpack_stream(r.v.type, r.v.count, r.v.data, spos, rem, payload,
                                 r.v.type != nullptr && ff_may_move(cfg, *r.v.type),
                                 c.rank_state().copy_model())
                       .cost);
    }
    x.rcvd = end_seq;
    r.done = true;
    cm_.fallback_recvs->inc();
    return true;
}

bool CollSegmentSet::pump_send(Comm& c, ActiveSend& s, Status* st) {
    const int me = c.rank();
    const Config& cfg = cluster_.options().cfg;
    Member& m = member(me);
    if (m.degraded[static_cast<std::size_t>(s.to)] != 0) {
        *st = fallback_send(c, s, s.next_ci);
        s.done = true;
        return true;
    }
    Stream& t = m.tx[static_cast<std::size_t>(s.to)];
    const std::uint64_t w = read_my_word(c, ack_off(s.to));
    if (w > t.acked) {
        t.acked = w;
        // The observed ack is the happens-before edge reader -> writer that
        // licenses chunk-buffer reuse.
        if (check::Checker* ck = cluster_.checker())
            ck->on_p2p(c.world_rank(s.to), c.world_rank(me));
    }
    bool progressed = false;
    while (s.next_ci < s.n_chunks) {
        const std::uint64_t seq = s.base + s.next_ci + 1;
        if (seq > t.acked + 2) break;  // both buffers of the stream in flight
        const std::size_t ci = s.next_ci;
        const fault::RetryOutcome out = fault::retry_with_backoff(
            c.proc(), cfg, cluster_.monitor(), m.node, member(s.to).node,
            [&] { return publish_chunk(c, s, ci); });
        if (!out.status) {
            *st = fallback_send(c, s, ci);
            s.done = true;
            return true;
        }
        ++s.next_ci;
        progressed = true;
    }
    if (s.next_ci >= s.n_chunks) {
        // Everything is published; trailing acks are collected lazily by
        // the next transfer's buffer-reuse window.
        s.done = true;
        return true;
    }
    // Window closed: an ack write or the reader's ack give-up wakes us.
    return progressed;
}

bool CollSegmentSet::pump_recv(Comm& c, ActiveRecv& r, Status* st) {
    (void)st;  // readers complete on whichever path the writer chose
    Member& m = member(c.rank());
    Stream& x = m.rx[static_cast<std::size_t>(r.from)];
    bool progressed = false;
    for (;;) {
        if (x.rcvd >= r.base + r.n_chunks) {
            r.done = true;
            return true;
        }
        const std::uint64_t want = x.rcvd + 1;
        if (read_my_word(c, ready_off(r.from)) >= want) {
            consume_chunk(c, r, x.rcvd - r.base);
            progressed = true;
            continue;
        }
        // Probing also drives the two-sided progress engine, which keeps
        // relays and fallback traffic moving while we wait on the flag.
        if (c.rank_state()
                .probe(c.world_rank(r.from), kTagStreamFbk,
                       /*blocking=*/false, c.context())
                .has_value()) {
            if (fallback_recv(c, r)) return true;
            progressed = true;  // drained a stale duplicate
            continue;
        }
        break;
    }
    return progressed;
}

Status CollSegmentSet::pump_all(Comm& c, std::span<ActiveSend> sends,
                                std::span<ActiveRecv> recvs) {
    const int me = c.rank();
    Status sst;
    Status rst;
    for (ActiveSend& s : sends) {
        s.n_chunks = (s.len + chunk_ - 1) / chunk_;
        s.base = member(me).tx[static_cast<std::size_t>(s.to)].sent;
        if (s.len == 0) s.done = true;
    }
    for (ActiveRecv& r : recvs) {
        r.n_chunks = (r.len + chunk_ - 1) / chunk_;
        r.base = member(me).rx[static_cast<std::size_t>(r.from)].rcvd;
        if (r.len == 0) r.done = true;
    }
    for (;;) {
        bool pending = false;
        bool prog = false;
        for (ActiveSend& s : sends) {
            if (s.done) continue;
            prog = pump_send(c, s, &sst) || prog;
            pending = pending || !s.done;
        }
        for (ActiveRecv& r : recvs) {
            if (r.done) continue;
            prog = pump_recv(c, r, &rst) || prog;
            pending = pending || !r.done;
        }
        if (!pending) break;
        if (!prog) park(c);
    }
    if (!sst) return sst;
    return rst;
}

Status CollSegmentSet::run_streams(Comm& c, std::span<const Step> steps) {
    std::vector<ActiveSend> ss;
    std::vector<ActiveRecv> rr;
    const auto sends = static_cast<std::size_t>(
        std::ranges::count_if(steps, [](const Step& st) { return st.send; }));
    ss.reserve(sends);
    rr.reserve(steps.size() - sends);
    for (const Step& st : steps) {
        if (st.send)
            ss.push_back({.to = st.peer, .v = st.v, .pos = st.pos, .len = st.len});
        else
            rr.push_back({.from = st.peer, .v = st.v, .pos = st.pos, .len = st.len});
    }
    return pump_all(c, ss, rr);
}

void CollSegmentSet::barrier_flags(Comm& c) {
    const int me = c.rank();
    const int n = n_;
    Member& m = member(me);
    const std::uint64_t gen = ++m.barrier_gen;
    int round = 0;
    for (int k = 1; k < n; k <<= 1, ++round) {
        const int dst = (me + k) % n;
        const int src = (me - k + n) % n;
        bool token_path = m.degraded[static_cast<std::size_t>(dst)] != 0;
        if (!token_path) {
            const Status st = put_word(c, dst, barrier_off(round), gen);
            if (!st) {
                m.degraded[static_cast<std::size_t>(dst)] = 1;
                cm_.degraded_edges->inc();
                token_path = true;
            }
        }
        if (token_path) {
            // Tokens are short messages: they ride the doorbell path, which
            // is modeled hardware-reliable, so the round always completes.
            cm_.fallbacks->inc();
            (void)c.rank_state().send(&gen, sizeof gen, Datatype::byte_(),
                                      c.world_rank(dst), kTagBarrierFbk - round,
                                      c.context());
        }
        for (;;) {
            if (read_my_word(c, barrier_off(round)) >= gen) {
                if (check::Checker* ck = cluster_.checker())
                    ck->on_p2p(c.world_rank(src), c.world_rank(me));
                break;
            }
            if (c.rank_state()
                    .probe(c.world_rank(src), kTagBarrierFbk - round,
                           /*blocking=*/false, c.context())
                    .has_value()) {
                std::uint64_t tg = 0;
                (void)c.rank_state().recv(&tg, sizeof tg, Datatype::byte_(),
                                          c.world_rank(src),
                                          kTagBarrierFbk - round, c.context());
                if (tg >= gen) break;
                continue;  // stale token from an earlier generation
            }
            park(c);
        }
    }
}

}  // namespace scimpi::mpi::coll
