// Rank protocol engine: matching, short/eager/rendezvous, progress loop.
#include <algorithm>

#include "fault/retry.hpp"
#include "mpi/chunk_writer.hpp"
#include "mpi/comm.hpp"
#include "mpi/rank.hpp"
#include "mpi/req/request.hpp"
#include "mpi/rma/window.hpp"
#include "mpi/runtime.hpp"
#include "obs/span.hpp"

namespace scimpi::mpi {

namespace {
constexpr SimTime kLocalCtrlIssue = 120;      // ns: write a flag in local shm
constexpr SimTime kLocalCtrlDelivery = 250;   // ns: peer poll detects it
constexpr SimTime kRemotePollDetect = 600;    // ns on top of the pipeline latency

/// Causal-graph node labels per control-message kind.
const char* ctrl_name(CtrlKind k) {
    switch (k) {
        case CtrlKind::short_msg: return "ctrl:short";
        case CtrlKind::eager: return "ctrl:eager";
        case CtrlKind::eager_credit: return "ctrl:credit";
        case CtrlKind::rndv_rts: return "ctrl:rts";
        case CtrlKind::rndv_cts: return "ctrl:cts";
        case CtrlKind::rndv_chunk: return "ctrl:chunk";
        case CtrlKind::rndv_ack: return "ctrl:ack";
        case CtrlKind::rndv_fail: return "ctrl:fail";
    }
    return "ctrl:?";
}
}  // namespace

Rank::Rank(Cluster& cluster, int rank, int node)
    : cluster_(cluster), rank_(rank), node_(node), copy_model_(cluster.options().host) {
    obs::MetricsRegistry& m = cluster.metrics();
    pm_.sends_short = &m.counter("mpi.sends_short", rank);
    pm_.sends_eager = &m.counter("mpi.sends_eager", rank);
    pm_.sends_rndv = &m.counter("mpi.sends_rndv", rank);
    pm_.bytes_short = &m.counter("mpi.bytes_short", rank);
    pm_.bytes_eager = &m.counter("mpi.bytes_eager", rank);
    pm_.bytes_rndv = &m.counter("mpi.bytes_rndv", rank);
    pm_.unexpected = &m.counter("mpi.unexpected_msgs", rank);
    pm_.ff_packs = &m.counter("pack.ff_packs", rank);
    pm_.generic_packs = &m.counter("pack.generic_packs", rank);
    pm_.ff_direct_writes = &m.counter("pack.ff_direct_writes", rank);
    pm_.ff_direct_blocks = &m.counter("pack.ff_direct_blocks", rank);
    pm_.ff_direct_bytes = &m.counter("pack.ff_direct_bytes", rank);
    pm_.generic_staged_bytes = &m.counter("pack.generic_staged_bytes", rank);
    pm_.send_retries = &m.counter("mpi.send_retries", rank);
    pm_.send_recoveries = &m.counter("mpi.send_recoveries", rank);
    pm_.send_giveups = &m.counter("mpi.send_giveups", rank);
    pm_.lat_short = &m.histogram("mpi.latency_short_ns");
    pm_.lat_eager = &m.histogram("mpi.latency_eager_ns");
    pm_.lat_rndv = &m.histogram("mpi.latency_rndv_ns");
    pm_.ff_throughput = &m.histogram("pack.ff_throughput_mibs");
}

Rank::~Rank() = default;

sci::SciAdapter& Rank::adapter() { return cluster_.adapter(node_); }

sim::Process& Rank::cur_proc() {
    sim::Process* cur = proc().engine().current();
    return cur != nullptr ? *cur : proc();
}

void Rank::set_rma(std::unique_ptr<RmaState> rma) { rma_ = std::move(rma); }

bool Rank::matches(const RecvOp& op, const Envelope& env) {
    if (op.context != env.context) return false;
    if (op.src_filter != ANY_SOURCE && op.src_filter != env.src) return false;
    if (op.tag_filter == ANY_TAG) return env.tag >= 0;  // wildcards never match
                                                        // internal (negative) tags
    return op.tag_filter == env.tag;
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

std::uint64_t Rank::post_ctrl(int dst, CtrlMsg msg) {
    sim::Process& self = cur_proc();
    Rank& peer = cluster_.rank_state(dst);
    const auto& p = cluster_.fabric().params();
    const bool local = peer.node() == node_;
    // The wire push; the gap to the peer's arrival node is the hop itself.
    obs::Span push(self, {.name = ctrl_name(msg.kind),
                          .ev = local ? obs::EvCat::proto : obs::EvCat::pio,
                          .bytes = msg.inline_len});
    SimTime delivery;
    if (local) {
        self.delay(kLocalCtrlIssue);
        delivery = kLocalCtrlDelivery;
    } else {
        // Doorbell word plus any inline payload, pushed by PIO.
        const obs::Span io(self, {.prof = obs::ProfState::pio_write});
        self.delay(p.txn_overhead + p.stream_restart);
        if (msg.inline_len > 0) self.delay(adapter().pio_stream_cost(msg.inline_len));
        cluster_.fabric().account(node_, peer.node(), msg.inline_len + 32);
        delivery = p.write_latency + kRemotePollDetect;
    }
    msg.cause.node = push.close();
    const std::uint64_t push_ev = msg.cause.node;
    // A segment-set waiter may be polling for this message (a p2p fallback
    // or barrier token), so its arrival wakes it too.
    self.engine().after(delivery, [to = &peer, m = std::move(msg)]() mutable {
        to->inbox().send(std::move(m));
        to->coll_waiters().wake_all();
    });
    return push_ev;
}

void Rank::progress_one() {
    sim::Process& self = cur_proc();
    std::optional<CtrlMsg> msg;
    {
        // Time blocked here is "waiting for a control message" regardless of
        // which caller spun the progress engine.
        const obs::Span wait(self, {.prof = obs::ProfState::wait_recv});
        msg = inbox_.recv(self);
    }
    dispatch(std::move(*msg));
}

std::optional<Envelope> Rank::probe(int src, int tag, bool blocking, int context) {
    RecvOp matcher;
    matcher.src_filter = src;
    matcher.tag_filter = tag;
    matcher.context = context;
    for (;;) {
        progress_poll();
        for (const CtrlMsg& msg : unexpected_)
            if (matches(matcher, msg.env)) return msg.env;
        if (!blocking) return std::nullopt;
        progress_wait();  // wait for the next arrival, then rescan
    }
}

void Rank::progress_poll() {
    if (daemon_proc_ != nullptr && proc().engine().current() != daemon_proc_)
        return;  // the daemon is the sole dispatcher
    while (auto msg = inbox_.try_recv()) dispatch(std::move(*msg));
}

void Rank::progress_wait() {
    // With the async daemon running, everyone but the daemon itself parks
    // until the daemon dispatched something on this rank's behalf. The
    // daemon (e.g. driving a schedule's eager send that ran out of credits)
    // remains the sole inbox dispatcher and makes progress directly.
    if (daemon_proc_ != nullptr && proc().engine().current() != daemon_proc_) {
        sim::Process& self = cur_proc();
        const obs::Span wait(self, {.prof = obs::ProfState::wait_recv});
        progress_waiters_.park(self, "async progress");
        return;
    }
    progress_one();
}

void Rank::progress_daemon_body(sim::Process& p) {
    daemon_proc_ = &p;
    for (;;) {
        // Parked here between arrivals; unwound by the engine at teardown
        // (daemon processes do not trip deadlock detection).
        CtrlMsg msg = inbox_.recv(p);
        dispatch(std::move(msg));
        while (auto more = inbox_.try_recv()) dispatch(std::move(*more));
        // Completions may unblock nonblocking-collective schedules; advance
        // them on the daemon's timeline, then let waiters re-examine.
        if (req_ != nullptr) req_->pump();
        progress_waiters_.wake_all();
        // Only the daemon makes a message visible to probe(), so a
        // segment-set waiter probing for a fallback re-polls now.
        coll_waiters_.wake_all();
    }
}

void Rank::dispatch(CtrlMsg msg) {
    // Arrival node on whichever track dispatches (rank or daemon). The gap
    // back to the sender's push node is the wire: a link edge carrying the
    // SCI node pair when the hop crossed the fabric, a scheduling edge for
    // same-node shm delivery. The cause is rewritten so later handling
    // (even after a stay in the unexpected queue) hangs off the arrival.
    if (msg.cause.node != 0) {
        sim::Process& self = cur_proc();
        const std::uint64_t arr = obs::Span::point(
            self, {.name = ctrl_name(msg.kind),
                   .ev = obs::EvCat::proto,
                   .bytes = msg.inline_len});
        const int from_node =
            msg.env.src >= 0 ? cluster_.rank_state(msg.env.src).node() : -1;
        if (from_node >= 0 && from_node != node_)
            self.engine().land(self, msg.cause, arr, obs::EvCat::link, false,
                               from_node, node_);
        else
            self.engine().land(self, msg.cause, arr, obs::EvCat::sched, false);
        msg.cause.node = arr;
    }
    switch (msg.kind) {
        case CtrlKind::short_msg:
        case CtrlKind::eager:
        case CtrlKind::rndv_rts: {
            // Try to match a posted receive (in post order).
            for (auto it = posted_.begin(); it != posted_.end(); ++it) {
                if (!matches(**it, msg.env)) continue;
                auto op = *it;
                posted_.erase(it);
                op->matched = true;
                op->env = msg.env;
                // The receive was already posted when the data arrived:
                // classic late-sender pattern (user messages only).
                obs::Profiler& prof = proc().engine().profiler();
                if (prof.enabled() && msg.env.tag >= 0)
                    prof.late_sender(proc().id(), proc().now() - op->post_time);
                if (msg.kind == CtrlKind::rndv_rts)
                    handle_rts(*op, msg);
                else
                    deliver_inline(*op, msg);
                return;
            }
            pm_.unexpected->inc();
            msg.arrived = proc().now();
            unexpected_.push_back(std::move(msg));
            return;
        }
        case CtrlKind::eager_credit: {
            ++eager_credits_[static_cast<std::size_t>(msg.env.src)];
            last_credit_ev_[static_cast<std::size_t>(msg.env.src)] = msg.cause.node;
            credit_waiters_.wake_all();
            return;
        }
        case CtrlKind::rndv_cts: {
            const std::shared_ptr<SendOp> sp = ops_.send(msg.sender_handle);
            SCIMPI_REQUIRE(sp != nullptr, "CTS for unknown send");
            SendOp& op = *sp;
            op.cts_received = true;
            op.recv_handle = msg.recv_handle;
            op.mode = msg.mode;
            op.credits = static_cast<int>(msg.b);
            const sci::SegmentId seg{static_cast<int>(msg.a >> 32),
                                     static_cast<int>(msg.a & 0xffffffffu)};
            auto m = cluster_.directory().import(node_, seg);
            SCIMPI_REQUIRE(m.is_ok(), "rendezvous ring import failed");
            op.ring = m.value();
            pump_rndv(op);
            return;
        }
        case CtrlKind::rndv_ack: {
            const std::shared_ptr<SendOp> sp = ops_.send(msg.sender_handle);
            SCIMPI_REQUIRE(sp != nullptr, "ack for unknown send");
            SendOp& op = *sp;
            ++op.credits;
            --op.acks_pending;
            pump_rndv(op);
            return;
        }
        case CtrlKind::rndv_chunk: {
            const std::shared_ptr<RecvOp> rp = ops_.recv(msg.recv_handle);
            SCIMPI_REQUIRE(rp != nullptr, "chunk for unknown recv");
            handle_chunk(*rp, msg);
            return;
        }
        case CtrlKind::rndv_fail: {
            // Sender gave up mid-rendezvous: complete the receive with its
            // error and release the ring so nothing leaks or hangs.
            const std::shared_ptr<RecvOp> rp = ops_.recv(msg.recv_handle);
            if (rp == nullptr) return;  // raced with completion
            RecvOp& op = *rp;
            // Terminate the message's flow arrow here: the abort is where the
            // transfer's story ends on the timeline.
            proc().engine().land(proc(), msg.cause, 0, obs::EvCat::sched, true);
            op.status = Status::error(static_cast<Errc>(msg.a),
                                      "sender aborted rendezvous from rank " +
                                          std::to_string(msg.env.src));
            if (!op.ring_mem.empty()) {
                SCIMPI_REQUIRE(cluster_.directory().destroy(op.ring_seg).is_ok(),
                               "ring segment release failed");
                SCIMPI_REQUIRE(cluster_.memory(node_).free(op.ring_mem).is_ok(),
                               "ring memory release failed");
                op.ring_mem = {};
            }
            op.complete = true;
            op.ev_done = msg.cause.node;  // the abort notification ended the wait
            ops_.erase_recv(msg.recv_handle);
            return;
        }
    }
    panic("dispatch: unknown control message kind");
}

// ---------------------------------------------------------------------------
// Packing helpers
// ---------------------------------------------------------------------------

Status Rank::pack_into_ring(SendOp& op, const sci::SciMapping& ring,
                            std::size_t ring_off, std::size_t pos, std::size_t len) {
    sim::Process& self = cur_proc();
    const obs::Span span(self, {.name = "rndv:pack_chunk",
                                .trace = "p2p",
                                .prof = obs::ProfState::pack,
                                .bytes = len});
    const Config& cfg = cluster_.options().cfg;
    RingSink sink{adapter(), ring, cfg.use_dma_rndv && len >= cfg.dma_rndv_threshold};
    const SimTime t0 = self.now();
    const ChunkWrite w = write_chunk(self, sink, ring_off,
                                     {&op.type, op.count, op.buf, op.mode}, pos, len, cfg,
                                     copy_model_, "rndv:write");
    count_pack({w.path, 0}, w.path == PackPath::generic ? len : 0);
    if (w.path == PackPath::ff) {
        pm_.ff_direct_writes->inc();
        pm_.ff_direct_blocks->add(w.blocks);
        pm_.ff_direct_bytes->add(len);
        if (const SimTime dt = self.now() - t0; w.status && dt > 0)
            pm_.ff_throughput->record(len * 1'000'000'000ull / (dt * 1'048'576ull));
    }
    return w.status;
}

void Rank::unpack_from_ring(RecvOp& op, std::span<std::byte> chunk, std::size_t pos,
                            std::size_t len) {
    sim::Process& self = cur_proc();
    const obs::Span span(self, {.name = "rndv:unpack_chunk",
                                .trace = "p2p",
                                .prof = obs::ProfState::pack,
                                .bytes = len});
    const std::size_t capacity =
        op.type.size() * static_cast<std::size_t>(op.count);
    if (pos >= capacity) return;  // truncated tail: drain without storing
    const std::size_t usable = std::min(len, capacity - pos);

    const obs::Span unpack(self, {.name = "rndv:unpack",
                                  .ev = obs::EvCat::pack,
                                  .drop_empty = true,
                                  .bytes = usable});
    self.delay(count_pack(unpack_stream(&op.type, op.count, op.buf, pos, usable,
                                        chunk.data(),
                                        ff_may_move(cluster_.options().cfg, op.type, op.mode),
                                        copy_model_)));
}

SimTime Rank::count_pack(const StreamMove& m, std::size_t staged) {
    if (m.path == PackPath::ff) {
        pm_.ff_packs->inc();
    } else if (m.path == PackPath::generic) {
        pm_.generic_packs->inc();
        pm_.generic_staged_bytes->add(staged);
    }
    return m.cost;
}

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

std::shared_ptr<SendOp> Rank::isend(const void* buf, int count, const Datatype& type,
                                    int dst, int tag, int context) {
    SCIMPI_REQUIRE(dst >= 0 && dst < cluster_.world_size(), "isend: bad destination");
    auto op = std::make_shared<SendOp>();
    op->handle = ops_.next_handle();
    op->buf = buf;
    op->count = count;
    op->type = type;
    if (!op->type.committed()) op->type.commit(cluster_.options().cfg);
    op->env.src = rank_;
    op->env.dst = dst;
    op->env.context = context;
    op->env.tag = tag;
    op->env.seq = send_seq_[static_cast<std::size_t>(dst)]++;
    op->env.bytes = type.size() * static_cast<std::size_t>(count);
    op->env.type_fp = op->type.fingerprint();
    ops_.insert_send(op->handle, op);
    // scimpi-check: the buffer belongs to the library until the matching
    // Wait/Test; conflicting accesses to it through a watched segment are
    // racy-after-Isend reuse (closed in Rank::wait(SendOp&)).
    if (auto* ck = cluster_.checker()) {
        if (auto loc = cluster_.directory().locate(node_, buf, op->env.bytes))
            op->check_id = ck->on_request_issue(rank_, loc->first.node,
                                                loc->first.id, loc->second,
                                                op->env.bytes, /*is_send=*/true,
                                                proc().now());
    }
    start_send(*op);
    return op;
}

void Rank::start_send(SendOp& op) {
    sim::Process& self = cur_proc();
    const Config& cfg = cluster_.options().cfg;
    const std::size_t bytes = op.env.bytes;
    const obs::Span span(self, {.name = "mpi:send_start", .trace = "p2p", .bytes = bytes});
    op.env.post_time = self.now();
    const bool is_short = bytes <= cfg.short_threshold;
    const bool is_eager = !is_short && bytes <= cfg.eager_threshold;
    if (is_short) {
        pm_.sends_short->inc();
        pm_.bytes_short->add(bytes);
    } else if (is_eager) {
        pm_.sends_eager->inc();
        pm_.bytes_eager->add(bytes);
    } else {
        pm_.sends_rndv->inc();
        pm_.bytes_rndv->add(bytes);
    }

    // Bulk payloads (eager slots, rendezvous chunks) need a usable route:
    // fail fast, or retry with backoff while a link flap is in progress.
    // Short messages ride the doorbell path, which is modeled
    // hardware-reliable; rendezvous failures after the handshake are
    // handled chunk-by-chunk in pump_rndv.
    if (!is_short) {
        const int peer_node = cluster_.rank_state(op.env.dst).node();
        const Status st = retry_remote(peer_node, [this, peer_node]() -> Status {
            if (peer_node == node_ || cluster_.fabric().route_usable(node_, peer_node))
                return Status::ok();
            return Status::error(Errc::link_failure,
                                 cluster_.fabric().describe_down_route(node_, peer_node));
        });
        if (!st) {
            op.status = st;
            op.complete = true;
            ops_.erase_send(op.handle);
            return;
        }
    }
    if (is_eager) {
        auto& credits = eager_credits_[static_cast<std::size_t>(op.env.dst)];
        if (credits == 0) {  // flow control: wait for a slot
            obs::Span wait(self, wait_span("wait:credit"));
            while (credits == 0) progress_wait();
            end_wait(self, wait, last_credit_ev_[static_cast<std::size_t>(op.env.dst)]);
        }
        --credits;
    }

    // Start the message's flow arrow only now that it is about to go on the
    // wire, so failed sends never leave an unmatched flow start.
    op.cause = self.engine().start_flow(self, obs::Flow::msg);
    CtrlMsg msg;
    msg.env = op.env;
    msg.cause = op.cause;
    if (!is_short && !is_eager) {
        msg.kind = CtrlKind::rndv_rts;
        msg.sender_handle = op.handle;
        post_ctrl(op.env.dst, std::move(msg));
        return;  // the CTS arrives through the progress engine; pump_rndv goes on
    }
    msg.kind = is_short ? CtrlKind::short_msg : CtrlKind::eager;
    {
        const obs::Span pack(self, {.name = "send:pack_inline",
                                    .prof = obs::ProfState::pack,
                                    .ev = obs::EvCat::pack,
                                    .drop_empty = true,
                                    .bytes = bytes});
        if (bytes > 0) {
            msg.inline_data = std::make_unique_for_overwrite<std::byte[]>(bytes);
            msg.inline_len = bytes;
            self.delay(count_pack(pack_stream(&op.type, op.count, op.buf, 0, bytes,
                                              msg.inline_data.get(),
                                              ff_may_move(cfg, op.type), copy_model_),
                                  bytes));
        }
    }
    op.ev_done = post_ctrl(op.env.dst, std::move(msg));
    op.complete = true;
    ops_.erase_send(op.handle);
}

void Rank::pump_rndv(SendOp& op) {
    if (!op.cts_received) return;
    const std::size_t chunk_size = cluster_.options().cfg.rndv_chunk;
    const auto& ring = *op.ring;
    const int peer_node = cluster_.rank_state(op.env.dst).node();
    while (!op.aborted && op.credits > 0 && op.next_pos < op.env.bytes) {
        const std::size_t len = std::min(chunk_size, op.env.bytes - op.next_pos);
        const std::size_t slot = op.next_chunk % 2;
        const Status st = retry_remote(peer_node, [&, this] {
            return pack_into_ring(op, ring, slot * chunk_size, op.next_pos, len);
        });
        if (!st) {
            abort_rndv(op, st);
            break;
        }
        adapter().store_barrier(cur_proc());
        CtrlMsg msg;
        msg.kind = CtrlKind::rndv_chunk;
        msg.env = op.env;
        msg.cause = op.cause;
        msg.sender_handle = op.handle;
        msg.recv_handle = op.recv_handle;
        msg.a = slot;
        msg.b = len;
        post_ctrl(op.env.dst, std::move(msg));
        --op.credits;
        ++op.acks_pending;
        op.next_pos += len;
        ++op.next_chunk;
    }
    // An aborted send still waits for the acks of chunks already on the wire
    // so late rndv_ack messages never hit an unknown handle.
    if ((op.next_pos >= op.env.bytes || op.aborted) && op.acks_pending == 0) {
        op.complete = true;
        ops_.erase_send(op.handle);
        op.ev_done = obs::Span::point(cur_proc(), {.name = "send:done",
                                                   .ev = obs::EvCat::proto,
                                                   .bytes = op.env.bytes});
        // The receiver's last ack orders its state before the sender's
        // continuation (rendezvous completion is a two-way sync point).
        if (auto* ck = cluster_.checker()) ck->on_p2p(op.env.dst, rank_);
    }
}

Status Rank::retry_remote(int peer_node, FunctionRef<Status()> attempt) {
    const fault::RetryOutcome out = fault::retry_with_backoff(
        cur_proc(), cluster_.options().cfg, cluster_.monitor(), node_, peer_node,
        attempt);
    pm_.send_retries->add(static_cast<std::uint64_t>(out.retries));
    if (out.recovered) pm_.send_recoveries->inc();
    if (out.gave_up) pm_.send_giveups->inc();
    return out.status;
}

void Rank::abort_rndv(SendOp& op, const Status& st) {
    op.aborted = true;
    op.status = st;
    CtrlMsg fail;
    fail.kind = CtrlKind::rndv_fail;
    fail.env = op.env;
    fail.cause = op.cause;
    fail.sender_handle = op.handle;
    fail.recv_handle = op.recv_handle;
    fail.a = static_cast<std::uint64_t>(st.code());
    post_ctrl(op.env.dst, std::move(fail));
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

std::shared_ptr<RecvOp> Rank::irecv(void* buf, int count, const Datatype& type,
                                    int src, int tag, int context) {
    auto op = std::make_shared<RecvOp>();
    op->handle = ops_.next_handle();
    op->buf = buf;
    op->count = count;
    op->type = type;
    if (!op->type.committed()) op->type.commit(cluster_.options().cfg);
    op->src_filter = src;
    op->tag_filter = tag;
    op->context = context;
    op->post_time = proc().now();
    ops_.insert_recv(op->handle, op);
    // scimpi-check: any access to the posted buffer (even a load) races
    // with the incoming message until the matching Wait/Test.
    if (auto* ck = cluster_.checker()) {
        const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
        if (auto loc = cluster_.directory().locate(node_, buf, bytes))
            op->check_id = ck->on_request_issue(rank_, loc->first.node,
                                                loc->first.id, loc->second, bytes,
                                                /*is_send=*/false, proc().now());
    }
    if (!try_match(*op)) posted_.push_back(op);
    return op;
}

bool Rank::try_match(RecvOp& op) {
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
        if (!matches(op, it->env)) continue;
        CtrlMsg msg = std::move(*it);
        unexpected_.erase(it);
        op.matched = true;
        op.env = msg.env;
        // The data sat in the unexpected queue until this receive showed up:
        // late-receiver pattern (user messages only).
        obs::Profiler& prof = proc().engine().profiler();
        if (prof.enabled() && msg.env.tag >= 0)
            prof.late_receiver(proc().id(), proc().now() - msg.arrived);
        if (msg.kind == CtrlKind::rndv_rts)
            handle_rts(op, msg);
        else
            deliver_inline(op, msg);
        return true;
    }
    return false;
}

void Rank::deliver_inline(RecvOp& op, const CtrlMsg& msg) {
    sim::Process& self = cur_proc();
    const obs::Span span(
        self, {.name = "mpi:deliver_inline", .trace = "p2p", .bytes = msg.env.bytes});
    const std::size_t capacity =
        op.type.size() * static_cast<std::size_t>(op.count);
    const std::size_t usable = std::min(msg.env.bytes, capacity);
    if (msg.env.bytes > capacity)
        op.status = Status::error(Errc::truncated, "message longer than receive buffer");
    if (usable > 0) {
        const obs::Span unpack(self, {.name = "deliver:unpack",
                                      .prof = obs::ProfState::pack,
                                      .ev = obs::EvCat::pack,
                                      .drop_empty = true,
                                      .bytes = usable});
        self.delay(count_pack(unpack_stream(&op.type, op.count, op.buf, 0, usable,
                                            msg.inline_data.get(),
                                            ff_may_move(cluster_.options().cfg, op.type),
                                            copy_model_)));
    }
    op.received = msg.env.bytes;
    finish_recv(op, msg,
                msg.kind == CtrlKind::short_msg ? *pm_.lat_short : *pm_.lat_eager);
    if (msg.kind == CtrlKind::eager) {
        CtrlMsg credit;
        credit.kind = CtrlKind::eager_credit;
        credit.env.src = rank_;
        credit.env.dst = msg.env.src;
        post_ctrl(msg.env.src, std::move(credit));
    }
}

void Rank::handle_rts(RecvOp& op, const CtrlMsg& rts) {
    const obs::Span span(
        cur_proc(), {.name = "rndv:handle_rts", .trace = "p2p", .bytes = rts.env.bytes});
    const Config& cfg = cluster_.options().cfg;
    const std::size_t capacity =
        op.type.size() * static_cast<std::size_t>(op.count);
    if (rts.env.bytes > capacity)
        op.status = Status::error(Errc::truncated, "message longer than receive buffer");
    op.sender_handle = rts.sender_handle;

    auto mem = cluster_.memory(node_).allocate(2 * cfg.rndv_chunk, 64);
    SCIMPI_REQUIRE(mem.is_ok(), "rendezvous ring allocation failed");
    op.ring_mem = mem.value();
    op.ring_seg = cluster_.directory().create(node_, op.ring_mem);

    const bool fp_match = rts.env.type_fp == op.type.fingerprint();
    op.mode = fp_match ? PackMode::ff_leaf_major : PackMode::canonical;

    CtrlMsg cts;
    cts.kind = CtrlKind::rndv_cts;
    cts.env.src = rank_;
    cts.env.dst = rts.env.src;
    cts.sender_handle = rts.sender_handle;
    cts.recv_handle = op.handle;
    cts.a = (static_cast<std::uint64_t>(op.ring_seg.node) << 32) |
            static_cast<std::uint32_t>(op.ring_seg.id);
    cts.b = 2;  // chunk credits
    cts.mode = op.mode;
    post_ctrl(rts.env.src, std::move(cts));
}

void Rank::handle_chunk(RecvOp& op, const CtrlMsg& msg) {
    sim::Process& self = cur_proc();
    const obs::Span span(self, {.name = "rndv:recv_chunk", .trace = "p2p", .bytes = msg.b});
    const Config& cfg = cluster_.options().cfg;
    SCIMPI_REQUIRE(!op.ring_mem.empty(), "chunk without ring");
    const std::size_t slot = msg.a;
    const std::size_t len = msg.b;
    unpack_from_ring(op, op.ring_mem.subspan(slot * cfg.rndv_chunk, len), op.received,
                     len);
    op.received += len;
    CtrlMsg ack;
    ack.kind = CtrlKind::rndv_ack;
    ack.env.src = rank_;
    ack.env.dst = op.env.src;
    ack.sender_handle = op.sender_handle;
    ack.a = slot;
    post_ctrl(op.env.src, std::move(ack));
    if (op.received >= op.env.bytes) {
        SCIMPI_REQUIRE(cluster_.directory().destroy(op.ring_seg).is_ok(),
                       "ring segment release failed");
        SCIMPI_REQUIRE(cluster_.memory(node_).free(op.ring_mem).is_ok(),
                       "ring memory release failed");
        op.ring_mem = {};
        finish_recv(op, msg, *pm_.lat_rndv);
    }
}

void Rank::finish_recv(RecvOp& op, const CtrlMsg& msg, obs::Histogram& latency) {
    sim::Process& self = cur_proc();
    op.complete = true;
    ops_.erase_recv(op.handle);
    // Completion node, reached from the message's last control packet; the
    // message's flow arrow ends here too.
    op.ev_done = obs::Span::point(
        self, {.name = "recv:done", .ev = obs::EvCat::proto, .bytes = op.env.bytes});
    self.engine().land(self, msg.cause, op.ev_done, obs::EvCat::sched, true);
    self.engine().evgraph().message(op.env.src, rank_, op.env.bytes,
                                    self.now() - op.env.post_time);
    // Happens-before edge for scimpi-check: the sender's clock at delivery
    // time (an over-approximation that only *adds* order, never races).
    if (auto* ck = cluster_.checker()) ck->on_p2p(op.env.src, rank_);
    latency.record(self.now() - op.env.post_time);  // post-to-delivery
}

// ---------------------------------------------------------------------------
// Blocking wrappers
// ---------------------------------------------------------------------------

void Rank::end_wait(sim::Process& self, obs::Span& wait, std::uint64_t release) {
    self.engine().land(self, {.node = release}, wait.close(), obs::EvCat::sched, false);
}

template <class Op>
void Rank::wait_op(Op& op, const char* name) {
    if (!op.complete) {
        sim::Process& self = cur_proc();
        obs::Span wait(self, wait_span(name));
        while (!op.complete) progress_wait();
        end_wait(self, wait, op.ev_done);
    }
    if (op.check_id != 0) {
        // Wait success hands the buffer back to the application: close the
        // pending-request entry and tick the rank's clock (happens-before
        // edge ordering later accesses after the communication).
        if (auto* ck = cluster_.checker())
            ck->on_request_complete(rank_, op.check_id, proc().now());
        op.check_id = 0;
    }
}

void Rank::wait(SendOp& op) { wait_op(op, "wait:send"); }
void Rank::wait(RecvOp& op) { wait_op(op, "wait:recv"); }

Status Rank::send(const void* buf, int count, const Datatype& type, int dst, int tag,
                  int context) {
    auto op = isend(buf, count, type, dst, tag, context);
    wait(*op);
    return op->status;
}

RecvResult Rank::recv(void* buf, int count, const Datatype& type, int src, int tag,
                      int context) {
    auto op = irecv(buf, count, type, src, tag, context);
    wait(*op);
    return RecvResult{op->status, op->env.src, op->env.tag, op->received};
}

}  // namespace scimpi::mpi
