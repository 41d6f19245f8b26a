// The remote handler: a daemon process per rank that serves emulated
// one-sided accesses (paper Section 4.2 — "internal control messages in
// conjunction with a remote interrupt are used to invoke a remote handler").
#include <cstring>

#include "fault/retry.hpp"
#include "mpi/comm.hpp"
#include "mpi/rma/proto.hpp"
#include "mpi/rma/window.hpp"
#include "mpi/runtime.hpp"
#include "obs/span.hpp"

namespace scimpi::mpi {

namespace {
/// The window an op signal addresses.
Win& window_of(const std::map<int, Win*>& windows, const smi::Signal& s) {
    const auto it = windows.find(static_cast<int>(s.a));
    SCIMPI_REQUIRE(it != windows.end(), "rma op for unknown window");
    return *it->second;
}

/// Acknowledge an op to its origin: `c` names a waited-for op (0: a
/// fire-and-forget op), `a` carries an Errc when the op failed.
void post_ack(sim::Process& self, Rank& rank, int origin, std::uint64_t c,
              std::uint64_t a) {
    smi::Signal ack;
    ack.from_rank = rank.rank();
    ack.kind = rma_proto::kAck;
    ack.c = c;
    ack.a = a;
    rank.cluster().rank_state(origin).rma().channel().post(self, rank.node(),
                                                           std::move(ack));
}
}  // namespace

void RmaState::start_handler() {
    static constexpr const char* kName = "rma-handler-rank";
    rank_.cluster().engine().spawn_daemon(
        kName + std::to_string(rank_.rank()),
        [this](sim::Process& self) { handler_loop(self); });
}

void RmaState::handler_loop(sim::Process& self) {
    for (;;) {
        const smi::Signal s = channel_.wait(self);
        switch (s.kind) {
            case rma_proto::kPut:
            case rma_proto::kAccumulate:
                serve_write(self, s);
                break;
            case rma_proto::kGet:
                serve_get(self, s);
                break;
            case rma_proto::kAck: {
                if (s.c != 0) {
                    const auto it = op_events_.find(s.c);
                    SCIMPI_REQUIRE(it != op_events_.end(), "ack for unknown op");
                    // `a` carries an Errc when the target's remote-put failed.
                    if (s.a != 0)
                        op_errors_[s.c] = Status::error(
                            static_cast<Errc>(s.a),
                            "remote-put from rank " + std::to_string(s.from_rank) +
                                " failed after retries");
                    it->second->set();
                    op_events_.erase(it);
                } else {
                    SCIMPI_REQUIRE(pending_ > 0, "ack underflow");
                    if (--pending_ == 0) pending_q_.wake_all();
                }
                break;
            }
            case rma_proto::kPost: {
                const auto it = windows_.find(static_cast<int>(s.a));
                SCIMPI_REQUIRE(it != windows_.end(), "post for unknown window");
                sim::note_subject(it->second);
                ++it->second->posts_seen_[s.from_rank];
                notify_change();
                break;
            }
            case rma_proto::kComplete: {
                const auto it = windows_.find(static_cast<int>(s.a));
                SCIMPI_REQUIRE(it != windows_.end(), "complete for unknown window");
                sim::note_subject(it->second);
                ++it->second->completes_seen_[s.from_rank];
                notify_change();
                break;
            }
            default:
                panic("rma handler: unknown signal kind");
        }
    }
}

void RmaState::serve_get(sim::Process& self, const smi::Signal& s) {
    obs::Span span(self, {.name = "rma:serve_get", .trace = "rma"});
    Win& win = window_of(windows_, s);

    std::size_t pos = 0;
    const auto blocks = rma_proto::parse_blocks(s.payload, pos);

    // Remote-put: gather the requested blocks out of the local window and
    // write them into the origin's staging segment (Section 4.2: the target
    // writes because remote reads are slow).
    const sci::SegmentId seg{static_cast<int>(s.b >> 32),
                             static_cast<int>(s.b & 0xffffffffu)};
    auto m = rank_.cluster().directory().import(rank_.node(), seg);
    SCIMPI_REQUIRE(m.is_ok(), "staging segment import failed");

    std::vector<sci::SciAdapter::ConstIovec> iov;
    iov.reserve(blocks.size());
    std::size_t total = 0;
    for (const auto& b : blocks) {
        SCIMPI_REQUIRE(b.off + b.len <= win.local().size(),
                       "emulated get beyond window");
        iov.push_back({win.local().data() + b.off, b.len});
        total += b.len;
    }
    span.set_bytes(total);
    // The write back to the origin's staging segment crosses the fabric and
    // can hit injected faults; retry under the shared backoff policy and, if
    // the budget runs out, report the error through the ack instead of
    // leaving the origin parked forever.
    Cluster& cluster = rank_.cluster();
    const int origin_node = cluster.rank_state(s.from_rank).node();
    const fault::RetryOutcome out = fault::retry_with_backoff(
        self, cluster.options().cfg, cluster.monitor(), rank_.node(), origin_node,
        [&] { return rank_.adapter().write_gather(self, m.value(), 0, iov, total); });
    if (out.status.is_ok()) rank_.adapter().store_barrier(self);
    if (win.ck_ != nullptr)
        win.ck_->on_remote_apply(win.id(), s.from_rank, self.now(), self.id());
    self.engine().land(self, s.cause, 0, obs::EvCat::sched, true);

    post_ack(self, rank_, s.from_rank, s.c, static_cast<std::uint64_t>(out.status.code()));
}

void RmaState::serve_write(sim::Process& self, const smi::Signal& s) {
    const bool put = s.kind == rma_proto::kPut;
    obs::Span span(self, {.name = put ? "rma:serve_put" : "rma:serve_accumulate",
                          .trace = "rma"});
    Win& win = window_of(windows_, s);

    std::size_t pos = 0;
    const auto blocks = rma_proto::parse_blocks(s.payload, pos);
    const std::byte* data = s.payload.data() + pos;
    const auto op = static_cast<Win::ReduceOp>(s.b);
    const SimTime copy = copy_blocks(
        blocks, rank_.copy_model(), [&](std::uint64_t off, std::uint64_t len, std::size_t at) {
            SCIMPI_REQUIRE(off + len <= win.local().size(), "emulated op beyond window");
            std::byte* dst = win.local().data() + off;
            if (put) {
                std::memcpy(dst, data + at, len);
                return;
            }
            SCIMPI_REQUIRE(len % sizeof(double) == 0, "accumulate needs doubles");
            Win::combine(op, dst, data + at, len);
        });
    const std::size_t moved = s.payload.size() - pos;
    // An accumulate is a read-modify-write: two local streams plus the flops.
    self.delay(put ? copy : 2 * copy + static_cast<SimTime>(moved / sizeof(double)));
    span.set_bytes(moved);
    if (win.ck_ != nullptr)
        win.ck_->on_remote_apply(win.id(), s.from_rank, self.now(), self.id());
    // The op is done once the data sits in the target window: record the
    // post-to-done latency here and land the flow arrow in this handler span.
    win.rm_.lat_emulated->record(self.now() - s.post_time);
    self.engine().land(self, s.cause, 0, obs::EvCat::sched, true);

    post_ack(self, rank_, s.from_rank, 0, 0);
}

}  // namespace scimpi::mpi
