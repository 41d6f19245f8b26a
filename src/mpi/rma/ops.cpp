// One-sided communication calls: path selection and the four data paths
// (direct put, direct get, remote-put get, emulated put/accumulate).
#include <algorithm>
#include <cstring>
#include <optional>

#include "mpi/comm.hpp"
#include "mpi/rma/proto.hpp"
#include "mpi/rma/window.hpp"
#include "mpi/runtime.hpp"
#include "obs/span.hpp"

namespace scimpi::mpi {

namespace {

/// An rma-category graph node over the op's execution (none if no time
/// passed), optionally holding a profiler state.
obs::SpanInfo rma_span(const char* name, std::size_t bytes,
                       std::optional<obs::ProfState> prof = {}) {
    return {.name = name,
            .prof = prof,
            .ev = obs::EvCat::rma,
            .drop_empty = true,
            .bytes = bytes};
}

/// Stream a signal payload to the target with PIO.
void stream_payload(sim::Process& self, const smi::Signal& s, sci::SciAdapter& a) {
    const obs::Span io(self, {.prof = obs::ProfState::pio_write});
    self.delay(a.pio_stream_cost(s.payload.size()));
}

/// Collect the basic blocks of `count` x `type` as (offset, len) pairs in
/// canonical order. Origin and target share the layout (mirrored put/get).
std::vector<rma_proto::Block> layout_blocks(const Datatype& type, int count,
                                            std::size_t disp) {
    std::vector<rma_proto::Block> blocks;
    type.for_each_block(static_cast<std::ptrdiff_t>(disp), count,
                        [&](std::ptrdiff_t off, std::size_t len) {
                            blocks.push_back({static_cast<std::uint64_t>(off), len});
                        });
    return blocks;
}

/// Target-window byte ranges of the op, for the scimpi-check access log.
std::vector<check::ByteRange> check_blocks(const Datatype& type, int count,
                                           std::size_t disp) {
    std::vector<check::ByteRange> out;
    type.for_each_block(static_cast<std::ptrdiff_t>(disp), count,
                        [&](std::ptrdiff_t off, std::size_t len) {
                            out.push_back({static_cast<std::uint64_t>(off),
                                           static_cast<std::uint64_t>(off) + len});
                        });
    return out;
}

}  // namespace

Status Win::put(const void* origin, int count, const Datatype& type, int target,
                std::size_t disp) {
    Datatype t = type;
    if (!t.committed()) t.commit(comm_->cluster().options().cfg);
    const std::size_t bytes = t.size() * static_cast<std::size_t>(count);
    const obs::Span span(rank_->proc(), {.name = "rma:put", .trace = "rma", .bytes = bytes});
    if (bytes == 0) return Status::ok();
    if (const Status st = admit(check::AccessKind::put, check::AccessKind::local_store,
                                t, count, target, disp, false);
        !st)
        return st;
    if (target == my_rank())
        return op_local(const_cast<void*>(origin), count, t, disp, /*is_put=*/true);
    if (peers_[static_cast<std::size_t>(target)].shared && direct_path_usable(target))
        return put_direct(origin, count, t, target, disp);
    return emulate(rma_proto::kPut, 0, origin, count, t, target, disp);
}

Status Win::get(void* origin, int count, const Datatype& type, int target,
                std::size_t disp) {
    Datatype t = type;
    if (!t.committed()) t.commit(comm_->cluster().options().cfg);
    const std::size_t bytes = t.size() * static_cast<std::size_t>(count);
    const obs::Span span(rank_->proc(), {.name = "rma:get", .trace = "rma", .bytes = bytes});
    if (bytes == 0) return Status::ok();
    if (const Status st = admit(check::AccessKind::get, check::AccessKind::local_load,
                                t, count, target, disp, false);
        !st)
        return st;
    if (target == my_rank()) return op_local(origin, count, t, disp, /*is_put=*/false);
    const Config& cfg = comm_->cluster().options().cfg;
    // Direct remote reads are slow on SCI: only up to the threshold, and
    // only when the target window is directly accessible (Section 4.2).
    if (peers_[static_cast<std::size_t>(target)].shared &&
        bytes <= cfg.get_remote_put_threshold && direct_path_usable(target))
        return get_direct(origin, count, t, target, disp);
    if (peers_[static_cast<std::size_t>(target)].shared) rm_.get_conversions->inc();
    return get_remote_put(origin, count, t, target, disp);
}

Status Win::admit(check::AccessKind kind, check::AccessKind local_kind,
                  const Datatype& t, int count, int target, std::size_t disp,
                  bool doubles) {
    const char* what = kind == check::AccessKind::put   ? "put"
                       : kind == check::AccessKind::get ? "get"
                                                        : "accumulate";
    const std::size_t needed =
        static_cast<std::size_t>(t.extent()) * static_cast<std::size_t>(count);
    const int wtarget = comm_->world_rank(target);
    sim::Process& self = rank_->proc();
    const std::size_t size = peers_[static_cast<std::size_t>(target)].size;
    if (disp + needed > size) {
        if (ck_ != nullptr)
            ck_->on_oob(id_, rank_->rank(), wtarget, disp, needed, size, self.now(),
                        self.id());
        return Status::error(Errc::invalid_argument,
                             std::string(what) + " beyond window bounds");
    }
    if (doubles && (t.size() * static_cast<std::size_t>(count)) % sizeof(double) != 0)
        return Status::error(Errc::invalid_argument, "accumulate needs doubles");
    const bool local = target == my_rank();
    if (!local && !epoch_allows(target)) {
        if (ck_ != nullptr)
            ck_->on_op_outside_epoch(id_, rank_->rank(), wtarget, kind,
                                     {disp, disp + needed}, self.now(), self.id());
        return Status::error(Errc::rma_sync_error,
                             std::string(what) + " outside any access epoch");
    }
    if (ck_ != nullptr)
        ck_->on_rma_op(id_, rank_->rank(), wtarget, local ? local_kind : kind,
                       check_mode(target), check_blocks(t, count, disp), self.now(),
                       self.id());
    return Status::ok();
}

bool Win::direct_path_usable(int target) {
    Cluster& cluster = comm_->cluster();
    Rank& peer = cluster.rank_state(comm_->world_rank(target));
    if (peer.node() == rank_->node()) return true;
    if (cluster.fabric().route_usable(rank_->node(), peer.node()) &&
        cluster.fabric().route_usable(peer.node(), rank_->node()))
        return true;
    rm_.path_fallbacks->inc();
    return false;
}

Status Win::op_local(void* origin, int count, const Datatype& type, std::size_t disp,
                     bool is_put) {
    rm_.local_ops->inc();
    sim::Process& self = rank_->proc();
    auto* user = static_cast<std::byte*>(origin);
    const SimTime cost = copy_blocks(
        type, count, rank_->copy_model(),
        [&](std::ptrdiff_t off, std::size_t len, std::size_t) {
            std::byte* win_mem = local_.data() + disp + static_cast<std::size_t>(off);
            if (is_put)
                std::memcpy(win_mem, user + off, len);
            else
                std::memcpy(user + off, win_mem, len);
        });
    const obs::Span span(self,
                         rma_span("rma:local", type.size() * static_cast<std::size_t>(count)));
    self.delay(cost);
    return Status::ok();
}

Status Win::put_direct(const void* origin, int count, const Datatype& type, int target,
                       std::size_t disp) {
    rm_.direct_puts->inc();
    const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
    rm_.direct_put_bytes->add(bytes);
    sim::Process& self = rank_->proc();
    const obs::Span io(self, rma_span("rma:put_direct", bytes, obs::ProfState::pio_write));
    const SimTime t0 = self.now();
    const sci::SciMapping& map = peer_mapping(target);
    const auto* user = static_cast<const std::byte*>(origin);
    Status st;
    type.for_each_block_while(0, count, [&](std::ptrdiff_t off, std::size_t len) {
        st = rank_->adapter().write(self, map, disp + static_cast<std::size_t>(off),
                                    user + off, len, len);
        return st.is_ok();
    });
    if (st) rm_.lat_direct->record(self.now() - t0);
    return st;
}

Status Win::get_direct(void* origin, int count, const Datatype& type, int target,
                       std::size_t disp) {
    rm_.direct_gets->inc();
    sim::Process& self = rank_->proc();
    const obs::Span io(self, rma_span("rma:get_direct",
                                      type.size() * static_cast<std::size_t>(count),
                                      obs::ProfState::pio_write));
    const SimTime t0 = self.now();
    const sci::SciMapping& map = peer_mapping(target);
    auto* user = static_cast<std::byte*>(origin);
    Status st;
    type.for_each_block_while(0, count, [&](std::ptrdiff_t off, std::size_t len) {
        st = rank_->adapter().read(self, map, disp + static_cast<std::size_t>(off),
                                   user + off, len);
        return st.is_ok();
    });
    if (st) rm_.lat_direct->record(self.now() - t0);
    return st;
}

Status Win::emulate(int kind, std::uint64_t op, const void* origin, int count,
                    const Datatype& type, int target, std::size_t disp) {
    sim::Process& self = rank_->proc();
    const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
    const bool put = kind == rma_proto::kPut;
    if (put) {
        rm_.emulated_puts->inc();
        rm_.emulated_put_bytes->add(bytes);
    }
    const obs::Span span(self, rma_span(put ? "rma:put_emulated" : "rma:accumulate", bytes));

    smi::Signal s;
    s.from_rank = rank_->rank();  // world rank: acks route through the cluster
    s.kind = kind;
    s.a = static_cast<std::uint64_t>(id_);
    s.b = op;
    s.post_time = self.now();
    rma_proto::serialize_blocks(s.payload, layout_blocks(type, count, disp));

    // Pack the data behind the descriptors, in their (canonical) order.
    const std::size_t header = s.payload.size();
    s.payload.resize(header + bytes);
    {
        const obs::Span pack(self, {.prof = obs::ProfState::pack});
        self.delay(rank_->count_pack(
            pack_stream(&type, count, origin, 0, bytes, s.payload.data() + header,
                        ff_may_move(comm_->cluster().options().cfg, type),
                        rank_->copy_model()),
            bytes));
    }
    stream_payload(self, s, rank_->adapter());

    s.cause = self.engine().start_flow(self, obs::Flow::rma);
    rank_->rma().add_pending();
    Rank& peer = comm_->cluster().rank_state(comm_->world_rank(target));
    peer.rma().channel().post(self, rank_->node(), std::move(s));
    return Status::ok();
}

Status Win::get_remote_put(void* origin, int count, const Datatype& type, int target,
                           std::size_t disp) {
    rm_.remote_put_gets->inc();
    sim::Process& self = rank_->proc();
    Cluster& cluster = comm_->cluster();
    RmaState& rma = rank_->rma();
    const std::size_t bytes = type.size() * static_cast<std::size_t>(count);

    // Staging segment in our arena for the target's remote-put.
    auto staging = cluster.memory(rank_->node()).allocate(bytes, 64);
    if (!staging)
        return Status::error(Errc::out_of_memory, "get staging allocation failed");
    const sci::SegmentId seg = cluster.directory().create(rank_->node(), staging.value());

    const std::uint64_t op_id = rma.next_op_id();
    auto done = rma.new_op_event(op_id);
    obs::Span issue(self, rma_span("rma:get_issue", bytes));

    smi::Signal s;
    s.from_rank = rank_->rank();
    s.kind = rma_proto::kGet;
    s.a = static_cast<std::uint64_t>(id_);
    s.b = (static_cast<std::uint64_t>(seg.node) << 32) |
          static_cast<std::uint32_t>(seg.id);
    s.c = op_id;
    s.post_time = self.now();
    rma_proto::serialize_blocks(s.payload, layout_blocks(type, count, disp));
    stream_payload(self, s, rank_->adapter());

    s.cause = self.engine().start_flow(self, obs::Flow::rma);
    const SimTime t0 = self.now();
    Rank& peer = cluster.rank_state(comm_->world_rank(target));
    peer.rma().channel().post(self, rank_->node(), std::move(s));
    issue.close();
    {
        // Blocked until the target handler writes + barriers, then acks.
        const obs::Span wait(self, {.name = "rma:get_wait",
                                    .prof = obs::ProfState::wait_sync,
                                    .ev = obs::EvCat::wait_sync,
                                    .drop_empty = true,
                                    .bytes = bytes});
        done->wait(self);
    }
    rm_.lat_remote_put->record(self.now() - t0);

    // The handler acks with an error when its remote-put could not reach our
    // staging segment even after retries (fault injection): the staged data
    // is garbage, so release it and report the failure.
    if (const Status st = rma.take_op_error(op_id); !st) {
        SCIMPI_REQUIRE(cluster.directory().destroy(seg).is_ok(), "staging seg leak");
        SCIMPI_REQUIRE(cluster.memory(rank_->node()).free(staging.value()).is_ok(),
                       "staging mem leak");
        return st;
    }

    // Scatter the staged stream into the origin layout (local copy).
    obs::Span scatter(self, rma_span("rma:get_scatter", bytes));
    auto* user = static_cast<std::byte*>(origin);
    const std::byte* staged = staging.value().data();
    self.delay(copy_blocks(type, count, rank_->copy_model(),
                           [&](std::ptrdiff_t off, std::size_t len, std::size_t at) {
                               std::memcpy(user + off, staged + at, len);
                           }));
    scatter.close();

    SCIMPI_REQUIRE(cluster.directory().destroy(seg).is_ok(), "staging seg leak");
    SCIMPI_REQUIRE(cluster.memory(rank_->node()).free(staging.value()).is_ok(),
                   "staging mem leak");
    return Status::ok();
}

Status Win::accumulate(const void* origin, int count, const Datatype& type,
                       int target, std::size_t disp, ReduceOp op) {
    rm_.accumulates->inc();
    sim::Process& self = rank_->proc();
    Datatype t = type;
    if (!t.committed()) t.commit(comm_->cluster().options().cfg);
    const std::size_t bytes = t.size() * static_cast<std::size_t>(count);
    const obs::Span span(self, {.name = "rma:accumulate", .trace = "rma", .bytes = bytes});
    if (bytes == 0) return Status::ok();
    if (const Status st = admit(check::AccessKind::accumulate,
                                check::AccessKind::accumulate, t, count, target, disp,
                                /*doubles=*/true);
        !st)
        return st;

    if (target == my_rank()) {
        // Local read-modify-write straight on the window.
        const auto* user = static_cast<const std::byte*>(origin);
        const SimTime copy = copy_blocks(
            t, count, rank_->copy_model(),
            [&](std::ptrdiff_t off, std::size_t len, std::size_t) {
                combine(op, local_.data() + disp + static_cast<std::size_t>(off), user + off,
                        len);
            });
        // Read-modify-write: two local streams plus the flops.
        self.delay(2 * copy + static_cast<SimTime>(bytes / sizeof(double)));
        return Status::ok();
    }

    // Accumulate always goes through the target handler: SCI offers no
    // remote read-modify-write, so the combination happens target-side.
    return emulate(rma_proto::kAccumulate, static_cast<std::uint64_t>(op), origin, count, t,
                   target, disp);
}

void Win::combine(ReduceOp op, std::byte* dst, const std::byte* src, std::size_t len) {
    for (std::size_t i = 0; i + sizeof(double) <= len; i += sizeof(double)) {
        double cur = 0.0;
        double in = 0.0;
        std::memcpy(&cur, dst + i, sizeof cur);
        std::memcpy(&in, src + i, sizeof in);
        switch (op) {
            case ReduceOp::sum: cur += in; break;
            case ReduceOp::prod: cur *= in; break;
            case ReduceOp::min: cur = std::min(cur, in); break;
            case ReduceOp::max: cur = std::max(cur, in); break;
            case ReduceOp::replace: cur = in; break;
            default: panic("unknown reduce op");
        }
        std::memcpy(dst + i, &cur, sizeof cur);
    }
}

}  // namespace scimpi::mpi
