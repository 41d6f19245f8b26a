#include "mpi/rma/window.hpp"

#include "mpi/comm.hpp"
#include "mpi/rank.hpp"
#include "mpi/runtime.hpp"
#include "obs/span.hpp"

#include <algorithm>

namespace scimpi::mpi {

Win::Win(Comm& comm, std::span<std::byte> local, int id)
    : comm_(&comm), rank_(&comm.rank_state()), local_(local), id_(id) {
    obs::MetricsRegistry& m = comm.cluster().metrics();
    rm_.direct_puts = &m.counter("rma.direct_puts", rank_->rank());
    rm_.direct_gets = &m.counter("rma.direct_gets", rank_->rank());
    rm_.emulated_puts = &m.counter("rma.emulated_puts", rank_->rank());
    rm_.remote_put_gets = &m.counter("rma.remote_put_gets", rank_->rank());
    rm_.get_conversions = &m.counter("rma.get_conversions", rank_->rank());
    rm_.local_ops = &m.counter("rma.local_ops", rank_->rank());
    rm_.accumulates = &m.counter("rma.accumulates", rank_->rank());
    rm_.direct_put_bytes = &m.counter("rma.direct_put_bytes", rank_->rank());
    rm_.emulated_put_bytes = &m.counter("rma.emulated_put_bytes", rank_->rank());
    rm_.path_fallbacks = &m.counter("rma.path_fallbacks", rank_->rank());
    rm_.lat_direct = &m.histogram("rma.latency_direct_ns");
    rm_.lat_emulated = &m.histogram("rma.latency_emulated_ns");
    rm_.lat_remote_put = &m.histogram("rma.latency_remote_put_ns");
    ck_ = comm.cluster().checker();
}

int Win::my_rank() const { return comm_->rank(); }  // communicator-local

std::shared_ptr<Win> Win::create(Comm& comm, void* base, std::size_t size) {
    Rank& rank = comm.rank_state();
    Cluster& cluster = comm.cluster();
    RmaState& rma = rank.rma();

    WinPeer me;
    me.node = rank.node();
    me.size = size;
    // SCI-MPICH remembers which parts of the global window live in SCI
    // shared memory (Section 4.2): regions from MPI_Alloc_mem do.
    if (size > 0 && comm.is_shared_mem(base)) {
        me.shared = true;
        me.seg = cluster.directory().create(rank.node(),
                                            {static_cast<std::byte*>(base), size});
    }

    // Exchange peer info {shared, seg.node, seg.id, size, node, next_win_id}
    // as u64[6]. The window id must be identical on every participant (the
    // emulation handlers route by it), so agree on the max pending id.
    const std::uint64_t mine[6] = {
        me.shared ? 1u : 0u,
        static_cast<std::uint64_t>(static_cast<std::int64_t>(me.seg.node)),
        static_cast<std::uint64_t>(static_cast<std::int64_t>(me.seg.id)),
        me.size,
        static_cast<std::uint64_t>(me.node),
        static_cast<std::uint64_t>(rma.peek_next_win_id()),
    };
    std::vector<std::uint64_t> all(6u * static_cast<std::size_t>(comm.size()));
    const Status st = comm.allgather(mine, sizeof mine, all.data());
    SCIMPI_REQUIRE(st.is_ok(), "win_create allgather failed: " + st.to_string());

    int id = 1;
    for (int r = 0; r < comm.size(); ++r)
        id = std::max(id, static_cast<int>(all[6u * static_cast<std::size_t>(r) + 5]));
    rma.set_next_win_id(id + 1);

    auto win = std::shared_ptr<Win>(
        new Win(comm, {static_cast<std::byte*>(base), size}, id));
    win->peers_.resize(static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
        const std::uint64_t* p = all.data() + 6u * static_cast<std::size_t>(r);
        WinPeer& peer = win->peers_[static_cast<std::size_t>(r)];
        peer.shared = p[0] != 0;
        peer.seg.node = static_cast<int>(static_cast<std::int64_t>(p[1]));
        peer.seg.id = static_cast<int>(static_cast<std::int64_t>(p[2]));
        peer.size = p[3];
        peer.node = static_cast<int>(p[4]);
    }

    rma.register_win(win.get());
    if (win->ck_ != nullptr)
        win->ck_->on_win_create(id, rank.rank(), size);
    comm.barrier();  // no access before every rank finished creation
    return win;
}

Win::~Win() {
    rank_->rma().unregister_win(id_);
    const WinPeer& me = peers_.empty()
                            ? WinPeer{}
                            : peers_[static_cast<std::size_t>(my_rank())];
    if (me.shared) (void)comm_->cluster().directory().destroy(me.seg);
}

const sci::SciMapping& Win::peer_mapping(int target) {
    const auto it = mappings_.find(target);
    if (it != mappings_.end()) return it->second;
    const WinPeer& peer = peers_[static_cast<std::size_t>(target)];
    SCIMPI_REQUIRE(peer.shared, "peer window is not in shared memory");
    auto m = comm_->cluster().directory().import(rank_->node(), peer.seg);
    SCIMPI_REQUIRE(m.is_ok(), "window segment import failed");
    return mappings_.emplace(target, m.value()).first->second;
}

// ---------------------------------------------------------------------------
// RmaState
// ---------------------------------------------------------------------------

RmaState::RmaState(Rank& rank)
    : rank_(rank),
      channel_(rank.cluster().fabric().params(), rank.node()) {}

RmaState::~RmaState() = default;

void RmaState::register_win(Win* win) {
    windows_[win->id()] = win;
    win_locks_.emplace(win->id(),
                       std::make_unique<smi::SmiLock>(
                           rank_.node(), rank_.cluster().fabric().params()));
}

void RmaState::unregister_win(int id) {
    windows_.erase(id);
    win_locks_.erase(id);
}

smi::SmiLock& RmaState::win_lock(int win_id) {
    const auto it = win_locks_.find(win_id);
    SCIMPI_REQUIRE(it != win_locks_.end(), "lock on unknown window");
    return *it->second;
}

void RmaState::wait_all_pending(sim::Process& self) {
    const obs::Span wait(self, {.prof = obs::ProfState::wait_sync});
    while (pending_ > 0) pending_q_.park(self, "rma pending acks");
}

std::shared_ptr<sim::Event> RmaState::new_op_event(std::uint64_t op_id) {
    auto ev = std::make_shared<sim::Event>();
    op_events_[op_id] = ev;
    return ev;
}

Status RmaState::take_op_error(std::uint64_t op_id) {
    const auto it = op_errors_.find(op_id);
    if (it == op_errors_.end()) return Status::ok();
    Status st = it->second;
    op_errors_.erase(it);
    return st;
}

}  // namespace scimpi::mpi
