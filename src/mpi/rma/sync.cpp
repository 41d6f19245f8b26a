// One-sided synchronization: fence, post/start/complete/wait, lock/unlock.
#include "mpi/comm.hpp"
#include "mpi/rma/proto.hpp"
#include "mpi/rma/window.hpp"
#include "mpi/runtime.hpp"
#include "obs/span.hpp"

#include <algorithm>
#include <map>
#include <optional>

namespace scimpi::mpi {

namespace {
/// Transparent wait_sync node over a synchronization call, optionally
/// holding the profiler's wait_sync state. Zero-width nodes are kept so the
/// checker's lock hand-over edges have a stable anchor; each span closes
/// before the checker hook that may hang an edge off it.
obs::SpanInfo sync_span(const char* name, bool waits) {
    return {.name = name,
            .prof = waits ? std::optional(obs::ProfState::wait_sync) : std::nullopt,
            .ev = obs::EvCat::wait_sync};
}

/// True when every peer in `group` (communicator ranks) has an unconsumed
/// signal in `seen` (keyed by world rank).
bool all_signalled(const Comm& comm, const std::vector<int>& group,
                   const std::map<int, int>& seen) {
    return std::all_of(group.begin(), group.end(), [&](int r) {
        const auto it = seen.find(comm.world_rank(r));
        return it != seen.end() && it->second > 0;
    });
}

/// World ranks of the communicator ranks in `group`.
std::vector<int> world_ranks(const Comm& comm, const std::vector<int>& group) {
    std::vector<int> out;
    out.reserve(group.size());
    for (const int r : group) out.push_back(comm.world_rank(r));
    return out;
}

/// Send this window's `kind` signal (post/complete) to every rank in `group`.
void signal_group(Comm& comm, Rank& rank, int win_id, int kind,
                  const std::vector<int>& group) {
    for (const int world : world_ranks(comm, group)) {
        smi::Signal s;
        s.from_rank = rank.rank();
        s.kind = kind;
        s.a = static_cast<std::uint64_t>(win_id);
        comm.cluster().rank_state(world).rma().channel().post(rank.proc(), rank.node(),
                                                              std::move(s));
    }
}

/// Consume one signal from each peer in `group`.
void consume(const Comm& comm, const std::vector<int>& group, std::map<int, int>& seen) {
    for (const int r : group) --seen[comm.world_rank(r)];
}
}  // namespace

bool Win::epoch_allows(int target) const {
    if (fence_epoch_) return true;
    if (std::find(access_group_.begin(), access_group_.end(), target) !=
        access_group_.end())
        return true;
    return std::find(locked_.begin(), locked_.end(), target) != locked_.end();
}

check::SyncMode Win::check_mode(int target) const {
    if (fence_epoch_) return check::SyncMode::fence;
    if (std::find(access_group_.begin(), access_group_.end(), target) !=
        access_group_.end())
        return check::SyncMode::pscw;
    if (std::find(locked_.begin(), locked_.end(), target) != locked_.end())
        return check::SyncMode::lock;
    return check::SyncMode::none;
}

void Win::fence() {
    sim::Process& self = rank_->proc();
    obs::Span span(self, {.name = "rma:fence", .trace = "rma", .ev = obs::EvCat::wait_sync});
    fence_epoch_ = true;  // a fence both closes the old epoch and opens a new one
    // 1. Direct puts of this epoch must have arrived at their targets.
    rank_->adapter().store_barrier(self);
    // 2. Emulated ops must have been applied (handler acks).
    rank_->rma().wait_all_pending(self);
    // 3. Epoch separation across the group.
    comm_->barrier();
    span.close();
    if (ck_ != nullptr) ck_->on_fence(id_, rank_->rank(), self.now(), self.id());
}

void Win::post(std::span<const int> origin_group) {
    sim::Process& self = rank_->proc();
    exposure_group_.assign(origin_group.begin(), origin_group.end());
    if (ck_ != nullptr)
        ck_->on_post(id_, rank_->rank(), world_ranks(*comm_, exposure_group_), self.now(),
                     self.id());
    signal_group(*comm_, *rank_, id_, rma_proto::kPost, exposure_group_);
}

void Win::start(std::span<const int> target_group) {
    sim::Process& self = rank_->proc();
    // DPOR dependence: this reads posts_seen_, which the rma handler
    // increments when a kPost signal lands.
    sim::note_subject(this);
    access_group_.assign(target_group.begin(), target_group.end());
    // Wait for, and consume, one post from each target in the group. A
    // target that already ran ahead into its next exposure epoch may have
    // posted twice; its second post stays for the next start().
    obs::Span span(self, sync_span("rma:start", true));
    while (!all_signalled(*comm_, access_group_, posts_seen_))
        rank_->rma().wait_signal_change(self);
    consume(*comm_, access_group_, posts_seen_);
    span.close();
    if (ck_ != nullptr)
        ck_->on_start(id_, rank_->rank(), world_ranks(*comm_, access_group_), self.now(),
                      self.id());
}

void Win::complete() {
    sim::Process& self = rank_->proc();
    obs::Span span(self, sync_span("rma:complete", false));
    rank_->adapter().store_barrier(self);
    rank_->rma().wait_all_pending(self);
    span.close();
    if (ck_ != nullptr) ck_->on_complete(id_, rank_->rank(), self.now(), self.id());
    signal_group(*comm_, *rank_, id_, rma_proto::kComplete, access_group_);
    access_group_.clear();
}

bool Win::test() {
    // DPOR dependence: the order of this read against the rma handler's
    // kComplete increment decides whether the epoch looks open or closed.
    sim::note_subject(this);
    if (!all_signalled(*comm_, exposure_group_, completes_seen_)) return false;
    consume(*comm_, exposure_group_, completes_seen_);
    // Only a test() that actually closes an open exposure epoch is a wait;
    // repeated calls with no epoch would read as unmatched waits otherwise.
    if (ck_ != nullptr && !exposure_group_.empty()) {
        sim::Process& self = rank_->proc();
        ck_->on_wait(id_, rank_->rank(), self.now(), self.id());
    }
    exposure_group_.clear();
    return true;
}

void Win::wait() {
    sim::Process& self = rank_->proc();
    sim::note_subject(this);
    obs::Span span(self, sync_span("rma:wait", true));
    while (!all_signalled(*comm_, exposure_group_, completes_seen_))
        rank_->rma().wait_signal_change(self);
    consume(*comm_, exposure_group_, completes_seen_);
    span.close();
    if (ck_ != nullptr) ck_->on_wait(id_, rank_->rank(), self.now(), self.id());
    exposure_group_.clear();
}

void Win::lock(int target, bool /*exclusive*/) {
    // Shared-memory lock owned by the target rank (paper ref. [14]). Only
    // exclusive locks are implemented — shared locks degrade to exclusive.
    sim::Process& self = rank_->proc();
    {
        // Closed before on_lock: the checker's hand-over edge (previous
        // unlocker -> this acquisition) must land on this wait node.
        const obs::Span span(self, sync_span("rma:lock", true));
        comm_->cluster()
            .rank_state(comm_->world_rank(target))
            .rma()
            .win_lock(id_)
            .acquire(self, rank_->node());
    }
    locked_.push_back(target);
    if (ck_ != nullptr)
        ck_->on_lock(id_, rank_->rank(), comm_->world_rank(target), self.now(),
                     self.id());
}

void Win::unlock(int target) {
    sim::Process& self = rank_->proc();
    // Passive target: our accesses must be globally visible before the lock
    // is released.
    rank_->adapter().store_barrier(self);
    rank_->rma().wait_all_pending(self);
    // Recorded before on_unlock: the checker stashes this node as the
    // hand-over source for the next acquirer of the lock.
    obs::Span::point(self, {.name = "rma:unlock", .ev = obs::EvCat::rma});
    if (ck_ != nullptr)
        ck_->on_unlock(id_, rank_->rank(), comm_->world_rank(target), self.now(),
                       self.id());
    std::erase(locked_, target);
    comm_->cluster()
        .rank_state(comm_->world_rank(target))
        .rma()
        .win_lock(id_)
        .release(self, rank_->node());
}

}  // namespace scimpi::mpi
