// The nonblocking executor of the collective round schedules (libNBC
// style; the descriptions are coll/sched.hpp's, shared with the blocking
// executors).
//
// A schedule is pumped round by round: round r+1 is only issued after all
// of round r's sends and receives finished locally, and a round's post-
// action (reduction, copy) runs in between. Every schedule draws a band of
// tags, one per round, so a message can only ever match the receive of its
// own round of its own schedule. Rounds are globally aligned, so every
// member's schedule has the same length and the members' per-context band
// cursors advance in step. Schedules are pumped by the request engine
// (req::Engine::pump) from Wait/Test and, when async progress is on, by the
// per-rank progress daemon.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "mpi/coll/sched.hpp"
#include "mpi/types.hpp"

namespace scimpi::mpi {

class Rank;
struct SendOp;
struct RecvOp;

namespace req {

/// Nonblocking-schedule tags: each schedule takes the band
/// [base - rounds + 1, base] from a per-context cursor that starts at
/// kTagNbcBase and wraps at kTagNbcFloor, far below every other reserved
/// internal tag (the blocking executor's lowest is about -590k).
inline constexpr int kTagNbcBase = -(1 << 20);
inline constexpr int kTagNbcFloor = -(1 << 30);

class NbcSched {
public:
    /// `members` maps the schedule's communicator-local peers to world
    /// ranks; `tag_base` is from req::Engine::nbc_tag_band.
    NbcSched(Rank& rank, std::span<const int> members, int context, int tag_base,
             coll::Sched sched);
    NbcSched(const NbcSched&) = delete;
    NbcSched& operator=(const NbcSched&) = delete;

    /// Advance the program: run post-actions of completed rounds and issue
    /// the next round while possible. Returns true when the schedule is
    /// done. Not reentrant — callers serialize through req::Engine::pump.
    bool pump();

    [[nodiscard]] bool done() const { return done_; }
    [[nodiscard]] const Status& status() const { return status_; }

private:
    Rank& rank_;
    std::vector<int> members_;
    int context_;
    int tag_base_;
    coll::Sched sched_;
    std::size_t next_round_ = 0;  ///< next round index to issue
    std::vector<std::shared_ptr<SendOp>> live_s_;
    std::vector<std::shared_ptr<RecvOp>> live_r_;
    bool done_ = false;
    Status status_;
};

}  // namespace req
}  // namespace scimpi::mpi
