// MPI-style request handles and the per-rank request/progress engine.
//
// A Request unifies the protocol layer's SendOp/RecvOp and the nonblocking
// collective schedules (req/nbc.hpp) behind one completion interface:
// Isend/Irecv/Wait/Test/Waitall/Waitany/Testsome, plus persistent requests
// (Send_init/Recv_init/Start/Startall) that re-issue a frozen argument set
// without re-validating it each iteration.
//
// Lifecycle:
//   * non-persistent: issued at creation, finalized by the first successful
//     Wait/Test; afterwards the handle stays queryable (sticky status).
//   * persistent: created inactive; Start issues an operation and makes it
//     active; Wait/Test completion returns it to inactive, ready for the
//     next Start. Wait on an inactive persistent request returns
//     immediately (MPI semantics).
//
// Finalization routes through Rank::wait so the scimpi-check pending-buffer
// entry opened at issue time is closed exactly once, and records the
// overlap achieved by the request: of the window between issue and
// completion, the time *not* spent blocked in Wait was available to user
// compute (obs::Profiler::comm_overlap, reported per rank in RunReport).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mpi/datatype/datatype.hpp"
#include "mpi/types.hpp"
#include "obs/metrics.hpp"

namespace scimpi::mpi {

class Rank;
struct SendOp;
struct RecvOp;

namespace req {

class Engine;
class NbcSched;

enum class Kind : std::uint8_t { none, send, recv, coll };

/// Shared state behind a Request handle (copyable, like MPI_Request).
struct State {
    Kind kind = Kind::none;
    bool persistent = false;
    bool started = false;  ///< operation in flight, not yet finalized
    bool done = false;     ///< non-persistent only: finalized for good
    std::shared_ptr<SendOp> send;
    std::shared_ptr<RecvOp> recv;
    std::shared_ptr<NbcSched> coll;
    Status status;
    RecvResult result;  ///< receives only, valid once finalized
    // Frozen arguments (persistent requests re-issue from these).
    const void* sbuf = nullptr;
    void* rbuf = nullptr;
    int count = 0;
    Datatype type;
    int peer = -1;  ///< world rank
    int tag = 0;
    int context = 0;
    SimTime issue_time = 0;
};

/// Non-blocking operation handle. Default-constructed handles are invalid
/// and behave like MPI_REQUEST_NULL: Wait/Test succeed immediately.
class Request {
public:
    Request() = default;

    [[nodiscard]] bool valid() const { return st_ != nullptr; }
    [[nodiscard]] bool persistent() const { return st_ != nullptr && st_->persistent; }
    /// An operation is in flight and not yet finalized.
    [[nodiscard]] bool active() const { return st_ != nullptr && st_->started; }
    /// The underlying operation finished (Wait will not block). Invalid and
    /// inactive-persistent requests count as complete.
    [[nodiscard]] bool complete() const;
    [[nodiscard]] Status status() const { return st_ != nullptr ? st_->status : Status::ok(); }
    /// Source/tag/bytes of a completed receive (world source; Comm
    /// translates to communicator-local).
    [[nodiscard]] const RecvResult& result() const;

private:
    friend class Engine;
    std::shared_ptr<State> st_;
};

/// Per-rank request engine: owns the nonblocking-collective schedules in
/// flight and implements the Wait/Test family over all request kinds.
/// Created lazily by Rank::requests().
class Engine {
public:
    explicit Engine(Rank& rank);
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    Request isend(const void* buf, int count, const Datatype& type, int dst,
                  int tag, int context);
    Request irecv(void* buf, int count, const Datatype& type, int src, int tag,
                  int context);

    // Persistent requests.
    Request send_init(const void* buf, int count, const Datatype& type, int dst,
                      int tag, int context);
    Request recv_init(void* buf, int count, const Datatype& type, int src, int tag,
                      int context);
    void start(Request& r);
    void startall(std::span<Request> rs);

    /// Register a built nonblocking-collective schedule and issue its first
    /// round; the returned request completes when the program runs dry.
    Request start_coll(std::shared_ptr<NbcSched> sched);
    /// Tag band of `rounds` tags for the next schedule on `context`; returns
    /// its top (round r uses top - r). Members of a communicator issue
    /// collectives in the same order with equally long schedules, so the
    /// bands agree across ranks.
    int nbc_tag_band(int context, std::size_t rounds);

    // Completion.
    Status wait(Request& r);
    bool test(Request& r, Status* st = nullptr);
    Status waitall(std::span<Request> rs);
    /// Block until any active request completes; returns its index, or -1
    /// when none is active (all invalid/inactive/finalized).
    int waitany(std::span<Request> rs);
    /// Indices of requests that completed without blocking (may be empty).
    std::vector<int> testsome(std::span<Request> rs);

    /// Drive all in-flight collective schedules as far as they go without
    /// blocking. Reentrancy-guarded: the progress daemon and a rank blocked
    /// inside a schedule's own send can both arrive here.
    void pump();

    [[nodiscard]] std::size_t live_coll_count() const { return scheds_.size(); }

private:
    [[nodiscard]] static bool op_complete(const State& s);
    /// Close out a completed operation: status/result, overlap accounting,
    /// checker hand-off; persistent requests return to inactive.
    void finalize(State& s, SimTime wait_enter);
    void issue(State& s);

    Rank& rank_;
    std::vector<std::shared_ptr<NbcSched>> scheds_;
    std::vector<std::pair<int, int>> nbc_next_;  ///< context -> next band top
    bool pumping_ = false;
    obs::Histogram* overlap_pct_ = nullptr;  ///< req.overlap_pct
    obs::Counter* c_ops_ = nullptr;          ///< req.nonblocking_ops
    obs::Counter* c_pstarts_ = nullptr;      ///< req.persistent_starts
    obs::Counter* c_nbc_ = nullptr;          ///< req.nbc_scheds
};

}  // namespace req
}  // namespace scimpi::mpi
