// The public communicator API of the library: the C++ face of the MPI
// subset (point-to-point, collectives, special memory, simulated wall
// clock). One-sided communication lives in mpi/rma/window.hpp and is
// created through Comm::win_create / Comm::alloc_mem.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "mpi/datatype/datatype.hpp"
#include "mpi/rank.hpp"
#include "mpi/req/request.hpp"
#include "mpi/runtime.hpp"

namespace scimpi::mpi {

class Win;

/// A communicator's group: its context id and its members as world ranks
/// (index in `members` == rank within the communicator).
struct CommGroup {
    int context = 0;
    std::vector<int> members;
};

/// Non-blocking operation handle (see mpi/req/request.hpp): unifies sends,
/// receives, persistent requests, and nonblocking collectives.
using Request = req::Request;

class Comm {
public:
    /// The world communicator.
    Comm(Cluster& cluster, Rank& rank);
    /// A sub-communicator (see split()).
    Comm(Cluster& cluster, Rank& rank, std::shared_ptr<const CommGroup> group);

    /// Rank within this communicator.
    [[nodiscard]] int rank() const { return local_rank_; }
    [[nodiscard]] int size() const { return static_cast<int>(group_->members.size()); }
    [[nodiscard]] int node() const { return rank_->node(); }
    /// World rank of communicator-local `local`.
    [[nodiscard]] int world_rank(int local) const {
        return group_->members.at(static_cast<std::size_t>(local));
    }
    [[nodiscard]] int context() const { return group_->context; }
    /// World ranks of the members, indexed by communicator-local rank.
    [[nodiscard]] std::span<const int> members() const { return group_->members; }
    /// Communicator-local rank of a world rank (-1 if not a member).
    [[nodiscard]] int local_of_world(int world) const {
        for (std::size_t i = 0; i < group_->members.size(); ++i)
            if (group_->members[i] == world) return static_cast<int>(i);
        return -1;
    }

    /// MPI_Comm_split: collective; ranks with equal `color` form a new
    /// communicator, ordered by (key, world rank). Matching in the new
    /// communicator is isolated by a fresh context id.
    Comm split(int color, int key);
    [[nodiscard]] Cluster& cluster() { return *cluster_; }
    [[nodiscard]] Rank& rank_state() { return *rank_; }
    [[nodiscard]] sim::Process& proc() { return rank_->proc(); }

    /// Simulated seconds (MPI_Wtime).
    [[nodiscard]] double wtime() const { return cluster_->wtime(); }

    // ---- point-to-point (tags must be >= 0; negative tags are internal) ----
    Status send(const void* buf, int count, const Datatype& type, int dst, int tag);
    RecvResult recv(void* buf, int count, const Datatype& type, int src, int tag);
    Request isend(const void* buf, int count, const Datatype& type, int dst, int tag);
    Request irecv(void* buf, int count, const Datatype& type, int src, int tag);
    Status wait(Request& req);
    Status wait_all(std::span<Request> reqs);
    /// MPI_Test: true (and the sticky status in *st) once `req` completed.
    bool test(Request& req, Status* st = nullptr);
    /// MPI_Waitany: block until any active request completes; returns its
    /// index, or -1 when none is active.
    int wait_any(std::span<Request> reqs);
    /// MPI_Testsome: indices of requests completed without blocking.
    std::vector<int> test_some(std::span<Request> reqs);
    /// Envelope of a completed receive request (source is communicator-
    /// local, like recv()).
    [[nodiscard]] RecvResult recv_result(const Request& req) const;

    // ---- persistent requests (MPI_Send_init / MPI_Recv_init) ----
    Request send_init(const void* buf, int count, const Datatype& type, int dst,
                      int tag);
    Request recv_init(void* buf, int count, const Datatype& type, int src, int tag);
    void start(Request& req);
    void start_all(std::span<Request> reqs);

    // ---- nonblocking collectives (the blocking algorithms' round
    // schedules on the req/nbc.hpp executor; byte-oriented like
    // allgather(in, bytes_each, out); complete via wait/test) ----
    Request ibarrier();
    Request ibcast(void* buf, std::size_t bytes, int root);
    Request iallreduce_sum(const double* in, double* out, int n);
    Request iallgather(const void* in, std::size_t bytes_each, void* out);

    /// Combined send+receive (no deadlock regardless of ordering).
    Status sendrecv(const void* sbuf, int scount, const Datatype& stype, int dst,
                    int stag, void* rbuf, int rcount, const Datatype& rtype, int src,
                    int rtag);
    /// MPI_Sendrecv_replace: the received data overwrites `buf`.
    Status sendrecv_replace(void* buf, int count, const Datatype& type, int dst,
                            int stag, int src, int rtag);

    /// MPI_Probe: block until a matching message is pending; its envelope is
    /// returned without receiving the message.
    RecvResult probe(int src, int tag);
    /// MPI_Iprobe: non-blocking variant; true if a message is pending.
    bool iprobe(int src, int tag, RecvResult* out = nullptr);

    // ---- explicit packing (MPI_Pack / MPI_Unpack) ----
    [[nodiscard]] std::size_t pack_size(int count, const Datatype& type) const {
        return type.size() * static_cast<std::size_t>(count);
    }
    /// Append `count` x `type` from `inbuf` to `outbuf` at `*position`.
    Status pack(const void* inbuf, int count, const Datatype& type,
                std::span<std::byte> outbuf, std::size_t* position);
    /// Extract `count` x `type` from `inbuf` at `*position` into `outbuf`.
    Status unpack(std::span<const std::byte> inbuf, std::size_t* position,
                  void* outbuf, int count, const Datatype& type);

    // ---- collectives (src/mpi/coll/; SCIMPI_COLL selects algorithms) ----
    void barrier();
    Status bcast(void* buf, int count, const Datatype& type, int root);
    Status reduce_sum(const double* in, double* out, int n, int root);
    Status allreduce_sum(const double* in, double* out, int n);
    Status allgather(const void* in, std::size_t bytes_each, void* out);
    /// Typed allgather (MPI_Allgather): every rank contributes `count` x
    /// `type`; block i of `out` receives rank i's contribution. Non-
    /// contiguous types flow through the canonical packed stream (flattened
    /// straight into the collective segments when order-safe).
    Status allgather(const void* in, int count, const Datatype& type, void* out);
    Status gather(const void* in, std::size_t bytes_each, void* out, int root);
    Status scatter(const void* in, std::size_t bytes_each, void* out, int root);
    Status alltoall(const void* in, std::size_t bytes_each, void* out);

    // ---- special memory (MPI_Alloc_mem: SCI-shareable) ----
    Result<std::span<std::byte>> alloc_mem(std::size_t bytes);
    Status free_mem(std::span<std::byte> mem);
    /// True if `p` lies in this rank's node arena (directly remotely
    /// accessible, the precondition for the direct one-sided path).
    [[nodiscard]] bool is_shared_mem(const void* p) const;

    // ---- one-sided (MPI-2); see mpi/rma/window.hpp ----
    /// Collective: every rank contributes `base[0..size)`.
    std::shared_ptr<Win> win_create(void* base, std::size_t size);

private:
    friend class Win;
    Cluster* cluster_;
    Rank* rank_;
    std::shared_ptr<const CommGroup> group_;
    int local_rank_ = -1;
};

}  // namespace scimpi::mpi
