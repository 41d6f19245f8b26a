// Per-rank protocol state: matching queues, protocol engines and the
// progress loop. Internal to the library; applications use mpi::Comm.
//
// Protocols (SCI-MPICH style):
//   * short  — payload inline in the control packet (<= short_threshold),
//   * eager  — payload pushed into the receiver's eager buffers, flow
//     controlled by per-pair credits (<= eager_threshold),
//   * rendezvous — RTS/CTS handshake, then the sender packs chunks directly
//     into a ring buffer in the receiver's memory (2 chunks, double
//     buffered). With direct_pack_ff the sender gathers non-contiguous
//     blocks straight into the remote chunk (Figure 4 bottom); the generic
//     path stages through a local pack buffer (Figure 4 top).
//
// Wire pack-order negotiation (beyond the paper, which pairs ff with ff
// implicitly): the CTS grants ff_leaf_major only when both fingerprints
// match; otherwise the stream is canonical and each side independently uses
// ff when its own leaf-major order is canonical, falling back to the
// generic walker otherwise.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/function_ref.hpp"
#include "mpi/datatype/pack_ff.hpp"
#include "mpi/datatype/pack_generic.hpp"
#include "mpi/req/table.hpp"
#include "mpi/types.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sci/adapter.hpp"
#include "smi/region.hpp"
#include "sim/sync.hpp"

namespace scimpi::mpi {

class Cluster;
class RmaState;

namespace req {
class Engine;
}

struct SendOp {
    std::uint64_t handle = 0;
    Envelope env;
    const void* buf = nullptr;
    int count = 0;
    Datatype type;
    bool complete = false;
    Status status;
    // rendezvous state
    bool cts_received = false;
    bool aborted = false;  ///< retry budget exhausted; drain acks, send no more
    std::uint64_t recv_handle = 0;
    std::optional<sci::SciMapping> ring;  ///< imported receiver ring
    PackMode mode = PackMode::canonical;
    std::size_t next_pos = 0;      ///< packed-stream position already sent
    int credits = 0;               ///< free ring chunks
    int acks_pending = 0;          ///< chunks sent but not yet acknowledged
    std::uint64_t next_chunk = 0;  ///< ring chunk index to fill next
    std::uint64_t check_id = 0;    ///< scimpi-check pending-buffer entry
    std::uint64_t ev_done = 0;     ///< causal-graph completion node (wait edges)
    obs::Cause cause;              ///< flow arrow, opened when the message
                                   ///< goes on the wire
};

struct RecvOp {
    std::uint64_t handle = 0;
    void* buf = nullptr;
    int count = 0;
    Datatype type;
    int src_filter = ANY_SOURCE;
    int tag_filter = ANY_TAG;
    int context = 0;
    bool matched = false;
    bool complete = false;
    Envelope env;  ///< valid once matched
    Status status;
    std::size_t received = 0;
    PackMode mode = PackMode::canonical;
    std::uint64_t sender_handle = 0;
    SimTime post_time = 0;  ///< when the receive was posted (wait-state analysis)
    // Per-transfer rendezvous ring (2 chunks in this rank's node arena),
    // allocated at RTS time and released at completion.
    std::span<std::byte> ring_mem;
    sci::SegmentId ring_seg;
    std::uint64_t check_id = 0;  ///< scimpi-check pending-buffer entry
    std::uint64_t ev_done = 0;   ///< causal-graph completion node (wait edges)
};

class Rank {
public:
    Rank(Cluster& cluster, int rank, int node);
    ~Rank();

    [[nodiscard]] int rank() const { return rank_; }
    [[nodiscard]] int node() const { return node_; }
    [[nodiscard]] Cluster& cluster() { return cluster_; }
    [[nodiscard]] sci::SciAdapter& adapter();
    [[nodiscard]] const mem::CopyModel& copy_model() const { return copy_model_; }
    /// Count a pack/unpack in the pack.ff_packs / pack.generic_packs
    /// counters (`staged`: bytes a generic pack copied into a buffer,
    /// pack.generic_staged_bytes; 0 for an unpack) and return its cost.
    /// The point-to-point moves, Comm::pack/unpack and the emulated
    /// payload pack go through here.
    SimTime count_pack(const StreamMove& m, std::size_t staged = 0);

    void bind(sim::Process& proc) { proc_ = &proc; }
    [[nodiscard]] sim::Process& proc() {
        SCIMPI_REQUIRE(proc_ != nullptr, "rank not bound to a process");
        return *proc_;
    }

    /// The process currently executing this rank's protocol code: the async
    /// progress daemon while it dispatches on the rank's behalf, otherwise
    /// the rank's own process. Protocol-path delays must charge the
    /// executing process, so daemon-driven progress does not consume the
    /// application's timeline (that is what buys communication overlap).
    [[nodiscard]] sim::Process& cur_proc();

    // ---- p2p (src/dst are world ranks; context separates communicators) ----
    std::shared_ptr<SendOp> isend(const void* buf, int count, const Datatype& type,
                                  int dst, int tag, int context = 0);
    std::shared_ptr<RecvOp> irecv(void* buf, int count, const Datatype& type,
                                  int src, int tag, int context = 0);
    Status send(const void* buf, int count, const Datatype& type, int dst, int tag,
                int context = 0);
    RecvResult recv(void* buf, int count, const Datatype& type, int src, int tag,
                    int context = 0);
    void wait(SendOp& op);
    void wait(RecvOp& op);

    /// A blocking wait on the calling track: a transparent graph node over
    /// the time it actually blocked (none when it did not). Transparent
    /// nodes carry no blame of their own; the critical-path walk chains
    /// through them to the delay's originator.
    static obs::SpanInfo wait_span(const char* name) {
        return {.name = name, .ev = obs::EvCat::wait_recv, .drop_empty = true};
    }
    /// Close `wait` with a scheduling edge from `release`, the completion
    /// node that ended it (0 = unknown).
    static void end_wait(sim::Process& self, obs::Span& wait, std::uint64_t release);

    /// Probe for a pending message matching (src, tag) without receiving
    /// it. Blocking variant waits until one arrives.
    std::optional<Envelope> probe(int src, int tag, bool blocking, int context = 0);

    /// Drive the progress engine: handle exactly one incoming control
    /// message (blocking).
    void progress_one();
    /// Handle all currently queued control messages without blocking.
    /// No-op while the async-progress daemon is active (it is the sole
    /// dispatcher then; a second driver would re-enter dispatch).
    void progress_poll();
    /// Block until progress was made: with the async daemon active, park
    /// until it signals; otherwise handle one control message directly.
    void progress_wait();
    /// Body of the per-rank async-progress daemon (ClusterOptions::
    /// async_progress): drains the inbox and pumps the request engine on
    /// behalf of the rank, waking parked progress_wait() callers.
    void progress_daemon_body(sim::Process& p);

    /// Per-rank request engine (mpi/req), created on first use.
    [[nodiscard]] req::Engine& requests();

    /// Delayed-delivery entry point used by peers (via a timed engine callback).
    sim::Mailbox<CtrlMsg>& inbox() { return inbox_; }
    /// Where this rank parks while a collective segment set polls its flag
    /// words (coll::CollSegmentSet::park). Woken by every flag or ack write
    /// into its control segment and by every control-message arrival.
    sim::WaitQueue& coll_waiters() { return coll_waiters_; }

    /// Outstanding-request depths (flight-recorder probes): sends/recvs
    /// started but not yet complete, plus queued unexpected/posted entries.
    /// Backed by the request table (req::OpTable), the single source of
    /// truth for in-flight protocol operations.
    [[nodiscard]] std::size_t live_send_count() const { return ops_.send_count(); }
    [[nodiscard]] std::size_t live_recv_count() const { return ops_.recv_count(); }
    [[nodiscard]] std::size_t unexpected_count() const { return unexpected_.size(); }
    [[nodiscard]] std::size_t posted_count() const { return posted_.size(); }

    /// Context-id allocation for Comm::split (collectively synchronized).
    [[nodiscard]] int peek_next_context() const { return next_context_; }
    void set_next_context(int c) { next_context_ = c; }

    /// One-sided communication state (created by Cluster; see mpi/rma).
    [[nodiscard]] RmaState& rma() {
        SCIMPI_REQUIRE(rma_ != nullptr, "RMA state not initialised");
        return *rma_;
    }
    void set_rma(std::unique_ptr<RmaState> rma);

private:
    friend class Cluster;

    /// Size the per-peer tables once the world size is known.
    void init_world(int world_size);

    // Control-plane helpers. post_ctrl returns the causal-graph node of the
    // wire push (0 when the event graph is disabled) so short/eager sends
    // can use it as their completion event.
    std::uint64_t post_ctrl(int dst, CtrlMsg msg);
    void dispatch(CtrlMsg msg);
    void start_send(SendOp& op);
    void pump_rndv(SendOp& op);
    /// Run `attempt` under the cluster's backoff policy (fault/retry.hpp),
    /// charging the mpi.send_retries / _recoveries / _giveups counters.
    Status retry_remote(int peer_node, FunctionRef<Status()> attempt);
    /// Give up on a rendezvous send: record `st`, stop pumping and tell the
    /// receiver (rndv_fail) so it completes with the error and frees its ring.
    void abort_rndv(SendOp& op, const Status& st);
    void handle_rts(RecvOp& op, const CtrlMsg& rts);
    void handle_chunk(RecvOp& op, const CtrlMsg& chunk);
    void deliver_inline(RecvOp& op, const CtrlMsg& msg);
    bool try_match(RecvOp& op);
    static bool matches(const RecvOp& op, const Envelope& env);

    /// Pack `len` stream bytes starting at `pos` into the remote ring chunk.
    /// Returns the adapter status; callers retry on link_failure.
    Status pack_into_ring(SendOp& op, const sci::SciMapping& ring,
                          std::size_t ring_off, std::size_t pos, std::size_t len);
    /// Unpack `len` stream bytes from the local ring chunk into the user buffer.
    void unpack_from_ring(RecvOp& op, std::span<std::byte> chunk, std::size_t pos,
                          std::size_t len);

    /// Complete a matched receive whose last packet `msg` just landed.
    void finish_recv(RecvOp& op, const CtrlMsg& msg, obs::Histogram& latency);
    /// Blocking completion of a send or receive (Rank::wait).
    template <class Op>
    void wait_op(Op& op, const char* name);

    Cluster& cluster_;
    int rank_;
    int node_;
    sim::Process* proc_ = nullptr;
    mem::CopyModel copy_model_;

    sim::Mailbox<CtrlMsg> inbox_;
    sim::WaitQueue coll_waiters_;
    std::deque<std::shared_ptr<RecvOp>> posted_;
    std::deque<CtrlMsg> unexpected_;
    req::OpTable ops_;  ///< in-flight sends/recvs, keyed by handle

    // Eager flow control: credits per destination rank.
    std::vector<int> eager_credits_;
    sim::WaitQueue credit_waiters_;
    /// Arrival node of the last eager credit per peer: the release event a
    /// credit-starved sender's wait node hangs off (late-receiver blame).
    std::vector<std::uint64_t> last_credit_ev_;

    // Async progress (ClusterOptions::async_progress / SCIMPI_ASYNC).
    sim::Process* daemon_proc_ = nullptr;  ///< non-null once the daemon runs
    sim::WaitQueue progress_waiters_;

    std::unique_ptr<req::Engine> req_;  ///< lazily created (see requests())

    int next_context_ = 1;  ///< allocator for Comm::split (see comm.cpp)
    std::vector<std::uint64_t> send_seq_;  // per destination

    /// Registry handles, resolved once at construction: this rank's slot of
    /// each mpi.* / pack.* counter; the histograms are shared by all ranks.
    struct ProtoMetrics {
        obs::Counter* sends_short = nullptr;
        obs::Counter* sends_eager = nullptr;
        obs::Counter* sends_rndv = nullptr;
        obs::Counter* bytes_short = nullptr;
        obs::Counter* bytes_eager = nullptr;
        obs::Counter* bytes_rndv = nullptr;
        obs::Counter* unexpected = nullptr;
        obs::Counter* ff_packs = nullptr;
        obs::Counter* generic_packs = nullptr;
        obs::Counter* ff_direct_writes = nullptr;
        obs::Counter* ff_direct_blocks = nullptr;
        obs::Counter* ff_direct_bytes = nullptr;
        obs::Counter* generic_staged_bytes = nullptr;
        obs::Counter* send_retries = nullptr;
        obs::Counter* send_recoveries = nullptr;
        obs::Counter* send_giveups = nullptr;
        obs::Histogram* lat_short = nullptr;
        obs::Histogram* lat_eager = nullptr;
        obs::Histogram* lat_rndv = nullptr;
        obs::Histogram* ff_throughput = nullptr;
    };
    ProtoMetrics pm_;

    std::unique_ptr<RmaState> rma_;
};

}  // namespace scimpi::mpi
