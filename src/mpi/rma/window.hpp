// MPI-2 one-sided communication (paper Section 4).
//
// A window is created collectively; each rank contributes a memory region.
// SCI-MPICH's key distinction is remembered per peer: regions allocated via
// MPI_Alloc_mem live in the node arena and are *SCI shared* — accessible
// directly by remote CPUs — while private (heap) regions require *emulation*
// through a remote handler invoked by an SCI interrupt (smi::SignalChannel).
//
// Data paths implemented (Section 4.2):
//   * direct put  — origin CPU writes through the imported segment,
//   * direct get  — origin CPU reads remotely, only up to
//     Config::get_remote_put_threshold (reads are slow on SCI),
//   * remote-put get — above the threshold (or for private memory) the
//     target's handler *writes* the data into the origin's staging segment,
//   * emulated put / accumulate — control message + handler-side copy/RMW.
//
// Synchronization: fence, post/start/complete/wait, lock/unlock (shared
// memory locks, paper reference [14]).
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "mpi/datatype/datatype.hpp"
#include "mpi/types.hpp"
#include "obs/metrics.hpp"
#include "sci/segment.hpp"
#include "smi/lock.hpp"
#include "smi/signal.hpp"

namespace scimpi::check {
class Checker;
enum class SyncMode : std::uint8_t;
enum class AccessKind : std::uint8_t;
}

namespace scimpi::mpi {

class Comm;
class Rank;
class RmaState;

/// Per-peer window description, exchanged at creation.
struct WinPeer {
    bool shared = false;        ///< region is in the node arena (direct access)
    sci::SegmentId seg;         ///< valid when shared
    std::size_t size = 0;
    int node = -1;
};

class Win {
public:
    /// Collective constructor (MPI_Win_create). `base` may be private heap
    /// memory or a Comm::alloc_mem region; SCI-MPICH detects which.
    static std::shared_ptr<Win> create(Comm& comm, void* base, std::size_t size);
    ~Win();

    Win(const Win&) = delete;
    Win& operator=(const Win&) = delete;

    // ---- communication calls (must be inside an epoch) ----
    /// Store `count` instances of `type` at byte displacement `disp` in
    /// `target`'s window; the target layout mirrors the origin layout.
    Status put(const void* origin, int count, const Datatype& type, int target,
               std::size_t disp);
    Status get(void* origin, int count, const Datatype& type, int target,
               std::size_t disp);
    /// Reduction operator for accumulate (element type: double).
    enum class ReduceOp : std::uint8_t { sum, prod, min, max, replace };

    /// MPI_Accumulate over doubles with any layout whose basic blocks are
    /// multiples of sizeof(double). Combination happens target-side (SCI
    /// offers no remote read-modify-write).
    Status accumulate(const void* origin, int count, const Datatype& type,
                      int target, std::size_t disp, ReduceOp op);
    /// MPI_Accumulate with MPI_SUM over doubles (the paper's use case).
    Status accumulate_sum(const double* origin, int count, int target,
                          std::size_t disp) {
        return accumulate(origin, count, Datatype::float64(), target, disp,
                          ReduceOp::sum);
    }

    // ---- synchronization ----
    void fence();                                ///< active target, collective
    void post(std::span<const int> origin_group);   ///< exposure epoch begin
    void wait();                                    ///< exposure epoch end
    /// MPI_Win_test: non-blocking wait(). True (and the epoch is closed)
    /// when every origin in the post group has completed.
    bool test();
    void start(std::span<const int> target_group);  ///< access epoch begin
    void complete();                                ///< access epoch end
    void lock(int target, bool exclusive = true);   ///< passive target
    void unlock(int target);

    [[nodiscard]] bool target_shared(int target) const {
        return peers_[static_cast<std::size_t>(target)].shared;
    }
    [[nodiscard]] std::span<std::byte> local() { return local_; }
    /// Combine the `len` bytes of doubles at `src` into `dst` element by
    /// element (accumulate, local and at the handler). Neither side needs
    /// to be aligned: a packed payload is not.
    static void combine(ReduceOp op, std::byte* dst, const std::byte* src, std::size_t len);
    [[nodiscard]] int id() const { return id_; }
    [[nodiscard]] int my_rank() const;

private:
    friend class RmaState;
    Win(Comm& comm, std::span<std::byte> local, int id);

    /// Imported mapping of a shared peer window (lazily cached).
    const sci::SciMapping& peer_mapping(int target);

    Status put_direct(const void* origin, int count, const Datatype& type, int target,
                      std::size_t disp);
    Status get_direct(void* origin, int count, const Datatype& type, int target,
                      std::size_t disp);
    /// Emulated put (`kind` rma_proto::kPut) or accumulate (kAccumulate,
    /// `op` its ReduceOp): pack the data behind its block descriptors and
    /// signal the target's handler.
    Status emulate(int kind, std::uint64_t op, const void* origin, int count,
                   const Datatype& type, int target, std::size_t disp);
    Status get_remote_put(void* origin, int count, const Datatype& type, int target,
                          std::size_t disp);
    Status op_local(void* origin_or_src, int count, const Datatype& type,
                    std::size_t disp, bool is_put);

    /// Shared checks of put/get/accumulate: window bounds, (for
    /// accumulate) double granularity, and the access epoch; reports the
    /// access, or the violation, to the checker.
    Status admit(check::AccessKind kind, check::AccessKind local_kind,
                 const Datatype& t, int count, int target, std::size_t disp,
                 bool doubles);

    /// Degraded-mode routing: false when the direct (mapped-segment) path to
    /// `target` is currently unusable, so the op goes through the
    /// handler-based emulation instead (counted as a path fallback).
    bool direct_path_usable(int target);

    Comm* comm_;
    Rank* rank_;
    std::span<std::byte> local_;
    int id_;
    std::vector<WinPeer> peers_;
    std::map<int, sci::SciMapping> mappings_;
    /// Registry handles, resolved at creation: the owning world rank's slot
    /// of each rma.* counter (summed over the rank's windows); the
    /// histograms are shared by all ranks.
    struct RmaMetrics {
        obs::Counter* direct_puts = nullptr;
        obs::Counter* direct_gets = nullptr;
        obs::Counter* emulated_puts = nullptr;
        obs::Counter* remote_put_gets = nullptr;
        obs::Counter* get_conversions = nullptr;  ///< shared target, size-forced
        obs::Counter* local_ops = nullptr;
        obs::Counter* accumulates = nullptr;
        obs::Counter* direct_put_bytes = nullptr;
        obs::Counter* emulated_put_bytes = nullptr;
        obs::Counter* path_fallbacks = nullptr;  ///< dead route -> emulated path
        obs::Histogram* lat_direct = nullptr;      ///< origin-side op latency
        obs::Histogram* lat_emulated = nullptr;    ///< post -> handler done
        obs::Histogram* lat_remote_put = nullptr;  ///< full get round trip
    };
    RmaMetrics rm_;

    /// scimpi-check hooks; null unless the cluster enabled checking. All
    /// hook arguments use world ranks (epoch state is per world rank).
    check::Checker* ck_ = nullptr;

    /// True if `target` may currently be accessed from this rank (inside a
    /// fence epoch, a started access epoch containing it, or under a lock).
    [[nodiscard]] bool epoch_allows(int target) const;

    /// Which synchronization regime currently authorizes accesses to
    /// `target` (for the checker's conflict predicate; `none` for local
    /// accesses outside any epoch).
    [[nodiscard]] check::SyncMode check_mode(int target) const;

    // post/start/complete/wait bookkeeping (counters incremented by the
    // handler daemon, waited on by the rank process).
    // Unconsumed RMA_POST (origin side) and RMA_COMPLETE (target side)
    // notifications per sending world rank, so an epoch is released only by
    // its own peers' signals.
    std::map<int, int> posts_seen_;
    std::map<int, int> completes_seen_;
    std::vector<int> access_group_;
    std::vector<int> exposure_group_;
    bool fence_epoch_ = false;      // between two fences
    std::vector<int> locked_;       // passive-target locks we hold
};

/// Per-rank one-sided state: the handler daemon, window registry, pending-op
/// accounting and the staging machinery for remote-put gets.
class RmaState {
public:
    explicit RmaState(Rank& rank);
    ~RmaState();

    /// Spawn the handler daemon (called when the owning rank starts).
    void start_handler();

    [[nodiscard]] smi::SignalChannel& channel() { return channel_; }
    void register_win(Win* win);
    void unregister_win(int id);

    /// Origin-side completion accounting for fire-and-forget emulated ops.
    void add_pending() { ++pending_; }
    void wait_all_pending(sim::Process& self);

    /// Blocking wait for a specific acknowledged op (emulated gets).
    std::shared_ptr<sim::Event> new_op_event(std::uint64_t op_id);
    /// Error reported by an ack for `op_id` (ok if none); consumes the entry.
    Status take_op_error(std::uint64_t op_id);

    /// Wait until a predicate over handler-updated state becomes true.
    void wait_signal_change(sim::Process& self) {
        change_q_.park(self, "rma post/complete signal");
    }
    void notify_change() { change_q_.wake_all(); }

    [[nodiscard]] int next_win_id() { return next_win_id_++; }
    [[nodiscard]] int peek_next_win_id() const { return next_win_id_; }
    void set_next_win_id(int id) { next_win_id_ = id; }
    [[nodiscard]] std::uint64_t next_op_id() { return next_op_id_++; }

    /// The passive-target lock of window `win_id` *owned by this rank* —
    /// every origin locking this rank goes through this shared instance.
    smi::SmiLock& win_lock(int win_id);

private:
    void handler_loop(sim::Process& self);
    /// Apply an emulated put or accumulate to the window.
    void serve_write(sim::Process& self, const smi::Signal& s);
    void serve_get(sim::Process& self, const smi::Signal& s);

    Rank& rank_;
    smi::SignalChannel channel_;
    std::map<int, Win*> windows_;
    std::map<int, std::unique_ptr<smi::SmiLock>> win_locks_;
    int pending_ = 0;
    sim::WaitQueue pending_q_;
    sim::WaitQueue change_q_;
    std::map<std::uint64_t, std::shared_ptr<sim::Event>> op_events_;
    std::map<std::uint64_t, Status> op_errors_;  ///< failed remote-put acks
    int next_win_id_ = 1;
    std::uint64_t next_op_id_ = 1;
};

}  // namespace scimpi::mpi
