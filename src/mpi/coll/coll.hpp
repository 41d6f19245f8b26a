// The SCI-native collective engine (DESIGN.md §11). Comm's collective
// methods (api.cpp) select an algorithm (tuning.hpp), lazily bootstrap a
// per-communicator collective segment set (segment_set.hpp) and run the
// algorithm's round schedule (sched.hpp) over p2p or the segments,
// recording coll.* metrics and a trace span per call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "mpi/coll/tuning.hpp"
#include "obs/metrics.hpp"

namespace scimpi::mpi {
class Cluster;
class Comm;
}  // namespace scimpi::mpi

namespace scimpi::mpi::coll {

class CollSegmentSet;

// Reserved tags (context-scoped, never matched by user ANY_TAG receives).
// The blocking p2p executor gives round r of operation op the tag
// kTagColl - op * kTagBand - r; the segment engine claims the -1024 region
// for stream fallbacks and -1100 for barrier tokens; nonblocking schedules
// draw their bands below req::kTagNbcBase.
inline constexpr int kTagStreamFbk = -1024;  ///< a stream's p2p divert
inline constexpr int kTagBarrierFbk = -1100; ///< minus the dissemination round
inline constexpr int kTagColl = -(1 << 16);
inline constexpr int kTagBand = 1 << 16;     ///< rounds per operation

/// Cluster-wide registry slots for the engine, resolved once.
struct CollMetrics {
    obs::Counter* calls[kOps] = {};          ///< per-op invocation counts
    obs::Histogram* latency[kOps] = {};      ///< per-op call latency (ns)
    obs::Counter* seg_ops = nullptr;         ///< calls routed over segments
    obs::Counter* p2p_ops = nullptr;         ///< calls routed over p2p
    obs::Counter* seg_bytes = nullptr;       ///< payload bytes through segments
    obs::Counter* seg_chunks = nullptr;      ///< stream chunks written
    obs::Counter* ff_seg_packs = nullptr;    ///< direct_pack_ff into a segment
    obs::Counter* generic_seg_packs = nullptr;
    obs::Counter* fallbacks = nullptr;       ///< writer-side p2p fallbacks
    obs::Counter* fallback_recvs = nullptr;  ///< transfers finished via p2p
    obs::Counter* ack_drops = nullptr;       ///< reader acks lost to dead links
    obs::Counter* degraded_edges = nullptr;  ///< edges pinned to the p2p path
    obs::Counter* segment_sets = nullptr;    ///< collective segment sets built
    obs::Counter* small_allreduce = nullptr; ///< pinned fast-path hits
};

/// Cluster-owned engine state: the parsed tuning plus the per-communicator
/// segment-set pool. Single simulated-thread discipline: no locking.
class CollRuntime {
public:
    CollRuntime(Cluster& cluster, const std::string& spec);
    ~CollRuntime();
    CollRuntime(const CollRuntime&) = delete;
    CollRuntime& operator=(const CollRuntime&) = delete;

    [[nodiscard]] const Tuning& tuning() const { return tuning_; }
    [[nodiscard]] CollMetrics& metrics() { return cm_; }

    /// The segment set for `comm`'s context, bootstrapping it on first use.
    /// Collective: selection is deterministic, so every member reaches the
    /// first segment-routed op together and synchronizes inside. Returns
    /// null when the set is unusable (arena exhausted on any node).
    CollSegmentSet* ensure_set(Comm& comm);

    /// Destroy every segment set, returning the arena bytes. Called by
    /// Cluster::run after the simulation drains (no processes left).
    void release_sets();

    // ---- causal event graph (obs/evgraph): collective sync epochs ----
    // Every member of a communicator calls collectives in the same order, so
    // the Nth collective on a context is one epoch across all members. The
    // epoch tracks the latest entry event; each member's exit hangs a
    // wait_sync edge off it, giving the critical-path walk a route from an
    // early rank's barrier exit to the straggler that held everyone up.
    /// Per-(context, rank) collective-call sequence number.
    std::uint64_t next_coll_seq(int context, int rank) {
        return coll_seq_[{context, rank}]++;
    }
    /// Record `entry_ev` (a rank's entry node) into epoch (context, seq).
    void coll_enter(int context, std::uint64_t seq, std::uint64_t entry_ev) {
        std::uint64_t& latest = epochs_[{context, seq}].latest_entry;
        latest = std::max(latest, entry_ev);  // node ids are time-ordered
    }
    /// A member left epoch (context, seq): returns the latest entry event so
    /// the caller can add the wait_sync edge; frees the epoch once all
    /// `comm_size` members exited.
    std::uint64_t coll_exit(int context, std::uint64_t seq, int comm_size) {
        const auto key = std::make_pair(context, seq);
        auto it = epochs_.find(key);
        if (it == epochs_.end()) return 0;
        const std::uint64_t latest = it->second.latest_entry;
        if (++it->second.exits >= comm_size) epochs_.erase(it);
        return latest;
    }

private:
    Cluster& cluster_;
    Tuning tuning_;
    CollMetrics cm_;
    std::map<int, std::unique_ptr<CollSegmentSet>> sets_;  // by context id

    struct CollEpoch {
        std::uint64_t latest_entry = 0;
        int exits = 0;
    };
    std::map<std::pair<int, std::uint64_t>, CollEpoch> epochs_;
    std::map<std::pair<int, int>, std::uint64_t> coll_seq_;
};

}  // namespace scimpi::mpi::coll
