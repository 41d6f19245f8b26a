// Causal event graph: the substrate for offline critical-path analysis.
//
// Every sim-level completion event (a p2p protocol phase, a rendezvous
// handshake leg, an RMA op, a collective round, a pack/unpack, a fault
// retry backoff) is recorded as an interval node on a track (a sim process
// id, mapped to an MPI rank via set_track_rank). Nodes on one track chain
// implicitly in program order (`prev`); cross-track causality — a control
// message push observed by the peer's dispatch, a request completion waking
// a blocked Wait, a barrier exit enabled by the last rank's entry, a lock
// hand-over mirrored from scimpi-check's vector clocks — is an explicit
// edge carrying a gap category (link transit, protocol/sync wait, DES
// scheduling).
//
// critical_path() walks the graph backward from the last completion,
// tiling [0, end_time] exactly: active node intervals are attributed to
// their category, gaps between a node and its latest-finishing predecessor
// to the category of the edge that was followed. Wait nodes are
// *transparent* — they contribute no attribution of their own and the walk
// chains through their cross edge to the event that released them, so a
// late-sender wait is blamed on the rank that originated the delay chain
// (Scalasca-style root-cause propagation), not the rank that surfaced it.
//
// The graph serializes as line-oriented JSONL (SCIMPI_EVLOG /
// ClusterOptions::evlog); the writer always terminates the stream with a
// trailer record, and the loader tolerates its absence so logs from
// aborted runs stay readable. scimpi-analyze (tools/) consumes the format
// offline.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "obs/intern.hpp"

namespace scimpi::obs {

/// Critical-path attribution categories. Order is the serialization order;
/// append only.
enum class EvCat : std::uint8_t {
    compute = 0,  ///< application time between library events
    pack,         ///< datatype pack/unpack (staging copies, gather programs)
    pio,          ///< adapter programmed-IO stores (doorbells, inline payloads)
    dma,          ///< adapter DMA engine transfers
    link,         ///< SCI link transit (gap on a message edge)
    proto,        ///< protocol bookkeeping (matching, handshakes, ctrl handling)
    wait_recv,    ///< blocked in Wait/Recv/credit stall (transparent)
    wait_sync,    ///< blocked in barrier/fence/PSCW/lock (transparent)
    retry,        ///< fault retry backoff
    coll,         ///< collective algorithm residue (container, transparent)
    rma,          ///< one-sided op execution
    sched,        ///< DES scheduling / unattributed causal gap
};
inline constexpr int kEvCats = 12;
const char* ev_cat_name(EvCat c);
/// Inverse of ev_cat_name; false when `s` names no category.
bool ev_cat_parse(std::string_view s, EvCat& out);

struct EvNode {
    SimTime t0 = 0, t1 = 0;
    std::uint64_t bytes = 0;
    std::uint64_t prev = 0;   ///< program-order predecessor on same track (0 = none)
    std::uint32_t name = 0;   ///< interned label
    std::int32_t track = 0;   ///< sim process id
    EvCat cat = EvCat::compute;
    bool transparent = false; ///< contributes no attribution; walk passes through
};

struct EvEdge {
    std::uint64_t from = 0, to = 0;  ///< 1-based node ids, from < to
    std::int32_t a = -1, b = -1;     ///< SCI node pair for link naming ("a->b")
    EvCat cat = EvCat::sched;        ///< category charged to the gap this edge spans
};

/// Aggregated per-(src,dst) message traffic for the communication matrix.
struct EvMsgCell {
    std::int32_t src = 0, dst = 0;
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t lat_sum_ns = 0;
};

struct EvLogLoaded;

class EventGraph {
public:
    void enable() {
        enabled_ = true;
        if (nodes_.capacity() < kReserveNodes) nodes_.reserve(kReserveNodes);
    }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Cap on recorded nodes; once reached, node() drops (counted in the
    /// trailer) so a runaway run cannot exhaust host memory.
    void set_cap(std::size_t cap) { cap_ = cap; }
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

    /// Map a sim track (process id) to the MPI rank it executes for; async
    /// progress daemons map to the rank they serve.
    void set_track_rank(int track, int rank) { track_rank_[track] = rank; }
    [[nodiscard]] int rank_of(int track) const {
        const auto it = track_rank_.find(track);
        return it == track_rank_.end() ? -1 : it->second;
    }
    [[nodiscard]] int world() const;

    std::uint32_t intern(std::string_view s) { return names_.intern(s); }
    [[nodiscard]] const std::string& name(std::uint32_t id) const {
        return names_.name(id);
    }

    /// Record an interval node, chained after the track's previous node.
    /// Returns the 1-based node id (0 while disabled or once capped).
    std::uint64_t node(int track, EvCat cat, std::string_view name, SimTime t0,
                       SimTime t1, std::uint64_t bytes = 0,
                       bool transparent = false);

    /// Record a cross-track causal edge. No-op if either endpoint is 0
    /// (disabled recording or a dropped node); `from` must precede `to`.
    void edge(std::uint64_t from, std::uint64_t to, EvCat cat, int a = -1,
              int b = -1);

    /// Accumulate one delivered message into the (src,dst) traffic matrix.
    void message(int src, int dst, std::uint64_t bytes, SimTime latency);

    /// Last node recorded on `track` (0 if none) — the implicit program-order
    /// head that the next node on the track will chain to.
    [[nodiscard]] std::uint64_t last(int track) const {
        const auto it = last_.find(track);
        return it == last_.end() ? 0 : it->second;
    }

    [[nodiscard]] const std::vector<EvNode>& nodes() const { return nodes_; }
    [[nodiscard]] const std::vector<EvEdge>& edges() const { return edges_; }
    [[nodiscard]] const EvNode& at(std::uint64_t id) const { return nodes_.at(id - 1); }
    [[nodiscard]] std::vector<EvMsgCell> messages() const;

    void clear();

    /// Serialize as JSONL: header, track map, nodes, edges, message cells,
    /// then a trailer record marking the log complete.
    [[nodiscard]] Status write_jsonl(const std::string& path, SimTime sim_time) const;

    /// Parse a log produced by write_jsonl. A missing trailer sets
    /// `truncated` instead of failing; malformed lines after a valid header
    /// are skipped (the tail of a torn write).
    static Result<EvLogLoaded> load_jsonl(const std::string& path);

private:
    static constexpr std::size_t kReserveNodes = 4096;

    bool enabled_ = false;
    std::size_t cap_ = 4u << 20;  // 4M nodes ≈ a few hundred MiB of JSONL
    std::uint64_t dropped_ = 0;
    std::vector<EvNode> nodes_;
    std::vector<EvEdge> edges_;
    std::map<int, std::uint64_t> last_;
    std::map<int, int> track_rank_;
    std::map<std::pair<int, int>, EvMsgCell> traffic_;
    Interner names_;
};

/// An event log parsed back from disk (scimpi-analyze, tests).
struct EvLogLoaded {
    EventGraph graph;
    std::uint64_t sim_time_ns = 0;
    int world = 0;
    bool truncated = false;  ///< no trailer: log from an aborted run
};

/// One attributed interval on the critical path (in backward-walk order;
/// reverse for a forward timeline overlay).
struct CritSeg {
    EvCat cat;
    SimTime t0, t1;
    int track;             ///< track blamed (edge gaps blame the origin side)
    std::int32_t link_a = -1, link_b = -1;  ///< set for link-category gaps
};

struct CriticalPath {
    std::uint64_t total_ns = 0;  ///< == end_time; categories tile it exactly
    std::array<std::uint64_t, kEvCats> cat_ns{};
    std::map<std::string, std::uint64_t> link_ns;  ///< "a->b" -> ns on path
    std::map<int, std::uint64_t> rank_ns;          ///< blamed rank -> ns
    std::vector<CritSeg> segments;
    std::size_t steps = 0;  ///< nodes visited by the walk

    [[nodiscard]] std::uint64_t category(EvCat c) const {
        return cat_ns[static_cast<std::size_t>(c)];
    }
};

/// Backward walk from the latest completion, attributing [0, end_time].
/// Deterministic: ties in predecessor choice break toward the larger node
/// id (the later-scheduled event).
CriticalPath critical_path(const EventGraph& g, SimTime end_time);

}  // namespace scimpi::obs
