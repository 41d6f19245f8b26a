// SCI network topologies: unidirectional ringlets and 2D/3D tori of
// ringlets. Links are unidirectional point-to-point segments (node i -> node
// i+1 on a ring). Routing is along the ring; on a torus, dimension-order (x
// then y, then z). A dimension-order route is at most one arc per
// dimension, so routes are computed on demand and the topology keeps only
// O(nodes + links) state.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "common/status.hpp"

namespace scimpi::sci {

/// A run of consecutive links on one ringlet. A ring's links are numbered
/// contiguously, so element k of the arc is link base + (start + k) % size.
struct Arc {
    int base = 0;   ///< id of the ring's first link
    int size = 0;   ///< links on the ring
    int start = 0;  ///< ring position of the arc's first link
    int len = 0;    ///< links traversed, 1 .. size-1
    bool operator==(const Arc&) const = default;
};

/// Links traversed src -> dst: one arc per dimension that moves, in travel
/// order. Two routes are equal iff they cross the same links in the same
/// order (consecutive arcs lie on different ringlets).
class Route {
public:
    static constexpr int kMaxArcs = 3;

    void append(const Arc& a) { arcs_.at(static_cast<std::size_t>(count_++)) = a; }

    [[nodiscard]] int hops() const {
        int n = 0;
        for (int i = 0; i < count_; ++i) n += arcs_[static_cast<std::size_t>(i)].len;
        return n;
    }

    /// Calls f(link) for every link of the route, in travel order.
    template <class F>
    void for_each_link(F&& f) const {
        for (int i = 0; i < count_; ++i) {
            const Arc& a = arcs_[static_cast<std::size_t>(i)];
            const int head = std::min(a.len, a.size - a.start);
            for (int k = 0; k < head; ++k) f(a.base + a.start + k);
            for (int k = 0; k < a.len - head; ++k) f(a.base + k);
        }
    }

    bool operator==(const Route&) const = default;

private:
    std::array<Arc, kMaxArcs> arcs_{};
    int count_ = 0;
};

class Topology {
public:
    /// Single unidirectional ringlet of `nodes` nodes. Link i: i -> (i+1)%n.
    static Topology ring(int nodes);

    /// 2D torus of ringlets: `w` x `h` nodes, a horizontal ringlet per row
    /// and a vertical ringlet per column. Node id = y*w + x.
    static Topology torus2d(int w, int h);

    /// 3D torus of ringlets (the paper's Section 5.3 scaling proposal:
    /// "a 512 nodes system when using 3D-torus topology").
    /// Node id = (z*h + y)*w + x; dimension-order routing x, then y, then z.
    static Topology torus3d(int w, int h, int d);

    [[nodiscard]] int nodes() const { return nodes_; }
    [[nodiscard]] int links() const { return static_cast<int>(link_from_.size()); }

    /// Link endpoints.
    [[nodiscard]] int link_from(int link) const { return link_from_.at(static_cast<std::size_t>(link)); }
    [[nodiscard]] int link_to(int link) const { return link_to_.at(static_cast<std::size_t>(link)); }

    /// Links traversed by a request travelling src -> dst (empty if equal).
    [[nodiscard]] Route route(int src, int dst) const { return walk(src, dst, false); }

    /// Alternate route using the reversed dimension order (y before x on a
    /// 2D torus). On a single ringlet there is no alternative, so this
    /// equals route(). Used to steer around a down link (degraded mode).
    [[nodiscard]] Route alt_route(int src, int dst) const { return walk(src, dst, true); }

    /// Links traversed by the echo/response on its way back (dst -> src,
    /// continuing around the ring(s)).
    [[nodiscard]] Route echo_route(int src, int dst) const { return route(dst, src); }

    [[nodiscard]] int hops(int src, int dst) const { return route(src, dst).hops(); }

private:
    Topology() = default;
    /// Adds a ringlet along dimension `dim` (0 = x); members in ring order.
    void add_ring(int dim, const std::vector<int>& members);
    [[nodiscard]] Route walk(int src, int dst, bool reverse_dims) const;

    int nodes_ = 0;
    // Link base + i of a ring leaves its member i, so link_from_ also lists
    // each ring's members in ring order.
    std::vector<int> link_from_, link_to_;
    struct RingRef {
        int base = 0;  // id of the ring's first link
        int size = 0;  // members (= links) on the ring
        int pos = 0;   // the node's position on the ring = its coordinate
    };
    std::vector<std::vector<RingRef>> node_rings_;  // [dim][node]
};

}  // namespace scimpi::sci
