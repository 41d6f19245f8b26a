#include "sci/topology.hpp"

namespace scimpi::sci {

void Topology::add_ring(int dim, const std::vector<int>& members) {
    if (static_cast<std::size_t>(dim) == node_rings_.size())
        node_rings_.emplace_back(static_cast<std::size_t>(nodes_));
    auto& refs = node_rings_.at(static_cast<std::size_t>(dim));
    const int n = static_cast<int>(members.size());
    const int base = links();
    for (int i = 0; i < n; ++i) {
        const int node = members[static_cast<std::size_t>(i)];
        link_from_.push_back(node);
        link_to_.push_back(members[static_cast<std::size_t>((i + 1) % n)]);
        refs[static_cast<std::size_t>(node)] = {base, n, i};
    }
}

Topology Topology::ring(int nodes) {
    SCIMPI_REQUIRE(nodes >= 1, "ring needs >= 1 node");
    Topology t;
    t.nodes_ = nodes;
    std::vector<int> members(static_cast<std::size_t>(nodes));
    for (int i = 0; i < nodes; ++i) members[static_cast<std::size_t>(i)] = i;
    t.add_ring(0, members);
    return t;
}

Topology Topology::torus2d(int w, int h) {
    SCIMPI_REQUIRE(w >= 1 && h >= 1, "torus needs positive dimensions");
    Topology t;
    t.nodes_ = w * h;
    // Horizontal ringlets (x dimension) first: routing goes x then y.
    for (int y = 0; y < h; ++y) {
        std::vector<int> row;
        row.reserve(static_cast<std::size_t>(w));
        for (int x = 0; x < w; ++x) row.push_back(y * w + x);
        t.add_ring(0, row);
    }
    for (int x = 0; x < w; ++x) {
        std::vector<int> col;
        col.reserve(static_cast<std::size_t>(h));
        for (int y = 0; y < h; ++y) col.push_back(y * w + x);
        t.add_ring(1, col);
    }
    return t;
}

Topology Topology::torus3d(int w, int h, int d) {
    SCIMPI_REQUIRE(w >= 1 && h >= 1 && d >= 1, "torus needs positive dimensions");
    Topology t;
    t.nodes_ = w * h * d;
    const auto id = [w, h](int x, int y, int z) { return (z * h + y) * w + x; };
    // x ringlets first, then y, then z: the dimension-order of routing.
    for (int z = 0; z < d; ++z)
        for (int y = 0; y < h; ++y) {
            std::vector<int> ring_members;
            for (int x = 0; x < w; ++x) ring_members.push_back(id(x, y, z));
            t.add_ring(0, ring_members);
        }
    for (int z = 0; z < d; ++z)
        for (int x = 0; x < w; ++x) {
            std::vector<int> ring_members;
            for (int y = 0; y < h; ++y) ring_members.push_back(id(x, y, z));
            t.add_ring(1, ring_members);
        }
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
            std::vector<int> ring_members;
            for (int z = 0; z < d; ++z) ring_members.push_back(id(x, y, z));
            t.add_ring(2, ring_members);
        }
    return t;
}

Route Topology::walk(int src, int dst, bool reverse_dims) const {
    SCIMPI_REQUIRE(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_,
                   "route endpoint out of range");
    Route r;
    // Dimension-order routing: in each dimension, a node's position on its
    // ring *is* its coordinate along that dimension, so we walk the current
    // ring from our position to dst's coordinate.
    int cur = src;
    const std::size_t dims = node_rings_.size();
    for (std::size_t i = 0; i < dims; ++i) {
        const auto& dim = node_rings_[reverse_dims ? dims - 1 - i : i];
        const RingRef ref = dim[static_cast<std::size_t>(cur)];
        const int target = dim[static_cast<std::size_t>(dst)].pos;
        int len = target - ref.pos;
        if (len < 0) len += ref.size;
        if (len > 0) r.append({ref.base, ref.size, ref.pos, len});
        cur = link_from_[static_cast<std::size_t>(ref.base + target)];
    }
    SCIMPI_REQUIRE(cur == dst, "routing failed to reach destination");
    return r;
}

}  // namespace scimpi::sci
