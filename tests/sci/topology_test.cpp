#include "sci/topology.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace scimpi::sci {
namespace {

std::vector<int> links_of(const Route& r) {
    std::vector<int> out;
    r.for_each_link([&](int link) { out.push_back(link); });
    return out;
}

TEST(Topology, RingLinkEndpoints) {
    const auto t = Topology::ring(4);
    EXPECT_EQ(t.nodes(), 4);
    EXPECT_EQ(t.links(), 4);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(t.link_from(i), i);
        EXPECT_EQ(t.link_to(i), (i + 1) % 4);
    }
}

TEST(Topology, RingRouteFollowsDownstreamDirection) {
    const auto t = Topology::ring(8);
    EXPECT_EQ(links_of(t.route(0, 3)), (std::vector<int>{0, 1, 2}));
    // Wrapping route: 6 -> 1 crosses links 6, 7, 0.
    EXPECT_EQ(links_of(t.route(6, 1)), (std::vector<int>{6, 7, 0}));
    EXPECT_TRUE(links_of(t.route(5, 5)).empty());
}

TEST(Topology, RingHops) {
    const auto t = Topology::ring(8);
    EXPECT_EQ(t.hops(0, 1), 1);
    EXPECT_EQ(t.hops(0, 7), 7);  // unidirectional: all the way around
    EXPECT_EQ(t.hops(3, 3), 0);
}

TEST(Topology, EchoRouteCompletesTheRing) {
    const auto t = Topology::ring(8);
    // Request 0 -> 3 plus echo 3 -> 0 must cover every ring link exactly once.
    std::set<int> covered;
    for (int l : links_of(t.route(0, 3))) covered.insert(l);
    for (int l : links_of(t.echo_route(0, 3))) covered.insert(l);
    EXPECT_EQ(covered.size(), 8u);
    EXPECT_EQ(links_of(t.route(0, 3)).size() + links_of(t.echo_route(0, 3)).size(), 8u);
}

TEST(Topology, SingleNodeRingHasSelfLink) {
    const auto t = Topology::ring(1);
    EXPECT_EQ(t.nodes(), 1);
    EXPECT_TRUE(links_of(t.route(0, 0)).empty());
}

TEST(Topology, Torus2dDimensions) {
    const auto t = Topology::torus2d(4, 2);
    EXPECT_EQ(t.nodes(), 8);
    // 2 horizontal rings of 4 links + 4 vertical rings of 2 links.
    EXPECT_EQ(t.links(), 2 * 4 + 4 * 2);
}

TEST(Topology, TorusRoutesDimensionOrder) {
    // 3x3 torus; node id = y*3 + x.
    const auto t = Topology::torus2d(3, 3);
    // 0 (0,0) -> 4 (1,1): one hop in x (0->1), one hop in y (row0->row1).
    EXPECT_EQ(t.hops(0, 4), 2);
    // Same row: pure x routing.
    EXPECT_EQ(t.hops(0, 2), 2);  // 0->1->2 along the row ring
    // Same column: pure y routing.
    EXPECT_EQ(t.hops(0, 6), 2);  // (0,0)->(0,1)->(0,2)
}

TEST(Topology, TorusAllPairsReachable) {
    const auto t = Topology::torus2d(4, 3);
    for (int s = 0; s < t.nodes(); ++s)
        for (int d = 0; d < t.nodes(); ++d) {
            if (s == d) continue;
            EXPECT_GE(t.hops(s, d), 1) << s << "->" << d;
            // Route links must be contiguous: each link starts where the
            // previous one ended.
            int cur = s;
            for (int l : links_of(t.route(s, d))) {
                EXPECT_EQ(t.link_from(l), cur);
                cur = t.link_to(l);
            }
            EXPECT_EQ(cur, d);
        }
}

TEST(Topology, RingRouteChainsToDestination) {
    const auto t = Topology::ring(8);
    for (int s = 0; s < 8; ++s)
        for (int d = 0; d < 8; ++d) {
            int cur = s;
            for (int l : links_of(t.route(s, d))) {
                EXPECT_EQ(t.link_from(l), cur);
                cur = t.link_to(l);
            }
            EXPECT_EQ(cur, d);
        }
}


TEST(Topology, Torus3dDimensionsAndLinks) {
    const auto t = Topology::torus3d(4, 3, 2);
    EXPECT_EQ(t.nodes(), 24);
    // x rings: 3*2 rings of 4 links; y rings: 4*2 of 3; z rings: 3*4 of 2.
    EXPECT_EQ(t.links(), 6 * 4 + 8 * 3 + 12 * 2);
}

TEST(Topology, Torus3dDimensionOrderHops) {
    const auto t = Topology::torus3d(3, 3, 3);
    const auto id = [](int x, int y, int z) { return (z * 3 + y) * 3 + x; };
    // One hop per dimension for the body-diagonal neighbour.
    EXPECT_EQ(t.hops(id(0, 0, 0), id(1, 1, 1)), 3);
    // Pure z move.
    EXPECT_EQ(t.hops(id(2, 1, 0), id(2, 1, 2)), 2);
    // Wrap-around in x: 2 -> 0 is one downstream hop on a 3-ring.
    EXPECT_EQ(t.hops(id(2, 0, 0), id(0, 0, 0)), 1);
}

TEST(Topology, Torus3dAllPairsRoutesChain) {
    const auto t = Topology::torus3d(3, 2, 2);
    for (int s = 0; s < t.nodes(); ++s)
        for (int d = 0; d < t.nodes(); ++d) {
            int cur = s;
            for (int l : links_of(t.route(s, d))) {
                ASSERT_EQ(t.link_from(l), cur);
                cur = t.link_to(l);
            }
            ASSERT_EQ(cur, d) << s << "->" << d;
        }
}

// Reference: the per-pair route tables the topology once precomputed. It
// is built from the same ring member lists as the factories, in the same
// order, and walks every (src, dst) pair link by link.
struct RefTopology {
    struct RingRef {
        int ring = -1;
        int pos = -1;
    };
    struct Ring {
        std::vector<int> members;      // node ids in ring order
        std::vector<int> member_link;  // link id leaving members[i]
    };
    using Table = std::vector<std::vector<std::vector<int>>>;

    int nodes = 0;
    std::vector<int> link_from, link_to;
    std::vector<Ring> rings;
    std::vector<std::vector<RingRef>> node_rings;  // per dimension

    explicit RefTopology(int n) : nodes(n) {}

    // A node's dimension is the index of its first ring without it.
    void add_ring(const std::vector<int>& members) {
        Ring r;
        r.members = members;
        const int n = static_cast<int>(members.size());
        for (int i = 0; i < n; ++i) {
            r.member_link.push_back(static_cast<int>(link_from.size()));
            link_from.push_back(members[static_cast<std::size_t>(i)]);
            link_to.push_back(members[static_cast<std::size_t>((i + 1) % n)]);
        }
        for (int i = 0; i < n; ++i) {
            const auto node = static_cast<std::size_t>(members[static_cast<std::size_t>(i)]);
            bool recorded = false;
            for (auto& dim : node_rings) {
                if (dim[node].ring < 0) {
                    dim[node] = {static_cast<int>(rings.size()), i};
                    recorded = true;
                    break;
                }
            }
            if (!recorded) {
                node_rings.emplace_back(static_cast<std::size_t>(nodes));
                node_rings.back()[node] = {static_cast<int>(rings.size()), i};
            }
        }
        rings.push_back(std::move(r));
    }

    [[nodiscard]] Table table(bool reverse_dims) const {
        Table out_table(static_cast<std::size_t>(nodes),
                        std::vector<std::vector<int>>(static_cast<std::size_t>(nodes)));
        std::vector<std::size_t> dim_order(node_rings.size());
        for (std::size_t i = 0; i < dim_order.size(); ++i)
            dim_order[i] = reverse_dims ? dim_order.size() - 1 - i : i;
        for (int src = 0; src < nodes; ++src) {
            for (int dst = 0; dst < nodes; ++dst) {
                if (src == dst) continue;
                auto& out = out_table[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)];
                int cur = src;
                for (const std::size_t d : dim_order) {
                    const auto& dim = node_rings[d];
                    const RingRef ref = dim[static_cast<std::size_t>(cur)];
                    const RingRef dst_ref = dim[static_cast<std::size_t>(dst)];
                    if (ref.ring < 0 || dst_ref.ring < 0) continue;
                    const Ring& ring = rings[static_cast<std::size_t>(ref.ring)];
                    int pos = ref.pos;
                    const int n = static_cast<int>(ring.members.size());
                    while (pos != dst_ref.pos) {
                        out.push_back(ring.member_link[static_cast<std::size_t>(pos)]);
                        pos = (pos + 1) % n;
                    }
                    cur = ring.members[static_cast<std::size_t>(dst_ref.pos)];
                    if (cur == dst) break;
                }
                EXPECT_EQ(cur, dst) << "reference routing failed";
            }
        }
        return out_table;
    }
};

RefTopology ref_ring(int n) {
    RefTopology t(n);
    std::vector<int> members;
    for (int i = 0; i < n; ++i) members.push_back(i);
    t.add_ring(members);
    return t;
}

RefTopology ref_torus2d(int w, int h) {
    RefTopology t(w * h);
    for (int y = 0; y < h; ++y) {
        std::vector<int> row;
        for (int x = 0; x < w; ++x) row.push_back(y * w + x);
        t.add_ring(row);
    }
    for (int x = 0; x < w; ++x) {
        std::vector<int> col;
        for (int y = 0; y < h; ++y) col.push_back(y * w + x);
        t.add_ring(col);
    }
    return t;
}

RefTopology ref_torus3d(int w, int h, int d) {
    RefTopology t(w * h * d);
    const auto id = [w, h](int x, int y, int z) { return (z * h + y) * w + x; };
    const auto add = [&](const std::function<int(int)>& node, int n) {
        std::vector<int> members;
        for (int i = 0; i < n; ++i) members.push_back(node(i));
        t.add_ring(members);
    };
    for (int z = 0; z < d; ++z)
        for (int y = 0; y < h; ++y) add([&](int x) { return id(x, y, z); }, w);
    for (int z = 0; z < d; ++z)
        for (int x = 0; x < w; ++x) add([&](int y) { return id(x, y, z); }, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) add([&](int z) { return id(x, y, z); }, d);
    return t;
}

// Every primary and alternate route crosses exactly the reference links in
// the reference order, and Route equality agrees with link-sequence equality.
void expect_matches_reference(const Topology& t, const RefTopology& ref) {
    ASSERT_EQ(t.nodes(), ref.nodes);
    ASSERT_EQ(t.links(), static_cast<int>(ref.link_from.size()));
    for (int l = 0; l < t.links(); ++l) {
        EXPECT_EQ(t.link_from(l), ref.link_from[static_cast<std::size_t>(l)]) << "link " << l;
        EXPECT_EQ(t.link_to(l), ref.link_to[static_cast<std::size_t>(l)]) << "link " << l;
    }
    const RefTopology::Table primary = ref.table(false);
    const RefTopology::Table alternate = ref.table(true);
    for (int s = 0; s < t.nodes(); ++s)
        for (int d = 0; d < t.nodes(); ++d) {
            const auto& want = primary[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)];
            const auto& want_alt =
                alternate[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)];
            const Route r = t.route(s, d);
            const Route alt = t.alt_route(s, d);
            ASSERT_EQ(links_of(r), want) << s << "->" << d;
            ASSERT_EQ(links_of(alt), want_alt) << s << "->" << d << " (alternate)";
            EXPECT_EQ(r.hops(), static_cast<int>(want.size()));
            EXPECT_EQ(alt.hops(), static_cast<int>(want_alt.size()));
            EXPECT_EQ(r == alt, want == want_alt) << s << "->" << d;
            EXPECT_EQ(links_of(t.echo_route(s, d)),
                      primary[static_cast<std::size_t>(d)][static_cast<std::size_t>(s)]);
        }
}

TEST(RouteEquivalence, RingsMatchReferenceTables) {
    for (int n = 1; n <= 9; ++n) {
        SCOPED_TRACE("ring " + std::to_string(n));
        expect_matches_reference(Topology::ring(n), ref_ring(n));
    }
}

TEST(RouteEquivalence, Torus2dMatchesReferenceTables) {
    for (int w = 1; w <= 4; ++w)
        for (int h = 1; h <= 4; ++h) {
            SCOPED_TRACE("torus2d " + std::to_string(w) + "x" + std::to_string(h));
            expect_matches_reference(Topology::torus2d(w, h), ref_torus2d(w, h));
        }
}

TEST(RouteEquivalence, Torus3dMatchesReferenceTables) {
    for (const auto& [w, h, d] : {std::tuple{2, 2, 2}, std::tuple{3, 2, 2}, std::tuple{4, 3, 2},
                                  std::tuple{1, 3, 2}}) {
        SCOPED_TRACE("torus3d " + std::to_string(w) + "x" + std::to_string(h) + "x" +
                     std::to_string(d));
        expect_matches_reference(Topology::torus3d(w, h, d), ref_torus3d(w, h, d));
    }
}

/// No link is on both `a` and `b`.
bool disjoint(const Route& a, const Route& b) {
    const std::vector<int> la = links_of(a);
    const std::set<int> sa(la.begin(), la.end());
    for (const int l : links_of(b))
        if (sa.count(l) != 0) return false;
    return true;
}

// Fabric::begin_transfer reads each forward link's share in the same walk
// that registers it, which equals registering first only because a route
// and its echo never share a link: on every ring both use, they run
// opposite ways round. Rerouted transfers pair alt_route with its echo.
TEST(RouteEquivalence, ForwardAndEchoRoutesShareNoLink) {
    std::vector<std::pair<std::string, Topology>> topos;
    for (int n = 1; n <= 9; ++n) topos.emplace_back("ring " + std::to_string(n), Topology::ring(n));
    for (int w = 1; w <= 4; ++w)
        for (int h = 1; h <= 4; ++h)
            topos.emplace_back("torus2d", Topology::torus2d(w, h));
    topos.emplace_back("torus3d", Topology::torus3d(3, 2, 4));
    topos.emplace_back("torus3d", Topology::torus3d(4, 3, 2));
    for (const auto& [name, t] : topos)
        for (int s = 0; s < t.nodes(); ++s)
            for (int d = 0; d < t.nodes(); ++d) {
                if (s == d) continue;
                SCOPED_TRACE(name + " " + std::to_string(s) + "->" + std::to_string(d));
                EXPECT_TRUE(disjoint(t.route(s, d), t.echo_route(s, d)));
                EXPECT_TRUE(disjoint(t.alt_route(s, d), t.alt_route(d, s)));
            }
}

}  // namespace
}  // namespace scimpi::sci
