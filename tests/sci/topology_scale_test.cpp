// Scale guard for the SCI topology, under this test's ctest timeout: routes
// are computed on demand from O(nodes + links) state, so a 512-node ringlet
// and a 1024-node 3D torus, with a fabric over each that resolves, registers
// and unregisters far routes, must fit in a few MiB. Per-pair route tables
// need about n^3/2 ints on a ringlet: some 700 MiB at 512 nodes.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <functional>
#include <utility>

#include "sci/fabric.hpp"

namespace scimpi::sci {
namespace {

constexpr long kMaxGrowthKiB = 32 * 1024;

long peak_rss_kib() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return u.ru_maxrss;  // KiB on Linux
}

// Build a fabric over `topo` and move 64 sampled far pairs through it.
void exercise(Topology topo, const std::function<int(int)>& far, int far_hops) {
    Fabric f(std::move(topo), SciParams{});
    const int n = f.topology().nodes();
    for (int i = 0; i < 64; ++i) {
        const int src = i * n / 64;
        const int dst = far(src);
        EXPECT_EQ(f.topology().hops(src, dst), far_hops) << src << "->" << dst;
        const RoutePath path = f.resolve_route(src, dst);
        ASSERT_TRUE(path.healthy);
        EXPECT_GT(f.begin_transfer(path, 1e9), 0.0);
        f.end_transfer(path, 4096);
    }
    EXPECT_EQ(f.active_transfers(), 0);
    for (int l = 0; l < f.topology().links(); ++l) EXPECT_NEAR(f.load_on_link(l), 0.0, 1e-9);
}

TEST(TopologyScale, Ring512HoldsNoPerPairState) {
    const long before = peak_rss_kib();
    constexpr int kNodes = 512;
    // The upstream neighbour is the far end of a unidirectional ring.
    exercise(Topology::ring(kNodes), [](int s) { return (s + kNodes - 1) % kNodes; },
             kNodes - 1);
    EXPECT_LT(peak_rss_kib() - before, kMaxGrowthKiB);
}

TEST(TopologyScale, Torus3d8x8x16HoldsNoPerPairState) {
    const long before = peak_rss_kib();
    constexpr int kW = 8, kH = 8, kD = 16;
    // One step upstream in every dimension: the longest dimension-order route.
    const auto far = [](int s) {
        const int x = s % kW, y = s / kW % kH, z = s / (kW * kH);
        return (((z + kD - 1) % kD) * kH + (y + kH - 1) % kH) * kW + (x + kW - 1) % kW;
    };
    exercise(Topology::torus3d(kW, kH, kD), far, (kW - 1) + (kH - 1) + (kD - 1));
    EXPECT_LT(peak_rss_kib() - before, kMaxGrowthKiB);
}

}  // namespace
}  // namespace scimpi::sci
