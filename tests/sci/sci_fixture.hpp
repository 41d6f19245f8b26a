// Shared test fixture: a small simulated SCI cluster (engine + ring fabric +
// node memories + adapters + segment directory), with the metrics registry
// the adapters count into.
#pragma once

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "mem/node_memory.hpp"
#include "obs/metrics.hpp"
#include "sci/adapter.hpp"
#include "sci/fabric.hpp"
#include "sci/segment.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace scimpi::sci::testing {

struct MiniCluster {
    explicit MiniCluster(int nodes, Config cfg = default_config(),
                         SciParams params = SciParams{},
                         std::size_t arena = 8_MiB)
        : fabric(Topology::ring(nodes), params) {
        for (int n = 0; n < nodes; ++n) {
            memories.push_back(std::make_unique<mem::NodeMemory>(n, arena));
            adapters.push_back(std::make_unique<SciAdapter>(
                n, fabric, mem::pentium3_800(), cfg, metrics));
        }
    }

    /// Export `bytes` from node `n`, returning the segment id.
    SegmentId export_segment(int n, std::size_t bytes) {
        auto span = memories[static_cast<std::size_t>(n)]->allocate(bytes);
        SCIMPI_REQUIRE(span.is_ok(), "fixture allocation failed");
        return directory.create(n, span.value());
    }

    SciMapping import(int origin, SegmentId seg) {
        auto m = directory.import(origin, seg);
        SCIMPI_REQUIRE(m.is_ok(), "fixture import failed");
        return m.value();
    }

    sim::Engine engine;
    obs::MetricsRegistry metrics;
    Fabric fabric;
    SegmentDirectory directory;
    std::vector<std::unique_ptr<mem::NodeMemory>> memories;
    std::vector<std::unique_ptr<SciAdapter>> adapters;
};

}  // namespace scimpi::sci::testing
