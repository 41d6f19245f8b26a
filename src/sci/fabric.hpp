// The SCI fabric: links with quasi-static bandwidth sharing and wire-level
// traffic accounting. Bulk transfers register on their route, move in chunks,
// and see an effective bandwidth of min over traversed links of
// nominal/active_transfers — reproducing the ring-saturation behaviour of
// the paper's Table 2.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "sci/params.hpp"
#include "sci/store_buffer.hpp"
#include "sci/topology.hpp"
#include "sim/process.hpp"

namespace scimpi::sim {
class Engine;
}

namespace scimpi::sci {

struct LinkStats {
    std::uint64_t payload_bytes = 0;  ///< user data moved over this link
    std::uint64_t wire_bytes = 0;     ///< payload + packet headers
    std::uint64_t echo_bytes = 0;     ///< echo / flow-control traffic
    std::uint64_t total() const { return wire_bytes + echo_bytes; }
};

/// A route resolved once for the lifetime of one transfer, so register /
/// account / unregister stay consistent even if links flap mid-operation.
/// `rerouted` marks the degraded-mode alternate (reversed dimension order)
/// chosen because the primary crosses a down link.
struct RoutePath {
    int src = -1;
    int dst = -1;
    Route fwd;              ///< forward data links
    Route echo;             ///< echo/flow-control links: route(dst, src)
    bool healthy = false;   ///< every forward link is up
    bool rerouted = false;  ///< alternate dimension order in use
};

class Fabric {
public:
    Fabric(Topology topo, SciParams params);

    [[nodiscard]] const Topology& topology() const { return topo_; }
    [[nodiscard]] const SciParams& params() const { return params_; }
    SciParams& params() { return params_; }

    /// Resolve the route to use for a transfer src -> dst right now: the
    /// primary dimension-order route when healthy, else (reroute enabled and
    /// it helps) the alternate reversed-dimension-order route. Hold the
    /// result across one operation.
    [[nodiscard]] RoutePath resolve_route(int src, int dst);

    /// Register an active bulk transfer on a resolved route and return its
    /// effective bandwidth, effective_bw(path, src_cap), in one walk of the
    /// route: the transfer counts as one user of its links from now on.
    /// Data packets load the forward route with weight 1; the echo/flow
    /// control stream loads the echo route with echo_fraction. The echo
    /// route is route(dst, src): on a ring the rest of the ring, on a torus
    /// the full dimension-order path back (alt_route(dst, src) when
    /// rerouted), not the rest of the forward route's ringlets.
    [[nodiscard]] double begin_transfer(const RoutePath& path, double src_cap);
    /// account(path, payload), then unregister the transfer, in one walk.
    void end_transfer(const RoutePath& path, std::size_t payload);

    /// Current effective bandwidth (MiB/s) for a transfer on `path` whose
    /// source side can push at most `src_cap` MiB/s. A transfer must be
    /// registered while it measures itself (it counts as one active user).
    [[nodiscard]] double effective_bw(const RoutePath& path, double src_cap) const;

    /// Account wire traffic for `payload` bytes moved src -> dst: data
    /// packets on the forward route, echoes on the echo route.
    void account(int src, int dst, std::size_t payload);
    void account(const RoutePath& path, std::size_t payload);

    /// Move `bytes` over a resolved (and health-checked) route in
    /// `chunk`-sized steps, charging simulated time on `self` and
    /// re-evaluating contention each chunk. Registers and unregisters the
    /// transfer internally. Returns total time charged.
    SimTime timed_transfer(sim::Process& self, const RoutePath& path, std::size_t bytes,
                           double src_cap, std::size_t chunk = 16_KiB);

    /// Attach a metrics registry: aggregate payload/wire/echo byte counters
    /// plus a concurrent-transfer gauge then update live with account() /
    /// begin_transfer().
    void bind_metrics(obs::MetricsRegistry& m);

    [[nodiscard]] const LinkStats& link_stats(int link) const {
        return stats_.at(static_cast<std::size_t>(link));
    }
    [[nodiscard]] double load_on_link(int link) const {
        return load_.at(static_cast<std::size_t>(link));
    }
    void reset_stats();

    /// Connection monitoring: mark a link (un)usable — a pulled cable. Any
    /// transfer whose route crosses a down link fails with link_failure
    /// (unless the alternate dimension order routes around it). Idempotent;
    /// real state changes bump fabric.link_down/up_events, emit a trace
    /// instant, and fire the link listener.
    void set_link_up(int link, bool up);
    [[nodiscard]] bool link_up(int link) const {
        return up_.at(static_cast<std::size_t>(link));
    }
    /// True if every link on the route src -> dst is up.
    [[nodiscard]] bool route_healthy(int src, int dst) const;
    /// True if the route src -> dst resolves to a usable path (considers
    /// the alternate dimension order).
    [[nodiscard]] bool route_usable(int src, int dst);

    /// Human-readable diagnosis of why src -> dst is unusable: names the
    /// first down link and its endpoints, e.g.
    /// "route 0->2 down at link 1 (1->2)". Empty if the route is healthy.
    [[nodiscard]] std::string describe_down_route(int src, int dst) const;

    /// Routes resolved around a down link via the alternate dimension
    /// order (degraded mode; a plain ring has no alternative).
    [[nodiscard]] std::uint64_t reroutes() const { return reroutes_; }

    /// Per-link injected CRC error rate (fault windows). The adapter takes
    /// max(Config::link_error_rate, max over the links of its route).
    void set_link_error_rate(int link, double rate);
    [[nodiscard]] double link_error_rate(int link) const {
        return error_rate_.at(static_cast<std::size_t>(link));
    }
    /// Max injected error rate over the forward links of `path`.
    [[nodiscard]] double route_error_rate(const RoutePath& path) const;

    /// Called on every real link state change with (link, up). Used by the
    /// connection monitor to wake its sweep.
    void set_link_listener(std::function<void(int, bool)> fn) {
        link_listener_ = std::move(fn);
    }

    /// Bind the engine so state changes made from outside any sim process
    /// (e.g. the fault controller) can still emit trace instants.
    void bind_engine(sim::Engine* eng) { engine_ = eng; }

    /// Aggregate wire traffic over all links (for ring-load metrics).
    [[nodiscard]] std::uint64_t total_wire_bytes() const;

    /// Transfers currently registered / the peak seen so far (always
    /// tracked; independent of any bound registry).
    [[nodiscard]] int active_transfers() const { return active_transfers_; }
    [[nodiscard]] int peak_concurrent_transfers() const { return peak_transfers_; }

    /// Bytes accepted by timed_transfer() but not yet moved over the wire —
    /// the fabric's instantaneous backlog (flight-recorder probe).
    [[nodiscard]] std::uint64_t inflight_bytes() const { return inflight_bytes_; }

    /// Payload snapshots of the posted PIO stores in flight, shared by every
    /// adapter on this fabric (SciAdapter::write / write_gather).
    StoreBuffer& store_buffer() { return stores_; }

    /// Emit per-link load + active-transfer counter tracks to the tracer of
    /// `self`'s engine (no-op while tracing is disabled). Called after each
    /// register/unregister by the paths that hold a Process.
    void trace_load(sim::Process& self, const RoutePath& path);

private:
    /// True if every link of `route` is up (at once while none is down).
    [[nodiscard]] bool all_up(const Route& route) const;
    /// Add one transfer's bytes to the registry counters, once per route.
    void count_bytes(const RoutePath& path, std::uint64_t payload, std::uint64_t wire,
                     std::uint64_t echo);

    Topology topo_;
    SciParams params_;
    std::vector<double> load_;
    std::vector<char> up_;
    std::vector<double> error_rate_;
    std::vector<LinkStats> stats_;
    int down_links_ = 0;   // links with up_ == 0
    int error_links_ = 0;  // links with an injected error rate > 0
    int active_transfers_ = 0;
    int peak_transfers_ = 0;
    std::uint64_t inflight_bytes_ = 0;
    std::uint64_t reroutes_ = 0;
    std::vector<std::string> link_track_names_;  // lazily built "linkN.load"
    std::function<void(int, bool)> link_listener_;
    StoreBuffer stores_;
    sim::Engine* engine_ = nullptr;
    obs::Counter* payload_bytes_c_ = nullptr;
    obs::Counter* wire_bytes_c_ = nullptr;
    obs::Counter* echo_bytes_c_ = nullptr;
    obs::Counter* transfers_c_ = nullptr;
    obs::Counter* link_down_c_ = nullptr;
    obs::Counter* link_up_c_ = nullptr;
    obs::Counter* reroutes_c_ = nullptr;
    obs::Gauge* active_g_ = nullptr;
};

}  // namespace scimpi::sci
