// Connection monitor (SCI-MPICH's watchdog, paper Section 2): a daemon
// process that probes node pairs with SciAdapter::probe_peer and tracks a
// healthy / suspect / dead verdict per ordered pair. The MPI layer consults
// it before (re)trying a send so an exhausted peer surfaces as
// Errc::peer_unreachable instead of a hang.
//
// The monitor is event-driven, not free-running: it parks while the fabric
// is quiet and is woken by link state changes (Fabric's link listener).
// After a wake it sweeps every pair, re-probing suspects each
// Config::monitor_period until they either recover or accumulate
// Config::monitor_dead_after consecutive failures and are declared dead.
// Dead pairs are left alone (no more probes) until a link comes back up,
// which revives them as suspects for one more sweep — so the daemon always
// converges back to its parked state and never keeps the simulation alive.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "obs/metrics.hpp"
#include "sci/adapter.hpp"
#include "sci/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace scimpi::fault {

enum class PeerState : std::uint8_t { healthy, suspect, dead };

class ConnectionMonitor {
public:
    /// Resolves the monitor.* counters in `metrics`.
    ConnectionMonitor(sim::Engine& engine, sci::Fabric& fabric, Config cfg,
                      obs::MetricsRegistry& metrics);

    void set_adapter(int node, sci::SciAdapter* adapter);

    /// Spawn the daemon and hook the fabric's link listener. Call before
    /// Engine::run().
    void start();

    [[nodiscard]] PeerState state(int src_node, int dst_node) const;
    /// False once (src, dst) is declared dead — callers should fail fast
    /// with Errc::peer_unreachable rather than retry.
    [[nodiscard]] bool reachable(int src_node, int dst_node) const {
        return state(src_node, dst_node) != PeerState::dead;
    }

private:
    struct Pair {
        PeerState state = PeerState::healthy;
        int fails = 0;  ///< consecutive probe failures
    };

    void run(sim::Process& self);
    void sweep(sim::Process& self);
    void on_link_event(int link, bool up);
    [[nodiscard]] bool any_suspect() const;
    Pair& pair(int src, int dst) {
        return pairs_[static_cast<std::size_t>(src * nodes_ + dst)];
    }
    [[nodiscard]] const Pair& pair(int src, int dst) const {
        return pairs_[static_cast<std::size_t>(src * nodes_ + dst)];
    }

    sim::Engine& engine_;
    sci::Fabric& fabric_;
    Config cfg_;
    int nodes_;
    std::vector<Pair> pairs_;
    std::vector<sci::SciAdapter*> adapters_;
    sim::WaitQueue wake_q_;
    bool attention_ = false;
    bool started_ = false;
    obs::Counter& sweeps_c_;
    obs::Counter& probes_c_;
    obs::Counter& probe_fail_c_;
    obs::Counter& suspect_c_;
    obs::Counter& dead_c_;
    obs::Counter& recovered_c_;
};

}  // namespace scimpi::fault
