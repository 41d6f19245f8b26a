#include "fault/monitor.hpp"

namespace scimpi::fault {

ConnectionMonitor::ConnectionMonitor(sim::Engine& engine, sci::Fabric& fabric,
                                     Config cfg, obs::MetricsRegistry& metrics)
    : engine_(engine),
      fabric_(fabric),
      cfg_(cfg),
      nodes_(fabric.topology().nodes()),
      pairs_(static_cast<std::size_t>(nodes_) * static_cast<std::size_t>(nodes_)),
      adapters_(static_cast<std::size_t>(nodes_), nullptr),
      sweeps_c_(metrics.counter("monitor.sweeps")),
      probes_c_(metrics.counter("monitor.probes")),
      probe_fail_c_(metrics.counter("monitor.probe_failures")),
      suspect_c_(metrics.counter("monitor.peers_suspect")),
      dead_c_(metrics.counter("monitor.peers_dead")),
      recovered_c_(metrics.counter("monitor.peers_recovered")) {
    SCIMPI_REQUIRE(cfg_.monitor_period > 0, "monitor needs a positive period");
    SCIMPI_REQUIRE(cfg_.monitor_dead_after > 0, "monitor_dead_after must be >= 1");
}

void ConnectionMonitor::set_adapter(int node, sci::SciAdapter* adapter) {
    adapters_.at(static_cast<std::size_t>(node)) = adapter;
}

PeerState ConnectionMonitor::state(int src_node, int dst_node) const {
    if (src_node == dst_node) return PeerState::healthy;
    return pair(src_node, dst_node).state;
}

bool ConnectionMonitor::any_suspect() const {
    for (const Pair& p : pairs_)
        if (p.state == PeerState::suspect) return true;
    return false;
}

void ConnectionMonitor::on_link_event(int link, bool up) {
    (void)link;
    if (up) {
        // A recovered link may revive dead pairs: give each one more chance.
        for (Pair& p : pairs_) {
            if (p.state == PeerState::dead) {
                p.state = PeerState::suspect;
                p.fails = 0;
            }
        }
    }
    attention_ = true;
    wake_q_.wake_all();
}

void ConnectionMonitor::start() {
    SCIMPI_REQUIRE(!started_, "ConnectionMonitor started twice");
    started_ = true;
    fabric_.set_link_listener([this](int link, bool up) { on_link_event(link, up); });
    engine_.spawn_daemon("conn-monitor",
                         [this](sim::Process& self) { run(self); });
}

void ConnectionMonitor::run(sim::Process& self) {
    while (true) {
        if (!attention_ && !any_suspect()) {
            // Quiet fabric: sleep until a link event.
            wake_q_.park(self, "link event");
            continue;
        }
        attention_ = false;
        sweep(self);
        // Suspects in flight: re-probe after a period. Every suspect either
        // recovers or reaches monitor_dead_after, so this loop is finite and
        // the daemon always parks again.
        if (any_suspect()) self.delay(cfg_.monitor_period);
    }
}

void ConnectionMonitor::sweep(sim::Process& self) {
    sweeps_c_.inc();
    for (int src = 0; src < nodes_; ++src) {
        sci::SciAdapter* adapter = adapters_[static_cast<std::size_t>(src)];
        if (adapter == nullptr) continue;
        for (int dst = 0; dst < nodes_; ++dst) {
            if (src == dst) continue;
            Pair& p = pair(src, dst);
            if (p.state == PeerState::dead) continue;  // until a link returns
            probes_c_.inc();
            const bool ok = adapter->probe_peer(self, dst);
            if (ok) {
                if (p.state == PeerState::suspect) recovered_c_.inc();
                p.state = PeerState::healthy;
                p.fails = 0;
                continue;
            }
            probe_fail_c_.inc();
            ++p.fails;
            if (p.state == PeerState::healthy) {
                p.state = PeerState::suspect;
                suspect_c_.inc();
            }
            if (p.fails >= cfg_.monitor_dead_after) {
                p.state = PeerState::dead;
                dead_c_.inc();
            }
        }
    }
}

}  // namespace scimpi::fault
