// FaultController: a simulated process that walks a materialized
// FaultSchedule and applies each event to the machine at its virtual time —
// link state via Fabric::set_link_up, CRC windows via per-link error rates,
// adapter stalls via SciAdapter::stall_until, interrupt drops via
// SignalChannel::drop_next. It keeps per-link nesting depths so overlapping
// soak flaps and error windows compose sanely (a link is up again only when
// every overlapping down-window has ended).
//
// The controller is an ordinary (non-daemon) process: it finishes after the
// last event, so it never keeps the simulation alive on its own, yet its
// pending events stop the engine from declaring deadlock while e.g. every
// rank is backing off waiting for a link to return.
#pragma once

#include <vector>

#include "fault/schedule.hpp"
#include "obs/metrics.hpp"
#include "sci/adapter.hpp"
#include "sci/fabric.hpp"
#include "sim/engine.hpp"
#include "smi/signal.hpp"

namespace scimpi::fault {

class FaultController {
public:
    /// Resolves the fault.* counters (fault.injected, fault.link_down, ...)
    /// in `metrics`.
    FaultController(sim::Engine& engine, sci::Fabric& fabric, FaultSchedule schedule,
                    obs::MetricsRegistry& metrics);

    /// Node `node`'s adapter (for stall events). Optional per node.
    void set_adapter(int node, sci::SciAdapter* adapter);
    /// A signal channel whose handler runs on `node` (for irq-drop events).
    /// A node may host several (one per rank); drops hit all of them.
    void add_channel(int node, smi::SignalChannel* channel);

    /// Spawn the "faults" process. Call before Engine::run().
    void start();

    [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }

private:
    void run(sim::Process& self);
    void apply(sim::Process& self, const FaultEvent& e);
    void count(obs::Counter& c);

    sim::Engine& engine_;
    sci::Fabric& fabric_;
    std::vector<FaultEvent> events_;
    std::vector<int> down_depth_;                      // per link
    std::vector<std::vector<double>> active_rates_;    // per link error windows
    std::vector<sci::SciAdapter*> adapters_;           // per node, may be null
    std::vector<std::vector<smi::SignalChannel*>> channels_;  // per node
    obs::Counter& injected_c_;
    obs::Counter& link_down_c_;
    obs::Counter& link_up_c_;
    obs::Counter& error_windows_c_;
    obs::Counter& stalls_c_;
    obs::Counter& irq_drops_c_;
    bool started_ = false;
};

}  // namespace scimpi::fault
