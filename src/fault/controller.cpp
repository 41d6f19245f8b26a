#include "fault/controller.hpp"

#include <algorithm>
#include <string>

namespace scimpi::fault {

FaultController::FaultController(sim::Engine& engine, sci::Fabric& fabric,
                                 FaultSchedule schedule, obs::MetricsRegistry& metrics)
    : engine_(engine),
      fabric_(fabric),
      events_(schedule.materialize(fabric.topology().links())),
      down_depth_(static_cast<std::size_t>(fabric.topology().links()), 0),
      active_rates_(static_cast<std::size_t>(fabric.topology().links())),
      adapters_(static_cast<std::size_t>(fabric.topology().nodes()), nullptr),
      channels_(static_cast<std::size_t>(fabric.topology().nodes())),
      injected_c_(metrics.counter("fault.injected")),
      link_down_c_(metrics.counter("fault.link_down")),
      link_up_c_(metrics.counter("fault.link_up")),
      error_windows_c_(metrics.counter("fault.error_windows")),
      stalls_c_(metrics.counter("fault.adapter_stalls")),
      irq_drops_c_(metrics.counter("fault.irq_drops")) {}

void FaultController::set_adapter(int node, sci::SciAdapter* adapter) {
    adapters_.at(static_cast<std::size_t>(node)) = adapter;
}

void FaultController::add_channel(int node, smi::SignalChannel* channel) {
    channels_.at(static_cast<std::size_t>(node)).push_back(channel);
}

void FaultController::count(obs::Counter& c) {
    injected_c_.inc();
    c.inc();
}

void FaultController::start() {
    SCIMPI_REQUIRE(!started_, "FaultController started twice");
    started_ = true;
    if (events_.empty()) return;
    engine_.spawn("faults", [this](sim::Process& self) { run(self); });
}

void FaultController::run(sim::Process& self) {
    for (const FaultEvent& e : events_) {
        if (e.t > self.now()) self.delay(e.t - self.now());
        apply(self, e);
    }
}

void FaultController::apply(sim::Process& self, const FaultEvent& e) {
    sim::Tracer& tr = engine_.tracer();
    if (tr.enabled())
        tr.instant(0,
                   std::string("fault.") + fault_kind_name(e.kind) + " " +
                       std::to_string(e.target),
                   self.now());
    switch (e.kind) {
        case FaultKind::link_down: {
            auto& depth = down_depth_.at(static_cast<std::size_t>(e.target));
            if (depth++ == 0) fabric_.set_link_up(e.target, false);
            count(link_down_c_);
            break;
        }
        case FaultKind::link_up: {
            auto& depth = down_depth_.at(static_cast<std::size_t>(e.target));
            // A stray "up" for a link that is not down is ignored (depth 0).
            if (depth > 0 && --depth == 0) fabric_.set_link_up(e.target, true);
            count(link_up_c_);
            break;
        }
        case FaultKind::error_window_begin: {
            auto& rates = active_rates_.at(static_cast<std::size_t>(e.target));
            rates.push_back(e.rate);
            fabric_.set_link_error_rate(e.target,
                                        *std::max_element(rates.begin(), rates.end()));
            count(error_windows_c_);
            break;
        }
        case FaultKind::error_window_end: {
            auto& rates = active_rates_.at(static_cast<std::size_t>(e.target));
            const auto it = std::find(rates.begin(), rates.end(), e.rate);
            if (it != rates.end()) rates.erase(it);
            fabric_.set_link_error_rate(
                e.target,
                rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end()));
            // The matching begin already counted this window.
            break;
        }
        case FaultKind::adapter_stall: {
            sci::SciAdapter* a = adapters_.at(static_cast<std::size_t>(e.target));
            if (a != nullptr) a->stall_until(self.now() + e.duration);
            count(stalls_c_);
            break;
        }
        case FaultKind::irq_drop: {
            for (smi::SignalChannel* ch : channels_.at(static_cast<std::size_t>(e.target)))
                ch->drop_next(e.count);
            count(irq_drops_c_);
            break;
        }
    }
}

}  // namespace scimpi::fault
