#include "smi/signal.hpp"

namespace scimpi::smi {

void SignalChannel::bind_metrics(obs::MetricsRegistry& m) {
    dropped_c_ = &m.counter("smi.irq_dropped");
    retransmits_c_ = &m.counter("smi.irq_retransmits");
}

void SignalChannel::post(sim::Process& self, int from_node, Signal s) {
    // Doorbell: one small remote (or local) store.
    const bool remote = from_node != target_node_;
    self.delay(remote ? params_.txn_overhead + params_.stream_restart : 80);
    const SimTime latency = remote ? params_.irq_latency : params_.irq_latency / 4;
    SimTime extra = 0;
    if (drop_next_ > 0) {
        // Injected fault: this interrupt is swallowed. The origin's driver
        // notices the missing completion and rings the doorbell again, so
        // the signal arrives late by one retry timeout — delayed, not lost.
        --drop_next_;
        if (dropped_c_ != nullptr) dropped_c_->inc();
        if (retransmits_c_ != nullptr) retransmits_c_->inc();
        extra = params_.irq_retry_timeout;
    }
    self.engine().after(latency + extra,
                        [this, s = std::move(s)]() mutable { inbox_.send(std::move(s)); });
}

}  // namespace scimpi::smi
