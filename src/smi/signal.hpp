// Remote signal channel: models SCI remote interrupts. An origin process
// posts a small control message; after the interrupt latency the target's
// handler (a process blocked in recv) wakes with the payload. Used by the
// MPI layer to invoke remote handlers for emulated one-sided accesses on
// private window memory (paper Section 4.2).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/cause.hpp"
#include "obs/metrics.hpp"
#include "sci/params.hpp"
#include "sim/sync.hpp"

namespace scimpi::smi {

struct Signal {
    int from_rank = -1;
    int kind = 0;
    std::uint64_t a = 0, b = 0, c = 0;       ///< small scalar arguments
    std::vector<std::byte> payload;          ///< optional inline data
    obs::Cause cause;                        ///< flow arrow of the op it serves
    SimTime post_time = 0;                   ///< when the origin posted the op
};

class SignalChannel {
public:
    SignalChannel(sci::SciParams params, int target_node)
        : params_(params), target_node_(target_node) {}

    /// Post a signal from a process on `from_node`; it is delivered (and a
    /// blocked handler woken) after the interrupt latency. The origin is
    /// charged only the doorbell write.
    void post(sim::Process& self, int from_node, Signal s);

    /// Handler side: block until a signal arrives.
    Signal wait(sim::Process& self) { return inbox_.recv(self, "signal inbox"); }

    [[nodiscard]] bool pending() const { return !inbox_.empty(); }

    /// Fault injection: swallow the next `n` interrupts. The doorbell write
    /// still lands, so the origin notices the missing completion after
    /// irq_retry_timeout and retransmits — delivery is delayed, never lost.
    void drop_next(int n) { drop_next_ += n; }

    /// Cluster counters smi.irq_dropped / smi.irq_retransmits.
    void bind_metrics(obs::MetricsRegistry& m);

private:
    sci::SciParams params_;
    int target_node_;
    sim::Mailbox<Signal> inbox_;
    int drop_next_ = 0;
    obs::Counter* dropped_c_ = nullptr;
    obs::Counter* retransmits_c_ = nullptr;
};

}  // namespace scimpi::smi
