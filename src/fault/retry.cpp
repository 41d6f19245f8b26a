#include "fault/retry.hpp"

#include <algorithm>
#include <string>

#include "fault/monitor.hpp"
#include "sim/engine.hpp"
#include "obs/span.hpp"

namespace scimpi::fault {

RetryOutcome retry_with_backoff(sim::Process& self, const Config& cfg,
                                const ConnectionMonitor* monitor, int src_node,
                                int dst_node,
                                FunctionRef<Status()> attempt) {
    RetryOutcome out;
    out.status = attempt();
    if (out.status.is_ok() || out.status.code() != Errc::link_failure) return out;

    SimTime backoff = cfg.retry_backoff;
    SimTime spent = 0;
    while (out.retries < cfg.send_retries) {
        if (monitor != nullptr && !monitor->reachable(src_node, dst_node)) {
            out.gave_up = true;
            out.status = Status::error(
                Errc::peer_unreachable,
                "node " + std::to_string(dst_node) +
                    " declared dead by the connection monitor: " +
                    out.status.detail());
            return out;
        }
        if (spent + backoff > cfg.retry_budget) break;
        {
            // Causal graph: backoff time is retry-category so a --diff of a
            // fault-injected run against a clean one pins the delta here.
            const obs::Span span(self, {.name = "fault:backoff",
                                        .trace = "fault",
                                        .prof = obs::ProfState::retry_backoff,
                                        .ev = obs::EvCat::retry});
            self.delay(backoff);
        }
        // Cold path by definition (a link already failed), so resolving the
        // histogram through the engine per backoff is fine.
        if (obs::MetricsRegistry* m = self.engine().metrics(); m != nullptr)
            m->histogram("fault.retry_backoff_ns").record(backoff);
        spent += backoff;
        backoff = std::min(backoff * 2, cfg.retry_backoff_max);
        ++out.retries;
        out.status = attempt();
        if (out.status.is_ok()) {
            out.recovered = true;
            return out;
        }
        if (out.status.code() != Errc::link_failure) return out;
    }
    out.gave_up = true;
    out.status = Status::error(Errc::peer_unreachable,
                               "retry budget exhausted towards node " +
                                   std::to_string(dst_node) + ": " +
                                   out.status.detail());
    return out;
}

}  // namespace scimpi::fault
