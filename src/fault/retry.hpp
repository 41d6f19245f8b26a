// Shared exponential-backoff retry policy for transient link failures.
//
// One attempt runs immediately; while it keeps failing with
// Errc::link_failure the caller sleeps Config::retry_backoff ns (doubling
// per retry up to retry_backoff_max) and tries again, at most
// Config::send_retries times and never exceeding retry_budget ns of total
// backoff. Exhaustion — or a peer the ConnectionMonitor has declared dead —
// surfaces as Errc::peer_unreachable instead of a hang. Non-link errors
// pass through untouched.
#pragma once

#include "common/config.hpp"
#include "common/function_ref.hpp"
#include "common/status.hpp"

namespace scimpi::sim {
class Process;
}

namespace scimpi::fault {

class ConnectionMonitor;

struct RetryOutcome {
    Status status;
    int retries = 0;         ///< backoff sleeps taken
    bool recovered = false;  ///< succeeded after at least one retry
    bool gave_up = false;    ///< budget exhausted or peer dead -> peer_unreachable
};

/// Run `attempt` (called only during this call) under the backoff policy of
/// `cfg`. `monitor` may be null;
/// when set, a (src_node, dst_node) pair it reports dead stops the retry
/// loop immediately.
RetryOutcome retry_with_backoff(sim::Process& self, const Config& cfg,
                                const ConnectionMonitor* monitor, int src_node,
                                int dst_node,
                                FunctionRef<Status()> attempt);

}  // namespace scimpi::fault
