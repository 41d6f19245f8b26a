// The causal id a control message or RMA signal carries: the graph node it
// hangs off and the Chrome-trace flow arrow it continues. Both views derive
// from it through one call, Engine::land; ids are 0 while their view is off.
#pragma once

#include <cstdint>

namespace scimpi::obs {

/// Flow-arrow families: a p2p message ("msg", cat "p2p") and an emulated
/// one-sided op ("rma", cat "rma").
enum class Flow : std::uint8_t { none, msg, rma };

struct Cause {
    std::uint64_t node = 0;  ///< graph node the next edge starts from
    std::uint64_t flow = 0;  ///< open flow arrow id
    Flow kind = Flow::none;
};

}  // namespace scimpi::obs
