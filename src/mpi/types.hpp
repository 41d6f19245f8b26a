// Shared protocol-level types of the MPI layer.
#pragma once

#include <cstdint>
#include <memory>

#include "common/status.hpp"
#include "common/units.hpp"
#include "obs/cause.hpp"

namespace scimpi::mpi {

inline constexpr int ANY_SOURCE = -1;
inline constexpr int ANY_TAG = -1;

/// Message envelope carried by every control packet.
struct Envelope {
    int src = -1;          ///< world ranks on the wire
    int dst = -1;
    int context = 0;       ///< communicator context id (0 = world)
    int tag = 0;
    std::uint64_t seq = 0;        ///< per-(src,dst) sequence number
    std::size_t bytes = 0;        ///< payload size
    std::uint64_t type_fp = 0;    ///< sender datatype fingerprint
    SimTime post_time = 0;        ///< virtual time the send was posted
                                  ///< (post→delivery latency histograms)
};

/// How a rendezvous stream is packed on the wire.
enum class PackMode : std::uint8_t {
    canonical,      ///< type-map order (each side picks ff or generic locally)
    ff_leaf_major,  ///< leaf-major order; requires matching fingerprints
};

enum class CtrlKind : std::uint8_t {
    short_msg,    ///< payload inline in the control packet
    eager,        ///< payload deposited in the receiver's eager slot
    eager_credit, ///< receiver returns an eager slot
    rndv_rts,     ///< request to send
    rndv_cts,     ///< receiver grants the ring buffer + pack mode
    rndv_chunk,   ///< sender filled ring chunk `a` with `b` bytes
    rndv_ack,     ///< receiver drained ring chunk `a`
    rndv_fail,    ///< sender exhausted its retry budget; receiver aborts with
                  ///< the Errc carried in `a` and releases its ring
};

struct CtrlMsg {
    CtrlKind kind = CtrlKind::short_msg;
    Envelope env;
    std::uint64_t sender_handle = 0;  ///< sender-side op id (echoed in cts/ack)
    std::uint64_t recv_handle = 0;    ///< receiver-side op id (echoed in chunk)
    std::uint64_t a = 0;              ///< kind-specific scalar (slot / chunk idx)
    std::uint64_t b = 0;              ///< kind-specific scalar (chunk bytes)
    PackMode mode = PackMode::canonical;
    /// Short/eager payload of `inline_len` bytes, allocated uninitialised
    /// because the sender packs over all of it.
    std::unique_ptr<std::byte[]> inline_data;
    std::size_t inline_len = 0;
    SimTime arrived = 0;  ///< receiver-side arrival stamp (set when the message
                          ///< is parked in the unexpected queue)
    obs::Cause cause;  ///< graph node the message hangs off (the sender's
                       ///< wire-push node, rewritten to the receiver's
                       ///< arrival node by dispatch) and the flow arrow of
                       ///< the user message it belongs to
};

/// Result of a receive operation.
struct RecvResult {
    Status status;
    int source = -1;
    int tag = 0;
    std::size_t bytes = 0;
};

}  // namespace scimpi::mpi
