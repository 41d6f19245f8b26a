#include "plat/platform_model.hpp"

#include <algorithm>
#include <cmath>

namespace scimpi::plat {

using mpi::GenericPacker;
using mpi::PackWork;

SimTime PlatformModel::pack_time(std::size_t total, std::size_t block) const {
    if (block == 0 || block >= total) {
        // Contiguous: the staging copy of a generic implementation.
        return copy_.copy_cost(total, {}, {});
    }
    const std::size_t nblocks = (total + block - 1) / block;
    switch (spec_.dt_opt) {
        case DatatypeOpt::generic:
            return GenericPacker::cost({total, static_cast<std::int64_t>(nblocks)}, copy_);
        case DatatypeOpt::shm_blockjump: {
            // Sun HPC shared memory (Fig. 10): for blocks >= 16 KiB the
            // library copies each block directly between the user buffers
            // (only per-block call overhead; efficiency jumps to ~1). Below
            // the threshold it stages through a pack buffer, which crosses
            // the same memory system once more (efficiency ~0.5).
            if (block >= 16_KiB)
                return static_cast<SimTime>(nblocks) *
                       copy_.profile().copy_call_overhead;
            return scimpi::transfer_time(total, spec_.bus.per_proc_bw) +
                   static_cast<SimTime>(nblocks) * copy_.profile().per_block_overhead;
        }
        case DatatypeOpt::hw_strided: {
            // T3E E-registers move strided data in hardware: a per-block
            // engine setup plus wire-speed streaming. Very small blocks are
            // setup-dominated; blocks beyond the stream cache spill and add
            // a memory-speed local pass (Fig. 10: low < 4 KiB, ~1 between
            // 8 and 32 KiB, low again > 32 KiB).
            constexpr SimTime kBlockSetup = 1'800;
            SimTime t = static_cast<SimTime>(nblocks) * kBlockSetup;
            if (block > 32_KiB)
                t += copy_.copy_cost(total, {}, {});
            return t;
        }
    }
    panic("unknown datatype optimization");
}

SimTime PlatformModel::wire_time(std::size_t total) const {
    if (spec_.internode) {
        const NetParams& n = spec_.net;
        SimTime t = n.latency + n.per_msg_cpu;
        t += scimpi::transfer_time(total, n.bw);
        if (n.reg_bw > 0.0) t += scimpi::transfer_time(total, n.reg_bw);  // GM registration
        // Host copies through the memory system (TCP-style stacks).
        for (int c = 0; c < n.copies; ++c) t += copy_.copy_cost(total, {}, {});
        return t;
    }
    // Shared memory: two copies (in and out of the shm segment) over the bus.
    const double bw = std::min(spec_.bus.per_proc_bw, spec_.bus.total_bw);
    return 2 * (scimpi::transfer_time(total, bw) + copy_.profile().copy_call_overhead);
}

SimTime PlatformModel::transfer_time(std::size_t total, std::size_t block) const {
    if (total == 0) return spec_.internode ? spec_.net.latency : 500;
    SimTime t = wire_time(total);
    if (block != 0) {
        // Pack on the sender, unpack on the receiver.
        t += 2 * pack_time(total, block);
    }
    return t;
}

SimTime PlatformModel::osc_latency(std::size_t access, bool is_put) const {
    SCIMPI_REQUIRE(spec_.supports_osc, spec_.code + " does not support one-sided");
    SimTime t = spec_.osc_small_latency + spec_.osc_op_overhead;
    if (spec_.osc_peak_bw > 0.0) t += scimpi::transfer_time(access, spec_.osc_peak_bw);
    if (!is_put) {
        // Gets need the data back: one extra traversal of the transport.
        t += spec_.internode ? spec_.net.latency : spec_.osc_small_latency / 2;
    }
    return t;
}

double PlatformModel::osc_bandwidth(std::size_t access, bool is_put) const {
    SCIMPI_REQUIRE(spec_.supports_osc, spec_.code + " does not support one-sided");
    // Within one epoch the per-op latency pipelines away; the per-op
    // software overhead and the stream ceiling remain.
    SimTime per_op = spec_.osc_op_overhead +
                     scimpi::transfer_time(access, spec_.osc_peak_bw);
    if (!is_put) per_op += spec_.osc_op_overhead;  // request/response bookkeeping
    return bandwidth_mib(access, per_op);
}

double PlatformModel::osc_scaling_bandwidth(int nprocs, std::size_t access) const {
    SCIMPI_REQUIRE(nprocs >= 2, "scaling needs >= 2 processes");
    double per_proc = osc_bandwidth(access, /*is_put=*/true);
    if (!spec_.internode) {
        // Shared bus: n concurrent writers share the memory system.
        per_proc = std::min(per_proc, spec_.bus.total_bw / nprocs);
    } else if (spec_.id == PlatformId::cray_t3e) {
        // 3D-torus bisection scales with the machine: per-process bandwidth
        // stays constant but keeps its "uneven, regular" access-size ripple.
        const int bucket = static_cast<int>(std::log2(std::max<std::size_t>(access, 1)));
        per_proc *= (bucket % 2 == 0) ? 1.0 : 0.8;
    }
    return per_proc;
}

}  // namespace scimpi::plat
