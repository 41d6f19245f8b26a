// Library-wide tunables. These mirror the runtime parameters of SCI-MPICH
// (protocol thresholds, rendezvous chunking) plus the ablation switches for
// the design decisions called out in DESIGN.md (D1-D6).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.hpp"

namespace scimpi {

struct Config {
    // ---- two-sided protocol thresholds (bytes of payload) ----
    std::size_t short_threshold = 128;        ///< inline data in control packet
    std::size_t eager_threshold = 16_KiB;     ///< preallocated remote eager slots
    std::size_t rndv_chunk = 64_KiB;          ///< rendezvous handshake chunk (D3: keep < L2)
    std::size_t eager_slots = 8;              ///< eager buffers per peer

    // ---- datatype engine ----
    bool use_direct_pack_ff = true;           ///< false: always generic pack+send
    std::size_t ff_min_block = 0;             ///< D6: below this basic-block size fall
                                              ///< back to generic (paper sets 0 for Fig. 7)
    bool ff_merge_stacks = true;              ///< D4: merge adjacent blocks at commit

    // ---- DMA rendezvous (paper Section 6 outlook) ----
    bool use_dma_rndv = false;            ///< move rendezvous chunks by DMA
    std::size_t dma_rndv_threshold = 64_KiB;  ///< minimum chunk size for DMA

    // ---- one-sided communication ----
    std::size_t get_remote_put_threshold = 2_KiB;  ///< D5: larger gets served by
                                                   ///< target-side remote-put

    // ---- collective engine (src/mpi/coll/; see DESIGN.md §11) ----
    std::size_t coll_chunk = 64_KiB;          ///< pipeline chunk of a collective stream
    std::size_t coll_seg_max = 8_MiB;         ///< per-rank data-segment cap (shrinks chunk)
    std::size_t coll_seg_min = 1_KiB;         ///< below this payload collectives stay p2p
    std::size_t coll_small_allreduce = 4_KiB; ///< recursive-doubling fast path below
    std::size_t coll_ring_min = 64_KiB;       ///< ring allreduce at or above this payload

    // ---- SCI adapter model ----
    bool stream_buffers = true;               ///< D1: gather ascending stores into 64 B txns
    bool write_combine = true;                ///< D2: 32 B CPU write-combine buffer
    double link_error_rate = 0.0;             ///< probability a transaction needs retry
    int max_retries = 8;                      ///< retries before link_failure

    // ---- resilience (responses to injected faults; see src/fault/) ----
    int send_retries = 16;                    ///< protocol-level attempts per chunk/op
    SimTime retry_backoff = 20'000;           ///< ns first backoff; doubles per retry
    SimTime retry_backoff_max = 2'000'000;    ///< ns backoff ceiling
    SimTime retry_budget = 20'000'000;        ///< ns of backoff per op before giving up
                                              ///< with peer_unreachable
    SimTime monitor_period = 0;               ///< ns between connection-monitor probe
                                              ///< sweeps (0 = monitor disabled)
    int monitor_dead_after = 3;               ///< consecutive probe failures -> dead

    // ---- simulation ----
    std::uint64_t seed = 1;                   ///< error-injection RNG seed
};

/// Baseline configuration matching the paper's SCI-MPICH setup.
Config default_config();

}  // namespace scimpi
