// The PCI-SCI adapter model (Dolphin D330 class). One instance per node.
//
// PIO writes are *posted*: the call returns once the CPU has issued the
// stores, but the bytes only become visible in the target's memory after the
// pipeline latency (modelled with timed engine callbacks, each naming its
// store in the fabric's StoreBuffer). A store barrier stalls until every
// outstanding store of the calling process has landed — upper layers must
// barrier before setting completion flags, exactly as on real SCI (Section
// 2, points 3 and 4 of the paper).
//
// Cost model per write call (see SciParams):
//   * ascending-contiguous continuation       -> burst_bw full lines,
//   * continuation shorter than wc_gather_min -> WC gather-timeout flush,
//   * jump: stream restart + partial-line transactions (aligned vs
//     misaligned chunks) + full lines at strided_burst_bw for the first
//     stream_ramp bytes, burst_bw beyond,
//   * write-combining disabled -> flat uncached_bw (no stride sensitivity),
//   * source feed: local reads feeding the PIO stream are capped by L2 /
//     memory-read bandwidth (the >128 KiB dip of Figure 1, footnote 2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "mem/machine_profile.hpp"
#include "obs/metrics.hpp"
#include "sci/fabric.hpp"
#include "sci/segment.hpp"
#include "sim/sync.hpp"

namespace scimpi::check {
class Checker;
}

namespace scimpi::sci {

class SciAdapter {
public:
    /// Resolves slot `node` of every sci.* counter in `metrics` (see
    /// obs/metrics.hpp): sci.pio_bytes, sci.write_calls, sci.retries, ...
    SciAdapter(int node, Fabric& fabric, mem::MachineProfile host, Config cfg,
               obs::MetricsRegistry& metrics);

    /// Transparent remote store of `len` bytes to `map` at `off`.
    /// `src_traffic` is the number of bytes the CPU reads locally to feed the
    /// stream (>= len when the source pattern wastes cache lines; 0 == len).
    /// Returns link_failure if a transaction exceeded its retry budget.
    Status write(sim::Process& self, const SciMapping& map, std::size_t off,
                 const void* src, std::size_t len, std::size_t src_traffic = 0);

    /// Gather-write: the direct_pack_ff fast path. The blocks land back to
    /// back at `off` (ascending contiguous destination), so after the
    /// initial jump every block continues the stream; blocks below
    /// wc_gather_min still pay the WC gather timeout. One arrival event
    /// covers the whole call.
    struct ConstIovec {
        const void* ptr = nullptr;
        std::size_t len = 0;
    };
    Status write_gather(sim::Process& self, const SciMapping& map, std::size_t off,
                        std::span<const ConstIovec> blocks,
                        std::size_t src_traffic = 0);

    /// Wire+feed cost of streaming `len` bytes to a remote node without a
    /// pre-established mapping (short/eager control payloads).
    [[nodiscard]] SimTime pio_stream_cost(std::size_t len, std::size_t src_traffic = 0) const;

    /// Transparent remote load (CPU stalls per transaction round trip).
    Status read(sim::Process& self, const SciMapping& map, std::size_t off,
                void* dst, std::size_t len);

    /// Flush write-combine + stream buffers and wait until every posted
    /// store of this process has arrived at its target.
    void store_barrier(sim::Process& self);

    /// Synchronous DMA transfer (descriptor setup + engine streaming).
    Status dma_write(sim::Process& self, const SciMapping& map, std::size_t off,
                     const void* src, std::size_t len);
    /// Chained-descriptor gather DMA: the non-contiguous transfer mode the
    /// paper's Section 6 outlook proposes. One descriptor per block
    /// (dma_desc_cost each) plus the usual startup; the engine streams the
    /// payload at dma_bw into an ascending destination.
    Status dma_write_gather(sim::Process& self, const SciMapping& map, std::size_t off,
                            std::span<const ConstIovec> blocks);

    /// Connection monitoring probe: one round trip to the peer node; false
    /// (after the probe timeout) when the route is broken. Charges
    /// sci.probes / sci.probe_failures.
    bool probe_peer(sim::Process& self, int peer_node);

    /// Fault injection: the adapter is wedged (PCI bridge reset, firmware
    /// hiccup) until simulated time `t` — every operation issued before then
    /// first waits the stall out. Extends, never shortens, a pending stall.
    void stall_until(SimTime t) { stall_until_ = std::max(stall_until_, t); }
    [[nodiscard]] SimTime stalled_until() const { return stall_until_; }

    /// Attach the scimpi-check checker (may be null). The adapter is the
    /// choke point for every access through an imported mapping, so all
    /// remote loads, PIO stores and DMA writes of watched segments are
    /// observed here.
    void bind_checker(check::Checker* ck) { checker_ = ck; }
    /// The bound checker (null unless SCIMPI_CHECK); smi::Region inherits
    /// it at creation so loopback accesses that bypass the adapter are
    /// still observed.
    [[nodiscard]] check::Checker* checker() const { return checker_; }

    [[nodiscard]] int node() const { return node_; }
    [[nodiscard]] Fabric& fabric() { return fabric_; }
    [[nodiscard]] const Config& config() const { return cfg_; }
    Config& config() { return cfg_; }
    [[nodiscard]] const mem::MachineProfile& host() const { return host_; }

    /// Posted stores currently in flight across all processes on this node
    /// (the adapter's write-queue depth; flight-recorder probe).
    [[nodiscard]] int pending_store_count() const {
        int n = 0;
        for (const int c : pending_stores_) n += c;
        return n;
    }

private:
    struct StreamState {
        bool valid = false;
        SegmentId seg;
        std::size_t next_off = 0;
    };

    /// Wire-side time for a PIO write; updates the writing process's stream
    /// state `st` (its streams_ entry, looked up once per call by the caller).
    SimTime wc_write_time(StreamState& st, const SciMapping& map, std::size_t off,
                          std::size_t len);

    /// Cost of flushing a sub-line segment [off, off+len): greedy aligned
    /// power-of-two decomposition, misaligned chunks cost more.
    SimTime partial_segment_cost(std::size_t off, std::size_t len);

    /// Error injection for `packets` transactions at `rate` (the max of the
    /// global Config rate and any injected per-link window on the route);
    /// adds retry time to *t and returns link_failure when a transaction
    /// exhausts its retries.
    Status inject_errors(std::size_t packets, SimTime* t, double rate);

    /// Max of the configured error rate and the injected per-link rates on
    /// `path` (empty path -> just the configured rate).
    [[nodiscard]] double route_error_rate(const RoutePath& path) const;

    /// Synchronous DMA of `blocks` landing back to back at `off`: startup
    /// plus `descs` chained descriptors, then the engine streams at dma_bw.
    Status dma(sim::Process& self, const SciMapping& map, std::size_t off,
               std::span<const ConstIovec> blocks, std::size_t descs, const char* what);

    /// Block `self` until any injected adapter stall has elapsed.
    void wait_if_stalled(sim::Process& self);

    /// The preamble of every load and store through a mapping, in this
    /// order: bounds check (`what` names the access in the panic), empty
    /// access, checker hook, injected-stall wait and, for a remote mapping,
    /// the route into `path` (node -> target for stores, target -> node for
    /// loads). Returns the status to return at once (ok for an empty
    /// access, link_failure for a down route), or nullopt to go on.
    std::optional<Status> begin_access(sim::Process& self, const SciMapping& map,
                                       std::size_t off, std::size_t len, bool is_store,
                                       const char* what, RoutePath& path);

    /// Per-process state, indexed by process id (grown on first use).
    StreamState& stream(int pid);
    int& pending_stores(int pid);

    /// Post a `len`-byte store of `self` to `dst`: it lands after the
    /// pipeline latency. Returns where to put its payload snapshot now.
    std::byte* post_store(sim::Process& self, std::byte* dst, std::size_t len);
    /// Landing callback of store `id`: copy it out, release the barrier.
    void land(std::uint64_t id);

    int node_;
    Fabric& fabric_;
    mem::MachineProfile host_;
    Config cfg_;
    Rng rng_;
    SimTime stall_until_ = 0;

    std::vector<StreamState> streams_;   // per process id
    std::vector<int> pending_stores_;    // per process id: stores in flight
    sim::WaitQueue barrier_waiters_;

    // This adapter's slot of each sci.* counter.
    obs::Counter& write_calls_c_;     // write / write_gather calls
    obs::Counter& pio_bytes_c_;       // PIO store bytes (write paths)
    obs::Counter& read_bytes_c_;      // transparent remote loads
    obs::Counter& dma_bytes_c_;       // DMA engine bytes
    obs::Counter& restarts_c_;        // stream buffer restarts
    obs::Counter& gather_timeouts_c_; // WC flushes between tiny blocks
    obs::Counter& retries_c_;         // transaction retries (injected errors)
    obs::Counter& barriers_c_;        // store barriers issued
    obs::Counter& probes_c_;          // connection-monitor probes
    obs::Counter& probe_fail_c_;      // probes that timed out
    obs::Counter& stall_waits_c_;     // ops delayed by injected stalls
    check::Checker* checker_ = nullptr;         // null unless SCIMPI_CHECK
};

}  // namespace scimpi::sci
