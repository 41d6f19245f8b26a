// Per-track time-attribution profiler: every simulated nanosecond of a
// process (an MPI rank, usually) is accounted to exactly one state, so a
// run can answer "where did the time go" — compute vs. packing vs. PIO
// writes vs. DMA vs. waiting — the way Scalasca-style wait-state analysis
// does for real MPI programs.
//
// Mechanics: each track keeps a stack of states (the implicit bottom is
// `compute`) plus the virtual time of the last transition. Scopes push a
// state on entry and pop it on exit (an obs::Span with a ProfState does it);
// elapsed time is attributed to the innermost state active while it passed.
// A snapshot attributes the open tail up to `now`, so per-track state times
// always sum exactly to the queried time — the property the smoke_profile
// ctest pins.
//
// Wait-state summary: the protocol layer additionally classifies matched
// user messages as late-sender (receive posted first, data arrived later)
// or late-receiver (data waited in the unexpected queue), with the waited
// time, mirroring the classic KOJAK/Scalasca patterns.
//
// Like the Tracer, the profiler is disabled by default and every hook is a
// single load + branch when off — simulated results are bit-identical with
// profiling on or off.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/units.hpp"

namespace scimpi::sim {
class Engine;
}  // namespace scimpi::sim

namespace scimpi::obs {

/// What a simulated process is doing right now (innermost scope wins).
enum class ProfState : std::uint8_t {
    compute,        ///< default: user code between library calls
    pack,           ///< datatype pack/unpack and staging copies
    pio_write,      ///< CPU stores through a mapped segment (PIO)
    dma,            ///< blocked on the adapter's DMA engine
    wait_recv,      ///< blocked waiting for a control message
    wait_sync,      ///< blocked in RMA synchronization (fence/PSCW/lock acks)
    retry_backoff,  ///< sleeping out a fault-retry backoff
};

inline constexpr int kProfStates = 7;

const char* prof_state_name(ProfState s);

class Profiler {
public:
    Profiler() = default;
    Profiler(const Profiler&) = delete;
    Profiler& operator=(const Profiler&) = delete;

    /// Switched on only through sim::Engine::enable_views.
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Enter state `s` on `track` at virtual time `now`.
    void push(int track, ProfState s, SimTime now);
    /// Leave the innermost state of `track`, reverting to the enclosing one.
    void pop(int track, SimTime now);

    /// Wait-state classification of one matched message (receiver side).
    void late_sender(int track, SimTime waited);
    void late_receiver(int track, SimTime waited);

    /// One finalized nonblocking request: of its issue→completion window of
    /// `window_ns`, `overlapped_ns` were not spent blocked in Wait — time
    /// the communication ran underneath user compute. The achieved overlap
    /// ratio per rank is sum(overlapped) / sum(window).
    void comm_overlap(int track, std::uint64_t overlapped_ns,
                      std::uint64_t window_ns);

    struct Snapshot {
        std::array<std::uint64_t, kProfStates> state_ns{};
        std::uint64_t total_ns = 0;  ///< sum of state_ns; equals `now` queried
        std::uint64_t late_senders = 0;
        std::uint64_t late_receivers = 0;
        std::uint64_t late_sender_wait_ns = 0;
        std::uint64_t late_receiver_wait_ns = 0;
        std::uint64_t overlap_ops = 0;      ///< finalized nonblocking requests
        std::uint64_t overlap_ns = 0;       ///< communication hidden by compute
        std::uint64_t comm_window_ns = 0;   ///< total issue→completion windows
    };

    /// Attribution of `track` with the open tail accounted up to `now`.
    /// A track that never pushed reports all of `now` as compute.
    [[nodiscard]] Snapshot snapshot(int track, SimTime now) const;

private:
    friend class sim::Engine;

    struct Track {
        std::vector<ProfState> stack;  ///< empty == compute
        SimTime last = 0;
        std::array<std::uint64_t, kProfStates> ns{};
        std::uint64_t late_senders = 0;
        std::uint64_t late_receivers = 0;
        std::uint64_t late_sender_wait = 0;
        std::uint64_t late_receiver_wait = 0;
        std::uint64_t overlap_ops = 0;
        std::uint64_t overlap_ns = 0;
        std::uint64_t comm_window_ns = 0;
    };

    static void attribute(Track& t, SimTime now);
    void enable() { enabled_ = true; }

    bool enabled_ = false;
    std::map<int, Track> tracks_;
};

}  // namespace scimpi::obs
