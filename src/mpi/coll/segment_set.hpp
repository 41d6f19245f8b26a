// Persistent per-communicator collective segment set (DESIGN.md §11).
//
// Every member exports two SCI segments from its node arena, once, at the
// first segment-routed collective on the communicator:
//   * a data segment, carved into per-writer double-buffered chunk areas
//     that peers write into over the adapter PIO path (watched by
//     scimpi-check when checking is on), and
//   * a control segment of flag words — per-stream ready/ack sequence
//     counters plus the dissemination-barrier rounds — which carries only
//     the synchronization protocol and stays unwatched, exactly like the
//     p2p engine's internal rings.
//
// A transfer is a *stream*: the writer remote-writes chunk `seq` into the
// reader's data area (parity seq&1), store-barriers, publishes `seq` in the
// reader's ready word, store-barriers again and wakes the reader. The reader
// polls its own memory (cheap local reads, the SCI way), consumes the chunk
// and acknowledges by writing `seq` into the writer's ack word. A writer
// reuses a chunk buffer only once `acked >= seq - 2`, which doubles as the
// happens-before edge that makes checked runs race-free. Sequence numbers
// never reset, so buffer-reuse discipline holds across collective calls.
//
// Fault story: chunk, flag and ack writes all run under the fault-retry
// policy. When a writer's publish exhausts it, or a reader's ack does (the
// reader then marks the edge degraded and wakes the writer), the writer
// diverts the *remainder* of the transfer into one p2p message tagged per
// stream; the edge is then pinned to the p2p path. Readers never
// unilaterally give up on the flag path — they probe for the fallback
// message whenever they wake, so a transfer completes on whichever path the
// writer chose.
//
// Waits are exact: a parked member is woken only by an event that can
// change what it polls (a flag or ack write, a message arrival, an ack
// give-up), never by a timer, so a lost wake ends in the engine's deadlock
// panic naming "coll segment wait" rather than a silent re-poll loop.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "mpi/coll/sched.hpp"
#include "sci/segment.hpp"
#include "sim/sync.hpp"
#include "smi/region.hpp"

namespace scimpi::mpi {
class Cluster;
class Comm;
}  // namespace scimpi::mpi

namespace scimpi::mpi::coll {

struct CollMetrics;

class CollSegmentSet {
public:
    static constexpr int kBarrierRounds = 32;

    CollSegmentSet(Cluster& cluster, int comm_size, CollMetrics& cm);
    ~CollSegmentSet();
    CollSegmentSet(const CollSegmentSet&) = delete;
    CollSegmentSet& operator=(const CollSegmentSet&) = delete;

    /// First-use bootstrap (collective): export this member's segments, then
    /// agree over a p2p ring allgather that every member allocated
    /// successfully.
    /// After it returns, usable() is identical on every member.
    void init_member(Comm& comm);
    [[nodiscard]] bool initialized(int local) const {
        return members_[static_cast<std::size_t>(local)].init_done;
    }
    [[nodiscard]] bool usable() const { return usable_; }

    [[nodiscard]] std::size_t chunk() const { return chunk_; }

    /// Pump one round's steps (sched.hpp; peers are local ranks) to
    /// completion: every stream progresses independently, so neither
    /// direction of an exchange blocks the other and one slow or degraded
    /// edge never stalls the rest. A round must not hold two steps on the
    /// same (peer, direction) stream.
    Status run_streams(Comm& c, std::span<const Step> steps);

    /// Dissemination barrier on the control-segment flag words, degrading
    /// per edge to short p2p tokens (which ride the hardware-reliable
    /// doorbell path) when a flag write fails.
    void barrier_flags(Comm& c);

private:
    struct Stream {
        std::uint64_t sent = 0;   ///< writer: chunks published
        std::uint64_t acked = 0;  ///< writer: ack floor (word or fallback)
        std::uint64_t rcvd = 0;   ///< reader: chunks consumed
    };

    struct Member {
        bool init_done = false;
        bool alloc_ok = false;
        int node = -1;
        sci::SegmentId ctrl_seg;
        sci::SegmentId data_seg;
        std::span<std::byte> ctrl_mem;
        std::span<std::byte> data_mem;
        std::vector<Stream> tx;              ///< me as writer, per peer
        std::vector<Stream> rx;              ///< me as reader, per peer
        std::vector<std::uint8_t> degraded;  ///< per peer: segment path dead
        std::uint64_t barrier_gen = 0;
        // Imported regions, cached per target member (index == local rank).
        std::vector<std::optional<smi::Region>> ctrl_to;
        std::vector<std::optional<smi::Region>> data_to;
    };

    struct ActiveSend {
        int to = 0;
        XferView v;
        std::size_t pos = 0;       ///< stream offset of the transfer
        std::size_t len = 0;
        std::size_t n_chunks = 0;
        std::size_t next_ci = 0;   ///< next chunk index to publish
        std::uint64_t base = 0;    ///< tx.sent at transfer start
        bool done = false;
    };
    struct ActiveRecv {
        int from = 0;
        XferView v;
        std::size_t pos = 0;
        std::size_t len = 0;
        std::size_t n_chunks = 0;
        std::uint64_t base = 0;    ///< rx.rcvd at transfer start
        bool done = false;
    };

    // Control-word offsets (u64 words) within a member's control segment.
    [[nodiscard]] std::size_t barrier_off(int round) const;
    [[nodiscard]] std::size_t ready_off(int writer) const;
    [[nodiscard]] std::size_t ack_off(int reader) const;
    /// Chunk-area offset within a member's data segment.
    [[nodiscard]] std::size_t area_off(int writer, int parity) const;

    Member& member(int local) { return members_[static_cast<std::size_t>(local)]; }
    smi::Region& ctrl_region(int me, int target);
    smi::Region& data_region(int me, int target);

    /// Read a word of my own control segment (a free cached load).
    std::uint64_t read_my_word(Comm& c, std::size_t word_off);
    /// Publish a word in `target`'s control segment: a posted write plus a
    /// host-side wake when it lands. Single attempt; adapter-internal
    /// retries only.
    Status put_word(Comm& c, int target, std::size_t word_off, std::uint64_t v);
    /// Park on the rank's coll_waiters() until a flag or ack write, a
    /// message arrival or an ack give-up wakes it. No timer.
    void park(Comm& c);

    // Pump steps; return true when they made progress.
    bool pump_send(Comm& c, ActiveSend& s, Status* st);
    bool pump_recv(Comm& c, ActiveRecv& r, Status* st);
    Status pump_all(Comm& c, std::span<ActiveSend> sends,
                    std::span<ActiveRecv> recvs);

    /// Write chunk `ci` of `s` (data + flag + wake) through the segments.
    Status publish_chunk(Comm& c, ActiveSend& s, std::size_t ci);
    /// Consume chunk `ci` of `r` from my own data segment.
    void consume_chunk(Comm& c, ActiveRecv& r, std::size_t ci);
    /// Divert the rest of `s` (chunks >= ci) into one p2p message.
    Status fallback_send(Comm& c, ActiveSend& s, std::size_t ci);
    /// Absorb a pending fallback message; false if it was stale.
    bool fallback_recv(Comm& c, ActiveRecv& r);

    Cluster& cluster_;
    CollMetrics& cm_;
    int n_;
    std::size_t chunk_ = 0;       ///< 0: data segment would not fit any chunks
    std::size_t ctrl_bytes_ = 0;
    std::size_t data_bytes_ = 0;
    bool usable_ = false;
    bool verdict_known_ = false;  ///< init allgather completed once
    std::vector<Member> members_;
};

}  // namespace scimpi::mpi::coll
