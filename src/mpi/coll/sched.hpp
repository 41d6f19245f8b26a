// One description per collective algorithm (DESIGN.md §11).
//
// An algorithm is a round schedule, written once: a list of rounds, each a
// set of send/receive steps between communicator-local ranks plus an
// optional post-action (a reduction or a copy) that runs once every step of
// the round completed locally. Rounds are globally aligned: a rank idle in
// some round carries an empty round at that index, so every member's
// schedule has the same length and "round r" means the same exchange
// everywhere.
//
// Three executors run the descriptions, and they are the only code in
// coll/ and req/ that moves data:
//   * run_p2p: blocking, over the two-sided protocol, one round at a time
//     (post the receives, post the sends, wait the sends, wait the
//     receives, run the post-action);
//   * run_seg: blocking, one CollSegmentSet::run_streams batch per round;
//   * req::NbcSched: nonblocking, pumped by the request engine, issuing
//     rounds through the same issue_round as run_p2p.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "mpi/coll/tuning.hpp"
#include "mpi/datatype/datatype.hpp"

namespace scimpi::mpi {
class Comm;
class Rank;
struct SendOp;
struct RecvOp;
}  // namespace scimpi::mpi

namespace scimpi::mpi::coll {

class CollSegmentSet;

/// One side of a transfer in packed-stream terms. `type` null means raw
/// bytes (stream position p maps to `data` + p); otherwise the stream is the
/// canonical packed form of `count` x `type` at `data`.
struct XferView {
    void* data = nullptr;  ///< treated as const on the send side
    int count = 0;
    const Datatype* type = nullptr;
};

/// The verbs of a description: move stream range [pos, pos+len) of `v` to
/// or from communicator-local rank `peer`.
struct Step {
    bool send = false;
    int peer = 0;
    XferView v;
    std::size_t pos = 0;
    std::size_t len = 0;
};

struct Round {
    std::vector<Step> steps{};
    /// Runs once, after every step of the round completed locally. Charges
    /// simulated time to Rank::cur_proc() (the rank, or the progress daemon
    /// driving a nonblocking schedule on its behalf).
    std::function<void()> post{};
};

struct Sched {
    std::vector<Round> rounds;
    /// Buffers the steps and posts point into; they live as long as the
    /// schedule (moving a Sched keeps them in place).
    std::vector<std::unique_ptr<std::byte[]>> scratch;

    /// An uninitialised buffer of `n` T: every builder writes one (a copy,
    /// a receive or a pack) before anything reads it.
    template <class T>
    T* alloc(std::size_t n) {
        scratch.push_back(std::make_unique_for_overwrite<std::byte[]>(n * sizeof(T)));
        return reinterpret_cast<T*>(scratch.back().get());
    }
    /// Run `o`'s rounds after this schedule's.
    void append(Sched&& o);
};

/// Operands of one collective call; each builder reads the fields of its
/// operation. A typed payload is `count` x `*type`; `type` null means
/// `bytes` raw bytes (per rank, or per block for the gathers/alltoall).
struct Args {
    const void* in = nullptr;
    void* out = nullptr;  ///< result; for bcast the buffer itself
    std::size_t bytes = 0;
    int count = 0;
    const Datatype* type = nullptr;
    int root = 0;
};

using Builder = Sched (*)(Comm& c, const Args& a);

/// One row of the algorithm table: which description runs (op, alg) and
/// over which transport. `build` is null only for the flag barrier, which
/// is a control-segment mechanism rather than a round schedule.
struct AlgEntry {
    Op op;
    Alg alg;
    bool seg;  ///< runs over the communicator's CollSegmentSet
    Builder build;
};

/// The table entry for (op, alg), or null when `alg` does not apply to
/// `op` (Alg::auto_ is resolved by Tuning before lookup).
const AlgEntry* find_alg(Op op, Alg alg);

// ---- executors ----

/// Blocking run over the two-sided protocol. Round r's steps carry tag
/// kTagColl - op * kTagBand - r.
Status run_p2p(Comm& c, Op op, const Sched& s);
/// Blocking run over the communicator's segment set.
Status run_seg(Comm& c, CollSegmentSet& set, const Sched& s);

/// Post `r`'s receives, then its sends, on `tag` over the two-sided
/// protocol; `members` maps communicator-local peers to world ranks. Shared
/// by run_p2p and the nonblocking executor. A typed step must cover its
/// whole view (the two-sided protocol has no partial-stream send).
void issue_round(Rank& rk, const Round& r, std::span<const int> members, int tag,
                 int context, std::vector<std::shared_ptr<SendOp>>& tx,
                 std::vector<std::shared_ptr<RecvOp>>& rx);

}  // namespace scimpi::mpi::coll
