// Executor equivalence for the collective round schedules
// (src/mpi/coll/sched.hpp): every description in the algorithm table runs
// through each executor that can carry it — blocking p2p, blocking segment
// streams and the nonblocking request-engine executor — on 1, 2, 3, 5, 8
// and 13 ranks, from every root, with raw and (for bcast and allgather)
// vector-typed payloads. Every output buffer must equal a reference
// computed on the driver side, byte for byte, so the executors agree with
// each other too.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mpi/coll/coll.hpp"
#include "mpi/coll/sched.hpp"
#include "mpi/coll/segment_set.hpp"
#include "mpi/comm.hpp"
#include "mpi/req/nbc.hpp"

namespace scimpi::mpi {
namespace {

using coll::Alg;
using coll::Op;

enum class Exec { p2p, seg, nbc };
constexpr const char* kExecName[] = {"p2p", "seg", "nbc"};

constexpr int kElems = 375;    // doubles per rank: 3000 bytes, chunked, uneven blocks
constexpr int kVecCount = 47;  // vector instances per rank
constexpr int kExtent = 11;    // doubles spanned by one vector instance

/// 4 blocks of 2 doubles at stride 3: payload at offsets {0,1,3,4,6,7,9,10}.
Datatype vec_type() {
    Datatype t = Datatype::vector(4, 2, 3, Datatype::float64());
    t.commit();
    return t;
}
bool is_payload(std::size_t idx) { return idx % kExtent % 3 != 2; }

double value(int rank, std::size_t i) {
    return rank * 100000.0 + static_cast<double>(i) + 1;
}

std::vector<double> filled(int rank, std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = value(rank, i);
    return v;
}

/// The p2p-protocol executors can carry a description only when every typed
/// step covers its whole view.
bool whole_views(const coll::Sched& s) {
    for (const coll::Round& r : s.rounds)
        for (const coll::Step& st : r.steps)
            if (st.v.type != nullptr &&
                (st.pos != 0 ||
                 st.len != st.v.type->size() * static_cast<std::size_t>(st.v.count)))
                return false;
    return true;
}

Status execute(Comm& comm, Exec x, Op op, coll::Sched s) {
    switch (x) {
        case Exec::p2p:
            return coll::run_p2p(comm, op, s);
        case Exec::seg: {
            coll::CollSegmentSet* set = comm.cluster().coll_runtime().ensure_set(comm);
            if (set == nullptr) return Status::error(Errc::invalid_argument, "no set");
            return coll::run_seg(comm, *set, s);
        }
        case Exec::nbc: {
            req::Engine& eng = comm.rank_state().requests();
            const int tag = eng.nbc_tag_band(comm.context(), s.rounds.size());
            Request r = eng.start_coll(std::make_shared<req::NbcSched>(
                comm.rank_state(), comm.members(), comm.context(), tag, std::move(s)));
            return comm.wait(r);
        }
    }
    return Status::ok();
}

/// Buffers of one call plus the output every rank must end up with.
struct Case {
    std::vector<double> in, out, ref;
    coll::Args args;
};

Case make_case(Op op, bool vec, const Datatype& vt, int n, int me, int root) {
    const auto un = static_cast<std::size_t>(n);
    const std::size_t ne = kElems;
    const std::size_t ve = static_cast<std::size_t>(kVecCount) * kExtent;
    Case k;
    switch (op) {
        case Op::barrier:
            break;
        case Op::bcast:
            if (vec) {
                k.out = filled(me, ve);
                k.ref = k.out;
                for (std::size_t i = 0; i < ve; ++i)
                    if (is_payload(i)) k.ref[i] = value(root, i);
                k.args = {.out = k.out.data(), .count = kVecCount, .type = &vt,
                          .root = root};
            } else {
                k.out = me == root ? filled(root, ne) : std::vector<double>(ne, -1.0);
                k.ref = filled(root, ne);
                k.args = {.out = k.out.data(), .bytes = ne * 8, .root = root};
            }
            break;
        case Op::reduce:
        case Op::allreduce:
            k.in = filled(me, ne);
            k.out.assign(ne, 0.0);
            k.ref.assign(ne, 0.0);
            if (op == Op::allreduce || me == root)
                for (int r = 0; r < n; ++r)
                    for (std::size_t i = 0; i < ne; ++i) k.ref[i] += value(r, i);
            k.args = {.in = k.in.data(), .out = k.out.data(), .bytes = ne * 8,
                      .root = root};
            break;
        case Op::allgather:
            if (vec) {
                k.in = filled(me, ve);
                k.out.assign(un * ve, -1.0);
                k.ref = k.out;
                for (int r = 0; r < n; ++r)
                    for (std::size_t i = 0; i < ve; ++i)
                        if (is_payload(i))
                            k.ref[static_cast<std::size_t>(r) * ve + i] = value(r, i);
                k.args = {.in = k.in.data(), .out = k.out.data(), .count = kVecCount,
                          .type = &vt};
            } else {
                k.in = filled(me, ne);
                k.out.assign(un * ne, 0.0);
                for (int r = 0; r < n; ++r) {
                    const std::vector<double> b = filled(r, ne);
                    k.ref.insert(k.ref.end(), b.begin(), b.end());
                }
                k.args = {.in = k.in.data(), .out = k.out.data(), .bytes = ne * 8};
            }
            break;
        case Op::gather:
            k.in = filled(me, ne);
            k.out.assign(un * ne, 0.0);
            k.ref = k.out;
            if (me == root)
                for (int r = 0; r < n; ++r)
                    for (std::size_t i = 0; i < ne; ++i)
                        k.ref[static_cast<std::size_t>(r) * ne + i] = value(r, i);
            k.args = {.in = k.in.data(), .out = k.out.data(), .bytes = ne * 8,
                      .root = root};
            break;
        case Op::scatter:
            k.in = filled(me, un * ne);
            k.out.assign(ne, 0.0);
            for (std::size_t i = 0; i < ne; ++i)
                k.ref.push_back(value(root, static_cast<std::size_t>(me) * ne + i));
            k.args = {.in = k.in.data(), .out = k.out.data(), .bytes = ne * 8,
                      .root = root};
            break;
        case Op::alltoall:
            k.in = filled(me, un * ne);
            k.out.assign(un * ne, 0.0);
            for (int r = 0; r < n; ++r)
                for (std::size_t i = 0; i < ne; ++i)
                    k.ref.push_back(value(r, static_cast<std::size_t>(me) * ne + i));
            k.args = {.in = k.in.data(), .out = k.out.data(), .bytes = ne * 8};
            break;
    }
    return k;
}

TEST(CollSched, EveryDescriptionMatchesTheReferenceOnEveryExecutor) {
    for (const int n : {1, 2, 3, 5, 8, 13}) {
        ClusterOptions opt;
        opt.nodes = n;
        opt.cfg.coll_chunk = 2_KiB;  // several chunks per stream
        Cluster c(opt);
        int runs = 0;
        c.run([&](Comm& comm) {
            const Datatype vt = vec_type();
            for (int o = 0; o < coll::kOps; ++o) {
                const auto op = static_cast<Op>(o);
                const bool rooted = op == Op::bcast || op == Op::reduce ||
                                    op == Op::gather || op == Op::scatter;
                for (int a = 0; a <= static_cast<int>(Alg::spread); ++a) {
                    const coll::AlgEntry* e = coll::find_alg(op, static_cast<Alg>(a));
                    if (e == nullptr || e->build == nullptr) continue;
                    const bool typed_too = op == Op::bcast || op == Op::allgather;
                    for (const bool vec : {false, true}) {
                        if (vec && !typed_too) continue;
                        for (int root = 0; root < (rooted ? n : 1); ++root) {
                            for (const Exec x : {Exec::p2p, Exec::seg, Exec::nbc}) {
                                Case k = make_case(op, vec, vt, n, comm.rank(), root);
                                coll::Sched s = e->build(comm, k.args);
                                if (x != Exec::seg && !whole_views(s)) continue;
                                // Rounds are globally aligned: equal lengths.
                                const int mine = static_cast<int>(s.rounds.size());
                                std::vector<int> all(static_cast<std::size_t>(n));
                                ASSERT_TRUE(comm.allgather(&mine, sizeof mine, all.data()));
                                for (const int len : all) ASSERT_EQ(len, mine);
                                const std::string what =
                                    std::string(coll::op_name(op)) + "=" +
                                    coll::alg_name(e->alg) + (vec ? "/vec" : "") +
                                    " n=" + std::to_string(n) +
                                    " root=" + std::to_string(root) + " on " +
                                    kExecName[static_cast<int>(x)];
                                ASSERT_TRUE(execute(comm, x, op, std::move(s))) << what;
                                ASSERT_EQ(k.out.size(), k.ref.size()) << what;
                                EXPECT_TRUE(k.out.empty() ||
                                            std::memcmp(k.out.data(), k.ref.data(),
                                                        k.out.size() * sizeof(double)) == 0)
                                    << what;
                                if (comm.rank() == 0) ++runs;
                            }
                        }
                    }
                }
            }
        });
        EXPECT_GT(runs, 0);
    }
}

TEST(CollSched, PartialTypedViewIsRejectedOnTheTwoSidedPath) {
    ClusterOptions opt;
    opt.nodes = 3;
    Cluster c(opt);
    EXPECT_THROW(c.run([](Comm& comm) {
        const Datatype vt = vec_type();
        Case k = make_case(Op::bcast, true, vt, comm.size(), comm.rank(), 0);
        // scatter_ag moves byte blocks of the packed stream: pos > 0.
        const coll::AlgEntry* e = coll::find_alg(Op::bcast, Alg::scatter_ag);
        (void)coll::run_p2p(comm, Op::bcast, e->build(comm, k.args));
    }),
                 Panic);
}

}  // namespace
}  // namespace scimpi::mpi
