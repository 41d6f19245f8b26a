// Simulated-time fixed point for every (operation, algorithm) pair the
// collective engine accepts: each pair is forced through
// ClusterOptions::coll on 5 and 8 ranks, at a payload below coll_seg_min
// and one at coll_ring_min, and the simulated completion time (ns, the
// latest rank's clock right after the call) must equal the recorded value.
// A refactor of the algorithms or their executors that changes a single
// message, chunk or charge shows up here as a changed number.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "mpi/comm.hpp"

namespace scimpi::mpi {
namespace {

constexpr std::size_t kSmall = 512;     // below the default coll_seg_min
constexpr std::size_t kLarge = 64_KiB;  // the default coll_ring_min

/// One instance: 4 blocks of 2 doubles at stride 3 (64 payload bytes).
Datatype vec_type() {
    Datatype t = Datatype::vector(4, 2, 3, Datatype::float64());
    t.commit();
    return t;
}

struct Case {
    const char* op;    ///< label; "bcast_vec"/"allgather_vec" use vec_type()
    const char* algs;  ///< space-separated algorithms forced for the op
};

constexpr Case kCases[] = {
    {"barrier", "p2p flags"},
    {"bcast", "p2p flat binomial scatter_ag"},
    {"bcast_vec", "p2p flat binomial scatter_ag"},
    {"reduce", "p2p binomial"},
    {"allreduce", "p2p rdouble ring reduce_bcast"},
    {"allgather", "p2p flat ring"},
    {"allgather_vec", "p2p flat ring"},
    {"gather", "p2p"},
    {"scatter", "p2p"},
    {"alltoall", "p2p pairwise spread"},
};

/// Run `op` once (root 1 for rooted operations) and return the latest
/// rank's simulated clock right after it.
SimTime run_case(const std::string& op, const std::string& alg, int n,
                 std::size_t bytes) {
    const std::string base = op.substr(0, op.find('_'));
    ClusterOptions opt;
    opt.nodes = n;
    opt.coll = base + "=" + alg;
    Cluster c(opt);
    std::vector<SimTime> done(static_cast<std::size_t>(n), 0);
    c.run([&](Comm& comm) {
        const auto un = static_cast<std::size_t>(n);
        const int r = comm.rank();
        const int root = 1;
        const int elems = static_cast<int>(bytes / sizeof(double));
        std::vector<double> in(un * bytes / sizeof(double));
        std::iota(in.begin(), in.end(), 10.0 * r);
        std::vector<double> out(in.size() * 2, 0.0);
        Status st;
        if (op == "barrier") {
            comm.barrier();
        } else if (op == "bcast") {
            st = comm.bcast(in.data(), elems, Datatype::float64(), root);
        } else if (op == "bcast_vec") {
            st = comm.bcast(out.data(), static_cast<int>(bytes / 64), vec_type(), root);
        } else if (op == "reduce") {
            st = comm.reduce_sum(in.data(), out.data(), elems, root);
        } else if (op == "allreduce") {
            st = comm.allreduce_sum(in.data(), out.data(), elems);
        } else if (op == "allgather") {
            st = comm.allgather(in.data(), bytes, out.data());
        } else if (op == "allgather_vec") {
            // The input spans count extents of the vector type, the output
            // n times that.
            std::vector<double> vin(bytes / 64 * 11, 1.0 + r);
            std::vector<double> vout(un * vin.size());
            st = comm.allgather(vin.data(), static_cast<int>(bytes / 64), vec_type(),
                                vout.data());
        } else if (op == "gather") {
            st = comm.gather(in.data(), bytes, out.data(), root);
        } else if (op == "scatter") {
            st = comm.scatter(in.data(), bytes, out.data(), root);
        } else if (op == "alltoall") {
            st = comm.alltoall(in.data(), bytes, out.data());
        }
        EXPECT_TRUE(st.is_ok()) << op << "=" << alg << ": " << st.to_string();
        done[static_cast<std::size_t>(r)] = comm.proc().now();
    });
    return *std::max_element(done.begin(), done.end());
}

/// Recorded with the per-algorithm implementations that preceded the round
/// schedules; key "op=alg/n/bytes".
const std::map<std::string, SimTime>& golden() {
    static const std::map<std::string, SimTime> g = {
        {"barrier=p2p/5/512", 8337},
        {"barrier=p2p/8/512", 8337},
        {"barrier=flags/5/512", 16360},
        {"barrier=flags/8/512", 24697},
        {"bcast=p2p/5/512", 19993},
        {"bcast=p2p/5/65536", 1449231},
        {"bcast=p2p/8/512", 22758},
        {"bcast=p2p/8/65536", 1449231},
        {"bcast=flat/5/512", 30941},
        {"bcast=flat/5/65536", 1669305},
        {"bcast=flat/8/512", 52487},
        {"bcast=flat/8/65536", 2861259},
        {"bcast=binomial/5/512", 28751},
        {"bcast=binomial/5/65536", 1354799},
        {"bcast=binomial/8/512", 39301},
        {"bcast=binomial/8/65536", 1443169},
        {"bcast=scatter_ag/5/512", 40894},
        {"bcast=scatter_ag/5/65536", 765240},
        {"bcast=scatter_ag/8/512", 48811},
        {"bcast=scatter_ag/8/65536", 812175},
        {"bcast_vec=p2p/5/512", 37018},
        {"bcast_vec=p2p/5/65536", 4126590},
        {"bcast_vec=p2p/8/512", 43188},
        {"bcast_vec=p2p/8/65536", 4126590},
        {"bcast_vec=flat/5/512", 44282},
        {"bcast_vec=flat/5/65536", 3776242},
        {"bcast_vec=flat/8/512", 73280},
        {"bcast_vec=flat/8/65536", 6182680},
        {"bcast_vec=binomial/5/512", 43013},
        {"bcast_vec=binomial/5/65536", 3544533},
        {"bcast_vec=binomial/8/512", 56968},
        {"bcast_vec=binomial/8/65536", 4120528},
        {"bcast_vec=scatter_ag/5/512", 47867},
        {"bcast_vec=scatter_ag/5/65536", 1888898},
        {"bcast_vec=scatter_ag/8/512", 57703},
        {"bcast_vec=scatter_ag/8/65536", 2006583},
        {"reduce=p2p/5/512", 16129},
        {"reduce=p2p/5/65536", 1465507},
        {"reduce=p2p/8/512", 22950},
        {"reduce=p2p/8/65536", 1564808},
        {"reduce=binomial/5/512", 25352},
        {"reduce=binomial/5/65536", 1063468},
        {"reduce=binomial/8/512", 39493},
        {"reduce=binomial/8/65536", 1467745},
        {"allreduce=p2p/5/512", 36122},
        {"allreduce=p2p/5/65536", 2914738},
        {"allreduce=p2p/8/512", 45708},
        {"allreduce=p2p/8/65536", 3016339},
        {"allreduce=rdouble/5/512", 26536},
        {"allreduce=rdouble/5/65536", 2903238},
        {"allreduce=rdouble/8/512", 22950},
        {"allreduce=rdouble/8/65536", 2952609},
        {"allreduce=ring/5/512", 38328},
        {"allreduce=ring/5/65536", 816920},
        {"allreduce=ring/8/512", 60956},
        {"allreduce=ring/8/65536", 918414},
        {"allreduce=reduce_bcast/5/512", 42987},
        {"allreduce=reduce_bcast/5/65536", 2407151},
        {"allreduce=reduce_bcast/8/512", 59341},
        {"allreduce=reduce_bcast/8/65536", 2891461},
        {"allgather=p2p/5/512", 30344},
        {"allgather=p2p/5/65536", 1932308},
        {"allgather=p2p/8/512", 53102},
        {"allgather=p2p/8/65536", 3381539},
        {"allgather=flat/5/512", 37580},
        {"allgather=flat/5/65536", 2030913},
        {"allgather=flat/8/512", 68629},
        {"allgather=flat/8/65536", 3833086},
        {"allgather=ring/5/512", 37580},
        {"allgather=ring/5/65536", 2030913},
        {"allgather=ring/8/512", 68629},
        {"allgather=ring/8/65536", 3833086},
        {"allgather_vec=p2p/5/512", 53325},
        {"allgather_vec=p2p/5/65536", 6629611},
        {"allgather_vec=p2p/8/512", 87514},
        {"allgather_vec=p2p/8/65536", 10557642},
        {"allgather_vec=flat/5/512", 68876},
        {"allgather_vec=flat/5/65536", 6611036},
        {"allgather_vec=flat/8/512", 115488},
        {"allgather_vec=flat/8/65536", 10894050},
        {"allgather_vec=ring/5/512", 68876},
        {"allgather_vec=ring/5/65536", 6611036},
        {"allgather_vec=ring/8/512", 115488},
        {"allgather_vec=ring/8/65536", 10894050},
        {"gather=p2p/5/512", 9881},
        {"gather=p2p/5/65536", 1919408},
        {"gather=p2p/8/512", 12176},
        {"gather=p2p/8/65536", 3355739},
        {"scatter=p2p/5/512", 22049},
        {"scatter=p2p/5/65536", 1932308},
        {"scatter=p2p/8/512", 36512},
        {"scatter=p2p/8/65536", 3381539},
        {"alltoall=p2p/5/512", 30344},
        {"alltoall=p2p/5/65536", 2346842},
        {"alltoall=p2p/8/512", 53102},
        {"alltoall=p2p/8/65536", 5360753},
        {"alltoall=pairwise/5/512", 37580},
        {"alltoall=pairwise/5/65536", 2172764},
        {"alltoall=pairwise/8/512", 75343},
        {"alltoall=pairwise/8/65536", 5279569},
        {"alltoall=spread/5/512", 31976},
        {"alltoall=spread/5/65536", 2045651},
        {"alltoall=spread/8/512", 62672},
        {"alltoall=spread/8/65536", 4778133},
    };
    return g;
}

TEST(CollFixedPoint, SimulatedTimeOfEveryForcedAlgorithm) {
    int checked = 0;
    for (const Case& k : kCases) {
        std::vector<std::string> algs;
        for (std::string rest = k.algs; !rest.empty();) {
            const std::size_t sp = rest.find(' ');
            algs.push_back(rest.substr(0, sp));
            rest = sp == std::string::npos ? "" : rest.substr(sp + 1);
        }
        for (const std::string& alg : algs) {
            for (const int n : {5, 8}) {
                for (const std::size_t bytes : {kSmall, kLarge}) {
                    if (std::string(k.op) == "barrier" && bytes != kSmall) continue;
                    const std::string key = std::string(k.op) + "=" + alg + "/" +
                                            std::to_string(n) + "/" +
                                            std::to_string(bytes);
                    const SimTime t = run_case(k.op, alg, n, bytes);
                    const auto it = golden().find(key);
                    if (it == golden().end()) {
                        ADD_FAILURE() << "no recorded value: {\"" << key << "\", " << t
                                      << "},";
                        continue;
                    }
                    EXPECT_EQ(t, it->second) << key;
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, static_cast<int>(golden().size()));
}

}  // namespace
}  // namespace scimpi::mpi
