// The benchmark's workloads. Each one turns a seed into a fixed set of
// inputs (sizes, datatypes, epochs); the simulator only ever sees those
// inputs. Every instance of a workload replays the same inputs, so two
// instances must leave identical simulated results (the determinism guard
// in main.cpp checks this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mpi/comm.hpp"

namespace perfbench {

/// What the rank code of one instance reports back. Ranks run one at a
/// time, so they share this without locking.
struct Tally {
    std::vector<double> op_sim_ns;  ///< simulated latency of each op
    std::vector<std::uint8_t> bad;  ///< per op slot: 1 = failed
    std::string first_error;

    void fail(std::size_t slot, const std::string& why);
    /// Record a failed call: false when `st` is not ok.
    bool check(std::size_t slot, const scimpi::Status& st, const char* what);
};

class Workload {
public:
    virtual ~Workload() = default;
    [[nodiscard]] virtual scimpi::mpi::ClusterOptions options() const = 0;
    /// Number of ops one instance performs (the base of op_error_rate).
    [[nodiscard]] virtual std::size_t op_slots() const = 0;
    /// Payload bytes one instance moves through MPI calls.
    [[nodiscard]] virtual std::uint64_t payload_bytes() const = 0;
    /// Basic blocks one instance hands to Comm::pack.
    [[nodiscard]] virtual std::uint64_t packed_blocks() const { return 0; }
    /// Reset host-side reference state before an instance starts.
    virtual void reset() {}
    virtual void rank_main(scimpi::mpi::Comm& comm, Tally& tally) = 0;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name. `short_mode` shrinks the inputs to a smoke
/// test of the same shape.
std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        bool short_mode);

std::unique_ptr<Workload> make_stencil_coll(std::uint64_t seed, bool short_mode);
std::unique_ptr<Workload> make_noncontig_pack(std::uint64_t seed, bool short_mode);
std::unique_ptr<Workload> make_osc_sparse(std::uint64_t seed, bool short_mode);

/// Every workload starts with the world communicator's first collective
/// (which bootstraps its segment set) and a steady one, so the traced run
/// can read the bootstrap cost as their difference.
void bootstrap_barriers(scimpi::mpi::Comm& comm);

}  // namespace perfbench
