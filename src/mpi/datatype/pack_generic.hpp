// Generic pack/unpack: the MPICH-style recursive datatype walker
// (Figure 4 top). Packs in canonical type-map order; every basic block costs
// a recursive tree descent, which is precisely the overhead direct_pack_ff
// removes. Supports partial operations by stream offset (it re-walks the
// type map from the start, skipping up to the range and stopping after it,
// as generic MPICH segment code does).
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "mem/copy_model.hpp"
#include "mpi/datatype/datatype.hpp"

namespace scimpi::mpi {

/// Work metrics of one pack/unpack invocation, for the cost model.
struct PackWork {
    std::size_t bytes = 0;        ///< payload moved
    std::int64_t blocks = 0;      ///< basic blocks touched
};

class GenericPacker {
public:
    /// A view of `count` instances of `type` at `userbuf`. The type does not
    /// need to be committed (generic MPICH walks the raw tree).
    GenericPacker(const Datatype& type, int count, void* userbuf);

    [[nodiscard]] std::size_t total_bytes() const { return total_; }

    /// Copy packed-stream range [pos, pos+len) into `out`.
    PackWork pack(std::size_t pos, std::size_t len, std::byte* out) const;

    /// Scatter packed-stream range [pos, pos+len) from `in` into the view.
    PackWork unpack(std::size_t pos, std::size_t len, const std::byte* in) const;

    /// Simulated CPU time of a generic pack/unpack performing `work`,
    /// including the recursive walker overhead per block.
    static SimTime cost(const PackWork& work, const mem::CopyModel& model);

private:
    template <bool Pack>
    PackWork run(std::size_t pos, std::size_t len, std::byte* stream) const;

    Datatype type_;
    int count_;
    std::byte* user_;
    std::size_t total_;
};

}  // namespace scimpi::mpi
