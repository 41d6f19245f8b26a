// direct_pack_ff (paper Section 3.3): non-recursive packing driven by the
// flattened ff-stack representation built at commit time.
//
//   * find_position: O(N) + O(D) location of an arbitrary stream offset
//     (N = leaves, D = max stack depth) — partial packs resume anywhere,
//   * copy_split_block: finishes a block cut by the previous chunk,
//   * copy_leaf_basic: two nested loops over simple stack (odometer)
//     operations — no recursive tree traversal.
//
// The packed stream is leaf-major (all replications of leaf 0, then leaf 1,
// ...), instance-major across `count` type instances. The receive side runs
// the same iteration with the copy direction swapped.
#pragma once

#include <functional>

#include "mem/copy_model.hpp"
#include "mpi/datatype/datatype.hpp"
#include "mpi/datatype/pack_generic.hpp"  // PackWork

namespace scimpi::mpi {

class FFPacker {
public:
    /// A view of `count` instances of committed `type` at `userbuf`.
    FFPacker(const Datatype& type, int count, void* userbuf);

    [[nodiscard]] std::size_t total_bytes() const { return total_; }

    /// Drive the ff iteration over packed-stream range [pos, pos+len):
    /// `emit(mem, n)` is called once per (possibly split) basic block in
    /// stream order, where `mem` points into the user buffer.
    PackWork for_range(std::size_t pos, std::size_t len,
                       const std::function<void(std::byte*, std::size_t)>& emit) const;

    /// Gather the range into a contiguous buffer.
    PackWork pack(std::size_t pos, std::size_t len, std::byte* out) const;
    /// Scatter a contiguous buffer back into the user view.
    PackWork unpack(std::size_t pos, std::size_t len, const std::byte* in) const;

    /// Simulated CPU time of an ff pack/unpack performing `work` against
    /// local memory (stack-driven loops; no recursion overhead).
    static SimTime cost(const PackWork& work, const mem::CopyModel& model);

    /// Dominant memory access pattern (for cache-line-waste accounting on
    /// the side that feeds/absorbs a transfer).
    [[nodiscard]] mem::AccessPattern dominant_pattern() const;

    /// Bytes the memory system moves for `work` given the pattern (payload
    /// plus cache-line waste) — the src_traffic for SciAdapter::write.
    [[nodiscard]] std::size_t memory_traffic(std::size_t bytes) const;

private:
    Datatype type_;
    int count_;
    std::byte* user_;
    std::size_t total_;
    std::vector<std::int64_t> leaf_prefix_;  // cumulative payload per leaf
};

/// Which engine moved a stream range: a plain copy (contiguous layout), the
/// ff engine, or the generic walker.
enum class PackPath : std::uint8_t { copy, ff, generic };

struct StreamMove {
    PackPath path;
    SimTime cost;  ///< simulated CPU time of the move
};

/// Gather packed-stream range [pos, pos+len) of `count` x `type` at `user`
/// into `out` (`type` null: raw bytes). Contiguous layouts are one copy;
/// otherwise the ff engine runs when `ff`, else the generic walker.
StreamMove pack_stream(const Datatype* type, int count, const void* user,
                       std::size_t pos, std::size_t len, std::byte* out, bool ff,
                       const mem::CopyModel& cm);
/// Scatter `in` into packed-stream range [pos, pos+len) of the view.
StreamMove unpack_stream(const Datatype* type, int count, void* user, std::size_t pos,
                         std::size_t len, const std::byte* in, bool ff,
                         const mem::CopyModel& cm);

}  // namespace scimpi::mpi
