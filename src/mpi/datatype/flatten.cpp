#include "mpi/datatype/flatten.hpp"

#include <algorithm>
#include <limits>

#include "common/status.hpp"

namespace scimpi::mpi {

namespace {

bool replicates(const FFStackItem& s) { return s.count != 1; }

/// Collapse dense innermost replication: stride == blocklen means the
/// blocks of that level form one contiguous run.
void fold_dense(FlatLeaf& leaf) {
    while (!leaf.stack.empty() &&
           leaf.stack.back().extent == static_cast<std::ptrdiff_t>(leaf.blocklen)) {
        leaf.blocklen *= static_cast<std::size_t>(leaf.stack.back().count);
        leaf.stack.pop_back();
    }
}

}  // namespace

std::size_t FlatRep::leaf_at(std::size_t off) const {
    // The first leaf whose end, leaf_prefix[i + 1], lies beyond `off`.
    const auto ends = leaf_prefix.begin() + 1;
    return static_cast<std::size_t>(
        std::upper_bound(ends, leaf_prefix.end(), static_cast<std::int64_t>(off)) - ends);
}

FlatBuilder::FlatBuilder(std::size_t type_size, std::ptrdiff_t type_extent,
                         std::size_t leaves, bool merge) {
    rep_.type_size = type_size;
    rep_.type_extent = type_extent;
    rep_.merged = merge;
    rep_.leaves.reserve(leaves);
}

void FlatBuilder::leaf(std::size_t blocklen, std::ptrdiff_t offset,
                       std::span<const FFStackItem> stack) {
    if (!rep_.merged) {
        rep_.leaves.push_back({blocklen, offset, {stack.begin(), stack.end()}});
        return;
    }
    // Count-1 items replicate nothing (their offset is already in `offset`)
    // and dense innermost levels fold into the block: scanning from the
    // innermost level out, stop at the first level that stays. The leaf's
    // stack is the replicating items of stack[0, keep).
    std::size_t keep = stack.size();
    for (; keep > 0; --keep) {
        const FFStackItem& s = stack[keep - 1];
        if (!replicates(s)) continue;
        if (s.extent != static_cast<std::ptrdiff_t>(blocklen)) break;
        blocklen *= static_cast<std::size_t>(s.count);
    }
    kept_.clear();
    for (const FFStackItem& s : stack.first(keep))
        if (replicates(s)) kept_.push_back(s);
    // Fuse with the previous leaf when it forms one contiguous run with it
    // under an equal stack (e.g. struct members lying back to back). The
    // previous leaf is only folded once nothing more can fuse into it.
    if (!rep_.leaves.empty()) {
        FlatLeaf& prev = rep_.leaves.back();
        if (prev.first_offset + static_cast<std::ptrdiff_t>(prev.blocklen) == offset &&
            std::ranges::equal(prev.stack, kept_)) {
            prev.blocklen += blocklen;
            return;
        }
        fold_dense(prev);
    }
    rep_.leaves.push_back({blocklen, offset, kept_});
}

FlatRep FlatBuilder::finish() && {
    FlatRep& rep = rep_;
    if (rep.merged && !rep.leaves.empty()) fold_dense(rep.leaves.back());

    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(rep.leaves.size());
    rep.leaf_prefix.reserve(rep.leaves.size() + 1);
    rep.leaf_prefix.push_back(0);
    std::int64_t best_bytes = -1;
    // Leaf-major order is canonical iff each leaf's memory span (over one
    // instance) ends before the next leaf's begins.
    std::ptrdiff_t prev_end = std::numeric_limits<std::ptrdiff_t>::min();
    for (std::size_t i = 0; i < rep.leaves.size(); ++i) {
        const FlatLeaf& leaf = rep.leaves[i];
        rep.max_depth = std::max(rep.max_depth, static_cast<int>(leaf.stack.size()));
        const std::int64_t blocks = leaf.block_count();
        const std::int64_t bytes = static_cast<std::int64_t>(leaf.blocklen) * blocks;
        rep.blocks += blocks;
        rep.leaf_prefix.push_back(rep.leaf_prefix.back() + bytes);
        if (bytes > best_bytes) {
            best_bytes = bytes;
            rep.dominant = static_cast<std::ptrdiff_t>(i);
        }
        std::ptrdiff_t lo = leaf.first_offset;
        std::ptrdiff_t hi = leaf.first_offset + static_cast<std::ptrdiff_t>(leaf.blocklen);
        mix(leaf.blocklen);
        mix(static_cast<std::uint64_t>(leaf.first_offset));
        mix(leaf.stack.size());
        for (const auto& s : leaf.stack) {
            mix(static_cast<std::uint64_t>(s.count));
            mix(static_cast<std::uint64_t>(s.extent));
            // The level spans (count-1) strides in either direction.
            const std::ptrdiff_t span = (s.count - 1) * s.extent;
            if (span >= 0)
                hi += span;
            else
                lo += span;
        }
        if (lo < prev_end) rep.canonical = false;
        prev_end = hi;
    }
    rep.hash = h;
    SCIMPI_REQUIRE(static_cast<std::size_t>(rep.leaf_prefix.back()) == rep.type_size,
                   "flattened size mismatch");
    return std::move(rep);
}

}  // namespace scimpi::mpi
