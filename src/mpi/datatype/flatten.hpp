// Flattened datatype representation for the direct_pack_ff algorithm
// (paper Section 3.3, derived from Träff's "flattening on the fly").
//
// A committed datatype becomes a list of leaves; each leaf is a contiguous
// basic block plus a *stack* describing its repeat pattern: one item per
// tree level with a replication count and an extent (stride). The stacks are
// built at commit time and *merged* as each leaf is emitted: adjacent
// blocks combine into bigger ones and count-1 items are elided (Section
// 3.3.1).
//
// Packed-stream order is leaf-major, as in the paper's Figure 6 top loop:
// all replications of leaf 0, then all of leaf 1, ... The receiving side
// runs the same iteration with the copy direction swapped.
//
// Commit (FlatBuilder) fills every FlatRep field in one pass over the type
// tree plus one over the finished leaves: the leaves and stacks, max_depth,
// merged, and the analysis the packer needs per chunk — the per-leaf
// payload prefix table, the canonical-order flag, the structural hash and
// the dominant leaf. Packing then costs only its per-block loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace scimpi::mpi {

struct FFStackItem {
    std::int64_t count = 1;        ///< replications at this level
    std::ptrdiff_t extent = 0;     ///< byte distance between replications

    friend bool operator==(const FFStackItem&, const FFStackItem&) = default;
};

struct FlatLeaf {
    std::size_t blocklen = 0;        ///< contiguous bytes per block
    std::ptrdiff_t first_offset = 0; ///< offset of the first block
    std::vector<FFStackItem> stack;  ///< outermost..innermost repeat pattern

    /// Total payload bytes this leaf contributes per type instance.
    [[nodiscard]] std::int64_t total_bytes() const {
        std::int64_t t = static_cast<std::int64_t>(blocklen);
        for (const auto& s : stack) t *= s.count;
        return t;
    }
    /// Number of basic blocks per type instance.
    [[nodiscard]] std::int64_t block_count() const {
        std::int64_t n = 1;
        for (const auto& s : stack) n *= s.count;
        return n;
    }

    friend bool operator==(const FlatLeaf&, const FlatLeaf&) = default;
};

struct FlatRep {
    std::vector<FlatLeaf> leaves;
    std::size_t type_size = 0;       ///< payload bytes per instance
    std::ptrdiff_t type_extent = 0;  ///< memory span per instance
    int max_depth = 0;               ///< deepest stack (D in the O(log N)+O(D) bound)
    bool merged = false;             ///< merge rules were applied

    // ---- analysis cached at commit ----
    /// leaf_prefix[i]: payload bytes of leaves [0, i); leaves + 1 entries,
    /// the last one equal to type_size.
    std::vector<std::int64_t> leaf_prefix;
    bool canonical = true;           ///< see leaf_major_is_canonical()
    std::uint64_t hash = 0;          ///< see structural_hash()
    std::ptrdiff_t dominant = -1;    ///< leaf with the most payload; -1 if none
    std::int64_t blocks = 0;         ///< ff blocks per instance (all leaves)

    /// True if the leaf-major packed order coincides with canonical
    /// type-map order: single leaf, or leaves whose memory regions do not
    /// interleave. Used when only one communication end is non-contiguous.
    [[nodiscard]] bool leaf_major_is_canonical() const { return canonical; }

    /// Structural hash covering blocklens, offsets and stacks.
    [[nodiscard]] std::uint64_t structural_hash() const { return hash; }

    /// The leaf contributing the most payload (the first on ties), or null
    /// for an empty type.
    [[nodiscard]] const FlatLeaf* dominant_leaf() const {
        return dominant < 0 ? nullptr : &leaves[static_cast<std::size_t>(dominant)];
    }

    /// Leaf holding payload byte `off` of one instance (off < type_size):
    /// binary search over leaf_prefix, O(log N).
    [[nodiscard]] std::size_t leaf_at(std::size_t off) const;
};

/// Builds a FlatRep leaf by leaf, in the order the tree walk reaches them.
/// With merging on, each leaf gets the merge rules of Section 3.3.1 as it
/// arrives: count-1 stack items are dropped, dense innermost levels fold
/// into the block length, and a leaf that continues the previous one's
/// contiguous run under the same stack fuses into it.
class FlatBuilder {
public:
    /// `leaves`: number of leaves the walk will emit (reserved up front).
    FlatBuilder(std::size_t type_size, std::ptrdiff_t type_extent, std::size_t leaves,
                bool merge);

    /// A leaf of `blocklen` bytes at `offset` under the raw tree `stack`
    /// (outermost..innermost).
    void leaf(std::size_t blocklen, std::ptrdiff_t offset,
              std::span<const FFStackItem> stack);

    /// Finish the last leaf and fill max_depth and the cached analysis.
    FlatRep finish() &&;

private:
    FlatRep rep_;
    std::vector<FFStackItem> kept_;  // leaf()'s scratch: the stack after merging
};

}  // namespace scimpi::mpi
