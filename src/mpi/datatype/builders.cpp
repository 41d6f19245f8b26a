// Datatype constructors: the MPI-1 type-constructor family. Each builder
// computes size, bounds, depth, the per-instance block/step counts used by
// the packers' cost accounting, the run summary used by the walker, and the
// number of ff leaves commit reserves for.
#include <algorithm>
#include <array>
#include <limits>
#include <utility>
#include <vector>

#include "mpi/datatype/datatype.hpp"

namespace scimpi::mpi {

const char* type_kind_name(TypeKind k) {
    switch (k) {
        case TypeKind::basic: return "basic";
        case TypeKind::contiguous: return "contiguous";
        case TypeKind::vector: return "vector";
        case TypeKind::hvector: return "hvector";
        case TypeKind::indexed: return "indexed";
        case TypeKind::hindexed: return "hindexed";
        case TypeKind::strukt: return "struct";
        case TypeKind::resized: return "resized";
    }
    return "?";
}

/// Folds a node's pieces, in canonical order, into its run summary: the node
/// is one run iff every nonempty piece is one run and starts where the
/// previous one ended.
struct Datatype::RunFold {
    bool ok = true;
    bool any = false;
    std::ptrdiff_t start = 0;
    std::ptrdiff_t end = 0;

    /// `k` instances of `c`, extent apart, at displacement `d`.
    void piece(std::ptrdiff_t d, std::int64_t k, const Node& c) {
        if (k <= 0 || c.size == 0) return;
        if (!c.one_run || (k > 1 && !c.dense()) || (any && d + c.run_off != end)) {
            ok = false;
            return;
        }
        if (!any) start = d + c.run_off;
        any = true;
        end = d + c.run_off + k * static_cast<std::ptrdiff_t>(c.size);
    }
    void store(Node& n) const {
        n.one_run = ok && any;
        n.run_off = start;
    }
};

Datatype Datatype::make_basic(std::string name, std::size_t bytes) {
    auto n = std::make_shared<Node>();
    n->kind = TypeKind::basic;
    n->name = std::move(name);
    n->size = bytes;
    n->lb = 0;
    n->ub = static_cast<std::ptrdiff_t>(bytes);
    n->one_run = bytes > 0;
    n->leaves = bytes > 0 ? 1 : 0;
    // Committed before the handle escapes, so the shared node is only ever
    // read (a basic type's one leaf does not depend on the merge setting).
    Datatype t(std::move(n));
    t.commit();
    return t;
}

Datatype Datatype::byte_() {
    static const Datatype t = make_basic("byte", 1);
    return t;
}
Datatype Datatype::char_() {
    static const Datatype t = make_basic("char", 1);
    return t;
}
Datatype Datatype::int32() {
    static const Datatype t = make_basic("int32", 4);
    return t;
}
Datatype Datatype::int64() {
    static const Datatype t = make_basic("int64", 8);
    return t;
}
Datatype Datatype::float32() {
    static const Datatype t = make_basic("float32", 4);
    return t;
}
Datatype Datatype::float64() {
    static const Datatype t = make_basic("float64", 8);
    return t;
}

Datatype Datatype::contiguous(int count, const Datatype& base) {
    SCIMPI_REQUIRE(base.valid(), "contiguous: invalid base type");
    SCIMPI_REQUIRE(count >= 0, "contiguous: negative count");
    auto n = std::make_shared<Node>();
    n->kind = TypeKind::contiguous;
    n->count = count;
    n->children = {base.node_};
    n->size = static_cast<std::size_t>(count) * base.size();
    n->lb = base.lb();
    n->ub = n->lb + static_cast<std::ptrdiff_t>(count) * base.extent();
    n->depth = base.depth() + 1;
    n->blocks = count * base.blocks_per_item();
    n->steps = 1 + count * base.traversal_steps_per_item();
    n->leaves = count > 0 ? base.node_->leaves : 0;
    RunFold run;
    run.piece(0, count, *base.node_);
    run.store(*n);
    return Datatype(std::move(n));
}

Datatype Datatype::vector(int count, int blocklen, int stride, const Datatype& base) {
    return hvector(count, blocklen, stride * base.extent(), base);
}

Datatype Datatype::hvector(int count, int blocklen, std::ptrdiff_t stride_bytes,
                           const Datatype& base) {
    SCIMPI_REQUIRE(base.valid(), "hvector: invalid base type");
    SCIMPI_REQUIRE(count >= 0 && blocklen >= 0, "hvector: negative count/blocklen");
    auto n = std::make_shared<Node>();
    n->kind = TypeKind::hvector;
    n->count = count;
    n->blocklen = blocklen;
    n->stride_bytes = stride_bytes;
    n->children = {base.node_};
    n->size = static_cast<std::size_t>(count) * static_cast<std::size_t>(blocklen) *
              base.size();
    // Bounds: extremes occur at the first/last replication and block.
    std::ptrdiff_t lo = 0, hi = 0;
    if (count > 0 && blocklen > 0) {
        lo = std::numeric_limits<std::ptrdiff_t>::max();
        hi = std::numeric_limits<std::ptrdiff_t>::min();
        for (const int i : {0, count - 1})
            for (const int j : {0, blocklen - 1}) {
                const std::ptrdiff_t d = i * stride_bytes + j * base.extent();
                lo = std::min(lo, d + base.lb());
                hi = std::max(hi, d + base.lb() + base.extent());
            }
    }
    n->lb = lo;
    n->ub = hi;
    n->depth = base.depth() + 1;
    n->blocks = static_cast<std::int64_t>(count) * blocklen * base.blocks_per_item();
    n->steps = 1 + static_cast<std::int64_t>(count) * blocklen *
                       base.traversal_steps_per_item();
    n->leaves = count > 0 && blocklen > 0 ? base.node_->leaves : 0;
    // Replication i is the piece (i * stride, blocklen x base); all share the
    // shape, so the first two decide the rest.
    RunFold run;
    for (int i = 0; i < std::min(count, 2); ++i)
        run.piece(i * stride_bytes, blocklen, *base.node_);
    run.store(*n);
    return Datatype(std::move(n));
}

Datatype Datatype::indexed(std::span<const int> blocklens, std::span<const int> displs,
                           const Datatype& base) {
    SCIMPI_REQUIRE(blocklens.size() == displs.size(), "indexed: length mismatch");
    SCIMPI_REQUIRE(base.valid(), "indexed: invalid base type");
    const std::ptrdiff_t ext = base.extent();
    std::vector<std::ptrdiff_t> byte_displs(displs.size());
    for (std::size_t i = 0; i < displs.size(); ++i) byte_displs[i] = displs[i] * ext;
    return make_hindexed(blocklens, std::move(byte_displs), base);
}

Datatype Datatype::hindexed(std::span<const int> blocklens,
                            std::span<const std::ptrdiff_t> displs_bytes,
                            const Datatype& base) {
    SCIMPI_REQUIRE(base.valid(), "hindexed: invalid base type");
    SCIMPI_REQUIRE(blocklens.size() == displs_bytes.size(), "hindexed: length mismatch");
    return make_hindexed(blocklens, {displs_bytes.begin(), displs_bytes.end()}, base);
}

Datatype Datatype::make_hindexed(std::span<const int> blocklens,
                                 std::vector<std::ptrdiff_t> displs_bytes,
                                 const Datatype& base) {
    const Node& b = *base.node_;
    const std::size_t b_size = b.size;
    const std::ptrdiff_t b_lb = b.lb;
    const std::ptrdiff_t b_ext = b.extent();
    const std::int64_t b_blocks = b.blocks;
    const std::int64_t b_steps = b.steps;
    const std::int64_t b_leaves = b.leaves;
    auto n = std::make_shared<Node>();
    n->kind = TypeKind::hindexed;
    n->blocklens.assign(blocklens.begin(), blocklens.end());
    n->children = {base.node_};
    std::size_t sz = 0;
    std::ptrdiff_t lo = std::numeric_limits<std::ptrdiff_t>::max();
    std::ptrdiff_t hi = std::numeric_limits<std::ptrdiff_t>::min();
    std::int64_t blocks = 0;
    std::int64_t steps = 1;
    std::int64_t leaves = 0;
    RunFold run;
    for (std::size_t i = 0; i < blocklens.size(); ++i) {
        const int bl = blocklens[i];
        const std::ptrdiff_t d = displs_bytes[i];
        SCIMPI_REQUIRE(bl >= 0, "hindexed: negative blocklen");
        run.piece(d, bl, b);
        sz += static_cast<std::size_t>(bl) * b_size;
        if (bl > 0) {
            leaves += b_leaves;
            lo = std::min(lo, d + b_lb);
            hi = std::max(hi, d + b_lb + bl * b_ext);
        }
        blocks += bl * b_blocks;
        steps += bl * b_steps;
    }
    if (lo > hi) lo = hi = 0;  // empty type
    n->displs = std::move(displs_bytes);
    n->size = sz;
    n->lb = lo;
    n->ub = hi;
    n->depth = b.depth + 1;
    n->blocks = blocks;
    n->steps = steps;
    n->leaves = leaves;
    run.store(*n);
    return Datatype(std::move(n));
}

Datatype Datatype::structure(std::span<const int> blocklens,
                             std::span<const std::ptrdiff_t> displs_bytes,
                             std::span<const Datatype> types) {
    SCIMPI_REQUIRE(blocklens.size() == displs_bytes.size() &&
                       blocklens.size() == types.size(),
                   "struct: length mismatch");
    auto n = std::make_shared<Node>();
    n->kind = TypeKind::strukt;
    n->blocklens.assign(blocklens.begin(), blocklens.end());
    n->displs.assign(displs_bytes.begin(), displs_bytes.end());
    std::size_t sz = 0;
    std::ptrdiff_t lo = std::numeric_limits<std::ptrdiff_t>::max();
    std::ptrdiff_t hi = std::numeric_limits<std::ptrdiff_t>::min();
    std::int64_t blocks = 0;
    std::int64_t steps = 1;
    std::int64_t leaves = 0;
    int depth = 1;
    RunFold run;
    for (std::size_t i = 0; i < types.size(); ++i) {
        SCIMPI_REQUIRE(types[i].valid(), "struct: invalid member type");
        SCIMPI_REQUIRE(blocklens[i] >= 0, "struct: negative blocklen");
        run.piece(displs_bytes[i], blocklens[i], *types[i].node_);
        n->children.push_back(types[i].node_);
        sz += static_cast<std::size_t>(blocklens[i]) * types[i].size();
        if (blocklens[i] > 0) {
            leaves += types[i].node_->leaves;
            lo = std::min(lo, displs_bytes[i] + types[i].lb());
            hi = std::max(hi, displs_bytes[i] + types[i].lb() +
                                  blocklens[i] * types[i].extent());
        }
        blocks += blocklens[i] * types[i].blocks_per_item();
        steps += blocklens[i] * types[i].traversal_steps_per_item();
        depth = std::max(depth, types[i].depth() + 1);
    }
    if (lo > hi) lo = hi = 0;
    n->size = sz;
    n->lb = lo;
    n->ub = hi;
    n->depth = depth;
    n->blocks = blocks;
    n->steps = steps;
    n->leaves = leaves;
    run.store(*n);
    return Datatype(std::move(n));
}

Datatype Datatype::resized(const Datatype& base, std::ptrdiff_t lb,
                           std::ptrdiff_t extent) {
    SCIMPI_REQUIRE(base.valid(), "resized: invalid base type");
    SCIMPI_REQUIRE(extent >= 0, "resized: negative extent");
    auto n = std::make_shared<Node>();
    n->kind = TypeKind::resized;
    n->children = {base.node_};
    n->size = base.size();
    n->lb = lb;
    n->ub = lb + extent;
    n->depth = base.depth() + 1;
    n->blocks = base.blocks_per_item();
    n->steps = base.traversal_steps_per_item();
    n->leaves = base.node_->leaves;
    n->one_run = base.node_->one_run;
    n->run_off = base.node_->run_off;
    return Datatype(std::move(n));
}


Datatype Datatype::indexed_block(int blocklen, std::span<const int> displs,
                                 const Datatype& base) {
    SCIMPI_REQUIRE(blocklen >= 0, "indexed_block: negative blocklen");
    std::vector<int> lens(displs.size(), blocklen);
    return indexed(lens, displs, base);
}

Datatype Datatype::subarray(std::span<const int> sizes, std::span<const int> subsizes,
                            std::span<const int> starts, const Datatype& base) {
    SCIMPI_REQUIRE(sizes.size() == subsizes.size() && sizes.size() == starts.size(),
                   "subarray: dimension mismatch");
    SCIMPI_REQUIRE(!sizes.empty(), "subarray: needs at least one dimension");
    for (std::size_t d = 0; d < sizes.size(); ++d) {
        SCIMPI_REQUIRE(subsizes[d] >= 0 && starts[d] >= 0, "subarray: negative extent");
        SCIMPI_REQUIRE(starts[d] + subsizes[d] <= sizes[d],
                       "subarray: slab exceeds array bounds");
    }
    // Build from the innermost (fastest-varying, C order) dimension out:
    // a contiguous run of subsizes[n-1], then an hvector per outer dim with
    // the full row pitch of that dimension as the stride.
    const std::size_t n = sizes.size();
    Datatype t = Datatype::contiguous(subsizes[n - 1], base);
    std::ptrdiff_t pitch = sizes[n - 1] * base.extent();  // bytes per row
    for (std::size_t d = n - 1; d-- > 0;) {
        t = Datatype::hvector(subsizes[d], 1, pitch, t);
        pitch *= sizes[d];
    }
    // Place the slab at its start offset and give the type the extent of the
    // full array so consecutive instances tile correctly.
    std::ptrdiff_t offset = 0;
    std::ptrdiff_t dim_pitch = base.extent();
    for (std::size_t d = n; d-- > 0;) {
        offset += starts[d] * dim_pitch;
        dim_pitch *= sizes[d];
    }
    const std::array<int, 1> ones{1};
    const std::array<std::ptrdiff_t, 1> displ{offset};
    const std::array<Datatype, 1> inner{t};
    return resized(structure(ones, displ, inner), 0, dim_pitch);
}

}  // namespace scimpi::mpi
