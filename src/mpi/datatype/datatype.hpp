// MPI derived datatypes: tree representation (Figure 3 of the paper) with
// the full set of MPI-1 type constructors. Committing a type builds its
// flattened ff-stack representation (flatten.hpp) used by direct_pack_ff.
//
// Conventions: displacements and extents are in bytes ("h" constructors) or
// in elements of the base type (vector/indexed), exactly as in MPI.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/status.hpp"
#include "mpi/datatype/flatten.hpp"

namespace scimpi::mpi {

enum class TypeKind {
    basic,
    contiguous,
    vector,    // element-strided
    hvector,   // byte-strided
    indexed,   // element displacements
    hindexed,  // byte displacements
    strukt,    // heterogeneous children
    resized,   // lb/extent override
};

const char* type_kind_name(TypeKind k);

class Datatype {
public:
    Datatype() = default;  // invalid handle

    // ---- basic types ----
    // Each returns a handle to one shared node, committed on first use (as
    // MPI's predefined handles are one object each, so they compare equal).
    static Datatype byte_();
    static Datatype char_();
    static Datatype int32();
    static Datatype int64();
    static Datatype float32();
    static Datatype float64();

    // ---- MPI type constructors ----
    static Datatype contiguous(int count, const Datatype& base);
    static Datatype vector(int count, int blocklen, int stride, const Datatype& base);
    static Datatype hvector(int count, int blocklen, std::ptrdiff_t stride_bytes,
                            const Datatype& base);
    static Datatype indexed(std::span<const int> blocklens, std::span<const int> displs,
                            const Datatype& base);
    static Datatype hindexed(std::span<const int> blocklens,
                             std::span<const std::ptrdiff_t> displs_bytes,
                             const Datatype& base);
    static Datatype structure(std::span<const int> blocklens,
                              std::span<const std::ptrdiff_t> displs_bytes,
                              std::span<const Datatype> types);
    static Datatype resized(const Datatype& base, std::ptrdiff_t lb,
                            std::ptrdiff_t extent);
    /// MPI_Type_create_indexed_block: equal-length blocks at element displs.
    static Datatype indexed_block(int blocklen, std::span<const int> displs,
                                  const Datatype& base);
    /// MPI_Type_create_subarray (C order): an n-dimensional slab out of an
    /// n-dimensional array. sizes/subsizes/starts are in elements of `base`.
    static Datatype subarray(std::span<const int> sizes,
                             std::span<const int> subsizes,
                             std::span<const int> starts, const Datatype& base);

    [[nodiscard]] bool valid() const { return node_ != nullptr; }
    [[nodiscard]] TypeKind kind() const;

    /// Payload bytes per type instance.
    [[nodiscard]] std::size_t size() const;
    /// Memory span per type instance (ub - lb).
    [[nodiscard]] std::ptrdiff_t extent() const;
    [[nodiscard]] std::ptrdiff_t lb() const;
    /// True if the type map of one instance is the dense block [0, size) in
    /// increasing order (lb 0, size == extent, one contiguous run). Permuted
    /// or duplicated layouts of the same bounds are not contiguous.
    [[nodiscard]] bool is_contiguous() const;
    /// Depth of the constructor tree (basic type = 1).
    [[nodiscard]] int depth() const;
    /// Basic blocks in the type map of one instance.
    [[nodiscard]] std::int64_t blocks_per_item() const;
    /// Tree-node visits a recursive packer performs per instance.
    [[nodiscard]] std::int64_t traversal_steps_per_item() const;

    /// Prepare the type for communication: builds the flattened ff-stack
    /// representation and its cached analysis (flatten.hpp) in one pass.
    /// Idempotent.
    void commit(const Config& cfg = default_config());
    [[nodiscard]] bool committed() const;
    /// Flattened representation; requires committed().
    [[nodiscard]] const FlatRep& flat() const;

    /// Visit the blocks of `count` instances at `base` displacement in
    /// canonical type-map order, adjacent basic elements coalesced into one
    /// block: f(byte_offset, length). Costs O(blocks x depth), not O(elements).
    void for_each_block(std::ptrdiff_t base, int count,
                        const std::function<void(std::ptrdiff_t, std::size_t)>& f) const;
    /// As for_each_block, but stops as soon as f returns false. Returns false
    /// iff it stopped early.
    bool for_each_block_while(
        std::ptrdiff_t base, int count,
        const std::function<bool(std::ptrdiff_t, std::size_t)>& f) const;

    /// Structural fingerprint of the flattened layout (used by the protocol
    /// layer to decide whether both ends may use leaf-major ff order).
    [[nodiscard]] std::uint64_t fingerprint() const;

    /// Human-readable tree dump (debugging, docs).
    [[nodiscard]] std::string describe() const;

    friend bool operator==(const Datatype& a, const Datatype& b) {
        return a.node_ == b.node_;
    }

private:
    struct Node;
    explicit Datatype(std::shared_ptr<Node> node) : node_(std::move(node)) {}

    struct Node {
        TypeKind kind = TypeKind::basic;
        std::string name;                 // for basic types / describe()
        std::size_t size = 0;             // payload bytes per instance
        std::ptrdiff_t lb = 0;
        std::ptrdiff_t ub = 0;            // extent = ub - lb
        int count = 0;                    // replication (contig/vector)
        int blocklen = 0;                 // vector family
        std::ptrdiff_t stride_bytes = 0;  // vector family
        std::vector<int> blocklens;               // indexed/struct
        std::vector<std::ptrdiff_t> displs;       // bytes, indexed/struct
        std::vector<std::shared_ptr<Node>> children;
        int depth = 1;
        std::int64_t blocks = 1;          // basic blocks per instance
        std::int64_t steps = 1;           // recursive traversal node visits
        std::int64_t leaves = 0;          // ff leaves flatten_into emits
        // Run summary: the canonical walk of one instance is the single
        // increasing contiguous run [run_off, run_off + size).
        bool one_run = false;
        std::ptrdiff_t run_off = 0;
        std::optional<FlatRep> flat;      // built at commit

        [[nodiscard]] std::ptrdiff_t extent() const { return ub - lb; }
        /// Replications tile without gaps or overlap.
        [[nodiscard]] bool dense() const {
            return size == static_cast<std::size_t>(extent());
        }
    };
    struct RunFold;

    static Datatype make_basic(std::string name, std::size_t bytes);
    /// hindexed (and indexed, once its displacements are in bytes), taking
    /// over the displacement vector.
    static Datatype make_hindexed(std::span<const int> blocklens,
                                  std::vector<std::ptrdiff_t> displs_bytes,
                                  const Datatype& base);
    template <class Sink>
    static bool walk_blocks(const Node& n, std::ptrdiff_t base, Sink& sink);
    template <class Sink>
    static bool walk_reps(const Node& c, std::ptrdiff_t base, std::int64_t k,
                          Sink& sink);
    static void flatten_into(const Node& n, std::ptrdiff_t base,
                             std::vector<FFStackItem>& stack, FlatBuilder& out);
    static void describe_into(const Node& n, int indent, std::string& out);

    std::shared_ptr<Node> node_;
};

}  // namespace scimpi::mpi
