#include "mpi/datatype/datatype.hpp"

#include <utility>

namespace scimpi::mpi {

TypeKind Datatype::kind() const {
    SCIMPI_REQUIRE(valid(), "kind() on invalid datatype");
    return node_->kind;
}

std::size_t Datatype::size() const {
    SCIMPI_REQUIRE(valid(), "size() on invalid datatype");
    return node_->size;
}

std::ptrdiff_t Datatype::extent() const {
    SCIMPI_REQUIRE(valid(), "extent() on invalid datatype");
    return node_->extent();
}

std::ptrdiff_t Datatype::lb() const {
    SCIMPI_REQUIRE(valid(), "lb() on invalid datatype");
    return node_->lb;
}

bool Datatype::is_contiguous() const {
    SCIMPI_REQUIRE(valid(), "is_contiguous() on invalid datatype");
    const Node& n = *node_;
    return n.one_run && n.run_off == 0 && n.lb == 0 && n.dense();
}

int Datatype::depth() const {
    SCIMPI_REQUIRE(valid(), "depth() on invalid datatype");
    return node_->depth;
}

std::int64_t Datatype::blocks_per_item() const {
    SCIMPI_REQUIRE(valid(), "blocks_per_item() on invalid datatype");
    return node_->blocks;
}

std::int64_t Datatype::traversal_steps_per_item() const {
    SCIMPI_REQUIRE(valid(), "traversal_steps_per_item() on invalid datatype");
    return node_->steps;
}

bool Datatype::committed() const { return valid() && node_->flat.has_value(); }

void Datatype::commit(const Config& cfg) {
    SCIMPI_REQUIRE(valid(), "commit() on invalid datatype");
    if (node_->flat.has_value()) return;
    FlatBuilder out(node_->size, node_->extent(),
                    static_cast<std::size_t>(node_->leaves), cfg.ff_merge_stacks);
    std::vector<FFStackItem> stack;
    stack.reserve(2 * static_cast<std::size_t>(node_->depth));
    flatten_into(*node_, 0, stack, out);
    SCIMPI_REQUIRE(stack.empty(), "flatten stack imbalance");
    node_->flat = std::move(out).finish();
}

const FlatRep& Datatype::flat() const {
    SCIMPI_REQUIRE(committed(), "flat() requires a committed datatype");
    return *node_->flat;
}

std::uint64_t Datatype::fingerprint() const {
    SCIMPI_REQUIRE(committed(), "fingerprint() requires a committed datatype");
    return node_->flat->structural_hash();
}

void Datatype::flatten_into(const Node& n, std::ptrdiff_t base,
                            std::vector<FFStackItem>& stack, FlatBuilder& out) {
    switch (n.kind) {
        case TypeKind::basic: {
            if (n.size > 0) out.leaf(n.size, base, stack);
            return;
        }
        case TypeKind::contiguous: {
            if (n.count == 0) return;
            stack.push_back({n.count, n.children[0]->extent()});
            flatten_into(*n.children[0], base, stack, out);
            stack.pop_back();
            return;
        }
        case TypeKind::vector:
        case TypeKind::hvector: {
            if (n.count == 0 || n.blocklen == 0) return;
            stack.push_back({n.count, n.stride_bytes});
            stack.push_back({n.blocklen, n.children[0]->extent()});
            flatten_into(*n.children[0], base, stack, out);
            stack.pop_back();
            stack.pop_back();
            return;
        }
        case TypeKind::indexed:
        case TypeKind::hindexed: {
            for (std::size_t i = 0; i < n.blocklens.size(); ++i) {
                if (n.blocklens[i] == 0) continue;
                stack.push_back({n.blocklens[i], n.children[0]->extent()});
                flatten_into(*n.children[0], base + n.displs[i], stack, out);
                stack.pop_back();
            }
            return;
        }
        case TypeKind::strukt: {
            for (std::size_t i = 0; i < n.blocklens.size(); ++i) {
                if (n.blocklens[i] == 0) continue;
                stack.push_back({n.blocklens[i], n.children[i]->extent()});
                flatten_into(*n.children[i], base + n.displs[i], stack, out);
                stack.pop_back();
            }
            return;
        }
        case TypeKind::resized: {
            flatten_into(*n.children[0], base, stack, out);
            return;
        }
    }
    panic("flatten_into: unknown type kind");
}

namespace {

/// Merges adjacent (offset, len) pieces into maximal blocks before handing
/// them to `f`; a false return from `f` stops the walk.
struct Coalescer {
    const std::function<bool(std::ptrdiff_t, std::size_t)>& f;
    std::ptrdiff_t off = 0;
    std::size_t len = 0;

    bool operator()(std::ptrdiff_t o, std::size_t l) {
        if (len > 0 && off + static_cast<std::ptrdiff_t>(len) == o) {
            len += l;
            return true;
        }
        if (len > 0 && !f(off, len)) return false;
        off = o;
        len = l;
        return true;
    }
    bool flush() const { return len == 0 || f(off, len); }
};

}  // namespace

// The walk emits one piece per contiguous run it can prove from the run
// summaries, so its cost is O(runs x depth); the coalescer then merges runs
// that happen to abut, exactly as it would merge single elements.
template <class Sink>
bool Datatype::walk_blocks(const Node& n, std::ptrdiff_t base, Sink& sink) {
    if (n.one_run) return sink(base + n.run_off, n.size);
    switch (n.kind) {
        case TypeKind::basic:
            return true;  // only an empty basic type gets here: nothing to emit
        case TypeKind::contiguous:
            return walk_reps(*n.children[0], base, n.count, sink);
        case TypeKind::vector:
        case TypeKind::hvector:
            for (int i = 0; i < n.count; ++i)
                if (!walk_reps(*n.children[0], base + i * n.stride_bytes, n.blocklen,
                               sink))
                    return false;
            return true;
        case TypeKind::indexed:
        case TypeKind::hindexed:
            for (std::size_t i = 0; i < n.blocklens.size(); ++i)
                if (!walk_reps(*n.children[0], base + n.displs[i], n.blocklens[i], sink))
                    return false;
            return true;
        case TypeKind::strukt:
            for (std::size_t i = 0; i < n.blocklens.size(); ++i)
                if (!walk_reps(*n.children[i], base + n.displs[i], n.blocklens[i], sink))
                    return false;
            return true;
        case TypeKind::resized:
            return walk_blocks(*n.children[0], base, sink);
    }
    panic("walk_blocks: unknown type kind");
}

/// `k` back-to-back instances of `c` (extent apart) at `base`; dense
/// one-run instances form a single piece.
template <class Sink>
bool Datatype::walk_reps(const Node& c, std::ptrdiff_t base, std::int64_t k,
                         Sink& sink) {
    if (k <= 0 || c.size == 0) return true;
    if (c.one_run && (k == 1 || c.dense()))
        return sink(base + c.run_off, static_cast<std::size_t>(k) * c.size);
    const std::ptrdiff_t ext = c.extent();
    for (std::int64_t j = 0; j < k; ++j)
        if (!walk_blocks(c, base + j * ext, sink)) return false;
    return true;
}

bool Datatype::for_each_block_while(
    std::ptrdiff_t base, int count,
    const std::function<bool(std::ptrdiff_t, std::size_t)>& f) const {
    SCIMPI_REQUIRE(valid(), "for_each_block() on invalid datatype");
    Coalescer sink{f};
    return walk_reps(*node_, base, count, sink) && sink.flush();
}

void Datatype::for_each_block(
    std::ptrdiff_t base, int count,
    const std::function<void(std::ptrdiff_t, std::size_t)>& f) const {
    for_each_block_while(base, count, [&f](std::ptrdiff_t off, std::size_t len) {
        f(off, len);
        return true;
    });
}

void Datatype::describe_into(const Node& n, int indent, std::string& out) {
    out.append(static_cast<std::size_t>(indent) * 2, ' ');
    out += type_kind_name(n.kind);
    if (n.kind == TypeKind::basic) out += "(" + n.name + ")";
    out += " size=" + std::to_string(n.size) +
           " extent=" + std::to_string(n.extent());
    if (n.count > 0) out += " count=" + std::to_string(n.count);
    if (n.blocklen > 0) out += " blocklen=" + std::to_string(n.blocklen);
    if (n.stride_bytes != 0) out += " stride=" + std::to_string(n.stride_bytes);
    out += "\n";
    for (const auto& c : n.children) describe_into(*c, indent + 1, out);
}

std::string Datatype::describe() const {
    SCIMPI_REQUIRE(valid(), "describe() on invalid datatype");
    std::string out;
    describe_into(*node_, 0, out);
    return out;
}

}  // namespace scimpi::mpi
