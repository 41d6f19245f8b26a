// direct_pack_ff (paper Section 3.3): non-recursive packing driven by the
// flattened ff-stack representation built at commit time, and the pack-path
// policy that decides when it runs instead of the generic walker.
//
//   * find_position: O(log N) + O(D) location of an arbitrary stream offset
//     (N = leaves, D = max stack depth): a binary search over the per-leaf
//     payload prefix table commit cached in FlatRep, then a mixed-radix
//     decode of the block index — partial packs resume anywhere,
//   * copy_split_block: finishes a block cut by the previous chunk,
//   * copy_leaf_basic: one inner loop per stack depth, no recursive tree
//     traversal — a leaf with an empty stack is one block (a run of such
//     leaves is one loop), a depth-1 leaf one strided loop (its cut head
//     and tail blocks outside the loop), and only deeper stacks run the
//     odometer.
//
// Every block goes through `emit`; pack and unpack copy it with
// mem::copy_block, which never touches the gap bytes between blocks.
//
// All type analysis (prefix table, canonical-order flag, hash, dominant
// leaf) happens once at commit, so constructing a packer is O(1) and a
// pack, unpack or gather of one chunk costs only its per-block loop.
//
// The packed stream is leaf-major (all replications of leaf 0, then leaf 1,
// ...), instance-major across `count` type instances. The receive side runs
// the same iteration with the copy direction swapped.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "mem/copy_model.hpp"
#include "mpi/datatype/datatype.hpp"
#include "mpi/datatype/pack_generic.hpp"  // PackWork
#include "mpi/types.hpp"                  // PackMode

namespace scimpi::mpi {

namespace detail {

/// Odometer over one leaf's stack: tracks the block counters and the
/// memory offset from the leaf's first block; O(1) amortized advance. The
/// counters are sized once for the deepest stack, so switching leaves
/// allocates nothing.
class LeafCursor {
public:
    explicit LeafCursor(int max_depth) : digits_(static_cast<std::size_t>(max_depth)) {}

    /// Position the cursor on block `b` of `leaf` (find_position's O(D) step).
    void seek(const FlatLeaf& leaf, std::int64_t b) {
        stack_ = leaf.stack.data();
        depth_ = leaf.stack.size();
        offset_ = 0;
        // Decode b as mixed-radix digits, innermost level varying fastest.
        for (std::size_t i = depth_; i-- > 0;) {
            const FFStackItem& s = stack_[i];
            digits_[i] = b % s.count;
            offset_ += digits_[i] * s.extent;
            b /= s.count;
        }
        SCIMPI_REQUIRE(b == 0, "ff seek beyond leaf block count");
    }

    /// Advance to the next block; false once the leaf is done.
    bool advance() {
        for (std::size_t i = depth_; i-- > 0;) {
            const FFStackItem& s = stack_[i];
            if (++digits_[i] < s.count) {
                offset_ += s.extent;
                return true;
            }
            offset_ -= (s.count - 1) * s.extent;
            digits_[i] = 0;
        }
        return false;
    }

    /// Byte offset of the current block from the leaf's first block.
    [[nodiscard]] std::ptrdiff_t offset() const { return offset_; }

private:
    std::vector<std::int64_t> digits_;  // counter per stack level (outer..inner)
    const FFStackItem* stack_ = nullptr;
    std::size_t depth_ = 0;
    std::ptrdiff_t offset_ = 0;
};

}  // namespace detail

class FFPacker {
public:
    /// A view of `count` instances of committed `type` at `userbuf`. O(1):
    /// everything it needs was computed at commit.
    FFPacker(const Datatype& type, int count, void* userbuf);

    [[nodiscard]] std::size_t total_bytes() const { return total_; }

    /// Drive the ff iteration over packed-stream range [pos, pos+len):
    /// `emit(mem, n)` is called once per (possibly split) basic block in
    /// stream order, where `mem` points into the user buffer.
    template <class Emit>
    PackWork for_range(std::size_t pos, std::size_t len, Emit&& emit) const;

    /// Gather the range into a contiguous buffer.
    PackWork pack(std::size_t pos, std::size_t len, std::byte* out) const;
    /// Scatter a contiguous buffer back into the user view.
    PackWork unpack(std::size_t pos, std::size_t len, const std::byte* in) const;

    /// About how many blocks for_range emits for `len` bytes (the type's
    /// mean ff block size), for sizing a gather list up front.
    [[nodiscard]] std::size_t block_estimate(std::size_t len) const;

    /// Simulated CPU time of an ff pack/unpack performing `work` against
    /// local memory (stack-driven loops; no recursion overhead).
    static SimTime cost(const PackWork& work, const mem::CopyModel& model);

    /// Dominant memory access pattern (for cache-line-waste accounting on
    /// the side that feeds/absorbs a transfer).
    [[nodiscard]] mem::AccessPattern dominant_pattern() const;

    /// Bytes the memory system moves for `bytes` of payload given the
    /// dominant pattern and the host's cache line (payload plus line waste)
    /// — the src_traffic for SciAdapter::write_gather.
    [[nodiscard]] std::size_t memory_traffic(std::size_t bytes,
                                             const mem::CopyModel& model) const;

private:
    Datatype type_;  // keeps the flattened representation alive
    const FlatRep* flat_;
    std::byte* user_;
    std::size_t total_;
};

template <class Emit>
PackWork FFPacker::for_range(std::size_t pos, std::size_t len, Emit&& emit) const {
    SCIMPI_REQUIRE(pos + len <= total_, "ff range exceeds message");
    if (len == 0) return {};
    const FlatRep& flat = *flat_;

    // ---- find_position: locate instance, leaf, block and split offset ----
    const std::size_t inst = pos / flat.type_size;
    const std::size_t off_in_inst = pos % flat.type_size;
    std::size_t li = flat.leaf_at(off_in_inst);
    const std::size_t off_in_leaf =
        off_in_inst - static_cast<std::size_t>(flat.leaf_prefix[li]);
    std::size_t split = off_in_leaf % flat.leaves[li].blocklen;  // copy_split_block
    auto block = static_cast<std::int64_t>(off_in_leaf / flat.leaves[li].blocklen);
    std::byte* inst_base = user_ + static_cast<std::ptrdiff_t>(inst) * flat.type_extent;
    std::size_t remaining = len;

    // PackWork lives in locals and is stored once; bytes == len on return.
    std::int64_t blocks = 0;
    const auto done = [&] { return PackWork{len, blocks}; };
    // One block of n <= remaining bytes, possibly cut by the range.
    const auto one = [&](std::byte* mem, std::size_t n) {
        emit(mem, n);
        ++blocks;
        remaining -= n;
    };

    // ---- top-level loop (paper Figure 6), one inner loop per stack depth ----
    std::optional<detail::LeafCursor> cur;  // only deep stacks need the odometer
    for (;;) {
        const FlatLeaf& leaf = flat.leaves[li];
        std::byte* const first = inst_base + leaf.first_offset;
        const std::size_t blocklen = leaf.blocklen;
        switch (leaf.stack.size()) {
            case 0: {  // one block (indexed, struct members)
                one(first + split, std::min(blocklen - split, remaining));
                if (remaining == 0) return done();
                // The whole one-block leaves that follow, in one loop.
                const FlatLeaf* next = &leaf + 1;
                const FlatLeaf* const end = flat.leaves.data() + flat.leaves.size();
                for (; next != end && next->stack.empty() && next->blocklen <= remaining; ++next)
                    one(inst_base + next->first_offset, next->blocklen);
                li = static_cast<std::size_t>(next - flat.leaves.data()) - 1;
                if (remaining == 0) return done();
                break;
            }
            case 1: {  // one strided loop (vector, subarray rows)
                const FFStackItem s = leaf.stack[0];
                std::byte* mem = first + block * s.extent;
                if (split != 0) {  // the head block, cut by the previous range
                    one(mem + split, std::min(blocklen - split, remaining));
                    if (remaining == 0) return done();
                    ++block;
                    mem += s.extent;
                }
                const std::int64_t full = std::min<std::int64_t>(
                    s.count - block, static_cast<std::int64_t>(remaining / blocklen));
                for (std::int64_t i = 0; i < full; ++i, mem += s.extent) emit(mem, blocklen);
                blocks += full;
                remaining -= static_cast<std::size_t>(full) * blocklen;
                if (remaining == 0) return done();
                if (block + full < s.count) {  // the tail block, cut by this range
                    one(mem, remaining);
                    return done();
                }
                break;
            }
            default: {  // deeper stacks: the odometer
                if (!cur) cur.emplace(flat.max_depth);
                cur->seek(leaf, block);
                do {
                    one(first + cur->offset() + split, std::min(blocklen - split, remaining));
                    split = 0;
                    if (remaining == 0) return done();
                } while (cur->advance());
                break;
            }
        }
        // leaf = leaf->next; wrap to the next instance after the last.
        split = 0;
        block = 0;
        if (++li == flat.leaves.size()) {
            li = 0;
            inst_base += flat.type_extent;
        }
    }
}

// ---- pack-path policy: every transport asks these two questions, so a
// layout takes the same path by rendezvous, short/eager, segment or
// Comm::pack ----

/// May ff move `type` in wire order `mode`? ff walks leaf-major: the wire
/// order under a negotiated ff_leaf_major, or when leaf-major is canonical.
[[nodiscard]] bool ff_may_move(const Config& cfg, const Datatype& type,
                               PackMode mode = PackMode::canonical);
/// Should an SCI write of `type` gather its blocks directly (Figure 4
/// bottom)? ff_may_move plus the D6 gate: below `ff_min_block` a gather
/// write's per-transaction overhead exceeds the staging copy it saves.
[[nodiscard]] bool gather_direct(const Config& cfg, const Datatype& type, PackMode mode);
/// SCIMPI_DIRECT_PACK=0|1 overrides the choice, so one binary produces
/// both event logs of a `scimpi-analyze --diff` A/B.
void apply_direct_pack_env(Config& cfg);

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

/// The block copy: a flattened layout moved with one copy call per block
/// and no packed stream in between (the RMA window copies: local ops, the
/// remote-put scatter, the target handler's put and accumulate).
/// `move(off, len, at)` runs once per block of `layout` (a range of
/// `{off, len}`) in order, `at` being the block's offset in the packed
/// stream. Returns the simulated CPU time of those copies.
template <class Layout, class Move>
SimTime copy_blocks(const Layout& layout, const mem::CopyModel& cm, Move&& move) {
    std::size_t at = 0;
    std::size_t blocks = 0;
    for (const auto& b : layout) {
        move(b.off, b.len, at);
        at += b.len;
        ++blocks;
    }
    return cm.copy_cost(at, {}, {}, blocks);
}

/// The same over the blocks of `count` x `type` (offsets from its origin).
template <class Move>
SimTime copy_blocks(const Datatype& type, int count, const mem::CopyModel& cm,
                    Move&& move) {
    std::size_t at = 0;
    std::size_t blocks = 0;
    type.for_each_block(0, count, [&](std::ptrdiff_t off, std::size_t len) {
        move(off, len, at);
        at += len;
        ++blocks;
    });
    return cm.copy_cost(at, {}, {}, blocks);
}

}  // namespace scimpi::mpi
