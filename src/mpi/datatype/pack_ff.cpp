#include "mpi/datatype/pack_ff.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace scimpi::mpi {

namespace {

/// Odometer over one leaf's stack: tracks the block counters and the
/// accumulated memory offset; O(1) amortized advance.
struct LeafCursor {
    const FlatLeaf* leaf = nullptr;
    std::vector<std::int64_t> digits;  // counter per stack level (outer..inner)
    std::ptrdiff_t offset = 0;         // first_offset + sum(digit*extent)
    bool exhausted = false;

    /// Position the cursor on block index `b` (find_position's O(D) step).
    void seek(const FlatLeaf& l, std::int64_t b) {
        leaf = &l;
        digits.assign(l.stack.size(), 0);
        offset = l.first_offset;
        exhausted = false;
        // Decode b as mixed-radix digits, innermost level varying fastest.
        for (std::size_t i = l.stack.size(); i-- > 0;) {
            const auto& s = l.stack[i];
            digits[i] = b % s.count;
            offset += digits[i] * s.extent;
            b /= s.count;
        }
        SCIMPI_REQUIRE(b == 0, "ff seek beyond leaf block count");
    }

    /// Advance to the next block; sets exhausted when the leaf is done.
    void advance() {
        for (std::size_t i = digits.size(); i-- > 0;) {
            const auto& s = leaf->stack[i];
            if (++digits[i] < s.count) {
                offset += s.extent;
                return;
            }
            offset -= (s.count - 1) * s.extent;
            digits[i] = 0;
        }
        exhausted = true;  // all levels rolled over (or stack empty: 1 block)
    }
};

}  // namespace

FFPacker::FFPacker(const Datatype& type, int count, void* userbuf)
    : type_(type),
      count_(count),
      user_(static_cast<std::byte*>(userbuf)),
      total_(type.size() * static_cast<std::size_t>(count)) {
    SCIMPI_REQUIRE(type.committed(), "FFPacker requires a committed datatype");
    SCIMPI_REQUIRE(count >= 0, "FFPacker: negative count");
    const auto& leaves = type.flat().leaves;
    leaf_prefix_.reserve(leaves.size() + 1);
    leaf_prefix_.push_back(0);
    for (const auto& leaf : leaves)
        leaf_prefix_.push_back(leaf_prefix_.back() + leaf.total_bytes());
    SCIMPI_REQUIRE(static_cast<std::size_t>(leaf_prefix_.back()) == type.size(),
                   "flattened size mismatch");
}

PackWork FFPacker::for_range(
    std::size_t pos, std::size_t len,
    const std::function<void(std::byte*, std::size_t)>& emit) const {
    SCIMPI_REQUIRE(pos + len <= total_, "ff range exceeds message");
    PackWork work;
    if (len == 0) return work;
    work.min_block = std::numeric_limits<std::size_t>::max();

    const FlatRep& flat = type_.flat();
    const std::size_t tsize = flat.type_size;

    // ---- find_position: locate instance, leaf, block and split offset ----
    std::size_t inst = pos / tsize;
    std::size_t off_in_inst = pos % tsize;
    std::size_t li = 0;  // leaf index: O(N) scan of the prefix table
    while (static_cast<std::int64_t>(off_in_inst) >= leaf_prefix_[li + 1]) ++li;
    std::size_t off_in_leaf =
        off_in_inst - static_cast<std::size_t>(leaf_prefix_[li]);
    const FlatLeaf* leaf = &flat.leaves[li];
    std::size_t split = off_in_leaf % leaf->blocklen;  // copy_split_block
    LeafCursor cur;
    cur.seek(*leaf, static_cast<std::int64_t>(off_in_leaf / leaf->blocklen));

    std::ptrdiff_t inst_base =
        static_cast<std::ptrdiff_t>(inst) * flat.type_extent;
    std::size_t remaining = len;

    // ---- top-level loop (paper Figure 6) ----
    while (remaining > 0) {
        const std::size_t n = std::min(leaf->blocklen - split, remaining);
        emit(user_ + inst_base + cur.offset + static_cast<std::ptrdiff_t>(split), n);
        work.bytes += n;
        ++work.blocks;
        work.min_block = std::min(work.min_block, n);
        work.max_block = std::max(work.max_block, n);
        remaining -= n;
        split = 0;
        cur.advance();
        if (cur.exhausted) {
            // leaf = leaf->next; wrap to the next instance after the last.
            if (++li >= flat.leaves.size()) {
                li = 0;
                ++inst;
                inst_base += flat.type_extent;
            }
            leaf = &flat.leaves[li];
            cur.seek(*leaf, 0);
        }
    }
    return work;
}

PackWork FFPacker::pack(std::size_t pos, std::size_t len, std::byte* out) const {
    std::byte* dst = out;
    return for_range(pos, len, [&dst](std::byte* mem, std::size_t n) {
        std::memcpy(dst, mem, n);
        dst += n;
    });
}

PackWork FFPacker::unpack(std::size_t pos, std::size_t len, const std::byte* in) const {
    const std::byte* src = in;
    return for_range(pos, len, [&src](std::byte* mem, std::size_t n) {
        std::memcpy(mem, src, n);
        src += n;
    });
}

SimTime FFPacker::cost(const PackWork& work, const mem::CopyModel& model) {
    if (work.bytes == 0) return model.profile().copy_call_overhead;
    const std::size_t avg_block =
        std::max<std::size_t>(1, work.bytes / static_cast<std::size_t>(
                                                  std::max<std::int64_t>(1, work.blocks)));
    const auto pattern = mem::AccessPattern::strided(
        avg_block, std::max<std::size_t>(avg_block * 2, model.profile().cache_line));
    return model.copy_cost(work.bytes, pattern, {},
                           static_cast<std::size_t>(work.blocks));
}

mem::AccessPattern FFPacker::dominant_pattern() const {
    const FlatRep& flat = type_.flat();
    // Use the leaf contributing the most payload.
    const FlatLeaf* best = nullptr;
    std::int64_t best_bytes = -1;
    for (const auto& leaf : flat.leaves) {
        if (leaf.total_bytes() > best_bytes) {
            best_bytes = leaf.total_bytes();
            best = &leaf;
        }
    }
    if (best == nullptr || best->stack.empty())
        return mem::AccessPattern::contig();
    const auto stride = static_cast<std::size_t>(
        std::max<std::ptrdiff_t>(std::abs(best->stack.back().extent),
                                 static_cast<std::ptrdiff_t>(best->blocklen)));
    return mem::AccessPattern::strided(best->blocklen, stride);
}

std::size_t FFPacker::memory_traffic(std::size_t bytes) const {
    // Line-waste estimate with the reference line size; the protocol layer
    // passes the result to the adapter, whose host profile set the line.
    const mem::CopyModel model{mem::MachineProfile{}};
    return model.traffic_bytes(bytes, dominant_pattern());
}

namespace {
template <bool Pack>
StreamMove move_stream(const Datatype* type, int count, std::byte* user, std::size_t pos,
                       std::size_t len, std::byte* stream, bool ff,
                       const mem::CopyModel& cm) {
    if (type == nullptr || type->is_contiguous()) {
        if (Pack)
            std::memcpy(stream, user + pos, len);
        else
            std::memcpy(user + pos, stream, len);
        return {PackPath::copy, cm.copy_cost(len, {}, {})};
    }
    if (ff) {
        const FFPacker p(*type, count, user);
        const PackWork w = Pack ? p.pack(pos, len, stream) : p.unpack(pos, len, stream);
        return {PackPath::ff, FFPacker::cost(w, cm)};
    }
    const GenericPacker p(*type, count, user);
    const PackWork w = Pack ? p.pack(pos, len, stream) : p.unpack(pos, len, stream);
    return {PackPath::generic, GenericPacker::cost(w, cm)};
}
}  // namespace

StreamMove pack_stream(const Datatype* type, int count, const void* user,
                       std::size_t pos, std::size_t len, std::byte* out, bool ff,
                       const mem::CopyModel& cm) {
    return move_stream<true>(type, count,
                             static_cast<std::byte*>(const_cast<void*>(user)), pos,
                             len, out, ff, cm);
}

StreamMove unpack_stream(const Datatype* type, int count, void* user, std::size_t pos,
                         std::size_t len, const std::byte* in, bool ff,
                         const mem::CopyModel& cm) {
    return move_stream<false>(type, count, static_cast<std::byte*>(user), pos, len,
                              const_cast<std::byte*>(in), ff, cm);
}

}  // namespace scimpi::mpi
