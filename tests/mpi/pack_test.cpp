#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "mpi/datatype/pack_ff.hpp"
#include "mpi/datatype/pack_generic.hpp"

namespace scimpi::mpi {
namespace {

std::vector<std::byte> numbered(std::size_t n) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
    return v;
}

/// Committed copy of a type.
Datatype committed(Datatype t) {
    t.commit();
    return t;
}

/// Pack everything with the given packer type in one call.
template <typename Packer>
std::vector<std::byte> pack_all(const Datatype& t, int count, void* buf) {
    Packer p(t, count, buf);
    std::vector<std::byte> out(p.total_bytes());
    p.pack(0, out.size(), out.data());
    return out;
}

TEST(PackGeneric, ContiguousTypeIsMemcpy) {
    auto t = committed(Datatype::contiguous(64, Datatype::float64()));
    auto buf = numbered(t.size());
    const auto out = pack_all<GenericPacker>(t, 1, buf.data());
    EXPECT_EQ(out, buf);
}

TEST(PackGeneric, VectorGathersBlocks) {
    auto t = committed(Datatype::vector(3, 1, 2, Datatype::float64()));
    auto buf = numbered(48);  // blocks at 0, 16, 32
    const auto out = pack_all<GenericPacker>(t, 1, buf.data());
    ASSERT_EQ(out.size(), 24u);
    EXPECT_EQ(std::memcmp(out.data(), buf.data() + 0, 8), 0);
    EXPECT_EQ(std::memcmp(out.data() + 8, buf.data() + 16, 8), 0);
    EXPECT_EQ(std::memcmp(out.data() + 16, buf.data() + 32, 8), 0);
}

TEST(PackGeneric, UnpackScattersBack) {
    auto t = committed(Datatype::vector(4, 2, 3, Datatype::int32()));
    auto original = numbered(t.extent() > 0 ? static_cast<std::size_t>(t.extent()) : 0);
    auto packed = pack_all<GenericPacker>(t, 1, original.data());

    std::vector<std::byte> restored(original.size(), std::byte{0});
    GenericPacker up(t, 1, restored.data());
    up.unpack(0, packed.size(), packed.data());
    // Data bytes equal; gap bytes stay zero.
    t.for_each_block(0, 1, [&](std::ptrdiff_t off, std::size_t len) {
        EXPECT_EQ(std::memcmp(restored.data() + off, original.data() + off, len), 0);
    });
}

TEST(PackFF, MatchesGenericOnSingleLeafTypes) {
    // Single-leaf types: leaf-major == canonical order, streams must agree.
    for (const int blocklen : {1, 2, 5}) {
        for (const int count : {1, 7, 32}) {
            auto t = committed(Datatype::vector(count, blocklen, blocklen * 2 + 1,
                                                Datatype::float64()));
            auto buf = numbered(static_cast<std::size_t>(t.extent()) * 2);
            const auto g = pack_all<GenericPacker>(t, 2, buf.data());
            const auto f = pack_all<FFPacker>(t, 2, buf.data());
            EXPECT_EQ(g, f) << "blocklen=" << blocklen << " count=" << count;
        }
    }
}

TEST(PackFF, LeafMajorOrderForStructTypes) {
    // struct {int32 @0, int32 @8} x 2 via hvector: ff packs all first
    // members, then all second members.
    const std::array<int, 2> lens{1, 1};
    const std::array<std::ptrdiff_t, 2> displs{0, 8};
    const std::array<Datatype, 2> types{Datatype::int32(), Datatype::int32()};
    auto s = Datatype::resized(Datatype::structure(lens, displs, types), 0, 16);
    auto t = committed(Datatype::hvector(2, 1, 16, s));
    auto buf = numbered(32);
    const auto f = pack_all<FFPacker>(t, 1, buf.data());
    ASSERT_EQ(f.size(), 16u);
    EXPECT_EQ(std::memcmp(f.data() + 0, buf.data() + 0, 4), 0);    // m0 of inst0
    EXPECT_EQ(std::memcmp(f.data() + 4, buf.data() + 16, 4), 0);   // m0 of inst1
    EXPECT_EQ(std::memcmp(f.data() + 8, buf.data() + 8, 4), 0);    // m1 of inst0
    EXPECT_EQ(std::memcmp(f.data() + 12, buf.data() + 24, 4), 0);  // m1 of inst1
    // And the generic stream differs (canonical order) — this is why the
    // protocol layer negotiates the packing mode.
    const auto g = pack_all<GenericPacker>(t, 1, buf.data());
    EXPECT_NE(f, g);
}

TEST(PackFF, RoundTripRestoresUserBuffer) {
    auto t = committed(Datatype::vector(16, 3, 5, Datatype::int32()));
    auto original = numbered(static_cast<std::size_t>(t.extent()) * 3);
    auto packed = pack_all<FFPacker>(t, 3, original.data());

    std::vector<std::byte> restored(original.size(), std::byte{0xee});
    FFPacker up(t, 3, restored.data());
    up.unpack(0, packed.size(), packed.data());
    t.for_each_block(0, 3, [&](std::ptrdiff_t off, std::size_t len) {
        EXPECT_EQ(std::memcmp(restored.data() + off, original.data() + off, len), 0);
    });
}

TEST(PackFF, ArbitrarySplitPointsProduceSameStream) {
    // The paper requires packing "starting at an arbitrary point... with no
    // constraints about the length".
    auto t = committed(Datatype::vector(9, 2, 5, Datatype::float64()));
    auto buf = numbered(static_cast<std::size_t>(t.extent()) * 2);
    const auto whole = pack_all<FFPacker>(t, 2, buf.data());

    Rng rng(2024);
    for (int trial = 0; trial < 20; ++trial) {
        FFPacker p(t, 2, buf.data());
        std::vector<std::byte> out(whole.size(), std::byte{0});
        std::size_t pos = 0;
        while (pos < out.size()) {
            const std::size_t n =
                std::min(out.size() - pos, 1 + rng.below(61));  // odd sizes
            p.pack(pos, n, out.data() + pos);
            pos += n;
        }
        EXPECT_EQ(out, whole) << "trial " << trial;
    }
}

TEST(PackFF, FindPositionSeeksMidBlock) {
    // Split inside a basic block exercises copy_split_block.
    auto t = committed(Datatype::vector(4, 1, 2, Datatype::float64()));
    auto buf = numbered(static_cast<std::size_t>(t.extent()));
    const auto whole = pack_all<FFPacker>(t, 1, buf.data());
    FFPacker p(t, 1, buf.data());
    std::vector<std::byte> out(whole.size(), std::byte{0});
    p.pack(0, 3, out.data());           // first 3 bytes of block 0
    p.pack(3, 10, out.data() + 3);      // rest of block 0 + block 1 + 1 byte
    p.pack(13, whole.size() - 13, out.data() + 13);
    EXPECT_EQ(out, whole);
}

TEST(PackFF, NegativeStrideVector) {
    auto t = committed(Datatype::hvector(4, 1, -16, Datatype::float64()));
    // Blocks at 0, -16, -32, -48 relative to start; place start at +48.
    auto buf = numbered(64);
    FFPacker p(t, 1, buf.data() + 48);
    std::vector<std::byte> out(32);
    p.pack(0, 32, out.data());
    EXPECT_EQ(std::memcmp(out.data() + 0, buf.data() + 48, 8), 0);
    EXPECT_EQ(std::memcmp(out.data() + 8, buf.data() + 32, 8), 0);
    EXPECT_EQ(std::memcmp(out.data() + 16, buf.data() + 16, 8), 0);
    EXPECT_EQ(std::memcmp(out.data() + 24, buf.data() + 0, 8), 0);
}

TEST(PackFF, WorkMetricsCountBlocksAndBytes) {
    auto t = committed(Datatype::vector(10, 1, 2, Datatype::float64()));
    auto buf = numbered(static_cast<std::size_t>(t.extent()));
    FFPacker p(t, 1, buf.data());
    std::vector<std::byte> out(80);
    const PackWork w = p.pack(0, 80, out.data());
    EXPECT_EQ(w.bytes, 80u);
    EXPECT_EQ(w.blocks, 10);
}

TEST(PackFF, SplitBlocksCountedSeparately) {
    auto t = committed(Datatype::vector(2, 1, 2, Datatype::float64()));
    auto buf = numbered(static_cast<std::size_t>(t.extent()));
    FFPacker p(t, 1, buf.data());
    std::vector<std::byte> out(16);
    const PackWork w = p.pack(4, 8, out.data());  // tail of b0 + head of b1
    EXPECT_EQ(w.blocks, 2);
}

TEST(PackCost, FFBeatsGenericForSmallBlocks) {
    const mem::CopyModel model(mem::pentium3_800());
    PackWork w;
    w.bytes = 256_KiB;
    w.blocks = 32768;  // 8-byte blocks
    // The recursive walker costs ~2x per block (recursive_pack_overhead vs
    // per_block_overhead); the copy itself is common to both.
    EXPECT_LT(FFPacker::cost(w, model),
              static_cast<SimTime>(0.7 * static_cast<double>(
                                             GenericPacker::cost(w, model))));
}

TEST(PackCost, ConvergeForLargeBlocks) {
    const mem::CopyModel model(mem::pentium3_800());
    PackWork w;
    w.bytes = 256_KiB;
    w.blocks = 2;  // 128 KiB blocks: copy dominates
    const double ratio =
        static_cast<double>(GenericPacker::cost(w, model)) /
        static_cast<double>(FFPacker::cost(w, model));
    EXPECT_LT(ratio, 1.05);
}

// ---------------------------------------------------------------------------
// Property sweep: random datatype trees, both packers, invariants.
// ---------------------------------------------------------------------------

Datatype random_type(Rng& rng, int depth) {
    if (depth <= 0 || rng.chance(0.35)) {
        switch (rng.below(4)) {
            case 0: return Datatype::byte_();
            case 1: return Datatype::int32();
            case 2: return Datatype::int64();
            default: return Datatype::float64();
        }
    }
    const Datatype base = random_type(rng, depth - 1);
    switch (rng.below(4)) {
        case 0:
            return Datatype::contiguous(static_cast<int>(1 + rng.below(4)), base);
        case 1: {
            const int count = static_cast<int>(1 + rng.below(5));
            const int blocklen = static_cast<int>(1 + rng.below(3));
            const int stride = blocklen + static_cast<int>(rng.below(3));  // >= blocklen
            return Datatype::vector(count, blocklen, stride, base);
        }
        case 2: {
            const std::size_t n = 1 + rng.below(3);
            std::vector<int> lens(n), displs(n);
            int cursor = 0;
            for (std::size_t i = 0; i < n; ++i) {
                lens[i] = static_cast<int>(1 + rng.below(3));
                displs[i] = cursor;
                cursor += lens[i] + static_cast<int>(rng.below(3));
            }
            return Datatype::indexed(lens, displs, base);
        }
        default: {
            // Non-overlapping struct of two members.
            const Datatype b2 = random_type(rng, depth - 1);
            const std::array<int, 2> lens{1, 1};
            const std::ptrdiff_t gap = static_cast<std::ptrdiff_t>(rng.below(16));
            const std::array<std::ptrdiff_t, 2> displs{
                0, base.lb() + base.extent() + gap - b2.lb()};
            const std::array<Datatype, 2> types{base, b2};
            return Datatype::structure(lens, displs, types);
        }
    }
}

class RandomTypeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTypeProperty, PackUnpackInvariants) {
    Rng rng(GetParam());
    Datatype t = random_type(rng, 3);
    t.commit();
    const int count = static_cast<int>(1 + rng.below(4));
    const std::size_t total = t.size() * static_cast<std::size_t>(count);
    if (total == 0) return;

    // Flat invariants.
    std::int64_t flat_total = 0;
    for (const auto& leaf : t.flat().leaves) {
        flat_total += leaf.total_bytes();
        for (const auto& s : leaf.stack) EXPECT_GT(s.count, 1);  // merged
    }
    EXPECT_EQ(static_cast<std::size_t>(flat_total), t.size());

    // Buffer with lb offset handling.
    const std::size_t span =
        static_cast<std::size_t>(t.extent()) * static_cast<std::size_t>(count) + 64;
    auto original = numbered(span);
    std::byte* base = original.data() + (t.lb() < 0 ? -t.lb() : 0);

    // ff pack-unpack round trip restores exactly the type-map bytes.
    FFPacker fp(t, count, base);
    std::vector<std::byte> stream(total);
    const PackWork w = fp.pack(0, total, stream.data());
    EXPECT_EQ(w.bytes, total);
    EXPECT_EQ(w.blocks % count, 0);

    std::vector<std::byte> scratch(span, std::byte{0});
    FFPacker fu(t, count, scratch.data() + (t.lb() < 0 ? -t.lb() : 0));
    fu.unpack(0, total, stream.data());
    std::size_t covered = 0;
    t.for_each_block(t.lb() < 0 ? -t.lb() : 0, count,
                     [&](std::ptrdiff_t off, std::size_t len) {
                         EXPECT_EQ(std::memcmp(scratch.data() + off,
                                               original.data() + off, len),
                                   0);
                         covered += len;
                     });
    EXPECT_EQ(covered, total);

    // Chunked ff pack equals whole pack.
    std::vector<std::byte> chunked(total, std::byte{0});
    std::size_t pos = 0;
    while (pos < total) {
        const std::size_t n = std::min(total - pos, 1 + rng.below(97));
        fp.pack(pos, n, chunked.data() + pos);
        pos += n;
    }
    EXPECT_EQ(chunked, stream);

    // Generic pack agrees whenever leaf-major is canonical.
    if (t.flat().leaf_major_is_canonical()) {
        GenericPacker gp(t, count, base);
        std::vector<std::byte> gstream(total);
        gp.pack(0, total, gstream.data());
        EXPECT_EQ(gstream, stream);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTypeProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---------------------------------------------------------------------------
// Walker equivalence: for_each_block against a reference that visits every
// basic element of a mirror tree built beside the type, then coalesces.
// ---------------------------------------------------------------------------

/// A datatype plus its type map spelled out independently of the library:
/// `pieces` lists, in canonical order, k instances of a child placed
/// child-extent apart at displacement d. `links` spells out the same tree
/// the way commit-time flattening descends it: each link places a child at
/// displacement d under the stack items its constructor level pushes.
struct RefType {
    struct Piece {
        std::ptrdiff_t d;
        int k;
        std::shared_ptr<const RefType> c;
    };
    struct Link {
        std::ptrdiff_t d;
        std::vector<FFStackItem> stack;
        std::shared_ptr<const RefType> c;
    };
    Datatype t;
    std::vector<Piece> pieces;  // empty for a basic type
    std::vector<Link> links;    // empty for a basic type
};
using RefPtr = std::shared_ptr<const RefType>;
using Blocks = std::vector<std::pair<std::ptrdiff_t, std::size_t>>;

void ref_elements(const RefType& r, std::ptrdiff_t base, Blocks& out) {
    if (r.t.kind() == TypeKind::basic) {
        out.emplace_back(base, r.t.size());
        return;
    }
    for (const auto& p : r.pieces)
        for (int j = 0; j < p.k; ++j)
            ref_elements(*p.c, base + p.d + j * p.c->t.extent(), out);
}

/// Per-element walk of `count` instances, adjacent elements coalesced.
Blocks ref_blocks(const RefType& r, std::ptrdiff_t base, int count) {
    Blocks elems;
    for (int c = 0; c < count; ++c) ref_elements(r, base + c * r.t.extent(), elems);
    Blocks out;
    for (const auto& [off, len] : elems) {
        if (!out.empty() &&
            out.back().first + static_cast<std::ptrdiff_t>(out.back().second) == off)
            out.back().second += len;
        else
            out.emplace_back(off, len);
    }
    return out;
}

/// A fresh basic type node each call: commit caches its result on the node,
/// so a shared node would keep the first commit's settings.
RefPtr ref_basic(Rng& rng) {
    auto r = std::make_shared<RefType>();
    switch (rng.below(4)) {
        case 0: r->t = Datatype::byte_(); break;
        case 1: r->t = Datatype::int32(); break;
        case 2: r->t = Datatype::int64(); break;
        default: r->t = Datatype::float64(); break;
    }
    return r;
}

/// A count or block length: usually 1..hi, sometimes zero.
int reps(Rng& rng, int hi) {
    return rng.chance(0.06) ? 0 : static_cast<int>(rng.range(1, hi));
}

constexpr int kRefDepth = 4;

RefPtr ref_node(Datatype t, std::vector<RefType::Link> links) {
    auto r = std::make_shared<RefType>();
    r->t = std::move(t);
    r->links = std::move(links);
    return r;
}

/// The struct inside a subarray (which resizes it): a slab of rows built
/// from the innermost dimension out, placed at the slab's start offset.
RefPtr subarray_links(const std::vector<int>& sizes, const std::vector<int>& subs,
                      const std::vector<int>& starts, const RefPtr& e) {
    const std::size_t nd = sizes.size();
    const std::ptrdiff_t ext = e->t.extent();
    RefPtr row = ref_node(Datatype::contiguous(subs[nd - 1], e->t), {});
    if (subs[nd - 1] > 0) row = ref_node(row->t, {{0, {{subs[nd - 1], ext}}, e}});
    std::ptrdiff_t pitch = sizes[nd - 1] * ext;
    for (std::size_t d = nd - 1; d-- > 0;) {
        const Datatype t = Datatype::hvector(subs[d], 1, pitch, row->t);
        row = subs[d] > 0 ? ref_node(t, {{0, {{subs[d], pitch}, {1, row->t.extent()}}, row}})
                          : ref_node(t, {});
        pitch *= sizes[d];
    }
    std::ptrdiff_t offset = 0;
    std::ptrdiff_t dim_pitch = ext;
    for (std::size_t d = nd; d-- > 0;) {
        offset += starts[d] * dim_pitch;
        dim_pitch *= sizes[d];
    }
    const std::array<int, 1> one{1};
    const std::array<std::ptrdiff_t, 1> displ{offset};
    const std::array<Datatype, 1> member{row->t};
    return ref_node(Datatype::structure(one, displ, member),
                    {{offset, {{1, row->t.extent()}}, row}});
}

/// Random layouts beyond the forward-only generator above: negative strides,
/// decreasing and duplicate displacements, zero counts and block lengths,
/// resized bounds, empty struct members and subarrays. Dense forward cases
/// stay frequent so single-run subtrees are covered too.
RefPtr random_ref(Rng& rng, int depth) {
    if (depth <= 0 || rng.chance(0.15 * (kRefDepth - depth))) return ref_basic(rng);
    const RefPtr b = random_ref(rng, depth - 1);
    const std::ptrdiff_t ext = b->t.extent();
    auto r = std::make_shared<RefType>();
    switch (rng.below(8)) {
        case 0: {
            const int n = reps(rng, 4);
            r->t = Datatype::contiguous(n, b->t);
            r->pieces = {{0, n, b}};
            if (n > 0) r->links = {{0, {{n, ext}}, b}};
            break;
        }
        case 1: {  // element stride, possibly negative or overlapping
            const int count = reps(rng, 4);
            const int blocklen = reps(rng, 3);
            const int stride =
                rng.chance(0.4) ? blocklen : static_cast<int>(rng.range(-4, 6));
            r->t = Datatype::vector(count, blocklen, stride, b->t);
            for (int i = 0; i < count; ++i) r->pieces.push_back({i * stride * ext, blocklen, b});
            if (count > 0 && blocklen > 0)
                r->links = {{0, {{count, stride * ext}, {blocklen, ext}}, b}};
            break;
        }
        case 2: {  // byte stride, possibly negative
            const int count = reps(rng, 4);
            const int blocklen = reps(rng, 3);
            const std::ptrdiff_t stride = rng.chance(0.4)
                                              ? blocklen * static_cast<std::ptrdiff_t>(b->t.size())
                                              : rng.range(-3 * ext - 8, 3 * ext + 8);
            r->t = Datatype::hvector(count, blocklen, stride, b->t);
            for (int i = 0; i < count; ++i) r->pieces.push_back({i * stride, blocklen, b});
            if (count > 0 && blocklen > 0)
                r->links = {{0, {{count, stride}, {blocklen, ext}}, b}};
            break;
        }
        case 3: {  // element displacements: abutting forward or backward, or random
            const std::size_t n = 1 + rng.below(4);
            std::vector<int> lens(n), displs(n);
            for (auto& l : lens) l = reps(rng, 3);
            const auto mode = rng.below(3);
            int next = mode == 1 ? std::accumulate(lens.begin(), lens.end(), 0) : 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (mode == 0) {
                    displs[i] = next;
                    next += lens[i];
                } else if (mode == 1) {  // reversed: dense bounds, permuted map
                    next -= lens[i];
                    displs[i] = next;
                } else {
                    displs[i] = static_cast<int>(rng.range(-4, 8));
                }
                r->pieces.push_back({displs[i] * ext, lens[i], b});
                if (lens[i] > 0) r->links.push_back({displs[i] * ext, {{lens[i], ext}}, b});
            }
            r->t = Datatype::indexed(lens, displs, b->t);
            break;
        }
        case 4: {  // byte displacements
            const std::size_t n = 1 + rng.below(4);
            std::vector<int> lens(n);
            std::vector<std::ptrdiff_t> displs(n);
            std::ptrdiff_t next = 0;
            for (std::size_t i = 0; i < n; ++i) {
                lens[i] = reps(rng, 3);
                displs[i] = rng.chance(0.5) ? next : rng.range(-24, 40);
                next = displs[i] + lens[i] * ext;
                r->pieces.push_back({displs[i], lens[i], b});
                if (lens[i] > 0) r->links.push_back({displs[i], {{lens[i], ext}}, b});
            }
            r->t = Datatype::hindexed(lens, displs, b->t);
            break;
        }
        case 5: {  // struct, members possibly empty or abutting
            const std::size_t n = 1 + rng.below(3);
            std::vector<int> lens(n);
            std::vector<std::ptrdiff_t> displs(n);
            std::vector<Datatype> types(n);
            std::ptrdiff_t next = 0;
            for (std::size_t i = 0; i < n; ++i) {
                RefPtr m = i == 0 ? b : random_ref(rng, depth - 1);
                if (rng.chance(0.15)) {
                    auto empty = std::make_shared<RefType>();
                    empty->t = Datatype::contiguous(0, m->t);
                    empty->pieces = {{0, 0, m}};
                    m = empty;
                }
                lens[i] = reps(rng, 2);
                displs[i] = rng.chance(0.5) ? next - m->t.lb() : rng.range(-16, 32);
                next = displs[i] + m->t.lb() + lens[i] * m->t.extent();
                types[i] = m->t;
                r->pieces.push_back({displs[i], lens[i], m});
                if (lens[i] > 0)
                    r->links.push_back({displs[i], {{lens[i], m->t.extent()}}, m});
            }
            r->t = Datatype::structure(lens, displs, types);
            break;
        }
        case 6: {  // resized: exact, shifted or with extent != size
            const std::ptrdiff_t lb = rng.chance(0.4) ? b->t.lb() : rng.range(-8, 8);
            const std::ptrdiff_t extent = rng.chance(0.4)
                                              ? static_cast<std::ptrdiff_t>(b->t.size())
                                              : rng.range(0, 2 * ext + 8);
            r->t = Datatype::resized(b->t, lb, extent);
            r->pieces = {{0, 1, b}};
            r->links = {{0, {}, b}};
            break;
        }
        default: {  // subarray, C order
            const RefPtr& e = b;
            const std::size_t nd = 1 + rng.below(3);
            std::vector<int> sizes(nd), subs(nd), starts(nd);
            for (std::size_t d = 0; d < nd; ++d) {
                sizes[d] = static_cast<int>(1 + rng.below(4));
                subs[d] = rng.chance(0.05) ? 0 : static_cast<int>(rng.range(1, sizes[d]));
                starts[d] = static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(sizes[d] - subs[d]) + 1));
            }
            r->t = Datatype::subarray(sizes, subs, starts, e->t);
            r->links = {{0, {}, subarray_links(sizes, subs, starts, e)}};
            // One piece per row of the slab; idx walks the outer dims in C order.
            if (std::find(subs.begin(), subs.end(), 0) != subs.end()) break;
            std::vector<int> idx(nd - 1, 0);
            for (;;) {
                std::ptrdiff_t off = 0;
                for (std::size_t d = 0; d < nd; ++d)
                    off = off * sizes[d] + starts[d] + (d + 1 < nd ? idx[d] : 0);
                r->pieces.push_back({off * e->t.extent(), subs[nd - 1], e});
                std::size_t d = nd - 1;
                for (; d > 0; --d) {
                    if (++idx[d - 1] < subs[d - 1]) break;
                    idx[d - 1] = 0;
                }
                if (d == 0) break;
            }
            break;
        }
    }
    return r;
}

TEST(WalkEquivalence, MatchesPerElementReference) {
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        const RefPtr r = random_ref(rng, kRefDepth);
        const Datatype& t = r->t;
        const Blocks dense_run{{0, t.size()}};
        EXPECT_EQ(t.is_contiguous(),
                  t.lb() == 0 && static_cast<std::size_t>(t.extent()) == t.size() &&
                      ref_blocks(*r, 0, 1) == dense_run);
        const std::ptrdiff_t nonzero = rng.range(-5000, 5000) | 1;
        for (const int count : {0, 1, 2, 5}) {
            for (const std::ptrdiff_t base : {std::ptrdiff_t{0}, nonzero}) {
                const Blocks want = ref_blocks(*r, base, count);
                Blocks got;
                t.for_each_block(base, count, [&](std::ptrdiff_t off, std::size_t len) {
                    got.emplace_back(off, len);
                });
                ASSERT_EQ(got, want) << "count " << count << " base " << base << "\n"
                                     << t.describe();
                // Stopping early delivers a prefix and reports the stop.
                const std::size_t stop_after = want.size() / 2 + 1;
                Blocks prefix;
                const bool finished = t.for_each_block_while(
                    base, count, [&](std::ptrdiff_t off, std::size_t len) {
                        prefix.emplace_back(off, len);
                        return prefix.size() < stop_after;
                    });
                EXPECT_EQ(finished, want.size() < stop_after);
                const Blocks head(want.begin(),
                                  want.begin() + static_cast<std::ptrdiff_t>(
                                                     std::min(stop_after, want.size())));
                EXPECT_EQ(prefix, head);
            }
        }
    }
}

TEST(WalkEquivalence, ChunkedGenericPackWorkMatchesReference) {
    // A chunk's PackWork counts exactly the reference blocks it overlaps.
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        const RefPtr r = random_ref(rng, kRefDepth);
        const int count = static_cast<int>(1 + rng.below(3));
        const Blocks want = ref_blocks(*r, 0, count);
        const std::size_t total = r->t.size() * static_cast<std::size_t>(count);
        if (total == 0) continue;
        std::ptrdiff_t lo = 0, hi = 0;
        for (const auto& [off, len] : want) {
            lo = std::min(lo, off);
            hi = std::max(hi, off + static_cast<std::ptrdiff_t>(len));
        }
        auto mem = numbered(static_cast<std::size_t>(hi - lo));
        const GenericPacker gp(r->t, count, mem.data() - lo);
        std::vector<std::byte> out(total);
        for (int rep = 0; rep < 4; ++rep) {
            const std::size_t pos = rng.below(total);
            const std::size_t len = 1 + rng.below(total - pos);
            PackWork ref;
            std::vector<std::byte> stream;
            std::size_t cursor = 0;
            for (const auto& [off, blk] : want) {
                const std::size_t a = std::max(cursor, pos);
                const std::size_t b = std::min(cursor + blk, pos + len);
                if (a < b) {
                    const auto from = mem.begin() + (off - lo) +
                                      static_cast<std::ptrdiff_t>(a - cursor);
                    stream.insert(stream.end(), from,
                                  from + static_cast<std::ptrdiff_t>(b - a));
                    ref.bytes += b - a;
                    ++ref.blocks;
                }
                cursor += blk;
            }
            const PackWork w = gp.pack(pos, len, out.data());
            EXPECT_TRUE(std::equal(stream.begin(), stream.end(), out.begin()));
            EXPECT_EQ(w.bytes, ref.bytes);
            EXPECT_EQ(w.blocks, ref.blocks);
        }
    }
}

// ---------------------------------------------------------------------------
// Flattening equivalence: commit builds FlatRep in one pass and caches the
// packer's analysis. The reference below is the two-pass construction
// (flatten every leaf with its raw stack, then merge) and the per-call
// analysis it replaced, run over the mirror trees above.
// ---------------------------------------------------------------------------

void ref_flatten(const RefType& r, std::ptrdiff_t base, std::vector<FFStackItem>& stack,
                 FlatRep& out) {
    if (r.t.kind() == TypeKind::basic) {
        if (r.t.size() > 0) out.leaves.push_back({r.t.size(), base, stack});
        return;
    }
    for (const auto& l : r.links) {
        stack.insert(stack.end(), l.stack.begin(), l.stack.end());
        ref_flatten(*l.c, base + l.d, stack, out);
        stack.resize(stack.size() - l.stack.size());
    }
}

void ref_fold_dense(FlatLeaf& leaf) {
    while (!leaf.stack.empty() &&
           leaf.stack.back().extent == static_cast<std::ptrdiff_t>(leaf.blocklen)) {
        leaf.blocklen *= static_cast<std::size_t>(leaf.stack.back().count);
        leaf.stack.pop_back();
    }
}

/// The merge pass as a separate sweep: drop count-1 items and fold dense
/// levels per leaf, fuse contiguous leaves with equal stacks, fold again.
void ref_merge_flat(FlatRep& rep) {
    for (auto& leaf : rep.leaves) {
        std::erase_if(leaf.stack, [](const FFStackItem& s) { return s.count == 1; });
        ref_fold_dense(leaf);
    }
    std::vector<FlatLeaf> fused;
    for (auto& leaf : rep.leaves) {
        if (!fused.empty() && fused.back().stack == leaf.stack &&
            fused.back().first_offset +
                    static_cast<std::ptrdiff_t>(fused.back().blocklen) ==
                leaf.first_offset) {
            fused.back().blocklen += leaf.blocklen;
        } else {
            fused.push_back(std::move(leaf));
        }
    }
    rep.leaves = std::move(fused);
    for (auto& leaf : rep.leaves) ref_fold_dense(leaf);
    rep.merged = true;
}

FlatRep ref_flat(const RefType& r, bool merge) {
    FlatRep rep;
    rep.type_size = r.t.size();
    rep.type_extent = r.t.extent();
    std::vector<FFStackItem> stack;
    ref_flatten(r, 0, stack, rep);
    if (merge) ref_merge_flat(rep);
    for (const auto& leaf : rep.leaves)
        rep.max_depth = std::max(rep.max_depth, static_cast<int>(leaf.stack.size()));
    return rep;
}

bool ref_canonical(const FlatRep& rep) {
    if (rep.leaves.size() <= 1) return true;
    std::ptrdiff_t prev_end = std::numeric_limits<std::ptrdiff_t>::min();
    for (const auto& leaf : rep.leaves) {
        std::ptrdiff_t lo = leaf.first_offset;
        std::ptrdiff_t hi = leaf.first_offset + static_cast<std::ptrdiff_t>(leaf.blocklen);
        for (const auto& s : leaf.stack) {
            const std::ptrdiff_t span = (s.count - 1) * s.extent;
            (span >= 0 ? hi : lo) += span;
        }
        if (lo < prev_end) return false;
        prev_end = hi;
    }
    return true;
}

std::uint64_t ref_hash(const FlatRep& rep) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(rep.leaves.size());
    for (const auto& leaf : rep.leaves) {
        mix(leaf.blocklen);
        mix(static_cast<std::uint64_t>(leaf.first_offset));
        mix(leaf.stack.size());
        for (const auto& s : leaf.stack) {
            mix(static_cast<std::uint64_t>(s.count));
            mix(static_cast<std::uint64_t>(s.extent));
        }
    }
    return h;
}

std::int64_t leaf_bytes(const FlatLeaf& leaf) {
    std::int64_t t = static_cast<std::int64_t>(leaf.blocklen);
    for (const auto& s : leaf.stack) t *= s.count;
    return t;
}

std::ptrdiff_t ref_dominant(const FlatRep& rep) {
    std::ptrdiff_t best = -1;
    std::int64_t best_bytes = -1;
    for (std::size_t i = 0; i < rep.leaves.size(); ++i) {
        if (leaf_bytes(rep.leaves[i]) > best_bytes) {
            best_bytes = leaf_bytes(rep.leaves[i]);
            best = static_cast<std::ptrdiff_t>(i);
        }
    }
    return best;
}

/// Leaf-major block list of `count` instances: each leaf's stack counted
/// through like an odometer, innermost level fastest.
Blocks ref_ff_blocks(const FlatRep& rep, int count) {
    Blocks out;
    for (int c = 0; c < count; ++c) {
        for (const auto& leaf : rep.leaves) {
            std::vector<std::int64_t> idx(leaf.stack.size(), 0);
            for (;;) {
                std::ptrdiff_t off = c * rep.type_extent + leaf.first_offset;
                for (std::size_t k = 0; k < idx.size(); ++k) off += idx[k] * leaf.stack[k].extent;
                out.emplace_back(off, leaf.blocklen);
                std::size_t k = idx.size();
                for (; k > 0; --k) {
                    if (++idx[k - 1] < leaf.stack[k - 1].count) break;
                    idx[k - 1] = 0;
                }
                if (k == 0) break;
            }
        }
    }
    return out;
}

/// The blocks overlapping packed-stream range [pos, pos+len), clipped to
/// it, and the PackWork of moving them.
Blocks clip_blocks(const Blocks& blocks, std::size_t pos, std::size_t len, PackWork& work) {
    Blocks out;
    work = PackWork{};
    std::size_t cursor = 0;
    for (const auto& [off, blk] : blocks) {
        const std::size_t a = std::max(cursor, pos);
        const std::size_t b = std::min(cursor + blk, pos + len);
        if (a < b) {
            out.emplace_back(off + static_cast<std::ptrdiff_t>(a - cursor), b - a);
            work.bytes += b - a;
            ++work.blocks;
        }
        cursor += blk;
    }
    return out;
}

bool same_work(const PackWork& a, const PackWork& b) {
    return a.bytes == b.bytes && a.blocks == b.blocks;
}

/// Two mirror trees from one seed: identical structure, separate nodes, so
/// each can be committed under its own setting.
RefPtr seeded_ref(std::uint64_t seed) {
    Rng rng(seed);
    return random_ref(rng, kRefDepth);
}

/// Commit r's type under `merge` and check its FlatRep, cached analysis
/// included, against the two-pass reference.
void expect_commit_matches_reference(const RefType& r, bool merge) {
    Config cfg;
    cfg.ff_merge_stacks = merge;
    Datatype t = r.t;
    t.commit(cfg);
    const FlatRep& got = t.flat();
    const FlatRep want = ref_flat(r, merge);
    ASSERT_EQ(got.leaves, want.leaves) << t.describe();
    EXPECT_EQ(got.type_size, want.type_size);
    EXPECT_EQ(got.type_extent, want.type_extent);
    EXPECT_EQ(got.max_depth, want.max_depth);
    EXPECT_EQ(got.merged, want.merged);
    // Cached analysis equals a fresh recomputation.
    std::vector<std::int64_t> prefix{0};
    std::int64_t blocks = 0;
    for (const auto& leaf : want.leaves) {
        prefix.push_back(prefix.back() + leaf_bytes(leaf));
        blocks += leaf.block_count();
    }
    EXPECT_EQ(got.leaf_prefix, prefix);
    EXPECT_EQ(got.blocks, blocks);
    EXPECT_EQ(got.leaf_major_is_canonical(), ref_canonical(want));
    EXPECT_EQ(got.structural_hash(), ref_hash(want));
    EXPECT_EQ(t.fingerprint(), ref_hash(want));
    EXPECT_EQ(got.dominant, ref_dominant(want));
}

/// An indexed, hindexed or struct node directly over basic types, with zero
/// block lengths, blocks that abut (and must fuse) and unsorted or negative
/// displacements.
RefPtr random_plain_node(Rng& rng) {
    const std::size_t n = 1 + rng.below(8);
    std::vector<int> lens(n);
    for (auto& l : lens) l = rng.chance(0.2) ? 0 : static_cast<int>(rng.range(1, 4));
    auto r = std::make_shared<RefType>();
    const auto add = [&r](std::ptrdiff_t d, int k, const RefPtr& c) {
        r->pieces.push_back({d, k, c});
        if (k > 0) r->links.push_back({d, {{k, c->t.extent()}}, c});
    };
    switch (rng.below(3)) {
        case 0: {  // element displacements
            const RefPtr b = ref_basic(rng);
            std::vector<int> displs(n);
            int next = 0;
            for (std::size_t i = 0; i < n; ++i) {
                displs[i] = rng.chance(0.6) ? next : static_cast<int>(rng.range(-6, 12));
                next = displs[i] + lens[i];
                add(displs[i] * b->t.extent(), lens[i], b);
            }
            r->t = Datatype::indexed(lens, displs, b->t);
            break;
        }
        case 1: {  // byte displacements
            const RefPtr b = ref_basic(rng);
            std::vector<std::ptrdiff_t> displs(n);
            std::ptrdiff_t next = 0;
            for (std::size_t i = 0; i < n; ++i) {
                displs[i] = rng.chance(0.6) ? next : rng.range(-24, 40);
                next = displs[i] + lens[i] * b->t.extent();
                add(displs[i], lens[i], b);
            }
            r->t = Datatype::hindexed(lens, displs, b->t);
            break;
        }
        default: {  // struct of basic members
            std::vector<std::ptrdiff_t> displs(n);
            std::vector<Datatype> types(n);
            std::ptrdiff_t next = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const RefPtr m = ref_basic(rng);
                displs[i] = rng.chance(0.6) ? next : rng.range(-16, 32);
                next = displs[i] + lens[i] * m->t.extent();
                types[i] = m->t;
                add(displs[i], lens[i], m);
            }
            r->t = Datatype::structure(lens, displs, types);
            break;
        }
    }
    return r;
}

/// random_plain_node alone, under resized (which pushes no stack item), or
/// nested under contiguous or vector.
RefPtr random_plain_ref(Rng& rng) {
    const RefPtr b = random_plain_node(rng);
    const std::ptrdiff_t ext = b->t.extent();
    auto r = std::make_shared<RefType>();
    switch (rng.below(4)) {
        case 0:
            return b;
        case 1: {
            r->t = Datatype::resized(b->t, b->t.lb() - 8, ext + 16);
            r->pieces = {{0, 1, b}};
            r->links = {{0, {}, b}};
            return r;
        }
        case 2: {
            const int k = static_cast<int>(rng.range(1, 3));
            r->t = Datatype::contiguous(k, b->t);
            r->pieces = {{0, k, b}};
            r->links = {{0, {{k, ext}}, b}};
            return r;
        }
        default: {
            const int count = static_cast<int>(rng.range(1, 3));
            const int blocklen = static_cast<int>(rng.range(1, 2));
            const int stride = static_cast<int>(rng.range(-3, 4));
            r->t = Datatype::vector(count, blocklen, stride, b->t);
            for (int i = 0; i < count; ++i) r->pieces.push_back({i * stride * ext, blocklen, b});
            r->links = {{0, {{count, stride * ext}, {blocklen, ext}}, b}};
            return r;
        }
    }
}

TEST(FlatEquivalence, OnePassCommitMatchesTwoPassReference) {
    for (const bool merge : {true, false}) {
        for (std::uint64_t seed = 1; seed <= 600; ++seed) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed << " merge " << merge);
            expect_commit_matches_reference(*seeded_ref(seed), merge);
        }
        for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
            SCOPED_TRACE(::testing::Message() << "plain seed " << seed << " merge " << merge);
            Rng rng(seed);
            expect_commit_matches_reference(*random_plain_ref(rng), merge);
        }
    }
}

TEST(FlatEquivalence, FFWalkMatchesReferenceOdometer) {
    for (const bool merge : {true, false}) {
        Config cfg;
        cfg.ff_merge_stacks = merge;
        for (std::uint64_t seed = 1; seed <= 600; ++seed) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed << " merge " << merge);
            const RefPtr r = seeded_ref(seed);
            Datatype t = r->t;
            t.commit(cfg);
            if (t.size() == 0) continue;
            const FlatRep want_flat = ref_flat(*r, merge);
            Rng rng(seed * 7919);
            for (const int count : {1, 2, 5}) {
                const Blocks blocks = ref_ff_blocks(want_flat, count);
                const std::size_t tsize = t.size();
                const std::size_t total = tsize * static_cast<std::size_t>(count);
                std::ptrdiff_t lo = 0, hi = 0;
                for (const auto& [off, len] : blocks) {
                    lo = std::min(lo, off);
                    hi = std::max(hi, off + static_cast<std::ptrdiff_t>(len));
                }
                auto mem = numbered(static_cast<std::size_t>(hi - lo));
                std::byte* const base = mem.data() - lo;
                const FFPacker p(t, count, base);
                ASSERT_EQ(p.total_bytes(), total);
                for (int rep = 0; rep < 6; ++rep) {
                    std::size_t pos = rng.below(total);
                    std::size_t len = 1 + rng.below(total - pos);
                    if (rep == 1) {  // start strictly inside a block of size >= 2
                        std::size_t at = 0;
                        std::size_t pick = rng.below(blocks.size());
                        for (std::size_t i = 0; i < blocks.size(); ++i) {
                            const std::size_t b = (pick + i) % blocks.size();
                            if (blocks[b].second < 2) continue;
                            at = 0;
                            for (std::size_t j = 0; j < b; ++j) at += blocks[j].second;
                            pos = at + 1 + rng.below(blocks[b].second - 1);
                            break;
                        }
                        len = 1 + rng.below(total - pos);
                    } else if (rep == 2 && count > 1) {  // wrap into the next instance
                        pos = rng.below(tsize);
                        len = tsize - pos + 1 + rng.below(total - tsize);
                    }
                    PackWork ref;
                    const Blocks want = clip_blocks(blocks, pos, len, ref);
                    SCOPED_TRACE(::testing::Message()
                                 << "count " << count << " pos " << pos << " len " << len);
                    // for_range emits exactly the reference blocks.
                    Blocks got;
                    const PackWork wr = p.for_range(pos, len, [&](std::byte* m, std::size_t n) {
                        got.emplace_back(m - base, n);
                    });
                    ASSERT_EQ(got, want);
                    EXPECT_TRUE(same_work(wr, ref));
                    // pack gathers their bytes in order.
                    std::vector<std::byte> stream;
                    for (const auto& [off, n] : want)
                        stream.insert(stream.end(), base + off, base + off + n);
                    std::vector<std::byte> out(len);
                    EXPECT_TRUE(same_work(p.pack(pos, len, out.data()), ref));
                    EXPECT_EQ(out, stream);
                    // unpack scatters them back in the same order.
                    std::vector<std::byte> dst(mem.size(), std::byte{0});
                    std::vector<std::byte> expect = dst;
                    std::size_t at = 0;
                    for (const auto& [off, n] : want) {
                        std::memcpy(expect.data() + (off - lo), stream.data() + at, n);
                        at += n;
                    }
                    const FFPacker u(t, count, dst.data() - lo);
                    EXPECT_TRUE(same_work(u.unpack(pos, len, stream.data()), ref));
                    EXPECT_EQ(dst, expect);
                }
            }
        }
    }
}

TEST(FFWalk, DepthFastPathsMatchReferenceOdometerAtEverySplit) {
    // for_range runs one loop per stack depth: empty stacks emit one block,
    // depth-1 stacks one strided loop with the cut head and tail blocks
    // outside it, deeper stacks the odometer. For every (pos, len) of small
    // types of each depth, and across instance wraps, it must emit exactly
    // the reference odometer's blocks (FlatEquivalence pins the FlatRep the
    // odometer reads), pack their bytes and unpack them without touching a
    // gap byte.
    const auto f64 = Datatype::float64();
    const auto i32 = Datatype::int32();
    const auto byte = Datatype::byte_();
    const std::array<int, 3> ilens{2, 1, 3};
    const std::array<int, 3> idispls{0, 4, 9};
    const std::array<int, 2> hlens{2, 1};
    const std::array<std::ptrdiff_t, 2> hdispls{12, -8};
    const std::array<int, 3> slens{1, 2, 3};
    const std::array<std::ptrdiff_t, 3> sdispls{0, 8, 30};
    const std::array<Datatype, 3> smembers{i32, f64, byte};
    const std::array<int, 2> sub2_sizes{4, 6}, sub2_subs{3, 2}, sub2_starts{1, 1};
    const std::array<int, 3> sub3_sizes{3, 4, 5}, sub3_subs{2, 2, 3}, sub3_starts{1, 1, 1};
    const Datatype inner = Datatype::vector(2, 1, 3, i32);
    const std::array<Datatype, 3> mixed_members{Datatype::vector(3, 1, 2, i32),
                                                Datatype::indexed(ilens, idispls, byte),
                                                Datatype::hvector(2, 1, 9, inner)};
    const std::array<int, 3> mixed_lens{1, 1, 1};
    const std::array<std::ptrdiff_t, 3> mixed_displs{0, 40, 64};
    struct Case {
        const char* name;
        Datatype t;
        int min_depth;
        int max_depth;
    };
    const std::vector<Case> cases{
        {"indexed", Datatype::indexed(ilens, idispls, f64), 0, 0},
        {"hindexed, negative displacement", Datatype::hindexed(hlens, hdispls, i32), 0, 0},
        {"struct", Datatype::structure(slens, sdispls, smembers), 0, 0},
        {"vector", Datatype::vector(4, 2, 5, f64), 1, 1},
        {"negative-stride hvector", Datatype::hvector(3, 1, -12, Datatype::int64()), 1, 1},
        {"2-d subarray", Datatype::subarray(sub2_sizes, sub2_subs, sub2_starts, i32), 1, 1},
        {"vector of vectors", Datatype::hvector(3, 1, 100, inner), 2, 2},
        {"3-d subarray", Datatype::subarray(sub3_sizes, sub3_subs, sub3_starts, byte), 2, 2},
        {"struct of depths 0-2",
         Datatype::structure(mixed_lens, mixed_displs, mixed_members), 0, 2},
    };
    constexpr std::byte kGap{0xA5};
    for (const Case& c : cases) {
        const Datatype t = committed(c.t);
        int lo_depth = std::numeric_limits<int>::max();
        int hi_depth = 0;
        for (const FlatLeaf& leaf : t.flat().leaves) {
            lo_depth = std::min(lo_depth, static_cast<int>(leaf.stack.size()));
            hi_depth = std::max(hi_depth, static_cast<int>(leaf.stack.size()));
        }
        ASSERT_EQ(lo_depth, c.min_depth) << c.name;
        ASSERT_EQ(hi_depth, c.max_depth) << c.name;
        for (const int count : {1, 3}) {
            SCOPED_TRACE(::testing::Message() << c.name << " count " << count);
            const Blocks blocks = ref_ff_blocks(t.flat(), count);
            const std::size_t total = t.size() * static_cast<std::size_t>(count);
            std::ptrdiff_t lo = 0, hi = 0;
            for (const auto& [off, n] : blocks) {
                lo = std::min(lo, off);
                hi = std::max(hi, off + static_cast<std::ptrdiff_t>(n));
            }
            auto mem = numbered(static_cast<std::size_t>(hi - lo));
            std::byte* const base = mem.data() - lo;
            const FFPacker p(t, count, base);
            for (std::size_t pos = 0; pos <= total; ++pos) {
                const PackWork none = p.for_range(pos, 0, [](std::byte*, std::size_t) {
                    ADD_FAILURE() << "empty range emitted a block";
                });
                EXPECT_TRUE(same_work(none, PackWork{}));
                for (std::size_t len = 1; pos + len <= total; ++len) {
                    SCOPED_TRACE(::testing::Message() << "pos " << pos << " len " << len);
                    PackWork ref;
                    const Blocks want = clip_blocks(blocks, pos, len, ref);
                    Blocks got;
                    const PackWork w = p.for_range(pos, len, [&](std::byte* m, std::size_t n) {
                        got.emplace_back(m - base, n);
                    });
                    ASSERT_EQ(got, want);
                    ASSERT_TRUE(same_work(w, ref));
                    std::vector<std::byte> stream(len);
                    ASSERT_TRUE(same_work(p.pack(pos, len, stream.data()), ref));
                    std::vector<std::byte> packed;
                    for (const auto& [off, n] : want)
                        packed.insert(packed.end(), base + off, base + off + n);
                    ASSERT_EQ(stream, packed);
                    // Unpack into a buffer of gap sentinels: the blocks get
                    // the stream back, every other byte keeps its sentinel.
                    std::vector<std::byte> dst(mem.size(), kGap);
                    const FFPacker u(t, count, dst.data() - lo);
                    ASSERT_TRUE(same_work(u.unpack(pos, len, stream.data()), ref));
                    std::vector<std::byte> expect(mem.size(), kGap);
                    for (const auto& [off, n] : want) {
                        const auto at = static_cast<std::size_t>(off - lo);
                        std::copy_n(mem.begin() + static_cast<std::ptrdiff_t>(at), n,
                                    expect.begin() + static_cast<std::ptrdiff_t>(at));
                    }
                    ASSERT_EQ(dst, expect);
                }
            }
        }
    }
}

TEST(PackFF, MemoryTrafficUsesTheHostCacheLine) {
    // 8 B blocks 64 B apart: each block pulls one whole line on the way in.
    auto t = committed(Datatype::vector(16, 1, 8, Datatype::float64()));
    auto buf = numbered(static_cast<std::size_t>(t.extent()));
    const FFPacker p(t, 1, buf.data());
    const mem::CopyModel wide(mem::ultrasparc2_400());
    ASSERT_EQ(wide.profile().cache_line, 64u);
    EXPECT_EQ(p.memory_traffic(t.size(), wide), 16u * 64);
    const mem::CopyModel narrow(mem::pentium3_800());
    EXPECT_EQ(p.memory_traffic(t.size(), narrow), 16u * narrow.profile().cache_line);
}

}  // namespace
}  // namespace scimpi::mpi
