#include "mpi/datatype/pack_ff.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "mem/copy_block.hpp"

namespace scimpi::mpi {

FFPacker::FFPacker(const Datatype& type, int count, void* userbuf)
    : type_(type),
      flat_(&type.flat()),
      user_(static_cast<std::byte*>(userbuf)),
      total_(type.size() * static_cast<std::size_t>(count)) {
    SCIMPI_REQUIRE(count >= 0, "FFPacker: negative count");
}

PackWork FFPacker::pack(std::size_t pos, std::size_t len, std::byte* out) const {
    std::byte* dst = out;
    return for_range(pos, len, [&dst](std::byte* user, std::size_t n) {
        mem::copy_block(dst, user, n);
        dst += n;
    });
}

PackWork FFPacker::unpack(std::size_t pos, std::size_t len, const std::byte* in) const {
    const std::byte* src = in;
    return for_range(pos, len, [&src](std::byte* user, std::size_t n) {
        mem::copy_block(user, src, n);
        src += n;
    });
}

std::size_t FFPacker::block_estimate(std::size_t len) const {
    const std::size_t mean_block = std::max<std::size_t>(
        1, flat_->type_size / static_cast<std::size_t>(std::max<std::int64_t>(1, flat_->blocks)));
    return len / mean_block + 2;
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
    const FlatLeaf* best = flat_->dominant_leaf();
    if (best == nullptr || best->stack.empty())
        return mem::AccessPattern::contig();
    const auto stride = static_cast<std::size_t>(
        std::max<std::ptrdiff_t>(std::abs(best->stack.back().extent),
                                 static_cast<std::ptrdiff_t>(best->blocklen)));
    return mem::AccessPattern::strided(best->blocklen, stride);
}

std::size_t FFPacker::memory_traffic(std::size_t bytes,
                                     const mem::CopyModel& model) const {
    return model.traffic_bytes(bytes, dominant_pattern());
}

bool ff_may_move(const Config& cfg, const Datatype& type, PackMode mode) {
    if (!cfg.use_direct_pack_ff) return false;
    return mode == PackMode::ff_leaf_major || type.flat().leaf_major_is_canonical();
}

bool gather_direct(const Config& cfg, const Datatype& type, PackMode mode) {
    if (!ff_may_move(cfg, type, mode)) return false;
    return cfg.ff_min_block == 0 ||
           FFPacker(type, 0, nullptr).dominant_pattern().block >= cfg.ff_min_block;
}

void apply_direct_pack_env(Config& cfg) {
    const char* v = std::getenv("SCIMPI_DIRECT_PACK");
    if (v != nullptr && v[0] != '\0')
        cfg.use_direct_pack_ff = !(v[0] == '0' && v[1] == '\0');
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
