#include "mpi/datatype/pack_generic.hpp"

#include <algorithm>

#include "mem/copy_block.hpp"

namespace scimpi::mpi {

GenericPacker::GenericPacker(const Datatype& type, int count, void* userbuf)
    : type_(type),
      count_(count),
      user_(static_cast<std::byte*>(userbuf)),
      total_(type.size() * static_cast<std::size_t>(count)) {
    SCIMPI_REQUIRE(type.valid(), "GenericPacker: invalid datatype");
    SCIMPI_REQUIRE(count >= 0, "GenericPacker: negative count");
}

template <bool Pack>
PackWork GenericPacker::run(std::size_t pos, std::size_t len, std::byte* stream) const {
    SCIMPI_REQUIRE(pos + len <= total_, "pack range exceeds message");
    PackWork work;
    if (len == 0) return work;
    std::size_t cursor = 0;  // position in the packed stream
    const std::size_t end = pos + len;
    type_.for_each_block_while(0, count_, [&](std::ptrdiff_t mem_off, std::size_t blk) {
        if (cursor + blk <= pos) {
            cursor += blk;
            return true;  // before the requested range
        }
        const std::size_t lo = std::max(cursor, pos);
        const std::size_t hi = std::min(cursor + blk, end);
        const std::size_t n = hi - lo;
        std::byte* usr = user_ + mem_off + static_cast<std::ptrdiff_t>(lo - cursor);
        std::byte* str = stream + (lo - pos);
        if constexpr (Pack)
            mem::copy_block(str, usr, n);
        else
            mem::copy_block(usr, str, n);
        work.bytes += n;
        ++work.blocks;
        cursor += blk;
        return cursor < end;
    });
    SCIMPI_REQUIRE(work.bytes == len, "generic pack: type map shorter than range");
    return work;
}

PackWork GenericPacker::pack(std::size_t pos, std::size_t len, std::byte* out) const {
    return run<true>(pos, len, out);
}

PackWork GenericPacker::unpack(std::size_t pos, std::size_t len,
                               const std::byte* in) const {
    // The walker only writes into user memory; the stream side is read-only.
    return run<false>(pos, len, const_cast<std::byte*>(in));
}

SimTime GenericPacker::cost(const PackWork& work, const mem::CopyModel& model) {
    if (work.bytes == 0) return model.profile().copy_call_overhead;
    const std::size_t avg_block =
        std::max<std::size_t>(1, work.bytes / static_cast<std::size_t>(
                                                  std::max<std::int64_t>(1, work.blocks)));
    // Strided side: blocks of avg_block scattered in memory (stride unknown
    // to the walker; assume sparse, i.e. full line fetches for small blocks).
    const auto pattern = mem::AccessPattern::strided(
        avg_block, std::max<std::size_t>(avg_block * 2, model.profile().cache_line));
    SimTime t = model.copy_cost(work.bytes, pattern, {},
                                static_cast<std::size_t>(work.blocks));
    // Recursive tree descent per basic block (minus the plain loop overhead
    // the copy model already charged).
    t += work.blocks * (model.profile().recursive_pack_overhead -
                        model.profile().per_block_overhead);
    return t;
}

}  // namespace scimpi::mpi
