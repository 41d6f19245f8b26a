// The one SCI chunk writer, shared by the rendezvous ring
// (Rank::pack_into_ring) and the collective segments
// (coll::CollSegmentSet::publish_chunk). A contiguous buffer is one write; a
// type gather_direct() admits is gathered block by block straight into the
// target (direct_pack_ff, paper Figure 4 bottom); anything else is staged by
// the generic walker, then written (Figure 4 top). The sink, an smi::Region
// or a RingSink, brings its own loopback cost model.
#pragma once

#include <memory>
#include <vector>

#include "mpi/datatype/pack_ff.hpp"
#include "obs/span.hpp"
#include "sci/adapter.hpp"

namespace scimpi::mpi {

/// An imported rendezvous ring. `dma`: the chunk goes by the adapter's DMA
/// engine (use_dma_rndv, at or above dma_rndv_threshold) whatever its path.
struct RingSink {
    sci::SciAdapter& adapter;
    const sci::SciMapping& ring;
    bool dma;

    Status write(sim::Process& self, std::size_t off, const void* src, std::size_t len,
                 std::size_t traffic) {
        return dma ? adapter.dma_write(self, ring, off, src, len)
                   : adapter.write(self, ring, off, src, len, traffic);
    }
    Status write_gather(sim::Process& self, std::size_t off,
                        std::span<const sci::SciAdapter::ConstIovec> blocks,
                        std::size_t traffic) {
        return dma ? adapter.dma_write_gather(self, ring, off, blocks)
                   : adapter.write_gather(self, ring, off, blocks, traffic);
    }
};

/// `count` x `type` at `data` (`type` null: raw bytes) in wire order `mode`.
struct ChunkSource {
    const Datatype* type;
    int count;
    const void* data;
    PackMode mode = PackMode::canonical;
};

/// The write's status, the path it took and its ff gather block count;
/// each caller counts these in its own metrics.
struct ChunkWrite {
    Status status;
    PackPath path = PackPath::copy;
    std::size_t blocks = 0;
};

/// Write stream range [pos, pos+len) of `src` at `off` of `sink`, charging
/// `self`. `write_name` labels a contiguous write's span.
template <class Sink>
ChunkWrite write_chunk(sim::Process& self, Sink& sink, std::size_t off,
                       const ChunkSource& src, std::size_t pos, std::size_t len,
                       const Config& cfg, const mem::CopyModel& cm,
                       const char* write_name) {
    bool dma = false;
    if constexpr (requires { sink.dma; }) dma = sink.dma;
    const auto io = [&](const char* name) {
        return obs::SpanInfo{.name = name,
                             .prof = dma ? obs::ProfState::dma : obs::ProfState::pio_write,
                             .ev = dma ? obs::EvCat::dma : obs::EvCat::pio,
                             .bytes = len};
    };
    auto* user = static_cast<std::byte*>(const_cast<void*>(src.data));
    if (src.type == nullptr || src.type->is_contiguous()) {
        const obs::Span span(self, io(write_name));
        return {sink.write(self, off, user + pos, len, len)};
    }
    if (gather_direct(cfg, *src.type, src.mode)) {
        const FFPacker ff(*src.type, src.count, user);
        std::vector<sci::SciAdapter::ConstIovec> blocks;
        blocks.reserve(ff.block_estimate(len));
        ff.for_range(pos, len, [&blocks](std::byte* mem, std::size_t n) {
            blocks.push_back({mem, n});
        });
        const obs::Span span(self, io("pack:ff_direct"));
        return {sink.write_gather(self, off, blocks, ff.memory_traffic(len, cm)),
                PackPath::ff, blocks.size()};
    }
    // Two nodes, so scimpi-analyze --diff separates the staging copy (the
    // extra hop the ff path avoids) from the wire write itself.
    const auto stage = std::make_unique_for_overwrite<std::byte[]>(len);
    {
        const obs::Span span(self, {.name = "pack:stage",
                                    .prof = obs::ProfState::pack,
                                    .ev = obs::EvCat::pack,
                                    .bytes = len});
        self.delay(pack_stream(src.type, src.count, user, pos, len, stage.get(), false, cm).cost);
    }
    const obs::Span span(self, io("pack:write"));
    return {sink.write(self, off, stage.get(), len, len), PackPath::generic};
}

}  // namespace scimpi::mpi
