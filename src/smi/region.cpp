#include "smi/region.hpp"

#include <cstring>

#include "check/checker.hpp"
#include "mem/copy_block.hpp"

namespace scimpi::smi {

Region Region::local(std::span<std::byte> mem, mem::MachineProfile profile) {
    Region r;
    r.map_.mem = mem;
    r.map_.origin_node = 0;
    r.map_.target_node = 0;
    r.local_model_ = mem::CopyModel(std::move(profile));
    return r;
}

Region Region::sci(sci::SciMapping map, sci::SciAdapter& adapter) {
    Region r;
    r.map_ = map;
    r.adapter_ = &adapter;
    r.local_model_ = mem::CopyModel(adapter.host());
    // Loopback mappings short-circuit past the adapter, so the region must
    // carry the checker itself to keep watched segments observed.
    r.checker_ = adapter.checker();
    return r;
}

Status Region::write(sim::Process& self, std::size_t off, const void* src,
                     std::size_t len, std::size_t src_traffic) {
    if (remote()) return adapter_->write(self, map_, off, src, len, src_traffic);
    // Loopback: the same cached copy as a one-block gather.
    const sci::SciAdapter::ConstIovec one{src, len};
    return write_gather(self, off, {&one, 1}, src_traffic);
}

Status Region::write_gather(sim::Process& self, std::size_t off,
                            std::span<const sci::SciAdapter::ConstIovec> blocks,
                            std::size_t src_traffic) {
    if (remote()) return adapter_->write_gather(self, map_, off, blocks, src_traffic);
    std::size_t len = 0;
    for (const auto& b : blocks) len += b.len;
    SCIMPI_REQUIRE(off + len <= size(), "region write_gather out of bounds");
    if (len == 0) return Status::ok();
    if (checker_ != nullptr)
        checker_->on_segment_access(map_.seg.node, map_.seg.id, self.id(), off, len,
                                    /*is_store=*/true, self.now());
    const std::size_t traffic = src_traffic == 0 ? len : src_traffic;
    self.delay(local_model_.copy_cost(traffic, {}, {}));
    mem::copy_gather(map_.mem.data() + off, blocks);
    return Status::ok();
}

Status Region::read(sim::Process& self, std::size_t off, void* dst, std::size_t len) {
    if (remote()) return adapter_->read(self, map_, off, dst, len);
    SCIMPI_REQUIRE(off + len <= size(), "region read out of bounds");
    if (len == 0) return Status::ok();
    if (checker_ != nullptr)
        checker_->on_segment_access(map_.seg.node, map_.seg.id, self.id(), off, len,
                                    /*is_store=*/false, self.now());
    self.delay(local_model_.copy_cost(len, {}, {}));
    std::memcpy(dst, map_.mem.data() + off, len);
    return Status::ok();
}

void Region::store_barrier(sim::Process& self) {
    if (remote()) {
        adapter_->store_barrier(self);
        return;
    }
    // Intra-node: a compiler/CPU store fence, nanoseconds.
    self.delay(20);
}

}  // namespace scimpi::smi
