#include "mem/node_memory.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace scimpi::mem {

NodeMemory::NodeMemory(int node_id, std::size_t arena_bytes)
    : node_id_(node_id), size_(arena_bytes), alloc_(arena_bytes) {
    if (arena_bytes == 0) return;
    void* m = ::mmap(nullptr, arena_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (m == MAP_FAILED)
        panic("mem: cannot map a " + std::to_string(arena_bytes) + "-byte arena for node " +
              std::to_string(node_id) + ": " + std::strerror(errno));
    base_ = static_cast<std::byte*>(m);
}

NodeMemory::~NodeMemory() {
    if (base_ != nullptr) ::munmap(base_, size_);
}

Result<std::span<std::byte>> NodeMemory::allocate(std::size_t bytes, std::size_t align) {
    auto off = alloc_.allocate(bytes, align);
    if (!off) return off.status();
    return std::span<std::byte>(base_ + off.value(), bytes);
}

Status NodeMemory::free(std::span<std::byte> region) {
    if (!contains(region.data()))
        return Status::error(Errc::invalid_argument, "region not in this node's arena");
    return alloc_.free(offset_of(region.data()));
}

bool NodeMemory::contains(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= base_ && b < base_ + size_;
}

std::size_t NodeMemory::offset_of(const void* p) const {
    SCIMPI_REQUIRE(contains(p), "offset_of: pointer outside arena");
    return static_cast<std::size_t>(static_cast<const std::byte*>(p) - base_);
}

}  // namespace scimpi::mem
