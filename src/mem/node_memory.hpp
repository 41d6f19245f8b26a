// Per-node physically-contiguous memory arena from which SCI-exportable
// segments (and MPI_Alloc_mem windows) are carved. User buffers in rank code
// are ordinary host memory; only memory that must be remotely accessible
// lives here. Since the whole cluster is simulated in one address space, a
// "remote" access is a host pointer dereference plus modelled time.
//
// The arena is an anonymous mapping reserved without swap backing: its pages
// read as zero and cost neither time nor RSS until first touched, so a
// cluster of many nodes with large arenas constructs in microseconds.
#pragma once

#include <cstddef>
#include <span>

#include "common/status.hpp"
#include "mem/allocator.hpp"

namespace scimpi::mem {

class NodeMemory {
public:
    /// Maps the arena; panics, naming the node, if the host refuses.
    NodeMemory(int node_id, std::size_t arena_bytes);
    ~NodeMemory();

    NodeMemory(const NodeMemory&) = delete;
    NodeMemory& operator=(const NodeMemory&) = delete;

    [[nodiscard]] int node_id() const { return node_id_; }

    /// Carve an exportable region out of the arena.
    Result<std::span<std::byte>> allocate(std::size_t bytes, std::size_t align = 64);

    /// Return a region to the arena.
    Status free(std::span<std::byte> region);

    /// True if `p` points into this node's arena (i.e. is SCI-shareable).
    [[nodiscard]] bool contains(const void* p) const;

    [[nodiscard]] std::size_t capacity() const { return alloc_.capacity(); }
    [[nodiscard]] std::size_t bytes_in_use() const { return alloc_.bytes_in_use(); }

    /// Offset of `p` within the arena. Precondition: contains(p).
    [[nodiscard]] std::size_t offset_of(const void* p) const;

    [[nodiscard]] std::byte* base() { return base_; }

private:
    int node_id_;
    std::byte* base_ = nullptr;  // the mapping; nullptr for an empty arena
    std::size_t size_;
    Allocator alloc_;
};

}  // namespace scimpi::mem
