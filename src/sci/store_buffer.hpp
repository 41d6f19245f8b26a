// Posted PIO stores in flight. A remote store returns once the CPU has
// issued it; its bytes reach the target only after the pipeline latency
// (SciAdapter). The store buffer holds each posted store's payload snapshot
// from posting until its landing callback copies it to the target.
//
// One buffer serves every adapter of a fabric, so its footprint is the
// fabric-wide peak of bytes in flight rather than a sum of per-adapter
// peaks. It is a byte ring with FIFO reclaim: a store's snapshot is placed
// after the newest one (wrapping to the start when the tail is free) and its
// space is reused once it and every older store have landed. Each store is
// named by an id, and landing one copies exactly that store, so stores may
// land out of posting order (a schedule controller may run co-enabled
// landings either way). The ring and the record table only grow, and are
// never zero-filled: after warm-up, posting and landing allocate nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace scimpi::sci {

class StoreBuffer {
public:
    /// Reserve `len` (> 0) bytes for a store of process `pid` to `dst`.
    /// Returns the store's id; fill data(id) before the next post().
    std::uint64_t post(std::byte* dst, std::size_t len, int pid);

    /// The store's snapshot bytes (valid until the next post()).
    [[nodiscard]] std::byte* data(std::uint64_t id) {
        return bytes_.get() + rec(id).off;
    }

    /// Copy store `id` to its target and release it; returns its pid.
    int land(std::uint64_t id);

    /// Stores posted and not yet landed.
    [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
    /// Bytes the ring holds (its high-water mark, rounded up).
    [[nodiscard]] std::size_t capacity() const { return cap_; }

private:
    struct Store {
        std::byte* dst = nullptr;
        std::size_t off = 0;  // into bytes_
        std::size_t len = 0;
        int pid = -1;
        bool landed = false;
    };

    Store& rec(std::uint64_t id) { return recs_[id & (recs_.size() - 1)]; }
    /// Offset where `len` more bytes fit, growing the ring if none does.
    std::size_t place(std::size_t len);
    /// Re-lay the unreleased stores compactly in a ring with room for `len`.
    void grow(std::size_t len);

    std::unique_ptr<std::byte[]> bytes_;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;       // end of the newest store's bytes
    std::vector<Store> recs_;    // power-of-two ring indexed by id
    std::uint64_t first_ = 0;    // oldest unreleased id
    std::uint64_t next_ = 0;     // next id to hand out
    std::size_t in_flight_ = 0;
};

}  // namespace scimpi::sci
