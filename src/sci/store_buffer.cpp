#include "sci/store_buffer.hpp"

#include <algorithm>
#include <cstring>

#include "common/status.hpp"

namespace scimpi::sci {

namespace {
constexpr std::size_t kMinBytes = 4096;
constexpr std::size_t kMinStores = 16;
}  // namespace

std::uint64_t StoreBuffer::post(std::byte* dst, std::size_t len, int pid) {
    SCIMPI_REQUIRE(len > 0, "empty posted store");
    const std::size_t off = place(len);
    if (next_ - first_ == recs_.size()) {
        // Re-index the unreleased stores into a table twice the size.
        std::vector<Store> bigger(std::max(kMinStores, 2 * recs_.size()));
        for (std::uint64_t id = first_; id != next_; ++id)
            bigger[id & (bigger.size() - 1)] = rec(id);
        recs_ = std::move(bigger);
    }
    rec(next_) = Store{dst, off, len, pid, false};
    head_ = off + len;
    ++in_flight_;
    return next_++;
}

int StoreBuffer::land(std::uint64_t id) {
    SCIMPI_REQUIRE(id >= first_ && id < next_ && !rec(id).landed,
                   "landing a store that is not in flight");
    Store& s = rec(id);
    std::memcpy(s.dst, bytes_.get() + s.off, s.len);
    s.landed = true;
    --in_flight_;
    while (first_ != next_ && rec(first_).landed) ++first_;
    return s.pid;
}

std::size_t StoreBuffer::place(std::size_t len) {
    if (first_ == next_) {
        // Empty: restart at the front, so the touched extent stays the
        // peak of bytes in flight.
        head_ = 0;
        if (len > cap_) grow(len);
        return 0;
    }
    const std::size_t tail = rec(first_).off;
    if (tail < head_) {
        // Unwrapped: live bytes are [tail, head_).
        if (cap_ - head_ >= len) return head_;
        if (len <= tail) return 0;
    } else if (tail - head_ >= len) {
        // Wrapped: live bytes are [tail, end) and [0, head_).
        return head_;
    }
    grow(len);
    return head_;
}

void StoreBuffer::grow(std::size_t len) {
    std::size_t used = 0;
    for (std::uint64_t id = first_; id != next_; ++id) used += rec(id).len;
    std::size_t cap = std::max({kMinBytes, 2 * cap_, used + len});
    cap = (cap + kMinBytes - 1) / kMinBytes * kMinBytes;
    auto bytes = std::make_unique_for_overwrite<std::byte[]>(cap);
    std::size_t pos = 0;
    for (std::uint64_t id = first_; id != next_; ++id) {
        Store& s = rec(id);
        if (!s.landed) std::memcpy(bytes.get() + pos, bytes_.get() + s.off, s.len);
        s.off = pos;
        pos += s.len;
    }
    bytes_ = std::move(bytes);
    cap_ = cap;
    head_ = pos;
}

}  // namespace scimpi::sci
