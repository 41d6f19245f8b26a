// The one block-copy kernel of the packers and gather sinks: ff and generic
// pack/unpack and the SCI write-gather copies move one (ptr, len) block at a
// time, mostly 8-32 bytes long. A libc memcpy call costs more than such a
// copy; copy_block does blocks of up to 32 bytes inline and hands larger
// ones to memcpy.
//
// No overreach: the kernel reads only [src, src+n) and writes only
// [dst, dst+n). Small blocks are moved as two overlapping unaligned words
// (the head word and the tail word), never as a rounded-up word, so the gap
// bytes around a block in a user buffer survive an unpack. The ranges must
// not overlap, as for memcpy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace scimpi::mem {

namespace detail {

/// Copy n bytes, W <= n <= 2W, as a head word and a tail word (they overlap
/// when n < 2W). Both words are loaded before either is stored.
template <std::size_t W>
inline void copy_two_words(unsigned char* d, const unsigned char* s, std::size_t n) {
    unsigned char head[W];
    unsigned char tail[W];
    std::memcpy(head, s, W);
    std::memcpy(tail, s + n - W, W);
    std::memcpy(d, head, W);
    std::memcpy(d + n - W, tail, W);
}

}  // namespace detail

/// Copy `n` bytes from `src` to `dst` (non-overlapping), touching no byte
/// outside either range.
inline void copy_block(void* dst, const void* src, std::size_t n) {
    auto* d = static_cast<unsigned char*>(dst);
    const auto* s = static_cast<const unsigned char*>(src);
    if (n > 32) {
        std::memcpy(d, s, n);
    } else if (n >= 16) {
        detail::copy_two_words<16>(d, s, n);
    } else if (n >= 8) {
        detail::copy_two_words<8>(d, s, n);
    } else if (n >= 4) {
        detail::copy_two_words<4>(d, s, n);
    } else if (n > 0) {
        // 1-3 bytes: first, middle and last (some coincide).
        const unsigned char a = s[0];
        const unsigned char b = s[n / 2];
        const unsigned char c = s[n - 1];
        d[0] = a;
        d[n / 2] = b;
        d[n - 1] = c;
    }
}

/// Copy gathered blocks (any range of elements with `ptr` and `len`) back to
/// back to `dst`, each through copy_block.
template <class Blocks>
inline void copy_gather(void* dst, const Blocks& blocks) {
    auto* d = static_cast<unsigned char*>(dst);
    for (const auto& b : blocks) {
        copy_block(d, b.ptr, b.len);
        d += b.len;
    }
}

}  // namespace scimpi::mem
