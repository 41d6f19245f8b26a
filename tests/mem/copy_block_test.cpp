#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/copy_block.hpp"

namespace scimpi::mem {
namespace {

constexpr std::size_t kGuard = 64;
constexpr std::byte kSrcGuard{0x5A};
constexpr std::byte kDstGuard{0xC3};

TEST(CopyBlock, CopiesExactlyAndTouchesNothingOutside) {
    // Every length up to 80 (the inline widths, their boundaries and the
    // memcpy path) at every source and destination misalignment 0-15, with
    // 64 guard bytes on both sides of both buffers.
    constexpr std::size_t kMaxN = 80;
    constexpr std::size_t kBuf = kGuard + 16 + kMaxN + kGuard;
    alignas(64) std::byte src[kBuf];
    alignas(64) std::byte dst[kBuf];
    for (std::size_t n = 0; n <= kMaxN; ++n) {
        for (std::size_t sa = 0; sa < 16; ++sa) {
            for (std::size_t da = 0; da < 16; ++da) {
                SCOPED_TRACE(::testing::Message() << "n " << n << " src+" << sa << " dst+" << da);
                const std::size_t s0 = kGuard + sa;
                const std::size_t d0 = kGuard + da;
                for (std::size_t i = 0; i < kBuf; ++i) {
                    const bool in_src = i >= s0 && i < s0 + n;
                    src[i] = in_src ? static_cast<std::byte>((i - s0) * 37 + n + 1) : kSrcGuard;
                    dst[i] = kDstGuard;
                }
                copy_block(dst + d0, src + s0, n);
                for (std::size_t i = 0; i < kBuf; ++i) {
                    if (i >= d0 && i < d0 + n)
                        ASSERT_EQ(dst[i], src[s0 + (i - d0)]) << "byte " << i - d0;
                    else
                        ASSERT_EQ(dst[i], kDstGuard) << "dst guard at " << i;
                    const bool in_src = i >= s0 && i < s0 + n;
                    ASSERT_EQ(src[i], in_src ? static_cast<std::byte>((i - s0) * 37 + n + 1)
                                             : kSrcGuard)
                        << "src changed at " << i;
                }
            }
        }
    }
}

TEST(CopyBlock, LargeBlocksCopyThroughMemcpy) {
    const std::size_t n = 4096 + 3;
    std::vector<std::byte> src(n + 2 * kGuard, kSrcGuard);
    std::vector<std::byte> dst(n + 2 * kGuard, kDstGuard);
    for (std::size_t i = 0; i < n; ++i)
        src[kGuard + i] = static_cast<std::byte>(i * 131 + 7);
    copy_block(dst.data() + kGuard, src.data() + kGuard, n);
    for (std::size_t i = 0; i < dst.size(); ++i) {
        const bool inside = i >= kGuard && i < kGuard + n;
        ASSERT_EQ(dst[i], inside ? src[i] : kDstGuard) << i;
    }
}

}  // namespace
}  // namespace scimpi::mem
