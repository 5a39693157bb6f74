/**
 * @file
 * NEON kernels for the hot plane scans (AArch64).
 *
 * NEON is baseline on AArch64, so no function-level target attributes
 * are needed. NEON has no gather instructions: the scatter-indexed
 * kernels (zcache lookup, the demotion judge, the LRU folds
 * over scattered slots) reuse the scalar references from kernels.h —
 * their loads are pointer-chases either way, and sharing the code
 * guarantees parity by construction. The kernels that stream
 * contiguous memory (the set-associative tag compare and the W == 8
 * batched way hash) are genuinely vectorized.
 */

#include "simd/kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace vantage::simd {
namespace {

std::int32_t
findTagNeon(const Line *lines, std::uint32_t n, Addr addr)
{
    const uint64x2_t want = vdupq_n_u64(addr);
    const std::uint64_t *const base =
        reinterpret_cast<const std::uint64_t *>(lines);
    std::uint32_t i = 0;
    for (; i + 2 <= n; i += 2) {
        // vld2q deinterleaves two 16-byte lines into {tags, metas}.
        const uint64x2x2_t v = vld2q_u64(base + std::size_t{i} * 2);
        const uint64x2_t eq = vceqq_u64(v.val[0], want);
        if (vgetq_lane_u64(eq, 0) != 0) {
            return static_cast<std::int32_t>(i);
        }
        if (vgetq_lane_u64(eq, 1) != 0) {
            return static_cast<std::int32_t>(i + 1);
        }
    }
    for (; i < n; ++i) {
        if (lines[i].addr == addr) {
            return static_cast<std::int32_t>(i);
        }
    }
    return -1;
}

void
xorRows8Neon(const std::uint32_t *walk_tables, Addr addr,
             std::uint32_t *pos)
{
    const std::uint32_t *const t = walk_tables;
    const std::uint32_t *r = t + (addr & 0xff) * 8;
    uint32x4_t lo = vld1q_u32(r);
    uint32x4_t hi = vld1q_u32(r + 4);
    for (std::uint32_t byte = 1; byte < 8; ++byte) {
        r = t + ((std::uint64_t{byte} << 8) |
                 ((addr >> (byte * 8)) & 0xff)) *
                    8;
        lo = veorq_u32(lo, vld1q_u32(r));
        hi = veorq_u32(hi, vld1q_u32(r + 4));
    }
    vst1q_u32(pos, lo);
    vst1q_u32(pos + 4, hi);
}

} // namespace

const Ops kNeonOps = {
    &findTagNeon,        &scalar::findTagAt,
    &scalar::judge,      &scalar::oldestRank,
    &scalar::minLastAccess, &xorRows8Neon,
};

} // namespace vantage::simd

#endif // __aarch64__
