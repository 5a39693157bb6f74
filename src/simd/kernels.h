/**
 * @file
 * Internal kernel tables and shared scalar reference implementations.
 *
 * The scalar kernels are the semantic specification: every vector
 * backend must return exactly what they return. They live here as
 * inline functions so the NEON backend (no gather instructions) can
 * reuse them verbatim for the scatter-heavy kernels, guaranteeing
 * parity by construction instead of by reimplementation.
 */

#ifndef VANTAGE_SIMD_KERNELS_H_
#define VANTAGE_SIMD_KERNELS_H_

#include "simd/simd.h"

namespace vantage::simd {

extern const Ops kScalarOps;
#if defined(__x86_64__) || defined(__i386__)
extern const Ops kAvx2Ops;
#endif
#if defined(__aarch64__)
extern const Ops kNeonOps;
#endif

namespace scalar {

inline std::int32_t
findTag(const Line *lines, std::uint32_t n, Addr addr)
{
    for (std::uint32_t i = 0; i < n; ++i) {
        if (lines[i].addr == addr) {
            return static_cast<std::int32_t>(i);
        }
    }
    return -1;
}

inline std::int32_t
findTagAt(const Line *lines, const LineId *slots, std::uint32_t n,
          Addr addr)
{
    for (std::uint32_t i = 0; i < n; ++i) {
        if (lines[slots[i]].addr == addr) {
            return static_cast<std::int32_t>(i);
        }
    }
    return -1;
}

/**
 * Fire a prefetch for every candidate's hot line before a scan.
 * Issuing the whole sweep up front exposes all the misses at once
 * (a zcache candidate list touches up to 52 scattered cache lines),
 * which buys more memory-level parallelism than the old
 * fixed-distance scan-ahead prefetch ever could. Pure hint: no
 * effect on results.
 */
inline void
prefetchLines(const Line *lines, const Candidate *cands,
              std::uint32_t n)
{
    // Dense slot runs (set-associative sets) span a handful of
    // cache lines that the hardware prefetcher handles; sweeping
    // them costs measurable load-port pressure for nothing. Only
    // scattered lists (zcache walks) are worth the sweep.
    if (n < 2 || cands[n - 1].slot == cands[0].slot + (n - 1)) {
        return;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        __builtin_prefetch(lines + cands[i].slot, 0, 3);
    }
}

/** The judge's running lane masks (see judgeLane()). */
struct JudgeAcc
{
    std::uint64_t stray = 0;
    std::uint64_t events = 0;
    std::uint64_t demotable = 0;
};

/**
 * Judge lane `i` of a valid line (the semantic core of every judge
 * backend): count it into its partition's CandsSeen and flag it when
 * it is the partition's first event. From the event on, the
 * partition's scratch word is nonzero (it holds the event lane as a
 * marker), and its later lanes are only collected there. Events are
 * rare, so the branches predict well.
 */
inline void
judgeLane(PartId part, std::uint8_t rank, std::uint32_t i,
          std::uint32_t c, JudgeRegs *regs, std::uint32_t num_parts,
          std::uint64_t *lane_scratch, JudgeAcc &acc)
{
    const std::uint64_t bit = std::uint64_t{1} << i;
    if (part >= num_parts) {
        acc.stray |= part == kUnmanagedPart ? 0 : bit;
        return;
    }
    if (lane_scratch[part] != 0) {
        lane_scratch[part] |= bit;
        return;
    }
    JudgeRegs &r = regs[part];
    ++r.candsSeen;
    const bool dem = demotableRank(rank, r);
    if (dem || r.candsSeen >= c) {
        lane_scratch[part] = bit;
        acc.events |= bit;
        acc.demotable |= dem ? bit : 0;
    }
}

/**
 * Store the running masks and drop the event markers from the
 * scratch words; `part_of(i)` is event lane i's partition.
 */
template <typename PartOf>
inline void
judgeFinish(const JudgeAcc &acc, std::uint64_t *lane_scratch,
            PartOf &&part_of, Judgement *out)
{
    for (std::uint64_t e = acc.events; e != 0; e &= e - 1) {
        const auto i = static_cast<std::uint32_t>(__builtin_ctzll(e));
        lane_scratch[part_of(i)] &= ~(std::uint64_t{1} << i);
    }
    out->stray = acc.stray;
    out->events = acc.events;
    out->demotable = acc.demotable;
}

inline void
judge(const Line *lines, const Candidate *cands, std::uint32_t n,
      std::uint32_t c, JudgeRegs *regs, std::uint32_t num_parts,
      std::uint64_t *lane_scratch, Judgement *out)
{
    std::uint64_t valid = 0;
    std::uint64_t unmanaged = 0;
    JudgeAcc acc;
    prefetchLines(lines, cands, n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const Line &line = lines[cands[i].slot];
        unmanaged |= std::uint64_t{line.part == kUnmanagedPart} << i;
        if (line.addr != kInvalidAddr) {
            valid |= std::uint64_t{1} << i;
            judgeLane(line.part, line.rank, i, c, regs, num_parts,
                      lane_scratch, acc);
        }
    }
    out->valid = valid;
    out->unmanaged = unmanaged;
    judgeFinish(
        acc, lane_scratch,
        [&](std::uint32_t i) { return lines[cands[i].slot].part; }, out);
}

inline std::int32_t
oldestRank(const Line *lines, const Candidate *cands, std::uint32_t n,
           std::uint8_t current_ts)
{
    prefetchLines(lines, cands, n);
    std::int32_t best = 0;
    std::uint32_t best_age = static_cast<std::uint8_t>(
        current_ts - lines[cands[0].slot].rank);
    for (std::uint32_t i = 1; i < n; ++i) {
        const std::uint32_t age = static_cast<std::uint8_t>(
            current_ts - lines[cands[i].slot].rank);
        if (age > best_age) {
            best = static_cast<std::int32_t>(i);
            best_age = age;
        }
    }
    return best;
}

inline std::int32_t
minLastAccess(const LineCold *cold, const Candidate *cands,
              std::uint32_t n)
{
    if (n >= 2 && cands[n - 1].slot != cands[0].slot + (n - 1)) {
        for (std::uint32_t i = 0; i < n; ++i) {
            __builtin_prefetch(cold + cands[i].slot, 0, 3);
        }
    }
    std::int32_t best = 0;
    std::uint64_t best_la = cold[cands[0].slot].lastAccess;
    for (std::uint32_t i = 1; i < n; ++i) {
        const std::uint64_t la = cold[cands[i].slot].lastAccess;
        if (la < best_la) {
            best = static_cast<std::int32_t>(i);
            best_la = la;
        }
    }
    return best;
}

inline void
xorRows8(const std::uint32_t *walk_tables, Addr addr,
         std::uint32_t *pos)
{
    const std::uint32_t *t = walk_tables;
    const std::uint32_t *r = t + (addr & 0xff) * 8;
    std::uint32_t p0 = r[0], p1 = r[1], p2 = r[2], p3 = r[3];
    std::uint32_t p4 = r[4], p5 = r[5], p6 = r[6], p7 = r[7];
    for (std::uint32_t byte = 1; byte < 8; ++byte) {
        r = t + ((byte << 8) | ((addr >> (byte * 8)) & 0xff)) * 8;
        p0 ^= r[0]; p1 ^= r[1]; p2 ^= r[2]; p3 ^= r[3];
        p4 ^= r[4]; p5 ^= r[5]; p6 ^= r[6]; p7 ^= r[7];
    }
    pos[0] = p0; pos[1] = p1; pos[2] = p2; pos[3] = p3;
    pos[4] = p4; pos[5] = p5; pos[6] = p6; pos[7] = p7;
}

} // namespace scalar
} // namespace vantage::simd

#endif // VANTAGE_SIMD_KERNELS_H_
