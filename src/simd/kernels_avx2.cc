/**
 * @file
 * AVX2 kernels for the hot plane scans.
 *
 * Deliberately built WITHOUT -mavx2 on the whole translation unit:
 * each kernel carries a function-level target("avx2") attribute
 * instead. Compiling any TU with -mavx2 would let the compiler emit
 * AVX2 code for inline functions from shared headers, and the linker
 * is free to pick those definitions for the whole program — an
 * illegal-instruction time bomb on pre-AVX2 hosts. Function-level
 * targets confine the vector code to these kernels, which are only
 * reachable through the dispatch table after a CPUID check.
 *
 * No vpgather anywhere: on the Xeon generations this targets a
 * 4-lane qword gather is microcoded (~30 uops) and loses to plain
 * loads whenever the lines are cache-resident — measured 2x worse on
 * the in-LLC lookup benches. Scattered lines are instead touched
 * with individual 128-bit loads (a hot line is exactly 16 bytes, so
 * one load fetches tag + metadata together) composed into vectors,
 * preceded by a full prefetch sweep so out-of-order execution can
 * overlap the misses.
 *
 * Parity contract: every kernel returns exactly what the scalar
 * reference in kernels.h returns, including first-match / first-wins
 * tie-breaking. Vector blocks scan lanes in index order, lane folds
 * break value ties toward the smaller candidate index, and tail
 * iterations fall back to the scalar code, so "first" is preserved.
 */

#include "simd/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace vantage::simd {
namespace {

__attribute__((target("avx2"))) std::int32_t
findTagAvx2(const Line *lines, std::uint32_t n, Addr addr)
{
    const __m256i want =
        _mm256_set1_epi64x(static_cast<long long>(addr));
    const char *const base = reinterpret_cast<const char *>(lines);
    std::uint32_t i = 0;
    for (; i + 4 <= n; i += 4) {
        // Four consecutive lines = 64 bytes = two vectors, lanes
        // interleaved {tag, meta, tag, meta}; the 0b0101 mask keeps
        // only the tag lanes (meta qwords include padding bytes and
        // must not match).
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(base +
                                              std::size_t{i} * 16));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(base +
                                              std::size_t{i} * 16 + 32));
        const std::uint32_t ma = static_cast<std::uint32_t>(
            _mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpeq_epi64(a, want))));
        const std::uint32_t mb = static_cast<std::uint32_t>(
            _mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpeq_epi64(b, want))));
        const std::uint32_t m = (ma & 0x5u) | ((mb & 0x5u) << 4);
        if (m != 0) {
            // Tag lanes sit at bits 0, 2, 4, 6 -> lines i .. i+3.
            return static_cast<std::int32_t>(
                i + (static_cast<std::uint32_t>(__builtin_ctz(m)) >>
                     1));
        }
    }
    for (; i < n; ++i) {
        if (lines[i].addr == addr) {
            return static_cast<std::int32_t>(i);
        }
    }
    return -1;
}

__attribute__((target("avx2"))) std::int32_t
findTagAtAvx2(const Line *lines, const LineId *slots, std::uint32_t n,
              Addr addr)
{
    // Scalar probe of the first way before the vector scan: in a
    // steady-state cache most hits sit in the way the line was
    // inserted into (slot order is way order), so this branch
    // predicts almost perfectly and a hit costs one load. When the
    // hit way is unpredictable the branchless vector path below
    // still wins — measured ~12 ns vs ~29 ns for W = 4 random-way
    // hits, where the scalar early-exit loop eats a mispredict per
    // probe. First-match order is preserved: if lane 0 reaches the
    // vector compare it is already known not to match.
    if (n > 0 && lines[slots[0]].addr == addr) {
        return 0;
    }
    const __m256i want =
        _mm256_set1_epi64x(static_cast<long long>(addr));
    std::uint32_t i = 0;
    for (; i + 4 <= n; i += 4) {
        // Four scalar tag loads composed into one vector compare
        // (vmovq + 3x vpinsrq); the four loads issue independently,
        // which is all the memory parallelism a gather would buy,
        // minus its microcode.
        const __m256i tags = _mm256_set_epi64x(
            static_cast<long long>(lines[slots[i + 3]].addr),
            static_cast<long long>(lines[slots[i + 2]].addr),
            static_cast<long long>(lines[slots[i + 1]].addr),
            static_cast<long long>(lines[slots[i]].addr));
        const std::uint32_t m = static_cast<std::uint32_t>(
            _mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpeq_epi64(tags, want))));
        if (m != 0) {
            return static_cast<std::int32_t>(
                i + static_cast<std::uint32_t>(__builtin_ctz(m)));
        }
    }
    for (; i < n; ++i) {
        if (lines[slots[i]].addr == addr) {
            return static_cast<std::int32_t>(i);
        }
    }
    return -1;
}

/**
 * The lanes of `lanes` whose rank is demotable under `r`: two
 * 32-byte compares over the byte rank plane (unsigned x >= t is
 * max(x, t) == x).
 */
__attribute__((target("avx2"))) std::uint64_t
demotableLanesAvx2(const std::uint8_t *ranks, std::uint64_t lanes,
                   const JudgeRegs &r)
{
    if (r.threshold >= 256) {
        return 0; // At or under target: nothing is demotable.
    }
    const __m256i sp = _mm256_set1_epi8(static_cast<char>(r.setpoint));
    const __m256i t = _mm256_set1_epi8(static_cast<char>(r.threshold));
    const __m256i lo = _mm256_sub_epi8(
        _mm256_load_si256(reinterpret_cast<const __m256i *>(ranks)), sp);
    const __m256i hi = _mm256_sub_epi8(
        _mm256_load_si256(reinterpret_cast<const __m256i *>(ranks + 32)),
        sp);
    const auto m_lo = static_cast<std::uint32_t>(_mm256_movemask_epi8(
        _mm256_cmpeq_epi8(_mm256_max_epu8(lo, t), lo)));
    const auto m_hi = static_cast<std::uint32_t>(_mm256_movemask_epi8(
        _mm256_cmpeq_epi8(_mm256_max_epu8(hi, t), hi)));
    return (m_lo | (std::uint64_t{m_hi} << 32)) & lanes;
}

__attribute__((target("avx2"))) void
judgeAvx2(const Line *lines, const Candidate *cands, std::uint32_t n,
          std::uint32_t c, JudgeRegs *regs, std::uint32_t num_parts,
          std::uint64_t *lane_scratch, Judgement *out)
{
    // Phase 1: a vector gather of {valid, part, rank} into small
    // planes. Lanes past n: ranks stay zero, and the last partial
    // block of parts reads kInvalidPart; the lane masks drop them.
    alignas(32) std::uint32_t parts[CandidateBuf::kCapacity];
    alignas(32) std::uint8_t ranks[CandidateBuf::kCapacity] = {};
    std::uint64_t valid = 0;
    std::uint64_t unmanaged = 0;
    const __m256i invalid = _mm256_set1_epi64x(-1); // kInvalidAddr
    if ((n & 7u) != 0) {
        _mm256_store_si256(
            reinterpret_cast<__m256i *>(parts + (n & ~7u)), invalid);
    }
    scalar::prefetchLines(lines, cands, n);
    const __m128i unmanaged_part =
        _mm_set1_epi32(static_cast<int>(kUnmanagedPart));
    // Dword selector pulling each 16-byte line's part field (dword 2
    // of the line, dwords 2 and 6 of a two-line vector) to the front.
    const __m256i part_idx = _mm256_setr_epi32(2, 6, 0, 0, 0, 0, 0, 0);
    std::uint32_t i = 0;
    for (; i + 4 <= n; i += 4) {
        // One 128-bit load per line fetches {tag, part|rank} whole;
        // two lines stack into a 256-bit vector with the same
        // interleaved-lane layout the contiguous kernel scans.
        const Line *const l0 = lines + cands[i].slot;
        const Line *const l1 = lines + cands[i + 1].slot;
        const Line *const l2 = lines + cands[i + 2].slot;
        const Line *const l3 = lines + cands[i + 3].slot;
        const __m256i ab = _mm256_set_m128i(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(l1)),
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(l0)));
        const __m256i cd = _mm256_set_m128i(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(l3)),
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(l2)));

        // Tag lanes are qwords 0 and 2 -> movemask bits 0 and 2.
        const std::uint32_t ea = static_cast<std::uint32_t>(
            _mm256_movemask_pd(_mm256_castsi256_pd(
                _mm256_cmpeq_epi64(ab, invalid))));
        const std::uint32_t eb = static_cast<std::uint32_t>(
            _mm256_movemask_pd(_mm256_castsi256_pd(
                _mm256_cmpeq_epi64(cd, invalid))));
        const std::uint32_t inv4 = (ea & 1u) | ((ea >> 1) & 2u) |
                                   ((eb & 1u) << 2) | ((eb & 4u) << 1);
        valid |= static_cast<std::uint64_t>(~inv4 & 0xfu) << i;

        const __m128i p01 = _mm256_castsi256_si128(
            _mm256_permutevar8x32_epi32(ab, part_idx));
        const __m128i p23 = _mm256_castsi256_si128(
            _mm256_permutevar8x32_epi32(cd, part_idx));
        const __m128i p32 = _mm_unpacklo_epi64(p01, p23);
        _mm_store_si128(reinterpret_cast<__m128i *>(parts + i), p32);
        const std::uint32_t u = static_cast<std::uint32_t>(
            _mm_movemask_ps(_mm_castsi128_ps(
                _mm_cmpeq_epi32(p32, unmanaged_part))));
        unmanaged |= static_cast<std::uint64_t>(u) << i;

        // Rank bytes ride along scalar: the lines are already in L1
        // from the vector loads above.
        ranks[i] = l0->rank;
        ranks[i + 1] = l1->rank;
        ranks[i + 2] = l2->rank;
        ranks[i + 3] = l3->rank;
    }
    for (; i < n; ++i) {
        const Line &line = lines[cands[i].slot];
        parts[i] = line.part;
        ranks[i] = line.rank;
        valid |= std::uint64_t{line.addr != kInvalidAddr} << i;
        unmanaged |= std::uint64_t{line.part == kUnmanagedPart} << i;
    }
    out->valid = valid;
    out->unmanaged = unmanaged;

    // Phase 2: peel partitions off the part plane, one compare per 8
    // lanes, and judge each whole: the lanes up to its first event are
    // counted with one popcount. Counting lane by lane instead chains
    // every lane of a partition through its CandsSeen in memory,
    // which dominates when a few partitions own most candidates. Once
    // a peeled partition is small, the remaining lanes belong to many
    // small partitions and are judged one by one (judgeLane()).
    scalar::JudgeAcc acc;
    const std::uint32_t blocks = (n + 7) / 8;
    std::uint64_t rest = valid & ~unmanaged;
    while (rest != 0) {
        const auto first = static_cast<std::uint32_t>(__builtin_ctzll(rest));
        const PartId part = parts[first];
        const __m256i want = _mm256_set1_epi32(static_cast<int>(part));
        std::uint64_t lanes = 0;
        for (std::uint32_t b = first / 8; b < blocks; ++b) {
            const __m256i v = _mm256_load_si256(
                reinterpret_cast<const __m256i *>(parts + 8 * b));
            lanes |= static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(_mm256_movemask_ps(
                             _mm256_castsi256_ps(
                                 _mm256_cmpeq_epi32(v, want)))))
                     << (8 * b);
        }
        lanes &= rest;
        rest &= ~lanes;
        if (part >= num_parts) {
            acc.stray |= lanes;
        } else {
            JudgeRegs &r = regs[part];
            const std::uint64_t d = demotableLanesAvx2(ranks, lanes, r);
            const std::uint64_t ev =
                d | adjustLane(lanes, r.candsSeen, c);
            const std::uint64_t upto =
                ev == 0 ? ~std::uint64_t{0} : ((ev & (~ev + 1)) << 1) - 1;
            r.candsSeen += static_cast<std::uint32_t>(
                __builtin_popcountll(lanes & upto));
            lane_scratch[part] = lanes & ~upto;
            acc.events |= ev & (~ev + 1);
            acc.demotable |= d & (ev & (~ev + 1));
        }
        if (__builtin_popcountll(lanes) < 4) {
            break;
        }
    }
    for (; rest != 0; rest &= rest - 1) {
        const auto k = static_cast<std::uint32_t>(__builtin_ctzll(rest));
        scalar::judgeLane(parts[k], ranks[k], k, c, regs, num_parts,
                          lane_scratch, acc);
    }
    scalar::judgeFinish(
        acc, lane_scratch, [&](std::uint32_t k) { return parts[k]; }, out);
}

/** True when the candidate slots are s0, s0+1, ..., s0+n-1. */
inline bool
contiguousSlots(const Candidate *cands, std::uint32_t n)
{
    const LineId s0 = cands[0].slot;
    for (std::uint32_t i = 1; i < n; ++i) {
        if (cands[i].slot != s0 + i) {
            return false;
        }
    }
    return true;
}

__attribute__((target("avx2"))) std::int32_t
oldestRankAvx2(const Line *lines, const Candidate *cands,
               std::uint32_t n, std::uint8_t current_ts)
{
    // Only long dense slot runs fold as a vector max-reduction over
    // the hot plane. Zcache walks scatter, where the fold is
    // load-bound anyway — prefetch the sweep and fold scalar. Short
    // dense runs (a 16-way set) also fold scalar: the policy stamped
    // one of those very ranks moments ago, and a 256-bit load over a
    // byte still in the store buffer cannot forward — measured ~20 ns
    // slower per set-associative miss than the scalar fold.
    if (n < 32 || !contiguousSlots(cands, n)) {
        return scalar::oldestRank(lines, cands, n, current_ts);
    }
    const char *const base =
        reinterpret_cast<const char *>(lines + cands[0].slot);
    const __m256i rank_idx =
        _mm256_setr_epi32(3, 7, 0, 0, 0, 0, 0, 0);
    const __m256i ff = _mm256_set1_epi32(0xff);
    const __m256i ts = _mm256_set1_epi32(current_ts);
    const __m256i lane_step = _mm256_set1_epi32(4);
    __m256i best_age = _mm256_set1_epi32(-1); // below any real age
    __m256i best_idx = _mm256_setzero_si256();
    __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 0, 0, 0, 0);
    std::uint32_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(base +
                                              std::size_t{i} * 16));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(base +
                                              std::size_t{i} * 16 + 32));
        // Rank lives in byte 0 of each line's dword 3 (the padding
        // bytes are masked off).
        const __m128i r01 = _mm256_castsi256_si128(
            _mm256_permutevar8x32_epi32(a, rank_idx));
        const __m128i r23 = _mm256_castsi256_si128(
            _mm256_permutevar8x32_epi32(b, rank_idx));
        const __m256i rank = _mm256_and_si256(
            _mm256_castsi128_si256(_mm_unpacklo_epi64(r01, r23)), ff);
        const __m256i age =
            _mm256_and_si256(_mm256_sub_epi32(ts, rank), ff);
        // Strictly-greater blend: within a lane the earliest index
        // keeps ties, matching the scalar first-wins fold.
        const __m256i gt = _mm256_cmpgt_epi32(age, best_age);
        best_age = _mm256_blendv_epi8(best_age, age, gt);
        best_idx = _mm256_blendv_epi8(best_idx, idx, gt);
        idx = _mm256_add_epi32(idx, lane_step);
    }
    std::uint32_t ages[8];
    std::uint32_t idxs[8];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(ages), best_age);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(idxs), best_idx);
    // Cross-lane: highest age, ties to the smaller candidate index.
    std::int32_t best = static_cast<std::int32_t>(idxs[0]);
    std::uint32_t age = ages[0];
    for (int k = 1; k < 4; ++k) {
        if (ages[k] > age ||
            (ages[k] == age &&
             idxs[k] < static_cast<std::uint32_t>(best))) {
            best = static_cast<std::int32_t>(idxs[k]);
            age = ages[k];
        }
    }
    // Scalar tail: indices beyond the vector part are all larger, so
    // strict-greater keeps first-wins.
    for (; i < n; ++i) {
        const std::uint32_t a = static_cast<std::uint8_t>(
            current_ts - lines[cands[i].slot].rank);
        if (a > age) {
            best = static_cast<std::int32_t>(i);
            age = a;
        }
    }
    return best;
}

__attribute__((target("avx2"))) std::int32_t
minLastAccessAvx2(const LineCold *cold, const Candidate *cands,
                  std::uint32_t n)
{
    // Long dense runs min-reduce the cold plane directly; scattered
    // zcache lists fall back to the prefetching scalar fold, and so
    // do short dense runs (a 16-way set): ExactLru stamped one of
    // those very 8-byte entries on the preceding access, and a
    // 256-bit load overlapping a store still in flight cannot
    // forward — measured ~20 ns slower per set-associative miss than
    // the scalar fold.
    if (n < 32 || !contiguousSlots(cands, n)) {
        return scalar::minLastAccess(cold, cands, n);
    }
    const long long *const base =
        reinterpret_cast<const long long *>(cold + cands[0].slot);
    // lastAccess is bits 0..62; bit 63 is the dirty flag. Masking it
    // off also keeps every stamp non-negative, so signed 64-bit
    // compares order them correctly.
    const __m256i la_mask = _mm256_set1_epi64x(0x7fffffffffffffffLL);
    const __m256i lane_step = _mm256_set1_epi64x(4);
    __m256i best_la = _mm256_set1_epi64x(0x7fffffffffffffffLL);
    __m256i best_idx = _mm256_setzero_si256();
    __m256i idx = _mm256_setr_epi64x(0, 1, 2, 3);
    std::uint32_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i la = _mm256_and_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(base + i)),
            la_mask);
        const __m256i gt = _mm256_cmpgt_epi64(best_la, la);
        best_la = _mm256_blendv_epi8(best_la, la, gt);
        best_idx = _mm256_blendv_epi8(best_idx, idx, gt);
        idx = _mm256_add_epi64(idx, lane_step);
    }
    std::uint64_t las[4];
    std::uint64_t idxs[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(las), best_la);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(idxs), best_idx);
    std::int32_t best = static_cast<std::int32_t>(idxs[0]);
    std::uint64_t la = las[0];
    for (int k = 1; k < 4; ++k) {
        if (las[k] < la ||
            (las[k] == la &&
             idxs[k] < static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(best)))) {
            best = static_cast<std::int32_t>(idxs[k]);
            la = las[k];
        }
    }
    for (; i < n; ++i) {
        const std::uint64_t v = cold[cands[i].slot].lastAccess;
        if (v < la) {
            best = static_cast<std::int32_t>(i);
            la = v;
        }
    }
    return best;
}

__attribute__((target("avx2"))) void
xorRows8Avx2(const std::uint32_t *walk_tables, Addr addr,
             std::uint32_t *pos)
{
    // One W == 8 row of the interleaved walk tables is 8 contiguous
    // dwords = exactly one vector; the whole batched hash is eight
    // row loads folded with XOR.
    const std::uint32_t *const t = walk_tables;
    // (A lambda would not inherit the target attribute, so the row
    // loads are spelled out.)
#define VANTAGE_XR8_ROW(r)                                            \
    _mm256_loadu_si256(                                               \
        reinterpret_cast<const __m256i *>(t + std::uint64_t{r} * 8))
    __m256i acc = VANTAGE_XR8_ROW(addr & 0xff);
    acc = _mm256_xor_si256(acc,
                           VANTAGE_XR8_ROW(256 + ((addr >> 8) & 0xff)));
    acc = _mm256_xor_si256(
        acc, VANTAGE_XR8_ROW(512 + ((addr >> 16) & 0xff)));
    acc = _mm256_xor_si256(
        acc, VANTAGE_XR8_ROW(768 + ((addr >> 24) & 0xff)));
    acc = _mm256_xor_si256(
        acc, VANTAGE_XR8_ROW(1024 + ((addr >> 32) & 0xff)));
    acc = _mm256_xor_si256(
        acc, VANTAGE_XR8_ROW(1280 + ((addr >> 40) & 0xff)));
    acc = _mm256_xor_si256(
        acc, VANTAGE_XR8_ROW(1536 + ((addr >> 48) & 0xff)));
    acc = _mm256_xor_si256(acc, VANTAGE_XR8_ROW(1792 + (addr >> 56)));
#undef VANTAGE_XR8_ROW
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(pos), acc);
}

} // namespace

const Ops kAvx2Ops = {
    &findTagAvx2,    &findTagAtAvx2,     &judgeAvx2,
    &oldestRankAvx2, &minLastAccessAvx2, &xorRows8Avx2,
};

} // namespace vantage::simd

#endif // x86
