/**
 * @file
 * Runtime-dispatched SIMD kernels for the hot plane scans.
 *
 * The three scans that dominate the miss path — the lookup
 * tag-compare, the Vantage demotion judge over a candidate list, and
 * the LRU victim folds — all stream over the 16-byte SoA hot plane
 * (and the 8-byte cold plane), which was laid out to be scanned with
 * vectors. This module provides AVX2 and NEON implementations of
 * those scans plus a scalar reference, selected once at startup by
 * CPU detection so one binary runs everywhere. The choice can be
 * forced with VANTAGE_SIMD=avx2|neon|scalar for parity testing.
 *
 * Every kernel is digest-neutral: for any input, every backend
 * returns exactly what the scalar reference returns (first-match /
 * first-wins tie semantics included), so victim choices — and hence
 * the pinned golden digests — are bit-identical across backends.
 */

#ifndef VANTAGE_SIMD_SIMD_H_
#define VANTAGE_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "array/cache_array.h"
#include "array/candidate_buf.h"
#include "common/types.h"

namespace vantage::simd {

// The kernels address the planes with raw offset arithmetic; pin the
// layout they assume.
static_assert(offsetof(Line, addr) == 0 && offsetof(Line, part) == 8 &&
                  offsetof(Line, rank) == 12 && sizeof(Line) == 16,
              "SIMD kernels assume the {addr, part, rank} hot-line "
              "layout");
static_assert(sizeof(LineCold) == 8,
              "SIMD kernels assume one qword per cold line");
static_assert(offsetof(Candidate, slot) == 0 && sizeof(Candidate) == 8,
              "SIMD kernels assume {slot, parent} candidate layout");

/**
 * One partition's demotion registers as the judge kernel reads and
 * advances them. A managed lane of the partition is demotable iff
 * ((rank - setpoint) mod 256) >= threshold, so threshold 256 never
 * demotes (size at or under target) and 0 always does (a target-0
 * drain, or an empty keep window). candsSeen is the Fig. 4 CandsSeen
 * register itself: the kernel counts lanes into it.
 */
struct JudgeRegs
{
    std::uint32_t candsSeen = 0;
    std::uint16_t threshold = 256;
    std::uint8_t setpoint = 0;
};

/** What the judge kernel reports about one candidate list. */
struct Judgement
{
    std::uint64_t valid;     ///< Lanes holding a valid line.
    std::uint64_t unmanaged; ///< Lanes tagged kUnmanagedPart.
    /** Valid managed lanes whose partition is >= num_parts. */
    std::uint64_t stray;
    /**
     * Each partition's first event lane: its first demotable lane, or
     * the lane where its CandsSeen reaches c, if earlier.
     */
    std::uint64_t events;
    /** The event lanes that are demotable. */
    std::uint64_t demotable;
};

/** True iff a lane of `rank` is demotable under `r`. */
inline bool
demotableRank(std::uint8_t rank, const JudgeRegs &r)
{
    return static_cast<std::uint8_t>(rank - r.setpoint) >= r.threshold;
}

/** The subset of `lanes` demotable under `r` (scalar reference). */
inline std::uint64_t
judgeLanes(const Line *lines, const Candidate *cands,
           std::uint64_t lanes, const JudgeRegs &r)
{
    std::uint64_t out = 0;
    if (r.threshold >= 256) {
        return out; // At or under target: nothing is demotable.
    }
    for (std::uint64_t m = lanes; m != 0; m &= m - 1) {
        const auto i = static_cast<std::uint32_t>(__builtin_ctzll(m));
        if (demotableRank(lines[cands[i].slot].rank, r)) {
            out |= std::uint64_t{1} << i;
        }
    }
    return out;
}

/**
 * The lane of `lanes` at which a partition with CandsSeen `seen`
 * reaches c (one bit), or 0 when it does not within them.
 */
inline std::uint64_t
adjustLane(std::uint64_t lanes, std::uint32_t seen, std::uint32_t c)
{
    const std::uint32_t until = c > seen ? c - seen : 1;
    if (static_cast<std::uint32_t>(__builtin_popcountll(lanes)) <
        until) {
        return 0;
    }
    for (std::uint32_t k = 1; k < until; ++k) {
        lanes &= lanes - 1;
    }
    return lanes & (~lanes + 1);
}

/** Dispatch levels, ordered roughly by preference. */
enum class Level : std::uint8_t { Scalar = 0, Avx2 = 1, Neon = 2 };

/**
 * The dispatched kernel table. All kernels share scalar-identical
 * semantics:
 *
 * - findTag: index of the first of `n` consecutive hot lines whose
 *   tag equals `addr`, or -1 (set-associative lookup within a set).
 * - findTagAt: same, but over `n` precomputed slots into the hot
 *   plane (zcache lookup over the way positions).
 * - judge: the Vantage demotion scan's bulk pass. One pass over a
 *   candidate list (n <= 64, so lane masks fit one word) that fills
 *   a Judgement with the valid and unmanaged lane masks and, per
 *   managed partition, counts lanes into regs[part].candsSeen up to
 *   the partition's first event: a lane demotable under its regs, or
 *   the lane where CandsSeen reaches c. That lane is reported; the
 *   partition's later lanes are left uncounted in lane_scratch[part]
 *   (num_parts words, zero on entry).
 * - oldestRank: first index maximizing the coarse-timestamp age
 *   (ts - rank) mod 256 over a candidate list (CoarseLru fold).
 * - minLastAccess: first index minimizing the cold-plane lastAccess
 *   stamp over a candidate list (ExactLru fold).
 * - xorRows8: the W == 8 batched way hash — XOR eight 8-word rows of
 *   the interleaved walk tables into pos[0..7].
 */
struct Ops
{
    std::int32_t (*findTag)(const Line *lines, std::uint32_t n,
                            Addr addr);
    std::int32_t (*findTagAt)(const Line *lines, const LineId *slots,
                              std::uint32_t n, Addr addr);
    void (*judge)(const Line *lines, const Candidate *cands,
                  std::uint32_t n, std::uint32_t c, JudgeRegs *regs,
                  std::uint32_t num_parts, std::uint64_t *lane_scratch,
                  Judgement *out);
    std::int32_t (*oldestRank)(const Line *lines,
                               const Candidate *cands, std::uint32_t n,
                               std::uint8_t current_ts);
    std::int32_t (*minLastAccess)(const LineCold *cold,
                                  const Candidate *cands,
                                  std::uint32_t n);
    void (*xorRows8)(const std::uint32_t *walk_tables, Addr addr,
                     std::uint32_t *pos);
};

namespace detail {
extern const Ops *g_active;
extern Level g_level;
} // namespace detail

/** The active kernel table (resolved once before main()). */
inline const Ops &
ops()
{
    return *detail::g_active;
}

/** The active dispatch level. */
inline Level
level()
{
    return detail::g_level;
}

/** Printable name of a level ("scalar", "avx2", "neon"). */
const char *levelName(Level level);

/** Printable name of the active level. */
const char *levelName();

/**
 * The kernel table for `level`, or nullptr when this host cannot run
 * it. Lets parity tests drive every available backend directly
 * without touching the global dispatch.
 */
const Ops *opsFor(Level level);

/**
 * Force the active dispatch level (parity tests, fuzz sweeps).
 * Returns false — leaving the dispatch untouched — when the host
 * cannot run `level`. Not thread-safe: switch only while no
 * simulation threads are running.
 */
bool setLevelForTest(Level level);

} // namespace vantage::simd

#endif // VANTAGE_SIMD_SIMD_H_
