/**
 * @file
 * Scalar-vs-SIMD parity tests.
 *
 * Two layers: (1) randomized kernel-level parity — every dispatched
 * kernel, driven over fuzzed hot/cold planes and candidate lists at
 * every dispatch level this host can run, must return exactly what
 * the scalar reference returns (ties included); (2) whole-simulation
 * parity — full CmpSim runs re-executed at each level must produce
 * bit-identical access digests. Together with the pinned golden
 * digests (which CI runs under VANTAGE_SIMD=scalar and =avx2) this
 * pins the digest-neutrality contract of the vector kernels.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "array/set_assoc.h"
#include "array/zarray.h"
#include "cache/cache.h"
#include "common/digest.h"
#include "common/hp_alloc.h"
#include "common/rng.h"
#include "core/vantage.h"
#include "obs/audit.h"
#include "sim/experiment.h"
#include "simd/kernels.h"
#include "simd/simd.h"
#include "workload/mixes.h"

namespace vantage {
namespace {

std::vector<simd::Level>
availableLevels()
{
    std::vector<simd::Level> out;
    for (const simd::Level lvl :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Neon}) {
        if (simd::opsFor(lvl) != nullptr) {
            out.push_back(lvl);
        }
    }
    return out;
}

/** Restore the startup dispatch when a test body returns. */
class LevelGuard
{
  public:
    LevelGuard() : saved_(simd::level()) {}
    ~LevelGuard() { simd::setLevelForTest(saved_); }

  private:
    simd::Level saved_;
};

/**
 * A fuzzed hot/cold plane plus a candidate list of unique slots —
 * the invariant every array upholds (set-associative sets are
 * distinct ways, zcache walks dedup via epoch stamps, the random
 * array rejects repeats).
 */
struct FuzzPlane
{
    std::vector<Line> lines;
    std::vector<LineCold> cold;
    CandidateBuf cands;

    FuzzPlane(Rng &rng, std::uint32_t num_lines, std::uint32_t n)
        : lines(num_lines), cold(num_lines)
    {
        for (std::uint32_t i = 0; i < num_lines; ++i) {
            const std::uint32_t kind = rng.range(8);
            if (kind == 0) {
                lines[i].invalidate();
            } else if (kind <= 2) {
                lines[i].addr = rng.next() | 1; // Never kInvalidAddr.
                lines[i].part = kUnmanagedPart;
                // Tiny rank range to force age ties.
                lines[i].rank =
                    static_cast<std::uint8_t>(rng.range(5));
            } else {
                lines[i].addr = rng.next() | 1;
                lines[i].part = static_cast<PartId>(rng.range(4));
                lines[i].rank =
                    static_cast<std::uint8_t>(rng.range(5));
            }
            // Small stamp range to force lastAccess ties.
            cold[i].lastAccess = rng.range(7);
            cold[i].dirty = rng.range(2);
        }
        std::vector<LineId> slots(num_lines);
        for (std::uint32_t i = 0; i < num_lines; ++i) {
            slots[i] = i;
        }
        // Partial Fisher-Yates: n distinct random slots.
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t j =
                i + static_cast<std::uint32_t>(
                        rng.range(num_lines - i));
            std::swap(slots[i], slots[j]);
            cands.push_back({slots[i], -1});
        }
    }
};

TEST(SimdKernelParity, FindTagMatchesScalarAtEveryLevel)
{
    Rng rng(0xf1a9);
    for (const simd::Level lvl : availableLevels()) {
        const simd::Ops &ops = *simd::opsFor(lvl);
        for (int iter = 0; iter < 200; ++iter) {
            const std::uint32_t n =
                1 + static_cast<std::uint32_t>(rng.range(64));
            FuzzPlane plane(rng, 256, n);
            // Probe a resident tag, a missing tag, and every way in
            // between: sometimes plant the probe (possibly twice, to
            // pin first-match semantics).
            Addr addr = rng.next() | 1;
            if (rng.range(2) == 0) {
                plane.lines[rng.range(n)].addr = addr;
            }
            if (rng.range(4) == 0) {
                plane.lines[rng.range(n)].addr = addr;
            }
            EXPECT_EQ(
                ops.findTag(plane.lines.data(), n, addr),
                simd::scalar::findTag(plane.lines.data(), n, addr))
                << "level " << simd::levelName(lvl) << " iter "
                << iter;
        }
    }
}

TEST(SimdKernelParity, FindTagAtMatchesScalarAtEveryLevel)
{
    Rng rng(0xf1b0);
    for (const simd::Level lvl : availableLevels()) {
        const simd::Ops &ops = *simd::opsFor(lvl);
        for (int iter = 0; iter < 200; ++iter) {
            const std::uint32_t n =
                1 + static_cast<std::uint32_t>(rng.range(16));
            FuzzPlane plane(rng, 512, n);
            std::vector<LineId> slots;
            for (std::uint32_t i = 0; i < n; ++i) {
                slots.push_back(plane.cands[i].slot);
            }
            Addr addr = rng.next() | 1;
            if (rng.range(2) == 0) {
                plane.lines[slots[rng.range(n)]].addr = addr;
            }
            EXPECT_EQ(ops.findTagAt(plane.lines.data(), slots.data(),
                                    n, addr),
                      simd::scalar::findTagAt(plane.lines.data(),
                                              slots.data(), n, addr))
                << "level " << simd::levelName(lvl) << " iter "
                << iter;
        }
    }
}

/**
 * A candidate list over `num_parts` partitions for the judge kernel:
 * invalid, unmanaged and managed lanes, a few lanes with an
 * out-of-range partition (stray), and ranks over the whole 8-bit
 * range so every keep-window threshold bites.
 */
struct JudgePlane
{
    std::vector<Line> lines;
    CandidateBuf cands;
    std::vector<simd::JudgeRegs> regs;

    JudgePlane(Rng &rng, std::uint32_t n, std::uint32_t num_parts,
               std::uint32_t c)
        : lines(n + 7), regs(num_parts)
    {
        // A few partitions dominate, like a skewed mix.
        const std::uint32_t hot =
            1 + static_cast<std::uint32_t>(rng.range(num_parts));
        for (Line &line : lines) {
            const std::uint32_t kind = rng.range(16);
            line.addr = rng.next() | 1; // Never kInvalidAddr.
            line.rank = static_cast<std::uint8_t>(rng.range(256));
            if (kind == 0) {
                line.invalidate();
            } else if (kind == 1) {
                line.part = kUnmanagedPart;
            } else if (kind == 2 && rng.range(8) == 0) {
                line.part = num_parts + static_cast<PartId>(rng.range(3));
            } else {
                line.part = static_cast<PartId>(
                    rng.range(kind < 8 ? hot : num_parts));
            }
        }
        // Scatter the candidates over the plane, each slot once.
        std::vector<LineId> slots(lines.size());
        for (LineId i = 0; i < slots.size(); ++i) {
            slots[i] = i;
        }
        for (std::uint32_t i = 0; i < n; ++i) {
            const auto j = i + static_cast<std::uint32_t>(
                                   rng.range(slots.size() - i));
            std::swap(slots[i], slots[j]);
            cands.push_back({slots[i], -1});
        }
        for (simd::JudgeRegs &r : regs) {
            switch (rng.range(4)) {
              case 0:
                r.threshold = 256; // At or under target.
                break;
              case 1:
                r.threshold = 0; // Target 0 (retired): drain all.
                break;
              default:
                r.threshold =
                    static_cast<std::uint16_t>(rng.range(256));
                break;
            }
            r.setpoint = static_cast<std::uint8_t>(rng.range(256));
            // Often one lane short of c.
            r.candsSeen = rng.range(3) == 0
                              ? c - 1
                              : static_cast<std::uint32_t>(rng.range(c));
        }
    }
};

/** The judge's contract, spelled out lane by lane. */
void
naiveJudge(const JudgePlane &plane, std::uint32_t c,
           std::vector<simd::JudgeRegs> &regs,
           std::vector<std::uint64_t> &scratch, simd::Judgement &out)
{
    out = simd::Judgement{};
    std::vector<bool> held(regs.size(), false);
    for (std::uint32_t i = 0; i < plane.cands.size(); ++i) {
        const Line &line = plane.lines[plane.cands[i].slot];
        const std::uint64_t bit = std::uint64_t{1} << i;
        if (line.part == kUnmanagedPart) {
            out.unmanaged |= bit;
        }
        if (!line.valid()) {
            continue;
        }
        out.valid |= bit;
        if (line.part == kUnmanagedPart) {
            continue;
        }
        if (line.part >= regs.size()) {
            out.stray |= bit;
            continue;
        }
        if (held[line.part]) {
            scratch[line.part] |= bit;
            continue;
        }
        simd::JudgeRegs &r = regs[line.part];
        ++r.candsSeen;
        const bool dem = simd::demotableRank(line.rank, r);
        if (dem || r.candsSeen >= c) {
            held[line.part] = true;
            out.events |= bit;
            out.demotable |= dem ? bit : 0;
        }
    }
}

TEST(SimdKernelParity, JudgeMatchesScalarAtEveryLevel)
{
    Rng rng(0xc1a5);
    constexpr std::uint32_t kC = 16;
    for (const std::uint32_t num_parts : {1u, 4u, 8u, 9u, 32u}) {
        for (int iter = 0; iter < 300; ++iter) {
            const std::uint32_t n =
                1 + static_cast<std::uint32_t>(rng.range(64));
            const JudgePlane plane(rng, n, num_parts, kC);
            std::vector<simd::JudgeRegs> want_regs = plane.regs;
            std::vector<std::uint64_t> want_scratch(num_parts, 0);
            simd::Judgement want;
            naiveJudge(plane, kC, want_regs, want_scratch, want);
            for (const simd::Level lvl : availableLevels()) {
                std::vector<simd::JudgeRegs> regs = plane.regs;
                std::vector<std::uint64_t> scratch(num_parts, 0);
                simd::Judgement got;
                simd::opsFor(lvl)->judge(plane.lines.data(),
                                         plane.cands.data(), n, kC,
                                         regs.data(), num_parts,
                                         scratch.data(), &got);
                const std::string what =
                    std::string("level ") + simd::levelName(lvl) +
                    " P=" + std::to_string(num_parts) + " n=" +
                    std::to_string(n) + " iter " + std::to_string(iter);
                EXPECT_EQ(want.valid, got.valid) << what;
                EXPECT_EQ(want.unmanaged, got.unmanaged) << what;
                EXPECT_EQ(want.stray, got.stray) << what;
                EXPECT_EQ(want.events, got.events) << what;
                EXPECT_EQ(want.demotable, got.demotable) << what;
                EXPECT_EQ(want_scratch, scratch) << what;
                for (std::uint32_t p = 0; p < num_parts; ++p) {
                    EXPECT_EQ(want_regs[p].candsSeen, regs[p].candsSeen)
                        << what;
                }
            }
        }
    }
}

/** The controller's re-judge helpers against their definitions. */
TEST(SimdKernelParity, RejudgeHelpersMatchTheirDefinitions)
{
    Rng rng(0x7e1d);
    for (int iter = 0; iter < 500; ++iter) {
        const std::uint32_t n =
            1 + static_cast<std::uint32_t>(rng.range(64));
        const JudgePlane plane(rng, n, 4, 16);
        const std::uint64_t lanes =
            rng.next() & (n >= 64 ? ~0ull : (1ull << n) - 1);
        const simd::JudgeRegs &r = plane.regs[rng.range(4)];
        std::uint64_t want_d = 0;
        std::uint64_t want_a = 0;
        std::uint32_t seen = r.candsSeen;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (((lanes >> i) & 1) == 0) {
                continue;
            }
            if (simd::demotableRank(
                    plane.lines[plane.cands[i].slot].rank, r)) {
                want_d |= 1ull << i;
            }
            if (++seen == 16) {
                want_a = 1ull << i;
            }
        }
        EXPECT_EQ(want_d, simd::judgeLanes(plane.lines.data(),
                                           plane.cands.data(), lanes, r));
        EXPECT_EQ(want_a, simd::adjustLane(lanes, r.candsSeen, 16));
    }
}

TEST(SimdKernelParity, LruFoldsMatchScalarAtEveryLevel)
{
    Rng rng(0x17c4);
    for (const simd::Level lvl : availableLevels()) {
        const simd::Ops &ops = *simd::opsFor(lvl);
        for (int iter = 0; iter < 300; ++iter) {
            const std::uint32_t n =
                1 + static_cast<std::uint32_t>(rng.range(64));
            FuzzPlane plane(rng, 512, n);
            const std::uint8_t ts =
                static_cast<std::uint8_t>(rng.range(256));
            EXPECT_EQ(ops.oldestRank(plane.lines.data(),
                                     plane.cands.data(), n, ts),
                      simd::scalar::oldestRank(plane.lines.data(),
                                               plane.cands.data(), n,
                                               ts))
                << "level " << simd::levelName(lvl) << " iter "
                << iter;
            EXPECT_EQ(
                ops.minLastAccess(plane.cold.data(),
                                  plane.cands.data(), n),
                simd::scalar::minLastAccess(plane.cold.data(),
                                            plane.cands.data(), n))
                << "level " << simd::levelName(lvl) << " iter "
                << iter;
        }
    }
}

TEST(SimdKernelParity, XorRows8MatchesScalarAtEveryLevel)
{
    Rng rng(0x8a54);
    std::vector<std::uint32_t> tables(8 * 2048);
    for (auto &w : tables) {
        w = static_cast<std::uint32_t>(rng.next());
    }
    for (const simd::Level lvl : availableLevels()) {
        const simd::Ops &ops = *simd::opsFor(lvl);
        for (int iter = 0; iter < 500; ++iter) {
            const Addr addr = rng.next();
            std::uint32_t pos_v[8];
            std::uint32_t pos_s[8];
            ops.xorRows8(tables.data(), addr, pos_v);
            simd::scalar::xorRows8(tables.data(), addr, pos_s);
            EXPECT_EQ(0, std::memcmp(pos_v, pos_s, sizeof(pos_v)))
                << "level " << simd::levelName(lvl) << " iter "
                << iter;
        }
    }
}

TEST(SimdParity, HotPlanesAreCacheLineAligned)
{
    SetAssocArray sa(1024, 16);
    ZArray za(4096, 4, 52);
    for (const CacheArray *array :
         {static_cast<const CacheArray *>(&sa),
          static_cast<const CacheArray *>(&za)}) {
        EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(
                          array->linesData()) %
                          kPlaneAlignment);
        EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(
                          array->coldData()) %
                          kPlaneAlignment);
    }
}

/**
 * The W == 8 batched hash feeds lookup and the walk through the
 * dispatched xorRows8 kernel: positions and candidate lists of an
 * 8-way zcache must be identical at every level.
 */
TEST(SimdParity, ZArrayWay8WalkIsLevelInvariant)
{
    LevelGuard guard;
    Rng rng(0x2a8);
    ZArray za(8192, 8, 8);
    for (int iter = 0; iter < 2000; ++iter) {
        const Addr addr = rng.next() | 1;
        ASSERT_TRUE(simd::setLevelForTest(simd::Level::Scalar));
        const LineId hit_s = za.lookup(addr);
        CandidateBuf cands_s;
        za.candidates(addr, cands_s);
        for (const simd::Level lvl : availableLevels()) {
            ASSERT_TRUE(simd::setLevelForTest(lvl));
            EXPECT_EQ(hit_s, za.lookup(addr))
                << "level " << simd::levelName(lvl);
            CandidateBuf cands_v;
            za.candidates(addr, cands_v);
            ASSERT_EQ(cands_s.size(), cands_v.size());
            for (std::uint32_t i = 0; i < cands_s.size(); ++i) {
                EXPECT_EQ(cands_s[i].slot, cands_v[i].slot);
                EXPECT_EQ(cands_s[i].parent, cands_v[i].parent);
            }
        }
    }
}

/**
 * A Vantage controller that records every victim it picks. With
 * `lane_by_lane` it is the plain serial scan the event-driven commit
 * must reproduce: fastDemote_ off, so the commit body visits every
 * managed lane and judges it through shouldDemote(), and the
 * forced-eviction fallback calls demotionPriority() per candidate.
 */
class RecordingVantage : public VantageController
{
  public:
    RecordingVantage(std::size_t lines, const VantageConfig &cfg,
                     bool lane_by_lane)
        : VantageController(lines, cfg), laneByLane_(lane_by_lane)
    {
        if (lane_by_lane) {
            useDemotionHooks();
        }
    }

    void
    groupPriorities(const PartState &ps, std::uint64_t lanes,
                    const Line *lines, const Candidate *cands,
                    double *prio) const override
    {
        if (!laneByLane_) {
            VantageController::groupPriorities(ps, lanes, lines, cands,
                                               prio);
            return;
        }
        for (std::uint64_t m = lanes; m != 0; m &= m - 1) {
            const int i = __builtin_ctzll(m);
            prio[i] = demotionPriority(ps, lines[cands[i].slot].rank);
        }
    }

    VictimChoice
    selectVictim(CacheArray &array, PartId inserting, Addr addr,
                 const CandidateBuf &cands) override
    {
        const VictimChoice c =
            VantageController::selectVictim(array, inserting, addr, cands);
        victims.push_back(c.candIdx);
        return c;
    }

    std::vector<std::int32_t> victims;

    /**
     * groupPriorities() for a whole candidate list against the
     * per-candidate demotionPriority() it stands for; returns the
     * number of managed lanes compared.
     */
    std::uint32_t
    expectPrioritiesMatch(const CacheArray &array,
                          const CandidateBuf &cands) const
    {
        const Line *lines = array.linesData();
        std::uint64_t lanes_of[64] = {};
        for (std::uint32_t i = 0; i < cands.size(); ++i) {
            const Line &line = lines[cands[i].slot];
            if (line.valid() && line.part < numPartitions()) {
                lanes_of[line.part] |= std::uint64_t{1} << i;
            }
        }
        std::uint32_t compared = 0;
        for (PartId p = 0; p < numPartitions(); ++p) {
            double prio[CandidateBuf::kCapacity];
            VantageController::groupPriorities(parts_[p], lanes_of[p],
                                               lines, cands.data(), prio);
            for (std::uint64_t m = lanes_of[p]; m != 0; m &= m - 1) {
                const int i = __builtin_ctzll(m);
                EXPECT_EQ(demotionPriority(parts_[p],
                                           lines[cands[i].slot].rank),
                          prio[i]);
                ++compared;
            }
        }
        return compared;
    }

  private:
    bool laneByLane_;
};

/** Everything a scan run decides, for exact comparison. */
struct ScanRun
{
    std::vector<std::int32_t> victims;
    std::vector<std::uint64_t> regs;
    std::vector<std::uint64_t> audit;
};

/**
 * Drive a Vantage Z4/52 cache through skewed per-partition streams,
 * retargeting (sometimes to 0, a retired slot) every few thousand
 * accesses, with a small c so setpoints move often.
 */
ScanRun
runScan(std::uint32_t num_parts, bool lane_by_lane)
{
    constexpr std::size_t kLines = 4096;
    VantageConfig cfg;
    cfg.numPartitions = num_parts;
    // A small unmanaged region leaves many candidate lists with no
    // unmanaged line, so the forced-eviction fallback runs often.
    cfg.unmanagedFraction = 0.02;
    cfg.candsPerAdjust = 24;
    auto ctl =
        std::make_unique<RecordingVantage>(kLines, cfg, lane_by_lane);
    RecordingVantage &v = *ctl;
    DecisionAudit audit(1 << 16);
    v.attachAudit(&audit);
    Cache cache(std::make_unique<ZArray>(kLines, 4, 52, 7),
                std::move(ctl), "l2");
    Rng rng(0x5ca9 + num_parts);
    for (int i = 0; i < 60'000; ++i) {
        // Half the stream goes to partition 0.
        const bool skew = rng.range(2) == 0;
        const auto part =
            skew ? PartId{0} : static_cast<PartId>(rng.range(num_parts));
        const Addr space = static_cast<Addr>(part + 1) << 40;
        // Footprints beyond the cache, so every run evicts.
        cache.access(space | rng.range(5000 + 1000 * (part % 4)), part);
        if (i % 4000 == 3999) {
            // Hand out the whole managed region (so candidate lists
            // often hold no unmanaged line), some slots retired.
            std::vector<std::uint64_t> targets(num_parts);
            std::uint64_t left = v.managedLines();
            for (auto &t : targets) {
                t = rng.range(5) == 0 ? 0 : rng.range(left / 2 + 1);
                left -= t;
            }
            targets[rng.range(num_parts)] += left;
            v.setTargetLines(targets);
        }
    }
    InvariantReport rep;
    cache.checkInvariants(rep);
    EXPECT_TRUE(rep.ok()) << rep.summary();

    ScanRun run;
    run.victims = v.victims;
    const VantageStats &st = v.stats();
    run.regs = {st.evictions, st.evictionsFromManaged, st.demotions,
                st.promotions, st.setpointAdjusts, v.unmanagedSize()};
    for (PartId p = 0; p < num_parts; ++p) {
        const VantagePartStats &ps = v.partStats(p);
        run.regs.insert(run.regs.end(),
                        {ps.demotions, ps.promotions, ps.hits,
                         ps.insertions, ps.forcedEvictions,
                         v.actualSize(p), v.setpointTs(p),
                         v.currentTs(p)});
    }
    audit.forEach([&](const DecisionRecord &r) {
        run.audit.insert(run.audit.end(),
                         {r.seq, r.accessesSeen,
                          static_cast<std::uint64_t>(r.kind), r.part,
                          r.targetLines, r.actualLines, r.apertureBp,
                          r.setpointTs, r.currentTs, r.candsSeen,
                          r.candsDemoted});
    });
    return run;
}

/**
 * The forced-eviction fallback scores a partition's candidates from
 * one running sum; every score must equal demotionPriority() of that
 * candidate exactly (same integers, same double division).
 */
TEST(SimdParity, GroupPrioritiesMatchDemotionPriority)
{
    constexpr std::size_t kLines = 4096;
    VantageConfig cfg;
    cfg.numPartitions = 8;
    auto ctl = std::make_unique<RecordingVantage>(kLines, cfg, false);
    RecordingVantage &v = *ctl;
    Cache cache(std::make_unique<ZArray>(kLines, 4, 52, 9),
                std::move(ctl), "l2");
    Rng rng(0x9a1);
    std::uint32_t compared = 0;
    for (int i = 0; i < 40'000; ++i) {
        const auto part = static_cast<PartId>(rng.range(8));
        cache.access((static_cast<Addr>(part + 1) << 40) |
                         rng.range(1500),
                     part);
        if (i % 100 == 99) {
            CandidateBuf cands;
            cache.array().candidates(rng.next() | 1, cands);
            compared += v.expectPrioritiesMatch(cache.array(), cands);
        }
    }
    EXPECT_GT(compared, 10'000u);
}

/**
 * Controller-level parity of the event-driven demotion scan: at every
 * dispatch level, and against the lane-by-lane serial commit, the
 * same stream must pick the same victims and end with the same
 * counters, Fig. 4 registers and decision-audit records.
 */
TEST(SimdParity, EventDrivenScanMatchesLaneByLaneCommit)
{
    LevelGuard guard;
    for (const std::uint32_t num_parts : {1u, 4u, 9u, 32u}) {
        ASSERT_TRUE(simd::setLevelForTest(simd::Level::Scalar));
        const ScanRun want = runScan(num_parts, /*lane_by_lane=*/true);
        EXPECT_GT(want.audit.size(), 0u);
        for (const simd::Level lvl : availableLevels()) {
            ASSERT_TRUE(simd::setLevelForTest(lvl));
            const ScanRun got = runScan(num_parts, false);
            const std::string what = std::string("level ") +
                                     simd::levelName(lvl) + " P=" +
                                     std::to_string(num_parts);
            EXPECT_EQ(want.victims, got.victims) << what;
            EXPECT_EQ(want.regs, got.regs) << what;
            EXPECT_EQ(want.audit, got.audit) << what;
        }
    }
}

std::uint64_t
runDigest(SchemeKind scheme, ArrayKind array)
{
    L2Spec spec;
    spec.scheme = scheme;
    spec.array = array;
    spec.lines = 8192;
    spec.numPartitions = 4;
    spec.vantage.unmanagedFraction = 0.05;
    spec.vantage.maxAperture = 0.4;
    spec.vantage.slack = 0.1;

    CmpConfig cfg = CmpConfig::small4Core();
    if (scheme == SchemeKind::VantageDrrip) {
        cfg.ucp.rripMonitors = true; // Dueling needs RRIP monitors.
    }
    const auto apps = makeMix(2, 1, 0);
    CmpSim sim(cfg, apps, buildL2(spec), /*seed=*/3);
    AccessDigest digest;
    sim.sharedL2().attachDigest(&digest);
    sim.warmup(10'000);
    sim.run(60'000);
    sim.sharedL2().finalizeDigest();
    return digest.value();
}

/**
 * Whole-simulation digest parity: the exact stream the golden suite
 * pins, in miniature, re-run at every dispatch level available here.
 * Covers the integrated paths the kernel tests cannot: lookup memo
 * reuse, the selectVictim serial-commit ordering, and LRU folds
 * feeding real evictions.
 */
TEST(SimdParity, SimulationDigestsAreLevelInvariant)
{
    LevelGuard guard;
    const struct
    {
        SchemeKind scheme;
        ArrayKind array;
    } points[] = {
        {SchemeKind::Vantage, ArrayKind::Z4_52},
        {SchemeKind::Vantage, ArrayKind::SA16},
        {SchemeKind::UnpartLru, ArrayKind::SA16},
        {SchemeKind::UnpartLru, ArrayKind::Z4_52},
        {SchemeKind::VantageDrrip, ArrayKind::Z4_16},
    };
    for (const auto &pt : points) {
        ASSERT_TRUE(simd::setLevelForTest(simd::Level::Scalar));
        const std::uint64_t want = runDigest(pt.scheme, pt.array);
        EXPECT_NE(0u, want);
        for (const simd::Level lvl : availableLevels()) {
            ASSERT_TRUE(simd::setLevelForTest(lvl));
            EXPECT_EQ(want, runDigest(pt.scheme, pt.array))
                << schemeKindName(pt.scheme) << "/"
                << arrayKindName(pt.array) << " at level "
                << simd::levelName(lvl);
        }
    }
}

} // namespace
} // namespace vantage
