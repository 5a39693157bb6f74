/**
 * @file
 * Tests for the extension features: trace replay, dirty-line /
 * writeback modeling, churn throttling (Sec. 3.4 option 2), and
 * gradual resizing (Sec. 3.4 transients).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "array/random_array.h"
#include "array/set_assoc.h"
#include "array/zarray.h"
#include "cache/cache.h"
#include "common/rng.h"
#include "core/resizer.h"
#include "core/vantage.h"
#include "partition/unpartitioned.h"
#include "replacement/lru.h"
#include "sim/cmp_sim.h"
#include "workload/trace_stream.h"

namespace vantage {
namespace {

// ---------------------------------------------------------------
// TraceStream
// ---------------------------------------------------------------

TEST(TraceStream, ParsesAddressesAndTypes)
{
    std::istringstream in("# a comment\n"
                          "# instr_per_mem 2.5\n"
                          "1a L\n"
                          "1b S\n"
                          "\n"
                          "1c\n");
    TraceStream trace = TraceStream::fromStream(in, "t");
    EXPECT_EQ(trace.records(), 3u);
    EXPECT_DOUBLE_EQ(trace.instrPerMem(), 2.5);

    const MemRef a = trace.next();
    EXPECT_EQ(a.addr, 0x1au);
    EXPECT_EQ(a.type, AccessType::Load);
    const MemRef b = trace.next();
    EXPECT_EQ(b.addr, 0x1bu);
    EXPECT_EQ(b.type, AccessType::Store);
    const MemRef c = trace.next();
    EXPECT_EQ(c.addr, 0x1cu);
    EXPECT_EQ(c.type, AccessType::Load);
}

TEST(TraceStream, LoopsAtEnd)
{
    std::istringstream in("10 L\n20 S\n");
    TraceStream trace = TraceStream::fromStream(in, "t");
    EXPECT_EQ(trace.next().addr, 0x10u);
    EXPECT_EQ(trace.next().addr, 0x20u);
    EXPECT_EQ(trace.next().addr, 0x10u); // Wrapped.
}

TEST(TraceStreamDeath, EmptyTraceIsFatal)
{
    std::istringstream in("# nothing but comments\n");
    EXPECT_EXIT(TraceStream::fromStream(in, "t"),
                ::testing::ExitedWithCode(1), "no references");
}

TEST(TraceStreamDeath, BadAddressIsFatal)
{
    std::istringstream in("zzz L\n");
    EXPECT_EXIT(TraceStream::fromStream(in, "t"),
                ::testing::ExitedWithCode(1), "bad address");
}

TEST(TraceStreamDeath, BadTypeIsFatal)
{
    std::istringstream in("10 X\n");
    EXPECT_EXIT(TraceStream::fromStream(in, "t"),
                ::testing::ExitedWithCode(1), "bad access type");
}

TEST(TraceStreamDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(TraceStream::fromFile("/nonexistent/trace.txt"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceStream, DrivesTheSimulator)
{
    // Two cores replaying traces: one loops over 4 hot lines (hits),
    // one streams 4096 distinct lines.
    std::ostringstream hot;
    hot << "# instr_per_mem 2\n";
    for (int i = 0; i < 4; ++i) {
        hot << std::hex << (0x1000 + i) << " L\n";
    }
    std::ostringstream cold;
    cold << "# instr_per_mem 2\n";
    for (int i = 0; i < 4096; ++i) {
        cold << std::hex << (0x100000 + i) << " S\n";
    }

    std::vector<std::unique_ptr<AccessStream>> streams;
    std::istringstream hot_in(hot.str()), cold_in(cold.str());
    streams.push_back(std::make_unique<TraceStream>(
        TraceStream::fromStream(hot_in, "hot")));
    streams.push_back(std::make_unique<TraceStream>(
        TraceStream::fromStream(cold_in, "cold")));

    CmpConfig cfg = CmpConfig::small4Core();
    cfg.numCores = 2;
    cfg.useUcp = false;

    VantageConfig vcfg;
    vcfg.numPartitions = 2;
    vcfg.unmanagedFraction = 0.1;
    auto l2 = std::make_unique<Cache>(
        std::make_unique<ZArray>(8192, 4, 52, 1),
        std::make_unique<VantageController>(8192, vcfg), "l2");

    CmpSim sim(cfg, std::move(streams), std::move(l2));
    sim.warmup(5'000);
    sim.run(60'000);
    // The hot-loop core runs near IPC 1; the streamer is memory-bound.
    EXPECT_GT(sim.result(0).ipc(), 0.8);
    EXPECT_LT(sim.result(1).ipc(), 0.5);
}

// ---------------------------------------------------------------
// Dirty lines / writebacks
// ---------------------------------------------------------------

TEST(Writebacks, StoreMarksDirtyAndEvictionCounts)
{
    // 1-set, 2-way cache: deterministic evictions.
    Cache cache(std::make_unique<SetAssocArray>(2, 2, false),
                std::make_unique<Unpartitioned>(
                    1, std::make_unique<ExactLru>()),
                "c");
    cache.access(1, 0, AccessType::Store);
    cache.access(2, 0, AccessType::Load);
    EXPECT_EQ(cache.writebacks(), 0u);
    cache.access(3, 0, AccessType::Load); // Evicts dirty line 1.
    EXPECT_EQ(cache.writebacks(), 1u);
    cache.access(4, 0, AccessType::Load); // Evicts clean line 2.
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Writebacks, HitUpgradesToDirty)
{
    Cache cache(std::make_unique<SetAssocArray>(2, 2, false),
                std::make_unique<Unpartitioned>(
                    1, std::make_unique<ExactLru>()),
                "c");
    cache.access(1, 0, AccessType::Load);
    cache.access(1, 0, AccessType::Store); // Hit; now dirty.
    cache.access(2, 0, AccessType::Load);
    cache.access(3, 0, AccessType::Load); // Evicts 1.
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Writebacks, ZcacheRelocationCarriesDirtyBit)
{
    ZArray arr(512, 4, 16, 3);
    Rng rng(5);
    CandidateBuf cands;
    // Fill with dirty lines, relocating aggressively.
    for (int i = 0; i < 20000; ++i) {
        const Addr a = (rng.next() >> 8) % 2048 + 1;
        if (arr.lookup(a) != kInvalidLine) continue;
        arr.candidates(a, cands);
        const auto victim =
            static_cast<std::int32_t>(rng.range(cands.size()));
        const LineId root = arr.replace(a, cands, victim);
        arr.cold(root).dirty = true;
    }
    // Every resident line must still be dirty, wherever it moved
    // (relocations carry the cold plane along with the hot tags).
    for (LineId s = 0; s < 512; ++s) {
        if (arr.line(s).valid()) {
            EXPECT_TRUE(arr.cold(s).dirty);
        }
    }
}

TEST(Writebacks, ResetClearsCounter)
{
    Cache cache(std::make_unique<SetAssocArray>(2, 2, false),
                std::make_unique<Unpartitioned>(
                    1, std::make_unique<ExactLru>()),
                "c");
    cache.access(1, 0, AccessType::Store);
    cache.access(2, 0, AccessType::Load);
    cache.access(3, 0, AccessType::Load);
    ASSERT_EQ(cache.writebacks(), 1u);
    cache.resetStats();
    EXPECT_EQ(cache.writebacks(), 0u);
}

// ---------------------------------------------------------------
// Churn throttling (Sec. 3.4, stability option 2)
// ---------------------------------------------------------------

TEST(ChurnThrottle, CapsPartitionAtSlackBand)
{
    constexpr std::size_t kLines = 8192;
    VantageConfig cfg;
    cfg.numPartitions = 2;
    cfg.unmanagedFraction = 0.25;
    cfg.maxAperture = 0.4;
    cfg.slack = 0.1;
    cfg.throttleHighChurn = true;
    auto ctl = std::make_unique<VantageController>(kLines, cfg);
    VantageController &c = *ctl;
    const std::uint64_t m = c.managedLines();
    c.setTargetLines({64, m - 64});

    Cache cache(std::make_unique<RandomArray>(kLines, 52, 7),
                std::move(ctl), "l2");
    Rng rng(9);
    // Warm partition 1 to its share, then thrash tiny partition 0.
    for (std::uint64_t i = 0; i < 8 * m; ++i) {
        cache.access((2ull << 40) | (rng.next() >> 16), 1);
    }
    for (int i = 0; i < 300000; ++i) {
        cache.access((1ull << 40) | (rng.next() >> 16), 0);
    }

    // Unlike the borrow-to-MSS default, the throttled partition is
    // pinned near (1 + slack) * target instead of growing to
    // ~1/(Amax R) of the cache.
    EXPECT_LE(c.actualSize(0), 64 + 64 / 10 + 16);
    EXPECT_GT(c.partStats(0).throttledInserts, 10000u);
}

TEST(ChurnThrottle, InactiveBelowSlackBand)
{
    constexpr std::size_t kLines = 4096;
    VantageConfig cfg;
    cfg.numPartitions = 1;
    cfg.unmanagedFraction = 0.25;
    cfg.throttleHighChurn = true;
    auto ctl = std::make_unique<VantageController>(kLines, cfg);
    VantageController &c = *ctl;
    Cache cache(std::make_unique<RandomArray>(kLines, 52, 7),
                std::move(ctl), "l2");
    Rng rng(11);
    // Working set below target: no throttling should occur.
    for (int i = 0; i < 50000; ++i) {
        cache.access((1ull << 40) | rng.range(c.targetSize(0) / 2),
                     0);
    }
    EXPECT_EQ(c.partStats(0).throttledInserts, 0u);
}

// ---------------------------------------------------------------
// GradualResizer
// ---------------------------------------------------------------

TEST(GradualResizer, StepsTowardGoals)
{
    VantageConfig cfg;
    cfg.numPartitions = 2;
    cfg.unmanagedFraction = 0.5;
    VantageController ctl(2048, cfg);
    const std::uint64_t m = ctl.managedLines();
    ctl.setTargetLines({m / 2, m / 2});

    GradualResizer resizer(ctl, 64);
    resizer.setGoals({m / 2 - 256, m / 2 + 256});

    EXPECT_FALSE(resizer.step());
    EXPECT_EQ(ctl.targetSize(0), m / 2 - 64);
    EXPECT_EQ(ctl.targetSize(1), m / 2 + 64);
    for (int i = 0; i < 2; ++i) {
        EXPECT_FALSE(resizer.step());
    }
    EXPECT_TRUE(resizer.step());
    EXPECT_EQ(ctl.targetSize(0), m / 2 - 256);
    EXPECT_EQ(ctl.targetSize(1), m / 2 + 256);
    EXPECT_TRUE(resizer.step()); // Idempotent at the goals.
}

TEST(GradualResizer, TotalNeverExceedsManaged)
{
    VantageConfig cfg;
    cfg.numPartitions = 3;
    cfg.unmanagedFraction = 0.5;
    VantageController ctl(4096, cfg);
    const std::uint64_t m = ctl.managedLines();
    ctl.setTargetLines({m, 0, 0});

    GradualResizer resizer(ctl, 100);
    resizer.setGoals({0, m / 2, m - m / 2});
    for (int i = 0; i < 50; ++i) {
        resizer.step();
        std::uint64_t total = 0;
        for (PartId p = 0; p < 3; ++p) {
            total += ctl.targetSize(p);
        }
        ASSERT_LE(total, m);
    }
    EXPECT_EQ(ctl.targetSize(0), 0u);
    EXPECT_EQ(ctl.targetSize(1), m / 2);
    EXPECT_EQ(ctl.targetSize(2), m - m / 2);
}

TEST(GradualResizerDeath, OversizedGoalsPanic)
{
    VantageConfig cfg;
    cfg.numPartitions = 1;
    cfg.unmanagedFraction = 0.5;
    VantageController ctl(1024, cfg);
    GradualResizer resizer(ctl, 10);
    EXPECT_DEATH(resizer.setGoals({100000}), "exceed");
}

} // namespace
} // namespace vantage
