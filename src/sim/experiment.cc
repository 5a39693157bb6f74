#include "sim/experiment.h"

#include <cstdlib>

#include "array/random_array.h"
#include "array/set_assoc.h"
#include "array/zarray.h"
#include "common/bits.h"
#include "common/log.h"
#include "core/vantage_variants.h"
#include "obs/metrics_service.h"
#include "partition/pipp.h"
#include "partition/unpartitioned.h"
#include "partition/way_partition.h"
#include "replacement/lru.h"
#include "replacement/rrip.h"
#include "stats/registry.h"
#include "trace/event_trace.h"

namespace vantage {

const char *
arrayKindName(ArrayKind k)
{
    switch (k) {
      case ArrayKind::Z4_52:
        return "Z4/52";
      case ArrayKind::Z4_16:
        return "Z4/16";
      case ArrayKind::SA16:
        return "SA16";
      case ArrayKind::SA64:
        return "SA64";
      case ArrayKind::Random:
        return "Rand52";
    }
    panic("bad array kind %d", static_cast<int>(k));
}

const char *
schemeKindName(SchemeKind k)
{
    switch (k) {
      case SchemeKind::UnpartLru:
        return "LRU";
      case SchemeKind::UnpartSrrip:
        return "SRRIP";
      case SchemeKind::UnpartDrrip:
        return "DRRIP";
      case SchemeKind::UnpartTaDrrip:
        return "TA-DRRIP";
      case SchemeKind::WayPart:
        return "WayPart";
      case SchemeKind::Pipp:
        return "PIPP";
      case SchemeKind::Vantage:
        return "Vantage";
      case SchemeKind::VantageDrrip:
        return "Vantage-DRRIP";
      case SchemeKind::VantageOracle:
        return "Vantage-Oracle";
    }
    panic("bad scheme kind %d", static_cast<int>(k));
}

std::string
L2Spec::name() const
{
    return std::string(schemeKindName(scheme)) + "-" +
           arrayKindName(array);
}

std::unique_ptr<CacheArray>
buildArray(const L2Spec &spec)
{
    switch (spec.array) {
      case ArrayKind::Z4_52:
        return std::make_unique<ZArray>(spec.lines, 4, 52, spec.seed);
      case ArrayKind::Z4_16:
        return std::make_unique<ZArray>(spec.lines, 4, 16, spec.seed);
      case ArrayKind::SA16:
        return std::make_unique<SetAssocArray>(spec.lines, 16, true,
                                               spec.seed);
      case ArrayKind::SA64:
        return std::make_unique<SetAssocArray>(spec.lines, 64, true,
                                               spec.seed);
      case ArrayKind::Random:
        return std::make_unique<RandomArray>(spec.lines, 52,
                                             spec.seed);
    }
    panic("bad array kind %d", static_cast<int>(spec.array));
}

std::string
arrayGeometryError(const L2Spec &spec, std::uint64_t lines)
{
    const ArrayKind kind = spec.array;
    const std::string name = arrayKindName(kind);
    const std::string n = std::to_string(lines);
    if (kind == ArrayKind::Random) {
        if (lines < 52) {
            return name + ": " + n + " lines are fewer than 52 candidates";
        }
    } else {
        const bool zcache =
            kind == ArrayKind::Z4_52 || kind == ArrayKind::Z4_16;
        const std::uint64_t ways =
            zcache ? 4 : (kind == ArrayKind::SA16 ? 16 : 64);
        if (lines % ways != 0) {
            return name + ": " + n + " lines not divisible by " +
                   std::to_string(ways) + " ways";
        }
        const std::uint64_t per_way = lines / ways;
        if (!isPow2(per_way)) {
            return name + ": " +
                   (zcache ? "lines per way " : "set count ") +
                   std::to_string(per_way) + " must be a power of two";
        }
    }
    const bool vantage = spec.scheme == SchemeKind::Vantage ||
                         spec.scheme == SchemeKind::VantageDrrip ||
                         spec.scheme == SchemeKind::VantageOracle;
    if (vantage) {
        const std::uint64_t managed = VantageController::managedLinesFor(
            lines, spec.vantage.unmanagedFraction);
        if (managed < spec.numPartitions) {
            return name + ": " + std::to_string(managed) +
                   " managed lines of " + n + " are fewer than " +
                   std::to_string(spec.numPartitions) + " partitions";
        }
    }
    return std::string();
}

namespace {

/** Associativity the DRRIP dueling monitors model. */
std::uint32_t
monitorWays(const L2Spec &spec)
{
    switch (spec.array) {
      case ArrayKind::SA16:
        return 16;
      case ArrayKind::SA64:
        return 64;
      default:
        return 16; // Stand-in geometry for zcaches.
    }
}

/** LRU flavor matched to the array: exact for SA, coarse for Z. */
std::unique_ptr<ReplPolicy>
baseLru(const L2Spec &spec)
{
    if (spec.array == ArrayKind::SA16 ||
        spec.array == ArrayKind::SA64) {
        return std::make_unique<ExactLru>();
    }
    return std::make_unique<CoarseLru>(spec.lines);
}

} // namespace

std::unique_ptr<Cache>
buildL2(const L2Spec &spec)
{
    std::unique_ptr<CacheArray> array = buildArray(spec);
    const std::uint32_t ways = array->numWays();
    const std::uint64_t lines_per_way = spec.lines / ways;

    std::unique_ptr<PartitionScheme> scheme;
    VantageConfig vcfg = spec.vantage;
    vcfg.numPartitions = spec.numPartitions;

    switch (spec.scheme) {
      case SchemeKind::UnpartLru:
        scheme = std::make_unique<Unpartitioned>(spec.numPartitions,
                                                 baseLru(spec));
        break;
      case SchemeKind::UnpartSrrip:
        scheme = std::make_unique<Unpartitioned>(
            spec.numPartitions, std::make_unique<Srrip>());
        break;
      case SchemeKind::UnpartDrrip:
        scheme = std::make_unique<Unpartitioned>(
            spec.numPartitions,
            std::make_unique<Drrip>(spec.lines, monitorWays(spec),
                                    spec.seed));
        break;
      case SchemeKind::UnpartTaDrrip:
        scheme = std::make_unique<Unpartitioned>(
            spec.numPartitions,
            std::make_unique<TaDrrip>(spec.numPartitions, spec.lines,
                                      monitorWays(spec), spec.seed));
        break;
      case SchemeKind::WayPart:
        scheme = std::make_unique<WayPartitioning>(
            spec.numPartitions, ways, lines_per_way,
            std::make_unique<ExactLru>());
        break;
      case SchemeKind::Pipp:
        scheme = std::make_unique<Pipp>(spec.numPartitions, ways,
                                        lines_per_way, spec.lines,
                                        PippConfig{}, spec.seed);
        break;
      case SchemeKind::Vantage:
        scheme = std::make_unique<VantageController>(spec.lines, vcfg);
        break;
      case SchemeKind::VantageDrrip:
        scheme = std::make_unique<VantageRrip>(spec.lines, vcfg,
                                               spec.seed);
        break;
      case SchemeKind::VantageOracle:
        scheme = std::make_unique<VantageOracle>(spec.lines, vcfg);
        break;
    }
    vantage_assert(scheme != nullptr, "no scheme built");
    return std::make_unique<Cache>(std::move(array),
                                   std::move(scheme), spec.name());
}

std::unique_ptr<BankedCache>
buildBankedL2(const L2Spec &spec, std::uint32_t banks)
{
    vantage_assert(banks > 0, "need at least one bank");
    vantage_assert(spec.lines % banks == 0,
                   "%llu lines do not split into %u banks",
                   static_cast<unsigned long long>(spec.lines),
                   banks);
    std::vector<std::unique_ptr<Cache>> bs;
    bs.reserve(banks);
    for (std::uint32_t b = 0; b < banks; ++b) {
        // Same per-bank derivation as the fuzz driver: distinct
        // array/scheme seeds per bank, per-bank share of the lines.
        L2Spec bank_spec = spec;
        bank_spec.lines = spec.lines / banks;
        bank_spec.seed = spec.seed + 0x9e37ull * (b + 1);
        bs.push_back(buildL2(bank_spec));
    }
    return std::make_unique<BankedCache>(std::move(bs),
                                         spec.seed ^ 0xba4cull);
}

RunScale
RunScale::fromEnv()
{
    RunScale scale;
    if (const char *s = std::getenv("VANTAGE_WARMUP")) {
        scale.warmupAccesses = std::strtoull(s, nullptr, 10);
    }
    if (const char *s = std::getenv("VANTAGE_INSTRS")) {
        scale.instructions = std::strtoull(s, nullptr, 10);
    }
    if (const char *s = std::getenv("VANTAGE_MIX_SEEDS")) {
        scale.mixSeedsPerClass = static_cast<std::uint32_t>(
            std::strtoul(s, nullptr, 10));
    }
    if (const char *s = std::getenv("VANTAGE_STATS_PERIOD")) {
        scale.statsPeriod = std::strtoull(s, nullptr, 10);
        if (scale.statsPeriod == 0) {
            warn_once("VANTAGE_STATS_PERIOD=0 clamped to 1");
            scale.statsPeriod = 1;
        }
    }
    if (const char *s = std::getenv("VANTAGE_JOBS")) {
        scale.jobs = static_cast<std::uint32_t>(
            std::strtoul(s, nullptr, 10));
    }
    if (const char *s = std::getenv("VANTAGE_HEARTBEAT")) {
        scale.heartbeatEvery = std::strtoull(s, nullptr, 10);
    }
    return scale;
}

MixResult
runMix(const CmpConfig &cfg, const L2Spec &spec,
       const std::vector<AppSpec> &apps, const RunScale &scale,
       const std::string &mix_name, std::uint64_t seed,
       const MixHooks &hooks)
{
    CmpSim sim(cfg, apps, buildL2(spec), seed);
    if (scale.heartbeatEvery != 0) {
        sim.setHeartbeat(scale.heartbeatEvery,
                         mix_name + "/" + spec.name());
        if (hooks.heartbeatSink) {
            sim.setHeartbeatSink(hooks.heartbeatSink);
        }
    }

    // Live metrics: the registry must outlive the service's view of
    // it, so it is scoped to the whole run and unregistered before
    // the sim is torn down.
    StatsRegistry live_reg;
    if (hooks.metrics != nullptr) {
        sim.registerLiveStats(live_reg);
        hooks.metrics->addSource(
            hooks.job.empty() ? mix_name + "/" + spec.name()
                              : hooks.job,
            &live_reg);
    }

    {
        TraceSpan span(kTraceSim, "sim.warmup");
        sim.warmup(scale.warmupAccesses);
    }
    sim.l2().resetStats();
    {
        TraceSpan span(kTraceSim, "sim.run");
        sim.run(scale.instructions);
    }

    if (hooks.metrics != nullptr) {
        hooks.metrics->removeSource(&live_reg);
    }

    MixResult result;
    result.mix = mix_name;
    result.config = spec.name();
    result.throughput = sim.throughput();
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        result.cores.push_back(sim.result(c));
    }
    return result;
}

} // namespace vantage
