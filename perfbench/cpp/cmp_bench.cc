#include "cmp_bench.h"

#include <algorithm>
#include <cmath>

#include "array/set_assoc.h"
#include "common/log.h"
#include "partition/unpartitioned.h"
#include "replacement/lru.h"
#include "sim/cmp_sim.h"
#include "stats/registry.h"
#include "workload/mixes.h"

namespace perfbench {

using namespace vantage;

namespace {

/// Mix class 5 of the paper's suite (one app per category slot, draw
/// seed 0): mcf, milc, omnetpp and bzip2 on the 4-core machine.
constexpr std::uint32_t kMixClass = 5;

/// Replays of the recorded L2 stream (warm-up included) per untraced
/// run: at least kMinReplayReps, and more (up to kMaxReplayReps) until
/// kMinReplaySeconds of replay; their windows are pooled and the
/// median normalized window reported.
constexpr int kMinReplayReps = 3;
constexpr int kMaxReplayReps = 24;
constexpr double kMinReplaySeconds = 3.0;

/// Share of --seconds the traced run spends in the untraced CmpSim
/// (the traced mirror then repeats the same work).
constexpr double kTracedShare = 0.35;

/// Full spans for 1 stepped access in 2^12 (~10 MB of trace JSON for
/// cmp4_waypart, the fastest workload).
constexpr unsigned kCmpSampleShift = 12;

} // namespace

std::unique_ptr<SharedL2>
CmpWorkload::buildL2() const
{
    if (banks > 0) {
        return buildBankedL2(spec, banks);
    }
    return std::make_unique<MonoL2>(vantage::buildL2(spec));
}

bool
isCmpWorkload(const std::string &name)
{
    return name == "cmp4_vantage" || name == "cmp4_waypart" ||
           name == "cmp32_banked";
}

CmpWorkload
cmpWorkload(const std::string &name, std::uint64_t seed)
{
    vantage_assert(isCmpWorkload(name), "unknown workload %s",
                   name.c_str());
    CmpWorkload w;
    w.name = name;
    w.seed = seed;
    const bool large = name == "cmp32_banked";
    w.cfg = large ? CmpConfig::large32Core() : CmpConfig::small4Core();
    w.apps = makeMix(kMixClass, w.cfg.numCores / 4, 0);
    w.spec.array =
        name == "cmp4_waypart" ? ArrayKind::SA16 : ArrayKind::Z4_52;
    w.spec.scheme =
        name == "cmp4_waypart" ? SchemeKind::WayPart : SchemeKind::Vantage;
    w.spec.lines = w.cfg.l2Lines();
    w.spec.numPartitions = w.cfg.numCores;
    w.spec.seed = seed + 0x5ec; // As vsim derives it from --seed.
    if (large) {
        w.banks = 4;
        w.warmupAccesses = 60'000;
        w.checkInstrs = 60'000;
        w.chunkInstrs = 20'000;
        w.beatAccesses = 512;
        w.rounds = 3; // Each round pays a 1.9M-access warm-up.
    } else {
        w.warmupAccesses = 100'000;
        w.checkInstrs = 500'000;
        w.chunkInstrs = 250'000;
        w.beatAccesses = 512;
        w.rounds = 6;
    }
    // 1200 beats per window leaves 12 batches beyond each window's p99.
    w.windowBeats = 1200;
    return w;
}

double
cmpSetupSeconds(const CmpWorkload &w)
{
    const std::uint64_t t0 = nowNs();
    CmpSim sim(w.cfg, w.apps, w.buildL2(), w.seed);
    const std::uint64_t t1 = nowNs();
    return static_cast<double>(t1 - t0) / 1e9;
}

// ----------------------------------------------------------------------

WindowEstimate
BeatWindows::estimate() const
{
    std::vector<double> rates, probes;
    std::vector<std::vector<double>> lat;
    collect(rates, probes, lat);
    return estimateWindows(rates, probes, lat);
}

void
BeatWindows::collect(std::vector<double> &rates, std::vector<double> &probes,
                     std::vector<std::vector<double>> &lat) const
{
    for (std::size_t k = 0; k + 1 < l2_.size(); ++k) {
        const std::size_t b0 = k * windowBeats_;
        const std::size_t b1 = b0 + windowBeats_;
        std::vector<double> l;
        l.reserve(windowBeats_);
        double weighted = 0.0;
        for (std::size_t j = b0; j < b1; ++j) {
            const double ns = static_cast<double>(times_[j + 1] - times_[j]);
            const double p = probeRate(kProbeSteps, beatProbeNs_[j + 1]);
            l.push_back(ns / 1000.0 * p / kProbeRefRate);
            weighted += ns * p;
        }
        const double secs =
            static_cast<double>(times_[b1] - times_[b0]) / 1e9;
        rates.push_back(static_cast<double>(l2_[k + 1] - l2_[k]) / secs);
        probes.push_back(weighted / (secs * 1e9));
        lat.push_back(std::move(l));
    }
}

// ----------------------------------------------------------------------

CmpMirror::CmpMirror(const CmpWorkload &w, LayerClock &clock,
                     L2EventLog *log)
    : w_(w), clock_(clock), l2_(w.buildL2()), l2m_(*l2_, clock, log),
      nextRepartition_(w.cfg.repartitionCycles),
      beats_(w.windowBeats)
{
    const CmpConfig &cfg = w.cfg;
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        apps_.push_back(
            std::make_unique<AppModel>(w.apps[c], c, w.seed * 7919 + c));
    }
    // The private L1s exactly as CmpSim builds them.
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        l1s_.push_back(std::make_unique<Cache>(
            std::make_unique<SetAssocArray>(cfg.l1Lines, cfg.l1Ways,
                                            true, 0x11c0de + c),
            std::make_unique<Unpartitioned>(
                1, std::make_unique<ExactLru>()),
            "l1-" + std::to_string(c)));
    }
    cores_.resize(cfg.numCores);
    heap_.reset(cfg.numCores);
    if (cfg.useUcp) {
        ucp_ = std::make_unique<Ucp>(cfg.numCores, cfg.ucp);
    }
}

CmpMirror::~CmpMirror() = default;

void
CmpMirror::step(std::uint32_t core)
{
    clock_.beginUnit();
    Core &cs = cores_[core];
    AppModel &app = *apps_[core];
    const double gap_f = app.instrPerMem() + cs.instrCarry;
    const auto gap = static_cast<std::uint64_t>(gap_f);
    cs.instrCarry = gap_f - static_cast<double>(gap);
    cs.cycle += gap;
    cs.instructions += gap + 1;
    const MemRef ref = app.next();
    clock_.mark(kWorkloadNext);

    ++clock_.counts.l1Accesses;
    const AccessResult l1 = l1s_[core]->access(ref.addr, 0, ref.type);
    clock_.mark(kL1Access);
    if (l1 == AccessResult::Hit) {
        cs.cycle += w_.cfg.l1HitLatency;
        heap_.update(core, cs.cycle);
        return;
    }

    ++clock_.counts.l1Misses;
    ++cs.l2Accesses;
    if (ucp_) {
        ucp_->observe(core, ref.addr);
        clock_.mark(kUmonObserve);
    }
    if (l2m_.access(ref.addr, core, ref.type) == AccessResult::Hit) {
        cs.cycle += w_.cfg.l2HitLatency;
        heap_.update(core, cs.cycle);
        return;
    }

    ++cs.l2Misses;
    const std::uint64_t wbs = l2m_.writebacks();
    auto service = static_cast<Cycle>(w_.cfg.memCyclesPerLine);
    if (wbs != writebacksSeen_) {
        service += static_cast<Cycle>(w_.cfg.memCyclesPerLine) *
                   (wbs - writebacksSeen_);
        writebacksSeen_ = wbs;
    }
    const Cycle start = std::max(cs.cycle, memFree_);
    memFree_ = start + service;
    cs.cycle = start + w_.cfg.memLatency;
    heap_.update(core, cs.cycle);
}

void
CmpMirror::maybeRepartition()
{
    if (!ucp_) {
        return;
    }
    const Cycle minCycle = cores_[heap_.top()].cycle;
    while (minCycle >= nextRepartition_) {
        const std::uint32_t quantum = l2m_.l2().allocationQuantum();
        if (quantum >= w_.cfg.numCores) {
            clock_.mark(kSimSchedule);
            l2m_.setAllocations(ucp_->computeAllocations(quantum, 1),
                                true);
            if (l2m_.l2().wantsBrrip()) {
                l2m_.l2().applyBrrip(ucp_->brripChoices());
            }
            ++clock_.counts.repartitions;
        }
        ucp_->nextInterval();
        nextRepartition_ += w_.cfg.repartitionCycles;
        clock_.mark(kRepartition);
    }
}

void
CmpMirror::startBeats()
{
    beating_ = true;
    beatTick_ = 0;
    beats_.start(l2Accesses());
}

void
CmpMirror::beatTick()
{
    if (beating_ && ++beatTick_ >= w_.beatAccesses) {
        beatTick_ = 0;
        beats_.beat([this] { return l2Accesses(); });
        clock_.start(); // The probe's time is left unattributed.
    }
}

std::uint64_t
CmpMirror::l2Accesses() const
{
    std::uint64_t n = 0;
    for (const Core &c : cores_) {
        n += c.l2Accesses;
    }
    return n;
}

void
CmpMirror::fillSnapshot(Core &cs)
{
    cs.snapshot.instructions = cs.instructions - cs.startInstructions;
    cs.snapshot.cycles = cs.cycle - cs.startCycle;
    cs.snapshot.l2Accesses = cs.l2Accesses - cs.startL2Accesses;
    cs.snapshot.l2Misses = cs.l2Misses - cs.startL2Misses;
}

void
CmpMirror::warmup(std::uint64_t accesses)
{
    std::vector<std::uint64_t> issued(cores_.size(), 0);
    auto remaining = static_cast<std::uint32_t>(cores_.size());
    while (remaining > 0) {
        const std::uint32_t core = heap_.top();
        step(core);
        maybeRepartition();
        beatTick();
        if (issued[core] < accesses && ++issued[core] == accesses) {
            --remaining;
        }
        clock_.mark(kSimSchedule);
    }
}

void
CmpMirror::run(std::uint64_t instructions)
{
    for (Core &cs : cores_) {
        cs.done = false;
        cs.startCycle = cs.cycle;
        cs.startInstructions = cs.instructions;
        cs.startL2Accesses = cs.l2Accesses;
        cs.startL2Misses = cs.l2Misses;
    }
    auto remaining = static_cast<std::uint32_t>(cores_.size());
    while (remaining > 0) {
        const std::uint32_t core = heap_.top();
        Core &cs = cores_[core];
        step(core);
        maybeRepartition();
        beatTick();
        if (!cs.done &&
            cs.instructions - cs.startInstructions >= instructions) {
            cs.done = true;
            fillSnapshot(cs);
            --remaining;
        }
        clock_.mark(kSimSchedule);
    }
}

double
CmpMirror::throughput() const
{
    double acc = 0.0;
    for (const Core &cs : cores_) {
        acc += cs.snapshot.ipc();
    }
    return acc;
}

// ----------------------------------------------------------------------

namespace {

/** The real simulator with heartbeat windows and a digest. */
struct LiveRun
{
    WindowEstimate est;
    double ipc = 0.0;
    std::uint64_t digest = 0;
    std::uint64_t chunks = 0;
    std::uint64_t l2Measured = 0;
    double wallSeconds = 0.0;
    std::vector<double> rates;
    std::vector<double> probes;
    std::vector<std::vector<double>> latencies;
};

/**
 * Warm up, then run checkInstrs (behind sim_ipc_sum) and further
 * chunks until `budget` seconds of measured time and 2 windows. The
 * digest is read after the checkInstrs run (`digestAtCheck`) or at
 * the end.
 */
LiveRun
runRound(const CmpWorkload &w, double budget, bool digestAtCheck)
{
    CmpSim sim(w.cfg, w.apps, w.buildL2(), w.seed);
    AccessDigest digest;
    sim.sharedL2().attachDigest(&digest);
    StatsRegistry reg;
    sim.registerLiveStats(reg);
    std::vector<std::string> paths;
    for (std::uint32_t c = 0; c < w.cfg.numCores; ++c) {
        paths.push_back("core." + std::to_string(c) + ".l2_accesses");
    }
    const auto l2Total = [&reg, &paths] {
        std::uint64_t n = 0;
        for (const std::string &p : paths) {
            n += static_cast<std::uint64_t>(reg.value(p).value_or(0.0));
        }
        return n;
    };

    sim.warmup(w.warmupAccesses);

    BeatWindows beats(w.windowBeats);
    sim.setHeartbeat(w.beatAccesses, w.name);
    sim.setHeartbeatSink(
        [&beats, &l2Total](const std::string &) { beats.beat(l2Total); });
    LiveRun r;
    const std::uint64_t l2Start = l2Total();
    const std::uint64_t t0 = nowNs();
    beats.start(l2Start);
    sim.run(w.checkInstrs);
    r.ipc = sim.throughput();
    if (digestAtCheck) {
        sim.sharedL2().finalizeDigest();
        r.digest = digest.value();
    }
    while (static_cast<double>(nowNs() - t0) / 1e9 < budget ||
           beats.windows() < 2) {
        sim.run(w.chunkInstrs);
        ++r.chunks;
    }
    r.wallSeconds = static_cast<double>(nowNs() - t0) / 1e9;
    sim.setHeartbeat(0, "");
    if (!digestAtCheck) {
        sim.sharedL2().finalizeDigest();
        r.digest = digest.value();
    }
    r.l2Measured = l2Total() - l2Start;
    beats.collect(r.rates, r.probes, r.latencies);
    r.est = estimateWindows(r.rates, r.probes, r.latencies);
    return r;
}

/**
 * The untraced measurement: w.rounds rounds of budget / w.rounds
 * seconds, each on a freshly built and warmed simulator. On the
 * reference host the median normalized window of one 5 s round varied
 * by up to ±20 % between rounds of the same run, so a run samples
 * several rounds (physical placements of the model planes, stretches
 * of host time) and pools their windows. The checked IPC and digest
 * come from the first round.
 */
LiveRun
runLive(const CmpWorkload &w, double budget)
{
    LiveRun total;
    for (std::uint32_t i = 0; i < w.rounds; ++i) {
        const LiveRun r = runRound(w, budget / w.rounds, true);
        if (i == 0) {
            total.ipc = r.ipc;
            total.digest = r.digest;
        }
        total.chunks += r.chunks;
        total.l2Measured += r.l2Measured;
        total.wallSeconds += r.wallSeconds;
        total.rates.insert(total.rates.end(), r.rates.begin(), r.rates.end());
        total.probes.insert(total.probes.end(), r.probes.begin(),
                            r.probes.end());
        total.latencies.insert(total.latencies.end(), r.latencies.begin(),
                               r.latencies.end());
    }
    total.est = estimateWindows(total.rates, total.probes, total.latencies);
    return total;
}

} // namespace

void
runCmp(const CmpWorkload &w, const RunOptions &opts, Report &report)
{
    Outcome &out = report.outcome;
    JsonObject &m = report.metrics;
    JsonObject &d = report.diagnostics;
    const auto build = [&w] { return w.buildL2(); };

    if (!opts.trace) {
        const LiveRun live = runLive(w, opts.seconds);
        out.attempted = live.l2Measured;

        // Output check: the mirror repeats warm-up + checkInstrs.
        LayerClock off;
        L2EventLog log;
        CmpMirror mirror(w, off, &log);
        mirror.warmup(w.warmupAccesses);
        mirror.run(w.checkInstrs);
        out.check(mirror.digest() == live.digest,
                  "mirror digest " + hexDigest(mirror.digest()) +
                      " != CmpSim digest " + hexDigest(live.digest));
        out.check(mirror.throughput() == live.ipc,
                  "mirror sim_ipc_sum differs from CmpSim");
        out.check(live.est.minBeyondP99 >= 10,
                  "fewer than 10 batches beyond a window's p99");

        // The recorded L2 stream, replayed with UCP through a fresh L2.
        std::vector<double> rates, probes;
        double replaySeconds = 0.0;
        for (int i = 0; i < kMaxReplayReps &&
                        (i < kMinReplayReps ||
                         replaySeconds < kMinReplaySeconds);
             ++i) {
            const ReplayResult rr = replayL2Log(
                log, build, std::make_unique<Ucp>(w.cfg.numCores, w.cfg.ucp));
            out.check(rr.digest == live.digest && !rr.allocMismatch,
                      "L2 replay diverged from CmpSim");
            rates.insert(rates.end(), rr.windowRates.begin(),
                         rr.windowRates.end());
            probes.insert(probes.end(), rr.probeRates.begin(),
                          rr.probeRates.end());
            replaySeconds += rr.seconds;
        }
        const WindowEstimate replay = estimateWindows(rates, probes, {});
        m.num("l2_accesses_per_s", live.est.rate);
        m.num("batch_p50_us", live.est.p50);
        m.num("batch_p99_us", live.est.p99);
        m.num("replay_accesses_per_s", replay.rate);
        m.num("peak_rss_mb", peakRssMb());

        d.num("wall_s", live.wallSeconds);
        d.num("sim_ipc_sum", live.ipc);
        d.str("digest", hexDigest(live.digest));
        d.num("chunks", static_cast<double>(live.chunks));
        addWindowDiagnostics(d, "", live.est);
        addWindowDiagnostics(d, "replay_", replay);
        return;
    }

    // Traced run: the untraced CmpSim, then the traced mirror over the
    // same calls; per-layer numbers come from the mirror only.
    const LiveRun live = runRound(w, opts.seconds * kTracedShare, false);
    LayerClock clock(false, kCmpSampleShift);
    L2EventLog log;
    CmpMirror mirror(w, clock, &log);
    mirror.warmup(w.warmupAccesses);
    clock.counts = LayerCounts{};
    clock.setEnabled(true);
    mirror.startBeats();
    clock.start();
    mirror.run(w.checkInstrs);
    const double mirrorIpc = mirror.throughput();
    for (std::uint64_t i = 0; i < live.chunks; ++i) {
        mirror.run(w.chunkInstrs);
    }
    clock.stop();
    clock.setEnabled(false);
    out.attempted = live.l2Measured;
    out.check(mirror.digest() == live.digest,
              "traced mirror digest " + hexDigest(mirror.digest()) +
                  " != CmpSim digest " + hexDigest(live.digest));
    out.check(mirrorIpc == live.ipc,
              "traced mirror sim_ipc_sum differs from CmpSim");
    const ReplayResult rr = replayL2Log(log, build, nullptr);
    out.check(rr.digest == live.digest, "L2-only replay diverged");

    const WindowEstimate traced = mirror.beats().estimate();
    const LayerCounts &c = clock.counts;
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    reportLayers(&clock, m);
    m.num("cache.l1_miss_ratio", ratio(c.l1Misses, c.l1Accesses));
    m.num("cache.l2_hit_ratio", ratio(c.l2Hits, c.l2Accesses));
    m.num("array.walk_candidates", ratio(c.walkCandidates, c.walks));
    m.num("core.demotions_per_miss",
          ratio(c.demotions, c.l2Accesses - c.l2Hits));
    m.num("alloc.repartitions", static_cast<double>(c.repartitions));
    m.num("cache.l2_replay_accesses_per_s", replayRate(rr));
    m.num("sim.ipc_sum", live.ipc);
    m.num("trace.overhead_ratio", live.est.rate / traced.rate);
    // Serve-only layers are absent here.
    m.num("serve.join_refused", 0.0);
    m.num("serve.server_batch_p50_us", 0.0);
    m.num("serve.server_batch_p99_us", 0.0);
    m.num("serve.queue_wait_us", 0.0);
    m.num("serve.journal_read_ns", 0.0);

    const std::string tracePath =
        opts.outDir + "/" + w.name + "-seed" + std::to_string(opts.seed) +
        ".trace.json";
    out.check(clock.writeChromeTrace(tracePath, "perfbench " + w.name),
              "cannot write " + tracePath);
    d.str("trace_file", tracePath);
    d.num("wall_s", live.wallSeconds);
    d.str("digest", hexDigest(live.digest));
    d.num("chunks", static_cast<double>(live.chunks));
    addWindowDiagnostics(d, "untraced_", live.est);
    addWindowDiagnostics(d, "traced_", traced);
}

} // namespace perfbench
