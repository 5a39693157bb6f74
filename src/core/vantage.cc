#include "core/vantage.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/bits.h"
#include "common/log.h"
#include "simd/simd.h"
#include "stats/prof.h"
#include "stats/registry.h"

namespace vantage {

VantageController::VantageController(std::size_t num_lines,
                                     const VantageConfig &cfg)
    : cfg_(cfg), numLines_(num_lines)
{
    vantage_assert(cfg.numPartitions >= 1, "need at least 1 partition");
    vantage_assert(cfg.unmanagedFraction > 0.0 &&
                   cfg.unmanagedFraction < 1.0,
                   "u=%f out of range", cfg.unmanagedFraction);
    vantage_assert(cfg.maxAperture > 0.0 && cfg.maxAperture <= 1.0,
                   "Amax=%f out of range", cfg.maxAperture);
    vantage_assert(cfg.slack > 0.0, "slack must be positive");
    vantage_assert(cfg.thresholdEntries >= 1, "need threshold entries");

    managedLines_ = managedLinesFor(num_lines, cfg.unmanagedFraction);
    vantage_assert(managedLines_ >= cfg.numPartitions,
                   "managed region too small for %u partitions",
                   cfg.numPartitions);
    const std::uint64_t unmanaged_target = numLines_ - managedLines_;
    unmanagedTickPeriod_ = std::max<std::uint64_t>(
        unmanaged_target / 16, 1);

    parts_.resize(cfg.numPartitions);
    partStats_.resize(cfg.numPartitions);
    judge_.resize(cfg.numPartitions);
    laneScratch_.assign(cfg.numPartitions, 0);
    for (auto &ps : parts_) {
        ps.thrSize.resize(cfg.thresholdEntries, 0);
        ps.thrDems.resize(cfg.thresholdEntries, 0);
    }

    // Default: equal split of the managed region.
    std::vector<std::uint64_t> targets(
        cfg.numPartitions, managedLines_ / cfg.numPartitions);
    targets[0] += managedLines_ % cfg.numPartitions;
    setTargetLines(targets);
}

std::uint64_t
VantageController::managedLinesFor(std::uint64_t num_lines, double u)
{
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(num_lines) * (1.0 - u)));
}

void
VantageController::setAllocations(
    const std::vector<std::uint32_t> &units)
{
    vantage_assert(units.size() == cfg_.numPartitions,
                   "got %zu allocations for %u partitions",
                   units.size(), cfg_.numPartitions);
    const std::uint64_t total =
        std::accumulate(units.begin(), units.end(), std::uint64_t{0});
    vantage_assert(total <= allocationQuantum(),
                   "allocations total %llu units, quantum is %u",
                   static_cast<unsigned long long>(total),
                   allocationQuantum());
    std::vector<std::uint64_t> lines(units.size());
    for (std::size_t p = 0; p < units.size(); ++p) {
        lines[p] = managedLines_ * units[p] / allocationQuantum();
    }
    setTargetLines(lines);
}

void
VantageController::setTargetLines(
    const std::vector<std::uint64_t> &lines)
{
    vantage_assert(lines.size() == cfg_.numPartitions,
                   "got %zu targets for %u partitions", lines.size(),
                   cfg_.numPartitions);
    const std::uint64_t total =
        std::accumulate(lines.begin(), lines.end(), std::uint64_t{0});
    if (total > managedLines_) {
        fatal("targets total %llu lines, managed region has %llu",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(managedLines_));
    }
    for (PartId p = 0; p < cfg_.numPartitions; ++p) {
        const std::uint64_t before = parts_[p].targetSize;
        parts_[p].targetSize = lines[p];
        rebuildThresholds(p);
        if (lines[p] != before) {
            recordVantageDecision(DecisionKind::Repartition, p);
        }
    }
}

void
VantageController::deletePartition(PartId part)
{
    vantage_assert(part < cfg_.numPartitions,
                   "partition %u out of range", part);
    const std::uint64_t before = parts_[part].targetSize;
    parts_[part].targetSize = 0;
    rebuildThresholds(part);
    if (before != 0) {
        recordVantageDecision(DecisionKind::Repartition, part);
    }
}

void
VantageController::onPartitionDestroy(PartId part)
{
    // Sec. 3.4 deletion: target 0 puts every resident line outside
    // the keep window, so the slot drains at full aperture through
    // the unmanaged region.
    deletePartition(part);
}

void
VantageController::onPartitionCreate(PartId part)
{
    vantage_assert(part < cfg_.numPartitions,
                   "partition %u out of range", part);
    PartState &ps = parts_[part];
    // Fresh control registers for the new tenant. ActualSize and
    // tsHist are deliberately kept: they describe lines still
    // resident from the previous occupant (lazy drain), which the
    // new tenant inherits — resetting them would break conservation.
    ps.currentTs = 0;
    ps.setpointTs = 0;
    ps.accessCounter = 0;
    judge_[part].candsSeen = 0;
    ps.candsDemoted = 0;
    ps.targetSize = 0;
    rebuildThresholds(part);
    partStats_[part] = VantagePartStats{};
    if (!hists_.empty()) {
        VantagePartHists &h = hists_[part];
        h.apertureBp.reset();
        h.demotionAge.reset();
        h.evictionAge.reset();
        h.demotionGap.reset();
        h.lastDemotionAccess = accessesSeen_;
    }
}

void
VantageController::rebuildThresholds(PartId part)
{
    // Fig. 3c: entry k covers sizes in
    //   [T * (1 + slack*k/n), T * (1 + slack*(k+1)/n))
    // (the last entry extends upward), and allows
    //   c * Amax * (k+1)/n
    // demotions per c candidates seen — a staircase approximation of
    // the linear transfer function of Eq. 7.
    PartState &ps = parts_[part];
    const auto n = static_cast<double>(cfg_.thresholdEntries);
    // The slack band [T, (1+slack)T] is split across the first n-1
    // boundaries; the last entry covers everything above it (as in
    // the paper's example: 1000/1033/1066/1100 for n = 4).
    const double span = cfg_.thresholdEntries > 1 ? n - 1.0 : 1.0;
    const auto t = static_cast<double>(ps.targetSize);
    const double c_amax =
        static_cast<double>(cfg_.candsPerAdjust) * cfg_.maxAperture;
    for (std::uint32_t k = 0; k < cfg_.thresholdEntries; ++k) {
        ps.thrSize[k] = static_cast<std::uint64_t>(
            std::llround(t * (1.0 + cfg_.slack *
                                        static_cast<double>(k) /
                                        span)));
        ps.thrDems[k] = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(std::llround(
                   c_amax * static_cast<double>(k + 1) / n)));
    }
    syncJudge(part);
}

std::uint16_t
VantageController::judgeThreshold(const PartState &ps) const
{
    // Demotable = over target and outside [SetpointTS, CurrentTS]
    // (shouldDemote): the threshold is the keep window's width, 0
    // for a target-0 drain, 256 (never) at or under target. Variants
    // decide through their hooks, so the judge flags every lane.
    if (!fastDemote_) {
        return 0;
    }
    if (ps.actualSize <= ps.targetSize) {
        return 256;
    }
    if (ps.targetSize == 0) {
        return 0;
    }
    return static_cast<std::uint16_t>(modDist(
        ps.setpointTs, static_cast<std::uint8_t>(ps.currentTs + 1), 8));
}

void
VantageController::syncJudge(PartId part)
{
    const PartState &ps = parts_[part];
    judge_[part].threshold = judgeThreshold(ps);
    judge_[part].setpoint = ps.setpointTs;
}

void
VantageController::useDemotionHooks()
{
    fastDemote_ = false;
    for (PartId p = 0; p < cfg_.numPartitions; ++p) {
        syncJudge(p);
    }
}

void
VantageController::noteAccess()
{
    ++accessesSeen_;
    if (trace_ != nullptr && trace_->due(accessesSeen_)) {
        sampleTrace();
    }
}

void
VantageController::sampleTrace()
{
    for (PartId p = 0; p < cfg_.numPartitions; ++p) {
        const PartState &ps = parts_[p];
        TraceSample s;
        s.access = accessesSeen_;
        s.part = p;
        s.targetSize = ps.targetSize;
        s.actualSize = ps.actualSize;
        s.aperture = apertureOf(ps);
        s.currentTs = ps.currentTs;
        s.setpointTs = ps.setpointTs;
        s.candsSeen = judge_[p].candsSeen;
        s.candsDemoted = ps.candsDemoted;
        s.demotions = partStats_[p].demotions;
        s.promotions = partStats_[p].promotions;
        trace_->record(s);
    }
}

void
VantageController::tickAccessCounter(PartId part)
{
    PartState &ps = parts_[part];
    const std::uint64_t period =
        std::max<std::uint64_t>(ps.actualSize / 16, 1);
    if (++ps.accessCounter >= period) {
        ps.accessCounter = 0;
        ++ps.currentTs;
        // Keep the setpoint at a constant distance (Sec. 4.2).
        ++ps.setpointTs;
        syncJudge(part);
    }
}

void
VantageController::tickUnmanagedTs()
{
    if (++demotionsSinceTick_ >= unmanagedTickPeriod_) {
        demotionsSinceTick_ = 0;
        ++unmanagedTs_;
    }
}

bool
VantageController::inKeepWindow(const PartState &ps,
                                std::uint8_t ts) const
{
    // Keep lines whose timestamp lies in [SetpointTS, CurrentTS]
    // (Fig. 3b); everything outside is demotable.
    return inModRange(ts, ps.setpointTs,
                      static_cast<std::uint8_t>(ps.currentTs + 1), 8);
}

std::uint32_t
VantageController::desiredDemotions(const PartState &ps) const
{
    // The last lookup-table entry whose size bound does not exceed
    // ActualSize gives the allowed demotions per c candidates.
    std::uint32_t desired = 0;
    if (ps.actualSize > ps.targetSize) {
        for (std::uint32_t k = 0; k < cfg_.thresholdEntries; ++k) {
            if (ps.actualSize >= ps.thrSize[k]) {
                desired = ps.thrDems[k];
            }
        }
    }
    return desired;
}

void
VantageController::adjustSetpoint(PartId part)
{
    PartState &ps = parts_[part];
    ++stats_.setpointAdjusts;
    const std::uint32_t desired = desiredDemotions(ps);

    if (!hists_.empty()) {
        hists_[part].apertureBp.add(static_cast<std::uint64_t>(
            std::llround(apertureOf(ps) * 1e4)));
    }
#ifdef VANTAGE_TRACE_ENABLED
    if (TraceSession::instance().enabled(kTraceVantage)) {
        if (traceCounterNames_.empty()) {
            traceCounterNames_.resize(cfg_.numPartitions);
            for (PartId p = 0; p < cfg_.numPartitions; ++p) {
                traceCounterNames_[p] = TraceSession::instance().intern(
                    "vantage.aperture.part" + std::to_string(p));
            }
        }
        traceCounter(kTraceVantage, traceCounterNames_[part],
                     "aperture", apertureOf(ps));
        traceInstant(kTraceVantage, "vantage.setpoint_adjust", "part",
                     static_cast<double>(part));
    }
#endif

    const std::uint32_t window =
        modDist(ps.setpointTs,
                static_cast<std::uint8_t>(ps.currentTs + 1), 8);
    if (ps.candsDemoted > desired) {
        // Too many demotions: widen the keep window.
        if (window < 255) {
            --ps.setpointTs;
            recordVantageDecision(DecisionKind::SetpointWiden, part);
        }
    } else if (ps.candsDemoted < desired) {
        // Too few: shrink the keep window toward zero width.
        if (window > 0) {
            ++ps.setpointTs;
            recordVantageDecision(DecisionKind::SetpointShrink, part);
        }
    }
    judge_[part].candsSeen = 0;
    ps.candsDemoted = 0;
}

bool
VantageController::shouldDemote(PartId part, const PartState &ps,
                                const Line &line) const
{
    (void)part;
    if (ps.actualSize <= ps.targetSize) {
        return false;
    }
    // A deleted partition (target 0) drains at full aperture.
    return ps.targetSize == 0 || !inKeepWindow(ps, line.rank);
}

std::uint8_t
VantageController::insertionRank(PartId part)
{
    return parts_[part].currentTs;
}

std::uint8_t
VantageController::hitRank(PartId part, std::uint8_t old_rank)
{
    (void)old_rank;
    return parts_[part].currentTs;
}

void
VantageController::onDemotionCheckKept(PartId part, Line &line)
{
    (void)part;
    (void)line;
}

void
VantageController::recordVantageDecision(DecisionKind kind, PartId part)
{
    DecisionAudit *const a = audit();
    if (a == nullptr) {
        return;
    }
    const PartState &ps = parts_[part];
    DecisionRecord rec;
    rec.kind = kind;
    rec.part = part;
    rec.accessesSeen = accessesSeen_;
    rec.targetLines = ps.targetSize;
    rec.actualLines = ps.actualSize;
    rec.apertureBp = static_cast<std::uint32_t>(
        std::llround(apertureOf(ps) * 1e4));
    rec.setpointTs = ps.setpointTs;
    rec.currentTs = ps.currentTs;
    rec.candsSeen = judge_[part].candsSeen;
    rec.candsDemoted = ps.candsDemoted;
    a->record(rec);
}

double
VantageController::apertureOf(const PartState &ps) const
{
    // Eq. 7: linear in the outgrowth, clamped at Amax.
    if (ps.targetSize == 0) {
        return ps.actualSize > 0 ? cfg_.maxAperture : 0.0;
    }
    if (ps.actualSize <= ps.targetSize) {
        return 0.0;
    }
    const double overshoot =
        static_cast<double>(ps.actualSize - ps.targetSize) /
        static_cast<double>(ps.targetSize);
    if (overshoot >= cfg_.slack) {
        return cfg_.maxAperture;
    }
    return cfg_.maxAperture * overshoot / cfg_.slack;
}

double
VantageController::demotionPriority(const PartState &ps,
                                    std::uint8_t ts) const
{
    // Fraction of the partition's lines *younger* than this line —
    // i.e. the share the policy would rather keep. 1.0 would be the
    // globally oldest line.
    if (ps.actualSize == 0) {
        return 1.0;
    }
    const std::uint32_t age = modDist(ts, ps.currentTs, 8);
    std::uint64_t younger = 0;
    for (std::uint32_t a = 0; a < age; ++a) {
        younger += ps.tsHist[static_cast<std::uint8_t>(
            ps.currentTs - a)];
    }
    return std::min(1.0, static_cast<double>(younger) /
                             static_cast<double>(ps.actualSize));
}

void
VantageController::groupPriorities(const PartState &ps,
                                   std::uint64_t lanes,
                                   const Line *lines,
                                   const Candidate *cands,
                                   double *prio) const
{
    // demotionPriority() of every lane from one sweep: younger[a]
    // counts the lines younger than age a, built up to the oldest
    // lane's age. Same integers, same division, same doubles.
    std::uint32_t ages[CandidateBuf::kCapacity];
    std::uint32_t max_age = 0;
    for (std::uint64_t m = lanes; m != 0; m &= m - 1) {
        const auto i = static_cast<std::uint32_t>(__builtin_ctzll(m));
        ages[i] = modDist(lines[cands[i].slot].rank, ps.currentTs, 8);
        max_age = std::max(max_age, ages[i]);
    }
    std::uint64_t younger[256];
    younger[0] = 0;
    for (std::uint32_t a = 0; a < max_age; ++a) {
        younger[a + 1] =
            younger[a] +
            ps.tsHist[static_cast<std::uint8_t>(ps.currentTs - a)];
    }
    for (std::uint64_t m = lanes; m != 0; m &= m - 1) {
        const auto i = static_cast<std::uint32_t>(__builtin_ctzll(m));
        prio[i] = ps.actualSize == 0
                      ? 1.0
                      : std::min(1.0,
                                 static_cast<double>(younger[ages[i]]) /
                                     static_cast<double>(ps.actualSize));
    }
}

void
VantageController::demote(Line &line, PartId from)
{
    PartState &ps = parts_[from];
    if (!hists_.empty()) {
        VantagePartHists &h = hists_[from];
        h.demotionAge.add(modDist(line.rank, ps.currentTs, 8));
        h.demotionGap.add(accessesSeen_ - h.lastDemotionAccess);
        h.lastDemotionAccess = accessesSeen_;
    }
    VANTAGE_TRACE_INSTANT(kTraceVantage, "vantage.demote", "part",
                          from);
    vantage_assert(ps.tsHist[line.rank] > 0,
                   "timestamp histogram underflow in partition %u",
                   from);
    --ps.tsHist[line.rank];
    vantage_assert(ps.actualSize > 0, "demotion from empty partition");
    --ps.actualSize;
    ++ps.candsDemoted;
    ++partStats_[from].demotions;
    ++stats_.demotions;

    line.part = kUnmanagedPart;
    line.rank = unmanagedTs_;
    ++unmanagedSize_;
    tickUnmanagedTs();
}

void
VantageController::onHit(CacheArray &array, LineId slot,
                         PartId accessor)
{
    Line &line = array.line(slot);
    vantage_assert(accessor < cfg_.numPartitions,
                   "accessor %u out of range", accessor);
    noteAccess();
    if (line.part == kUnmanagedPart) {
        // Promotion: the line rejoins the accessor's partition.
        VANTAGE_TRACE_INSTANT(kTraceVantage, "vantage.promote", "part",
                              accessor);
        PartState &ps = parts_[accessor];
        line.part = accessor;
        line.rank = hitRank(accessor, 0);
        ++ps.tsHist[line.rank];
        ++ps.actualSize;
        vantage_assert(unmanagedSize_ > 0,
                       "promotion from empty unmanaged region");
        --unmanagedSize_;
        ++partStats_[accessor].promotions;
        ++stats_.promotions;
        ++partStats_[accessor].hits;
        tickAccessCounter(accessor);
        syncJudge(accessor);
        return;
    }

    vantage_assert(line.part < cfg_.numPartitions,
                   "hit on line with bad partition %u", line.part);
    PartState &ps = parts_[line.part];
    vantage_assert(ps.tsHist[line.rank] > 0,
                   "timestamp histogram underflow in partition %u",
                   line.part);
    --ps.tsHist[line.rank];
    line.rank = hitRank(line.part, line.rank);
    ++ps.tsHist[line.rank];
    ++partStats_[line.part].hits;
    tickAccessCounter(line.part);
}

VictimChoice
VantageController::selectVictim(CacheArray &array, PartId inserting,
                                Addr addr, const CandidateBuf &cands)
{
    (void)inserting;
    (void)addr;
    VANTAGE_PROF("vantage.select_victim");
    VANTAGE_TRACE_SPAN(kTraceVantage, "vantage.select_victim");

    std::int32_t oldest_unmanaged = -1;
    std::uint32_t oldest_age = 0;
    std::int32_t first_demoted = -1;
    PartId first_demoted_part = 0;

    Line *const lines = array.linesData();
    const Candidate *const cv = cands.data();
    const std::uint32_t cands_per_adjust = cfg_.candsPerAdjust;
    EmpiricalCdf *const cdf = demotionCdf_;
    const PartId cdf_part = demotionCdfPart_;
    const std::uint32_t n = cands.size();

    // Event-driven demotion scan (DESIGN.md §15). One kernel pass
    // judges every candidate against its partition's registers as
    // they stand now and counts it into CandsSeen. A partition's
    // registers change only at its own events — a demotion, or the
    // lane where CandsSeen reaches c — so the kernel stops at each
    // partition's first event and leaves the partition's later lanes
    // uncounted in `pending`. Only event lanes run the serial commit
    // body below, in index order.
    simd::Judgement j;
    std::uint64_t *const pending = laneScratch_.data();
    simd::ops().judge(lines, cv, n, cands_per_adjust, judge_.data(),
                      cfg_.numPartitions, pending, &j);
    vantage_assert(j.stray == 0, "candidate with bad partition %u",
                   lines[cv[__builtin_ctzll(j.stray)].slot].part);
    const std::uint64_t all =
        n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
    const std::uint64_t invalid_mask = ~j.valid & all;
    const std::int32_t first_invalid =
        invalid_mask != 0
            ? static_cast<std::int32_t>(__builtin_ctzll(invalid_mask))
            : -1;

    // Fold the oldest unmanaged candidate over lanes [lo, hi) with
    // the CURRENT unmanaged timestamp. It ticks only inside demote(),
    // so folding each span between events before the event commits
    // observes exactly what a lane-by-lane scan would.
    const auto fold_unmanaged = [&](std::uint32_t lo, std::uint32_t hi) {
        if (lo >= hi) {
            return;
        }
        std::uint64_t m = (j.unmanaged >> lo) << lo;
        if (hi < 64) {
            m &= (std::uint64_t{1} << hi) - 1;
        }
        const std::uint8_t uts = unmanagedTs_;
        while (m != 0) {
            const auto i = static_cast<std::uint32_t>(__builtin_ctzll(m));
            m &= m - 1;
            const std::uint32_t age =
                static_cast<std::uint8_t>(uts - lines[cv[i].slot].rank);
            if (oldest_unmanaged < 0 || age > oldest_age) {
                oldest_unmanaged = static_cast<std::int32_t>(i);
                oldest_age = age;
            }
        }
    };

    std::uint64_t demotable = j.demotable;
    std::uint64_t events = j.events;
    std::uint32_t span_lo = 0;
    PartId touched[CandidateBuf::kCapacity];
    std::uint32_t num_touched = 0;
    while (events != 0) {
        const auto i = static_cast<std::uint32_t>(__builtin_ctzll(events));
        const std::uint64_t upto = (std::uint64_t{2} << i) - 1; // [0, i]
        events &= ~upto;
        fold_unmanaged(span_lo, i);
        span_lo = i + 1;

        // The lane-commit body (Sec. 4.3): count the partition's
        // parked lanes up to this one, demote, adjust the setpoint.
        // Variants judge here through their hooks (their judge
        // threshold is 0, so every lane is an event).
        Line &line = lines[cv[i].slot];
        const PartId p = line.part;
        touched[num_touched++] = p;
        PartState &ps = parts_[p];
        simd::JudgeRegs &r = judge_[p];
        r.candsSeen += static_cast<std::uint32_t>(
            __builtin_popcountll(pending[p] & upto));
        pending[p] &= ~upto;
        const bool dem = fastDemote_ ? ((demotable >> i) & 1) != 0
                                     : shouldDemote(p, ps, line);
        if (dem) {
            if (cdf != nullptr && p == cdf_part) {
                cdf->add(demotionPriority(ps, line.rank));
            }
            demote(line, p);
            if (first_demoted < 0) {
                first_demoted = static_cast<std::int32_t>(i);
                first_demoted_part = p;
            }
        } else {
            onDemotionCheckKept(p, line);
        }
        if (r.candsSeen >= cands_per_adjust) {
            adjustSetpoint(p);
        }
        syncJudge(p);

        // Re-judge only this partition's parked lanes.
        const std::uint64_t rest = pending[p];
        const std::uint64_t d = simd::judgeLanes(lines, cv, rest, r);
        demotable = (demotable & ~rest) | d;
        events = (events & ~rest) | d |
                 simd::adjustLane(rest, r.candsSeen, cands_per_adjust);
    }
    fold_unmanaged(span_lo, n);

    // Count the lanes after each partition's last event.
    for (std::uint32_t k = 0; k < num_touched; ++k) {
        const PartId p = touched[k];
        judge_[p].candsSeen += static_cast<std::uint32_t>(
            __builtin_popcountll(pending[p]));
        pending[p] = 0;
    }

    if (first_invalid >= 0) {
        return {first_invalid, false};
    }

    ++stats_.evictions;
    if (oldest_unmanaged >= 0) {
        return {oldest_unmanaged, false};
    }

    // No unmanaged candidate: a forced eviction from the managed
    // region (should be rare when u is sized per the models).
    ++stats_.evictionsFromManaged;
    if (first_demoted >= 0) {
        recordVantageDecision(DecisionKind::ForcedEviction,
                              first_demoted_part);
        return {first_demoted, false};
    }

    // Nothing was even demotable, so no line changed and every lane
    // is a valid managed line: evict the candidate that is oldest
    // within its own partition (highest demotionPriority, first
    // wins), scoring each partition's lanes together.
    std::uint64_t *const lanes_of = laneScratch_.data();
    std::uint64_t firsts = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const PartId p = lines[cv[i].slot].part;
        firsts |= std::uint64_t{lanes_of[p] == 0} << i;
        lanes_of[p] |= std::uint64_t{1} << i;
    }
    double prio[CandidateBuf::kCapacity];
    for (std::uint64_t f = firsts; f != 0; f &= f - 1) {
        const PartId p = lines[cv[__builtin_ctzll(f)].slot].part;
        groupPriorities(parts_[p], lanes_of[p], lines, cv, prio);
        lanes_of[p] = 0;
    }
    std::int32_t victim = 0;
    double victim_age = -1.0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (prio[i] > victim_age) {
            victim_age = prio[i];
            victim = static_cast<std::int32_t>(i);
        }
    }
    const PartId victim_part = array.line(cands[victim].slot).part;
    ++partStats_[victim_part].forcedEvictions;
    recordVantageDecision(DecisionKind::ForcedEviction, victim_part);
    return {victim, false};
}

void
VantageController::onEvict(CacheArray &array, LineId slot)
{
    const Line &line = array.line(slot);
    if (line.part == kUnmanagedPart) {
        vantage_assert(unmanagedSize_ > 0,
                       "eviction from empty unmanaged region");
        --unmanagedSize_;
        return;
    }
    vantage_assert(line.part < cfg_.numPartitions,
                   "eviction of line with bad partition %u", line.part);
    PartState &ps = parts_[line.part];
    if (!hists_.empty()) {
        hists_[line.part].evictionAge.add(
            modDist(line.rank, ps.currentTs, 8));
    }
    vantage_assert(ps.tsHist[line.rank] > 0,
                   "timestamp histogram underflow in partition %u",
                   line.part);
    --ps.tsHist[line.rank];
    vantage_assert(ps.actualSize > 0, "eviction from empty partition");
    --ps.actualSize;
    syncJudge(line.part);
}

void
VantageController::onInsert(CacheArray &array, LineId slot,
                            PartId part)
{
    Line &line = array.line(slot);
    vantage_assert(part < cfg_.numPartitions,
                   "insertion into bad partition %u", part);
    noteAccess();
    PartState &ps = parts_[part];

    if (cfg_.throttleHighChurn) {
        // Sec. 3.4, option 2: once the aperture has saturated (size
        // beyond the slack band), stop feeding the partition — its
        // fills land in the unmanaged region and age out normally.
        const std::uint64_t limit =
            ps.targetSize +
            static_cast<std::uint64_t>(
                cfg_.slack * static_cast<double>(ps.targetSize));
        if (ps.actualSize >= limit) {
            line.part = kUnmanagedPart;
            line.rank = unmanagedTs_;
            ++unmanagedSize_;
            ++partStats_[part].throttledInserts;
            recordVantageDecision(DecisionKind::ThrottledInsert, part);
            tickAccessCounter(part);
            return;
        }
    }

    line.part = part;
    line.rank = insertionRank(part);
    ++ps.tsHist[line.rank];
    ++ps.actualSize;
    ++partStats_[part].insertions;
    tickAccessCounter(part);
    syncJudge(part);
}

std::uint64_t
VantageController::actualSize(PartId part) const
{
    vantage_assert(part < cfg_.numPartitions,
                   "partition %u out of range", part);
    return parts_[part].actualSize;
}

std::uint64_t
VantageController::targetSize(PartId part) const
{
    vantage_assert(part < cfg_.numPartitions,
                   "partition %u out of range", part);
    return parts_[part].targetSize;
}

void
VantageController::checkInvariants(const CacheArray &array,
                                   InvariantReport &rep) const
{
    const std::uint32_t num_parts = cfg_.numPartitions;

    // Ground truth: rescan the array and rebuild sizes + histograms.
    std::vector<std::uint64_t> counted(num_parts, 0);
    std::vector<std::array<std::uint64_t, 256>> hist(num_parts);
    for (auto &h : hist) {
        h.fill(0);
    }
    std::uint64_t counted_unmanaged = 0;
    for (LineId slot = 0; slot < array.numLines(); ++slot) {
        const Line &line = array.line(slot);
        if (!line.valid()) {
            continue;
        }
        if (line.part == kUnmanagedPart) {
            ++counted_unmanaged;
            continue;
        }
        if (!rep.expect(line.part < num_parts,
                        "vantage: line %#llx carries illegal "
                        "partition %u",
                        static_cast<unsigned long long>(line.addr),
                        line.part)) {
            continue;
        }
        ++counted[line.part];
        ++hist[line.part][line.rank];
    }

    // Conservation: demotions/promotions/evictions must only move
    // lines between the managed partitions and the unmanaged region,
    // never create or leak them.
    rep.expect(counted_unmanaged == unmanagedSize_,
               "vantage: unmanaged recount %llu != UnmanagedSize %llu",
               static_cast<unsigned long long>(counted_unmanaged),
               static_cast<unsigned long long>(unmanagedSize_));

    std::uint64_t target_total = 0;
    for (PartId p = 0; p < num_parts; ++p) {
        const PartState &ps = parts_[p];
        rep.expect(counted[p] == ps.actualSize,
                   "vantage: part %u recount %llu != ActualSize %llu",
                   p, static_cast<unsigned long long>(counted[p]),
                   static_cast<unsigned long long>(ps.actualSize));
        for (std::uint32_t ts = 0; ts < 256; ++ts) {
            if (hist[p][ts] != ps.tsHist[ts]) {
                rep.fail("vantage: part %u tsHist[%u] = %llu, recount "
                         "%llu",
                         p, ts,
                         static_cast<unsigned long long>(
                             ps.tsHist[ts]),
                         static_cast<unsigned long long>(hist[p][ts]));
                break; // One histogram mismatch per partition.
            }
        }

        // Fig. 4 register file self-consistency.
        const simd::JudgeRegs &jr = judge_[p];
        rep.expect(ps.candsDemoted <= jr.candsSeen,
                   "vantage: part %u CandsDemoted %u > CandsSeen %u",
                   p, ps.candsDemoted, jr.candsSeen);
        rep.expect(jr.candsSeen <= cfg_.candsPerAdjust,
                   "vantage: part %u CandsSeen %u exceeds c = %u", p,
                   jr.candsSeen, cfg_.candsPerAdjust);
        rep.expect(jr.threshold == judgeThreshold(ps) &&
                       jr.setpoint == ps.setpointTs &&
                       laneScratch_[p] == 0,
                   "vantage: part %u judge registers out of sync", p);
        rep.expect(apertureOf(ps) <=
                       cfg_.maxAperture + 1e-9,
                   "vantage: part %u aperture %f above Amax %f", p,
                   apertureOf(ps), cfg_.maxAperture);

        // Threshold table (Fig. 3c): a staircase approximation of the
        // linear transfer function must be monotone in both columns
        // and never allow more demotions than candidates seen.
        for (std::uint32_t k = 0; k < cfg_.thresholdEntries; ++k) {
            if (k > 0) {
                rep.expect(ps.thrSize[k] >= ps.thrSize[k - 1],
                           "vantage: part %u ThrSize not monotone at "
                           "entry %u",
                           p, k);
                rep.expect(ps.thrDems[k] >= ps.thrDems[k - 1],
                           "vantage: part %u ThrDems not monotone at "
                           "entry %u",
                           p, k);
            }
            rep.expect(ps.thrDems[k] >= 1 &&
                           ps.thrDems[k] <= cfg_.candsPerAdjust,
                       "vantage: part %u ThrDems[%u] = %u outside "
                       "[1, c = %u]",
                       p, k, ps.thrDems[k], cfg_.candsPerAdjust);
        }
        // Dynamic lifecycle: a retired slot must stay at target 0 so
        // its residue keeps draining at full aperture.
        rep.expect(partitionActive(p) || ps.targetSize == 0,
                   "vantage: retired part %u has target %llu", p,
                   static_cast<unsigned long long>(ps.targetSize));
        target_total += ps.targetSize;
    }
    rep.expect(target_total <= managedLines_,
               "vantage: targets total %llu above managed capacity "
               "%llu",
               static_cast<unsigned long long>(target_total),
               static_cast<unsigned long long>(managedLines_));
}

const VantagePartStats &
VantageController::partStats(PartId part) const
{
    vantage_assert(part < cfg_.numPartitions,
                   "partition %u out of range", part);
    return partStats_[part];
}

void
VantageController::resetStats()
{
    stats_ = VantageStats{};
    for (auto &s : partStats_) {
        s = VantagePartStats{};
    }
    for (auto &h : hists_) {
        h.apertureBp.reset();
        h.demotionAge.reset();
        h.evictionAge.reset();
        h.demotionGap.reset();
        // Anchor the gap series at the reset point, not at the last
        // pre-warmup demotion.
        h.lastDemotionAccess = accessesSeen_;
    }
}

void
VantageController::enableHistograms()
{
    if (hists_.empty()) {
        hists_.resize(cfg_.numPartitions);
    }
}

const VantagePartHists &
VantageController::partHists(PartId part) const
{
    vantage_assert(part < cfg_.numPartitions,
                   "partition %u out of range", part);
    vantage_assert(!hists_.empty(), "histograms not enabled");
    return hists_[part];
}

void
VantageController::attachDemotionCdf(PartId part, EmpiricalCdf *cdf)
{
    demotionCdfPart_ = part;
    demotionCdf_ = cdf;
}

std::uint8_t
VantageController::currentTs(PartId part) const
{
    vantage_assert(part < cfg_.numPartitions,
                   "partition %u out of range", part);
    return parts_[part].currentTs;
}

std::uint8_t
VantageController::setpointTs(PartId part) const
{
    vantage_assert(part < cfg_.numPartitions,
                   "partition %u out of range", part);
    return parts_[part].setpointTs;
}

double
VantageController::aperture(PartId part) const
{
    vantage_assert(part < cfg_.numPartitions,
                   "partition %u out of range", part);
    return apertureOf(parts_[part]);
}

void
VantageController::attachTrace(ControllerTrace *trace)
{
    trace_ = trace;
}

void
VantageController::registerStats(StatsRegistry &reg,
                                 const std::string &prefix) const
{
    reg.addCounter(prefix + ".evictions", &stats_.evictions);
    reg.addCounter(prefix + ".evictions_from_managed",
                   &stats_.evictionsFromManaged);
    reg.addCounter(prefix + ".demotions", &stats_.demotions);
    reg.addCounter(prefix + ".promotions", &stats_.promotions);
    reg.addCounter(prefix + ".setpoint_adjusts",
                   &stats_.setpointAdjusts);
    reg.addCounter(prefix + ".accesses", &accessesSeen_);
    reg.addGauge(prefix + ".unmanaged_size",
                 [this] { return static_cast<double>(unmanagedSize_); });
    reg.addGauge(prefix + ".managed_lines", [this] {
        return static_cast<double>(managedLines_);
    });
    for (PartId p = 0; p < cfg_.numPartitions; ++p) {
        const std::string base =
            prefix + ".part" + std::to_string(p);
        const PartState *ps = &parts_[p];
        const VantagePartStats *st = &partStats_[p];
        reg.addGauge(base + ".target", [ps] {
            return static_cast<double>(ps->targetSize);
        });
        reg.addGauge(base + ".actual", [ps] {
            return static_cast<double>(ps->actualSize);
        });
        reg.addGauge(base + ".aperture",
                     [this, ps] { return apertureOf(*ps); });
        reg.addGauge(base + ".setpoint_ts", [ps] {
            return static_cast<double>(ps->setpointTs);
        });
        reg.addGauge(base + ".current_ts", [ps] {
            return static_cast<double>(ps->currentTs);
        });
        reg.addCounter(base + ".hits", &st->hits);
        reg.addCounter(base + ".insertions", &st->insertions);
        reg.addCounter(base + ".demotions", &st->demotions);
        reg.addCounter(base + ".promotions", &st->promotions);
        reg.addCounter(base + ".forced_evictions",
                       &st->forcedEvictions);
        reg.addCounter(base + ".throttled_inserts",
                       &st->throttledInserts);
        if (!hists_.empty()) {
            const VantagePartHists *h = &hists_[p];
            reg.addHistogram(base + ".hist.aperture_bp",
                             &h->apertureBp);
            reg.addHistogram(base + ".hist.demotion_age",
                             &h->demotionAge);
            reg.addHistogram(base + ".hist.eviction_age",
                             &h->evictionAge);
            reg.addHistogram(base + ".hist.demotion_gap",
                             &h->demotionGap);
        }
    }
}

void
VantageController::registerIntrospection(
    StatsRegistry &reg, const std::string &prefix) const
{
    reg.addString(prefix + ".scheme", name());

    // Global region split and churn counters. Counters register by
    // raw pointer so the sampler thread reads them with relaxed
    // atomic loads; gauges are single-word reads.
    reg.addGauge(prefix + ".managed_lines", [this] {
        return static_cast<double>(managedLines_);
    });
    reg.addGauge(prefix + ".unmanaged_lines", [this] {
        return static_cast<double>(unmanagedSize_);
    });
    reg.addCounter(prefix + ".evictions", &stats_.evictions);
    reg.addCounter(prefix + ".evictions_from_managed",
                   &stats_.evictionsFromManaged);
    reg.addCounter(prefix + ".demotions", &stats_.demotions);
    reg.addCounter(prefix + ".promotions", &stats_.promotions);
    reg.addCounter(prefix + ".setpoint_adjusts",
                   &stats_.setpointAdjusts);
    reg.addCounter(prefix + ".accesses", &accessesSeen_);

    // Size the lifecycle flags before installing guards that read
    // them from the sampler thread (see PartitionScheme).
    ensureLifecycle();
    for (PartId p = 0; p < cfg_.numPartitions; ++p) {
        const std::string base =
            prefix + ".part" + std::to_string(p);
        const PartState *ps = &parts_[p];
        const VantagePartStats *st = &partStats_[p];

        // Convergence state: aperture in basis points (Eq. 7 over
        // live outgrowth) plus the Fig. 4 timestamp registers.
        reg.addGauge(base + ".aperture_bp", [this, ps] {
            return apertureOf(*ps) * 10000.0;
        });
        reg.addGauge(base + ".target_lines", [ps] {
            return static_cast<double>(ps->targetSize);
        });
        reg.addGauge(base + ".actual_lines", [ps] {
            return static_cast<double>(ps->actualSize);
        });
        reg.addGauge(base + ".setpoint_ts", [ps] {
            return static_cast<double>(ps->setpointTs);
        });
        reg.addGauge(base + ".current_ts", [ps] {
            return static_cast<double>(ps->currentTs);
        });

        // Churn counters; rates come from the snapshot deltas.
        reg.addCounter(base + ".hits", &st->hits);
        reg.addCounter(base + ".insertions", &st->insertions);
        reg.addCounter(base + ".demotions", &st->demotions);
        reg.addCounter(base + ".promotions", &st->promotions);
        reg.addCounter(base + ".forced_evictions",
                       &st->forcedEvictions);
        reg.addCounter(base + ".throttled_inserts",
                       &st->throttledInserts);

        // Threshold-table summary (Fig. 3c): enough to see whether
        // the table is built and how aggressive its top bin is,
        // without exporting all 8 rows. The table vectors are only
        // resized at construction; rebuilds rewrite elements in
        // place, so these reads stay within bounds concurrently.
        reg.addGauge(base + ".thr_entries", [ps] {
            return static_cast<double>(ps->thrSize.size());
        });
        reg.addGauge(base + ".thr_size_floor", [ps] {
            return ps->thrSize.empty()
                       ? 0.0
                       : static_cast<double>(ps->thrSize.front());
        });
        reg.addGauge(base + ".thr_dems_max", [ps] {
            return ps->thrDems.empty()
                       ? 0.0
                       : static_cast<double>(ps->thrDems.back());
        });
        // Retired slots drop their partN series until slot reuse.
        reg.addGuard(base, [this, p] { return partitionActive(p); });
    }
}

} // namespace vantage
