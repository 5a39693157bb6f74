/**
 * @file
 * The Vantage cache controller (paper Secs. 3 and 4).
 *
 * Vantage partitions the *managed* region of the cache (a fraction
 * m = 1 - u of all lines) by controlling the replacement process:
 *
 *  - Lines are tagged with a partition id; the reserved id
 *    kUnmanagedPart marks the unmanaged region.
 *  - On each miss, every replacement candidate is checked for
 *    *demotion*: a candidate whose partition exceeds its target size
 *    and whose coarse timestamp falls outside the partition's
 *    [SetpointTS, CurrentTS] keep-window moves to the unmanaged
 *    region (a tag change only).
 *  - The victim is preferably the oldest unmanaged candidate, so the
 *    unmanaged region absorbs nearly all evictions and partitions
 *    never steal space from each other.
 *  - Hits on unmanaged lines *promote* them into the accessor's
 *    partition.
 *
 * The per-partition aperture (the fraction of candidates demoted) is
 * not computed explicitly. Instead, feedback-based aperture control
 * (Sec. 4.1) lets a partition outgrow its target by up to
 * slack * target, mapping outgrowth linearly to aperture in
 * [0, Amax]; and setpoint-based demotions (Sec. 4.2) track that
 * aperture by nudging SetpointTS after every `c` candidates seen from
 * the partition, using an 8-entry demotion-thresholds lookup table
 * (Fig. 3c) rebuilt at resize time.
 *
 * Controller state matches the paper's Fig. 4: per-partition
 * CurrentTS, SetpointTS, AccessCounter, ActualSize, TargetSize,
 * CandsSeen, CandsDemoted and the thresholds table. The simulator
 * additionally keeps per-partition timestamp histograms to measure
 * demotion-priority CDFs (Figs. 2 and 8); hardware would not.
 */

#ifndef VANTAGE_CORE_VANTAGE_H_
#define VANTAGE_CORE_VANTAGE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "partition/scheme.h"
#include "simd/simd.h"
#include "stats/cdf.h"
#include "stats/histogram.h"
#include "stats/trace.h"
#include "trace/event_trace.h"

namespace vantage {

class StatsRegistry;

/** Configuration of the Vantage controller. */
struct VantageConfig
{
    /** Number of partitions (excluding the unmanaged region). */
    std::uint32_t numPartitions = 1;
    /** Fraction of the cache left unmanaged (u). */
    double unmanagedFraction = 0.05;
    /** Maximum aperture (Amax). */
    double maxAperture = 0.5;
    /** Feedback slack: aperture reaches Amax at (1+slack)*target. */
    double slack = 0.1;
    /** Candidates seen from a partition between setpoint updates (c). */
    std::uint32_t candsPerAdjust = 256;
    /** Entries in the demotion-thresholds lookup table. */
    std::uint32_t thresholdEntries = 8;
    /**
     * Stability option 2 of Sec. 3.4: when a partition saturates its
     * aperture and still exceeds (1 + slack) * target, throttle its
     * churn by inserting its fills directly into the unmanaged
     * region, instead of letting it borrow further (the default,
     * option 1). Trades a little low-churn -> high-churn interference
     * for a smaller unmanaged-region reserve.
     */
    bool throttleHighChurn = false;
};

/** Per-partition statistics exported by the controller. */
struct VantagePartStats
{
    std::uint64_t insertions = 0; ///< Fills (the partition's churn).
    std::uint64_t demotions = 0;
    std::uint64_t promotions = 0;
    std::uint64_t hits = 0;
    std::uint64_t forcedEvictions = 0; ///< Evicted while still managed.
    std::uint64_t throttledInserts = 0; ///< Fills sent unmanaged.
};

/**
 * Opt-in per-partition distribution histograms (log2-bucketed); see
 * VantageController::enableHistograms(). All record quantities the
 * paper reasons about in Secs. 3.4/4.1-4.2.
 */
struct VantagePartHists
{
    /** Aperture at each setpoint adjustment, in basis points. */
    Histogram apertureBp;
    /** Line age (current - rank timestamp ticks) at demotion. */
    Histogram demotionAge;
    /** Line age at forced eviction from the managed region. */
    Histogram evictionAge;
    /** Controller accesses between consecutive demotions. */
    Histogram demotionGap;
    std::uint64_t lastDemotionAccess = 0;
};

/** Global controller statistics. */
struct VantageStats
{
    std::uint64_t evictions = 0;
    std::uint64_t evictionsFromManaged = 0; ///< Forced (no unmanaged cand).
    std::uint64_t demotions = 0;
    std::uint64_t promotions = 0;
    std::uint64_t setpointAdjusts = 0;
};

/** Vantage: fine-grain partitioning via churn-based management. */
class VantageController : public PartitionScheme
{
  public:
    /**
     * @param num_lines total lines of the array this controller
     *        manages.
     * @param cfg controller parameters.
     */
    VantageController(std::size_t num_lines, const VantageConfig &cfg);

    std::string name() const override { return "vantage"; }

    std::uint32_t
    numPartitions() const override
    {
        return cfg_.numPartitions;
    }

    /** Fine-grain quantum: 256 units over the managed region. */
    std::uint32_t allocationQuantum() const override { return 256; }

    void setAllocations(
        const std::vector<std::uint32_t> &units) override;

    /** Directly set per-partition targets in lines (finest grain). */
    void setTargetLines(const std::vector<std::uint64_t> &lines);

    /**
     * Delete a partition (Sec. 3.4): target goes to zero and its
     * lines drain into the unmanaged region; the id can be reused
     * once actualSize reaches zero.
     */
    void deletePartition(PartId part);

    void onHit(CacheArray &array, LineId slot,
               PartId accessor) override;
    VictimChoice selectVictim(CacheArray &array, PartId inserting,
                              Addr addr,
                              const CandidateBuf &cands) override;
    void onEvict(CacheArray &array, LineId slot) override;
    void onInsert(CacheArray &array, LineId slot,
                  PartId part) override;

    std::uint64_t actualSize(PartId part) const override;
    std::uint64_t targetSize(PartId part) const override;

    std::uint64_t
    demotionCount() const override
    {
        return stats_.demotions;
    }

    /**
     * Verify the Fig. 4 register file against ground truth (Secs.
     * 3.4-3.6): conservation of lines (per-partition recounts match
     * ActualSize, the unmanaged recount matches unmanagedSize(), and
     * every valid line carries a legal partition tag), timestamp-
     * histogram consistency, threshold-table monotonicity, candidate
     * accounting (CandsDemoted <= CandsSeen <= c), aperture <= Amax,
     * and sum(TargetSize) <= managed capacity.
     */
    void checkInvariants(const CacheArray &array,
                         InvariantReport &rep) const override;

    /** Lines currently tagged unmanaged. */
    std::uint64_t unmanagedSize() const { return unmanagedSize_; }

    /** Managed-region capacity in lines, (1 - u) * num_lines. */
    std::uint64_t managedLines() const { return managedLines_; }

    /** The managed capacity of `num_lines` lines at unmanaged u. */
    static std::uint64_t managedLinesFor(std::uint64_t num_lines,
                                         double u);

    const VantageStats &stats() const { return stats_; }
    const VantagePartStats &partStats(PartId part) const;

    /**
     * Allocate the per-partition distribution histograms
     * (VantagePartHists); off by default so the demotion/eviction
     * paths pay nothing. Registered under
     * `prefix`.partN.hist.* by registerStats(); cleared by
     * resetStats().
     */
    void enableHistograms();
    bool histogramsEnabled() const { return !hists_.empty(); }
    const VantagePartHists &partHists(PartId part) const;

    /** Reset statistics (not controller state). */
    void resetStats();

    /**
     * Record demotion priorities of one partition into a CDF: for
     * each demotion, the fraction of the partition's lines that are
     * younger (lower eviction priority) than the demoted line. This
     * is the paper's demotion-priority metric (Figs. 2c and 8).
     */
    void attachDemotionCdf(PartId part, EmpiricalCdf *cdf);

    /** Current setpoint/current timestamps (for tests). */
    std::uint8_t currentTs(PartId part) const;
    std::uint8_t setpointTs(PartId part) const;

    /** Estimated aperture of `part` (Eq. 7), in [0, Amax]. */
    double aperture(PartId part) const;

    /**
     * Attach a periodic state trace: every trace->period() controller
     * accesses (hits + fills), one TraceSample per partition is
     * recorded. Pass nullptr to detach. The trace must outlive the
     * controller's use of it.
     */
    void attachTrace(ControllerTrace *trace);

    /** Controller accesses (hits + fills) seen so far. */
    std::uint64_t accessesSeen() const { return accessesSeen_; }

    /**
     * Register controller statistics under `prefix`: global
     * demotion/promotion/eviction counters plus per-partition
     * `prefix`.partN.{target,actual,aperture,hits,insertions,
     * demotions,promotions,forced_evictions,throttled_inserts}.
     * The registry reads live state; export after the run.
     */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Live-introspection export for the metrics service: extends the
     * base scheme's target/actual gauges with the controller's
     * convergence state — per-partition aperture (basis points),
     * setpoint/current timestamps, demotion/promotion/insertion
     * counters, a threshold-table summary, and the global
     * managed/unmanaged split. Paths use exporter-facing names, so
     * `prefix` = "vantage" yields vantage_aperture_bp{part="N"} etc.
     * on the Prometheus endpoint.
     */
    void registerIntrospection(
        StatsRegistry &reg, const std::string &prefix) const override;

    const VantageConfig &config() const { return cfg_; }

  protected:
    /** Fig. 4 per-partition register file (widths in comments). */
    struct PartState
    {
        std::uint64_t targetSize = 0;   // TargetSize (16b)
        std::uint64_t actualSize = 0;   // ActualSize (16b)
        std::uint8_t currentTs = 0;     // CurrentTS (8b)
        std::uint8_t setpointTs = 0;    // SetpointTS (8b)
        std::uint64_t accessCounter = 0; // AccessCounter (16b)
        // CandsSeen (8b) lives in judge_[part], which the demotion
        // judge advances.
        std::uint32_t candsDemoted = 0; // CandsDemoted (8b)
        // 8-entry demotion thresholds lookup table (Fig. 3c).
        std::vector<std::uint64_t> thrSize; // ThrSize[k] (16b each)
        std::vector<std::uint32_t> thrDems; // ThrDems[k] (8b each)
        // Simulator-only: histogram of line timestamps, for demotion
        // priority measurement.
        std::array<std::uint64_t, 256> tsHist{};
    };

    /**
     * Decide whether a managed candidate should be demoted. The base
     * implementation is the paper's practical controller:
     * setpoint-based demotions gated on ActualSize > TargetSize.
     * Variants override this (perfect-aperture oracle, RRIP).
     */
    virtual bool shouldDemote(PartId part, const PartState &ps,
                              const Line &line) const;

    /** Metadata for a line newly inserted into `part`. */
    virtual std::uint8_t insertionRank(PartId part);

    /** Metadata update for a hit on a managed line of `part`. */
    virtual std::uint8_t hitRank(PartId part, std::uint8_t old_rank);

    /**
     * Eviction priority of a line within its partition, in [0, 1]
     * (1 = partition's best eviction candidate), used for demotion
     * CDF capture and forced-eviction victim choice.
     */
    virtual double demotionPriority(const PartState &ps,
                                    std::uint8_t rank) const;

    /**
     * demotionPriority() of every candidate in `lanes` (all from the
     * partition `ps`) into prio[lane]; the forced-eviction fallback
     * reads a whole candidate list this way. Variants that override
     * demotionPriority() override this to match.
     */
    virtual void groupPriorities(const PartState &ps, std::uint64_t lanes,
                                 const Line *lines,
                                 const Candidate *cands,
                                 double *prio) const;

    /** Hook after a managed candidate survives its demotion check. */
    virtual void onDemotionCheckKept(PartId part, Line &line);

    /**
     * Lifecycle hooks (PartitionScheme). Destroy follows Sec. 3.4:
     * deletePartition() semantics — target 0 and full-aperture drain
     * through the unmanaged region. Create resets the new tenant's
     * control registers (timestamps, setpoint, candidate counters)
     * but keeps ActualSize and the timestamp histogram: they describe
     * lines still resident from the previous occupant, which the new
     * tenant inherits and churns out normally.
     */
    void onPartitionCreate(PartId part) override;
    void onPartitionDestroy(PartId part) override;

    void rebuildThresholds(PartId part);
    /** Count a controller access; sample the trace when one is due. */
    void noteAccess();
    /** Append one TraceSample per partition to the attached trace. */
    void sampleTrace();
    /** Advance the coarse timestamp clock; no-op for RRIP variants. */
    virtual void tickAccessCounter(PartId part);
    void tickUnmanagedTs();
    /** Nudge the setpoint after `c` candidates from a partition. */
    virtual void adjustSetpoint(PartId part);

    /** Desired demotions per c candidates, from the lookup table. */
    std::uint32_t desiredDemotions(const PartState &ps) const;
    bool inKeepWindow(const PartState &ps, std::uint8_t ts) const;
    void demote(Line &line, PartId from);

    /** Aperture from the linear transfer function of Eq. 7. */
    double apertureOf(const PartState &ps) const;

    /**
     * Record a decision about `part` with the full Fig. 4 register
     * state (aperture, setpoint/current TS, candidate counters); a
     * no-op while no audit ring is attached.
     */
    void recordVantageDecision(DecisionKind kind, PartId part);

    /**
     * Mirror parts_[part]'s keep window into judge_[part]'s threshold
     * and setpoint. Called wherever ActualSize, TargetSize or
     * CurrentTS/SetpointTS change.
     */
    void syncJudge(PartId part);

    /** The judge threshold `ps` implies (see simd::JudgeRegs). */
    std::uint16_t judgeThreshold(const PartState &ps) const;

    /**
     * Decide demotions through shouldDemote() and
     * onDemotionCheckKept(): every variant that overrides either
     * calls this in its constructor. The judge then flags every
     * managed lane, and selectVictim()'s one commit body asks the
     * hooks lane by lane.
     */
    void useDemotionHooks();

    /** False once useDemotionHooks() was called. */
    bool fastDemote_ = true;

    VantageConfig cfg_;
    std::uint64_t numLines_;
    std::uint64_t managedLines_;

    std::vector<PartState> parts_;
    std::vector<VantagePartStats> partStats_;
    // The demotion judge's registers (CandsSeen, plus the keep window
    // kept in sync by syncJudge) and its lane scratch: one word per
    // partition, zero between misses.
    std::vector<simd::JudgeRegs> judge_;
    std::vector<std::uint64_t> laneScratch_;
    VantageStats stats_;

    // Unmanaged-region state: its own coarse timestamp, advanced once
    // per (unmanaged target size)/16 demotions.
    std::uint8_t unmanagedTs_ = 0;
    std::uint64_t unmanagedSize_ = 0;
    std::uint64_t unmanagedTickPeriod_;
    std::uint64_t demotionsSinceTick_ = 0;

    PartId demotionCdfPart_ = kInvalidPart;
    EmpiricalCdf *demotionCdf_ = nullptr;

    // Observability: optional periodic state trace.
    ControllerTrace *trace_ = nullptr;
    std::uint64_t accessesSeen_ = 0;

    // Opt-in distribution telemetry; empty unless enableHistograms().
    std::vector<VantagePartHists> hists_;
    // Interned per-partition counter-event names, built lazily by the
    // tracing hooks ("vantage.aperture.partN").
    mutable std::vector<const char *> traceCounterNames_;
};

} // namespace vantage

#endif // VANTAGE_CORE_VANTAGE_H_
