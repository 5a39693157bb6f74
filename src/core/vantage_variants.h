/**
 * @file
 * Variants of the Vantage controller.
 *
 * VantageOracle is the paper's Sec. 6.2 validation configuration:
 * feedback-based aperture control with *perfect knowledge of the
 * apertures* — each candidate's exact quantile within its partition
 * is compared against the aperture from Eq. 7 — instead of the
 * practical setpoint mechanism. The paper reports that this performs
 * exactly like the practical controller; our model_validation bench
 * reproduces that check.
 *
 * VantageRrip is the Vantage-DRRIP configuration of Fig. 11: lines
 * carry a 3-bit RRPV instead of a coarse timestamp, each partition is
 * assigned SRRIP or BRRIP insertion (chosen per interval by the
 * allocation policy's dueling monitors), demotions use a per-partition
 * *setpoint RRPV*, and lines from partitions below their target size
 * are not aged.
 */

#ifndef VANTAGE_CORE_VANTAGE_VARIANTS_H_
#define VANTAGE_CORE_VANTAGE_VARIANTS_H_

#include "common/rng.h"
#include "core/vantage.h"
#include "replacement/rrip.h"

namespace vantage {

/** Perfect-aperture oracle controller (analysis-exact demotions). */
class VantageOracle : public VantageController
{
  public:
    VantageOracle(std::size_t num_lines, const VantageConfig &cfg)
        : VantageController(num_lines, cfg)
    {
        useDemotionHooks(); // Overrides shouldDemote().
    }

    std::string name() const override { return "vantage-oracle"; }

  protected:
    bool
    shouldDemote(PartId part, const PartState &ps,
                 const Line &line) const override
    {
        (void)part;
        const double aperture = apertureOf(ps);
        if (aperture <= 0.0) {
            return false;
        }
        // Demote the top `aperture` fraction of eviction priorities.
        return demotionPriority(ps, line.rank) >= 1.0 - aperture;
    }
};

/** Vantage over RRIP ranks (Vantage-DRRIP when driven by dueling). */
class VantageRrip : public VantageController
{
  public:
    VantageRrip(std::size_t num_lines, const VantageConfig &cfg,
                std::uint64_t seed = 0xbead)
        : VantageController(num_lines, cfg), rng_(seed),
          useBrrip_(cfg.numPartitions, false),
          setpointRrpv_(cfg.numPartitions, RripBase::kDistant)
    {
        useDemotionHooks(); // Overrides the demotion hooks.
    }

    std::string name() const override { return "vantage-rrip"; }

    /** Select SRRIP (false) or BRRIP (true) insertion for `part`. */
    void
    setBrrip(PartId part, bool use_brrip)
    {
        vantage_assert(part < numPartitions(),
                       "partition %u out of range", part);
        useBrrip_[part] = use_brrip;
    }

    bool usesBrrip(PartId part) const { return useBrrip_[part]; }

    std::uint8_t
    setpointRrpv(PartId part) const
    {
        return setpointRrpv_[part];
    }

  protected:
    std::uint8_t
    insertionRank(PartId part) override
    {
        if (useBrrip_[part]) {
            return rng_.chance(1.0 / 32.0) ? RripBase::kLong
                                           : RripBase::kDistant;
        }
        return RripBase::kLong;
    }

    std::uint8_t
    hitRank(PartId part, std::uint8_t old_rank) override
    {
        (void)part;
        (void)old_rank;
        return 0; // Hit priority: near-immediate re-reference.
    }

    bool
    shouldDemote(PartId part, const PartState &ps,
                 const Line &line) const override
    {
        (void)part;
        if (ps.actualSize <= ps.targetSize) {
            return false;
        }
        if (ps.targetSize == 0) {
            return true;
        }
        return line.rank >= setpointRrpv_[part];
    }

    double
    demotionPriority(const PartState &ps,
                     std::uint8_t rank) const override
    {
        // Fraction of the partition's lines with a lower RRPV.
        if (ps.actualSize == 0) {
            return 1.0;
        }
        std::uint64_t lower = 0;
        for (std::uint32_t v = 0; v < rank; ++v) {
            lower += ps.tsHist[v];
        }
        return std::min(1.0, static_cast<double>(lower) /
                                 static_cast<double>(ps.actualSize));
    }

    void
    groupPriorities(const PartState &ps, std::uint64_t lanes,
                    const Line *lines, const Candidate *cands,
                    double *prio) const override
    {
        for (std::uint64_t m = lanes; m != 0; m &= m - 1) {
            const int i = __builtin_ctzll(m);
            prio[i] = demotionPriority(ps, lines[cands[i].slot].rank);
        }
    }

    void
    onDemotionCheckKept(PartId part, Line &line) override
    {
        // Age surviving candidates of over-target partitions so their
        // RRPVs drift toward the setpoint; under-target partitions
        // are left alone (Sec. 6.2).
        PartState &ps = parts_[part];
        if (ps.actualSize <= ps.targetSize ||
            line.rank >= RripBase::kDistant) {
            return;
        }
        --ps.tsHist[line.rank];
        ++line.rank;
        ++ps.tsHist[line.rank];
    }

    void
    tickAccessCounter(PartId part) override
    {
        (void)part; // RRPVs do not use the coarse timestamp clock.
    }

    void
    adjustSetpoint(PartId part) override
    {
        PartState &ps = parts_[part];
        ++stats_.setpointAdjusts;
        const std::uint32_t desired = desiredDemotions(ps);
        // Note the inverted sense versus timestamps: raising the
        // setpoint RRPV makes fewer lines demotable.
        if (ps.candsDemoted > desired) {
            if (setpointRrpv_[part] < RripBase::kDistant + 1) {
                ++setpointRrpv_[part];
            }
        } else if (ps.candsDemoted < desired) {
            if (setpointRrpv_[part] > 1) {
                --setpointRrpv_[part];
            }
        }
        judge_[part].candsSeen = 0;
        ps.candsDemoted = 0;
    }

    void
    onPartitionCreate(PartId part) override
    {
        VantageController::onPartitionCreate(part);
        useBrrip_[part] = false;
        setpointRrpv_[part] = RripBase::kDistant;
    }

  private:
    Rng rng_;
    std::vector<bool> useBrrip_;
    std::vector<std::uint8_t> setpointRrpv_;
};

} // namespace vantage

#endif // VANTAGE_CORE_VANTAGE_VARIANTS_H_
