/**
 * @file
 * A benchmark-owned copy of Cache::access over the public array and
 * scheme calls, with a layer mark at each boundary, plus the shared-L2
 * event log it can record and the replays of that log.
 *
 * MirrorL2 drives a SharedL2 (flat or banked) one layer at a time:
 * lookup, onHit, candidates (the zcache walk), selectVictim (the
 * Vantage demotion scan), and onEvict/replace/onInsert. It folds the
 * same per-access digest word Cache::attachDigest would, into one
 * stream per bank, so its digest equals the real cache's bit for bit
 * when the two see the same access sequence.
 */

#ifndef PERFBENCH_L2_MIRROR_H_
#define PERFBENCH_L2_MIRROR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "alloc/ucp.h"
#include "cache/banked_cache.h"
#include "cache/shared_l2.h"
#include "layers.h"

namespace perfbench {

using vantage::AccessResult;
using vantage::AccessType;
using vantage::Addr;
using vantage::PartId;

/** Everything that changes a shared L2's decisions, in order. */
struct L2Event
{
    enum Kind : std::uint8_t { Access, Alloc, Epoch, Create, Destroy };
    Kind kind = Access;
    AccessType type = AccessType::Load;
    PartId part = 0;
    Addr addr = 0;       ///< Access: line address.
    std::uint32_t alloc = 0; ///< Alloc/Epoch: index into allocs.
};

/** A recorded shared-L2 session. */
struct L2EventLog
{
    std::vector<L2Event> events;
    std::vector<std::vector<std::uint32_t>> allocs;
    std::uint64_t accesses = 0;
    /** Slots retired before the digest attaches (serve's start). */
    std::uint32_t preRetired = 0;
};

/** Layer-timed Cache::access over any SharedL2. */
class MirrorL2
{
  public:
    /** Borrow `l2`; `log` (optional) records every event. */
    MirrorL2(vantage::SharedL2 &l2, LayerClock &clock,
             L2EventLog *log = nullptr);

    AccessResult access(Addr addr, PartId part, AccessType type);

    /** Allocation change; `epoch` marks a UCP repartition. */
    void setAllocations(const std::vector<std::uint32_t> &units,
                        bool epoch);

    /** Lifecycle; `fold` = false before the digest would attach. */
    void createPartition(PartId part);
    void destroyPartition(PartId part, bool fold = true);

    /**
     * Re-read the demotion baseline, as Cache::attachDigest does;
     * call after pre-digest lifecycle changes.
     */
    void rebase();

    /** Dirty evictions so far (what SharedL2::writebacks reads). */
    std::uint64_t writebacks() const { return writebacks_; }

    /** The value a digest attached at construction would finalize to. */
    std::uint64_t digest() const;

    vantage::SharedL2 &l2() { return l2_; }

  private:
    void fold(std::uint32_t bank, std::uint64_t outcome,
              std::uint64_t victimPart);

    vantage::SharedL2 &l2_;
    vantage::Cache *mono_;
    vantage::BankedCache *banked_;
    LayerClock &clock_;
    L2EventLog *log_;
    std::vector<vantage::AccessDigest> digests_;
    std::vector<std::uint64_t> lastDemotions_;
    std::uint64_t writebacks_ = 0;
    vantage::CandidateBuf cands_;
};

/** Outcome of one replay of a log. */
struct ReplayResult
{
    std::uint64_t digest = 0;
    std::uint64_t accesses = 0;
    double seconds = 0.0;
    /** Raw access rate of each window (a quarter of the log's
     *  accesses in whole 4096-access chunks, at least kMinReplayWindow). */
    std::vector<double> windowRates;
    /** Probe rate of each window (kProbeSteps after every 4096
     *  accesses, weighted by the time of the chunk before it). */
    std::vector<double> probeRates;
    /** UCP recomputed a different allocation than was recorded. */
    bool allocMismatch = false;
};

/** Smallest replay window, in accesses. */
constexpr std::uint64_t kMinReplayWindow = 1ull << 16;

/** Normalized median window rate of a replay (whole-run rate if none). */
inline double
replayRate(const ReplayResult &r)
{
    if (r.windowRates.empty()) {
        return static_cast<double>(r.accesses) / r.seconds;
    }
    return estimateWindows(r.windowRates, r.probeRates, {}).rate;
}

/**
 * Replay `log` through a fresh L2 from `build` with the real
 * SharedL2::access and an attached digest. With `ucp` non-null every
 * access is also observed by it and each Epoch recomputes its
 * allocation (checked against the recorded one); otherwise recorded
 * allocations are applied as-is. Construction is not timed.
 */
ReplayResult replayL2Log(
    const L2EventLog &log,
    const std::function<std::unique_ptr<vantage::SharedL2>()> &build,
    std::unique_ptr<vantage::Ucp> ucp);

} // namespace perfbench

#endif // PERFBENCH_L2_MIRROR_H_
