/**
 * @file
 * Per-layer host-time accounting for the traced benchmark runs.
 *
 * The traced loops (the CmpSim mirror and the serve re-drive) call
 * mark(layer) at every layer boundary. Consecutive marks chain: the
 * time since the previous mark is charged to the layer just left, so
 * the layers' self times tile the traced loop and the unattributed
 * remainder is only the loop's own entry and exit. Every unit of work
 * (a stepped access, or a serve batch) is counted; one unit in
 * 2^sampleShift also keeps its full span list in memory, written at
 * exit as Chrome trace_event JSON whose child spans carry the unit id.
 */

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats_util.h"

namespace perfbench {

/** Host-time layers, named by the simulator module they time. */
enum Layer : std::uint8_t {
    kWorkloadNext,     ///< workload: AppModel::next + instruction gap.
    kSimSchedule,      ///< sim: core timing, clock heap, epoch checks.
    kL1Access,         ///< cache: the private L1's Cache::access.
    kUmonObserve,      ///< alloc: Ucp::observe.
    kRepartition,      ///< alloc: computeAllocations + setAllocations.
    kLookup,           ///< array: CacheArray::lookup.
    kHitUpdate,        ///< partition: PartitionScheme::onHit.
    kWalk,             ///< array: CacheArray::candidates.
    kSelectVictim,     ///< partition: selectVictim (demotion scan).
    kReplace,          ///< array: onEvict + replace + onInsert.
    kFrameDecode,      ///< serve: FrameDecoder + parseAccessBatch.
    kJournalWrite,     ///< serve: JournalWriter::recordAccess.
    kTenantAccess,     ///< serve: TenantSim bookkeeping per access.
    kJoin,             ///< serve: tenant join (create + rebalance).
    kLeave,            ///< serve: tenant leave (retire + rebalance).
    kNumLayers
};

/** Dotted metric prefix of a layer, e.g. "array.walk". */
const char *layerName(Layer l);

/** Units the ns/call figure of a layer is reported in. */
bool layerReportsMicros(Layer l);

/** Counts the traced loops keep beside the layer times. */
struct LayerCounts
{
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t walks = 0;
    std::uint64_t walkCandidates = 0;
    std::uint64_t demotions = 0;
    std::uint64_t repartitions = 0;
};

/** Chained layer clock; disabled clocks cost one branch per mark. */
class LayerClock
{
  public:
    /** @param sampleShift keep full spans for 1 unit in 2^shift. */
    explicit LayerClock(bool enabled = false, unsigned sampleShift = 12)
        : enabled_(enabled), sampleMask_((1ull << sampleShift) - 1)
    {
    }

    bool enabled() const { return enabled_; }

    /** Turn charging on or off (warm-up runs with it off). */
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Start (or resume) charging time: the chain restarts now. */
    void
    start()
    {
        if (enabled_) {
            last_ = nowNs();
            if (loopStart_ == 0) {
                loopStart_ = last_;
            }
        }
    }

    /** Stop charging; the interval since start() is the loop time. */
    void
    stop()
    {
        if (enabled_) {
            loopEnd_ = nowNs();
        }
    }

    /** A new unit of work begins (decides whether it is sampled). */
    void
    beginUnit()
    {
        if (enabled_) {
            sampling_ = (unitId_ & sampleMask_) == 0;
            if (sampling_) {
                spans_.push_back({unitId_, kNumLayers, last_, 0});
            }
            ++unitId_;
        }
    }

    /** Charge the time since the previous mark to `layer`. */
    void
    mark(Layer layer)
    {
        if (!enabled_) {
            return;
        }
        const std::uint64_t t = nowNs();
        ns_[layer] += t - last_;
        ++calls_[layer];
        if (sampling_) {
            spans_.push_back({unitId_ - 1, layer, last_, t});
        }
        last_ = t;
    }

    LayerCounts counts;

    std::uint64_t ns(Layer l) const { return ns_[l]; }
    std::uint64_t calls(Layer l) const { return calls_[l]; }

    /** Wall time between the first start() and stop(). */
    std::uint64_t
    loopNs() const
    {
        return loopEnd_ > loopStart_ ? loopEnd_ - loopStart_ : 0;
    }

    /** Sum of every layer's self time. */
    std::uint64_t attributedNs() const;

    /**
     * Write the sampled spans as Chrome trace_event JSON (B/E pairs:
     * one parent "unit" span per sampled unit with its layer spans
     * nested inside, all carrying args.id). @return false on I/O
     * error.
     */
    bool writeChromeTrace(const std::string &path,
                          const std::string &processName) const;

  private:
    struct Span
    {
        std::uint64_t unit;
        Layer layer; ///< kNumLayers marks the unit's start.
        std::uint64_t t0;
        std::uint64_t t1;
    };

    bool enabled_;
    std::uint64_t sampleMask_;
    bool sampling_ = false;
    std::uint64_t unitId_ = 0;
    std::uint64_t last_ = 0;
    std::uint64_t loopStart_ = 0;
    std::uint64_t loopEnd_ = 0;
    std::array<std::uint64_t, kNumLayers> ns_{};
    std::array<std::uint64_t, kNumLayers> calls_{};
    std::vector<Span> spans_;
};

/**
 * Add every layer's metrics to `out`: `<layer>_ns` (or `_us`) per
 * call, `<layer>.calls` and `<layer>.self_share` of the traced loop.
 * A null clock reports every layer as 0 (layer absent from the
 * workload).
 */
void reportLayers(const LayerClock *clock, JsonObject &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H_
