/**
 * @file
 * The CMP workloads (cmp4_vantage, cmp4_waypart, cmp32_banked): the
 * paper's Table 2 machines running mix class 5 through CmpSim, and a
 * benchmark-owned mirror of CmpSim::step over the public calls that
 * the traced run times layer by layer.
 */

#ifndef PERFBENCH_CMP_BENCH_H_
#define PERFBENCH_CMP_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "l2_mirror.h"
#include "sim/cmp_config.h"
#include "sim/core_heap.h"
#include "sim/experiment.h"
#include "workload/app_model.h"

namespace perfbench {

/** One CMP workload: machine, mix, L2 and the run's work units. */
struct CmpWorkload
{
    std::string name;
    vantage::CmpConfig cfg;
    std::vector<vantage::AppSpec> apps;
    vantage::L2Spec spec;
    std::uint32_t banks = 0; ///< 0 = one flat L2.
    std::uint64_t seed = 1;
    /** Warm-up accesses per core (untimed). */
    std::uint64_t warmupAccesses = 0;
    /** Measured instructions per core behind sim_ipc_sum. */
    std::uint64_t checkInstrs = 0;
    /** Instructions per core per further measured run() call. */
    std::uint64_t chunkInstrs = 0;
    /** Stepped accesses per heartbeat (one latency "batch"). */
    std::uint64_t beatAccesses = 0;
    /** Heartbeats per fixed-work window. */
    std::uint32_t windowBeats = 0;
    /** Freshly built simulators per untraced run (see runCmp). */
    std::uint32_t rounds = 0;

    std::unique_ptr<vantage::SharedL2> buildL2() const;
};

/** Known CMP workload names. */
bool isCmpWorkload(const std::string &name);

/** The workload `name` under `seed` (apps, hashes and generators). */
CmpWorkload cmpWorkload(const std::string &name, std::uint64_t seed);

/**
 * Cold construction as vsim pays it: L2 arrays and scheme, L1s, UCP
 * monitors and the app generators. @return seconds.
 */
double cmpSetupSeconds(const CmpWorkload &w);

/**
 * Heartbeat-cut fixed-work windows: one timestamp per beat, the L2
 * access total at each window boundary, and kProbeSteps probe steps
 * after every beat. Beat times run on a clock that excludes the probe.
 */
class BeatWindows
{
  public:
    explicit BeatWindows(std::uint32_t windowBeats)
        : windowBeats_(windowBeats)
    {
    }

    /** The measured phase begins. */
    void
    start(std::uint64_t l2Total)
    {
        times_.assign(1, nowNs() - probeNs_);
        l2_.assign(1, l2Total);
        beatProbeNs_.clear();
        runProbe();
    }

    /** One beat; `l2Total` is read only at window boundaries. */
    template <typename L2Fn>
    void
    beat(L2Fn &&l2Total)
    {
        times_.push_back(nowNs() - probeNs_);
        if ((times_.size() - 1) % windowBeats_ == 0) {
            l2_.push_back(l2Total());
        }
        runProbe();
    }

    std::size_t windows() const { return l2_.empty() ? 0 : l2_.size() - 1; }

    /**
     * Append this run's windows: raw L2-access rates, the probe rate of
     * each window (weighted by beat time) and per-beat latencies (us),
     * each normalized by the probe run right after it.
     */
    void collect(std::vector<double> &rates, std::vector<double> &probes,
                 std::vector<std::vector<double>> &latencies) const;

    /** The estimate over this run's windows alone. */
    WindowEstimate estimate() const;

  private:
    void
    runProbe()
    {
        const std::uint64_t ns = probe_.run(kProbeSteps);
        probeNs_ += ns;
        beatProbeNs_.push_back(ns);
    }

    std::uint32_t windowBeats_;
    std::vector<std::uint64_t> times_;
    std::vector<std::uint64_t> l2_;
    HostProbe probe_;
    std::uint64_t probeNs_ = 0;
    /** Probe time after each beat; [0] follows start(). */
    std::vector<std::uint64_t> beatProbeNs_;
};

/**
 * CmpSim::warmup/run/step re-expressed over the public calls
 * (AppModel, Cache, Ucp, CoreClockHeap, SharedL2 through MirrorL2),
 * charging each layer to `clock`. Its digest and sum of IPCs equal
 * CmpSim's for the same call sequence.
 */
class CmpMirror
{
  public:
    CmpMirror(const CmpWorkload &w, LayerClock &clock,
              L2EventLog *log = nullptr);
    ~CmpMirror();

    void warmup(std::uint64_t accesses);
    void run(std::uint64_t instructions);

    /** Sum of IPCs of the last run() (CmpSim::throughput). */
    double throughput() const;

    std::uint64_t digest() const { return l2m_.digest(); }

    /** Begin heartbeat windows (every w.beatAccesses steps). */
    void startBeats();
    const BeatWindows &beats() const { return beats_; }

    std::uint64_t l2Accesses() const;

  private:
    struct Core
    {
        vantage::Cycle cycle = 0;
        std::uint64_t instructions = 0;
        double instrCarry = 0.0;
        std::uint64_t l2Accesses = 0;
        std::uint64_t l2Misses = 0;
        bool done = false;
        vantage::CoreResult snapshot;
        vantage::Cycle startCycle = 0;
        std::uint64_t startInstructions = 0;
        std::uint64_t startL2Accesses = 0;
        std::uint64_t startL2Misses = 0;
    };

    void step(std::uint32_t core);
    void maybeRepartition();
    void beatTick();
    void fillSnapshot(Core &cs);

    const CmpWorkload &w_;
    LayerClock &clock_;
    std::vector<std::unique_ptr<vantage::AppModel>> apps_;
    std::vector<std::unique_ptr<vantage::Cache>> l1s_;
    std::unique_ptr<vantage::SharedL2> l2_;
    MirrorL2 l2m_;
    std::unique_ptr<vantage::Ucp> ucp_;
    std::vector<Core> cores_;
    vantage::CoreClockHeap heap_;
    vantage::Cycle memFree_ = 0;
    std::uint64_t writebacksSeen_ = 0;
    vantage::Cycle nextRepartition_;
    bool beating_ = false;
    std::uint64_t beatTick_ = 0;
    BeatWindows beats_;
};

/** Run one CMP workload (untraced or traced) into `report`. */
void runCmp(const CmpWorkload &w, const RunOptions &opts,
            Report &report);

} // namespace perfbench

#endif // PERFBENCH_CMP_BENCH_H_
