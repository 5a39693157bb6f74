/**
 * @file
 * What every workload runner takes and reports.
 */

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats_util.h"

namespace perfbench {

/** Per-run options from the command line. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for journals and trace files (inside the checkout). */
    std::string outDir = ".";
};

/**
 * Output checks and operation accounting of one run. Each failed
 * check also counts as one failed operation.
 */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; ///< Failed operations besides checks.
    std::vector<std::string> failures;

    /** Record a check; a false `ok` fails the run. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            failures.push_back(what);
        }
    }

    bool correct() const { return failures.empty(); }
};

/** Metrics (reported) and diagnostics (printed, not reported). */
struct Report
{
    JsonObject metrics;
    JsonObject diagnostics;
    Outcome outcome;
};

/** Window-estimate diagnostics shared by every workload. */
inline void
addWindowDiagnostics(JsonObject &d, const std::string &prefix,
                     const WindowEstimate &e)
{
    d.num(prefix + "windows", static_cast<double>(e.windows));
    d.num(prefix + "batches_per_window",
          static_cast<double>(e.batchesPerWindow));
    d.num(prefix + "min_beyond_p99", static_cast<double>(e.minBeyondP99));
    d.num(prefix + "slow_share", e.slowShare);
    d.num(prefix + "raw_fastest_rate", e.rawFastRate);
    d.array(prefix + "window_rates", e.windowRates);
    d.array(prefix + "probe_rates", e.probeRates);
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
