/**
 * @file
 * Small numeric and output helpers shared by the benchmark drivers:
 * the host clock, the host-speed probe, nearest-rank percentiles, the
 * fixed-work window estimator and a flat JSON object writer.
 */

#ifndef PERFBENCH_STATS_UTIL_H_
#define PERFBENCH_STATS_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/** Host monotonic time in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** A nearest-rank percentile and how many samples lie above it. */
struct Percentile
{
    double value = std::nan("");
    std::size_t beyond = 0;
};

/**
 * Nearest-rank percentile of `v` (q in [0, 1]): the smallest sample
 * with at least q*n samples at or below it. `beyond` counts the
 * samples ranked above it. Empty input gives NaN.
 */
inline Percentile
percentile(std::vector<double> v, double q)
{
    Percentile p;
    if (v.empty()) {
        return p;
    }
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    idx = std::min(idx, v.size() - 1);
    p.value = v[idx];
    p.beyond = v.size() - 1 - idx;
    return p;
}

/**
 * A fixed reference for the host's current speed: a chain of dependent
 * single-cycle adds, so its rate follows the core clock the vCPU gets.
 * On the reference host the simulator's window rates switch between a
 * steady slow state and a faster, noisier one, and this chain's rate
 * switches with them (about 1.35 vs 2.1–2.5 G steps/s); of the probes
 * tried (pointer walks over 16 KiB, 1, 4 and 32 MiB, a small cache
 * model, this chain) it tracked the simulator most closely.
 * run() times `steps` steps.
 */
class HostProbe
{
  public:
    /** @return nanoseconds spent on `steps` dependent adds. */
    std::uint64_t
    run(std::uint32_t steps)
    {
        const std::uint64_t t0 = nowNs();
        std::uint64_t a = acc_;
        for (std::uint32_t i = 0; i < steps; ++i) {
            // The empty asm pins `a` to a register each step, so the
            // compiler can neither fold nor vectorize the chain.
            asm volatile("" : "+r"(a));
            ++a;
        }
        acc_ = a;
        return nowNs() - t0;
    }

  private:
    std::uint64_t acc_ = 0;
};

/**
 * Probe steps per interleaving point (one heartbeat, one serve batch
 * reply, 4096 replayed accesses): about 4 us on the reference host.
 */
constexpr std::uint32_t kProbeSteps = 8192;

/**
 * The reference host speed, in probe steps per second: about the
 * chain's rate on the reference host (4 vCPU KVM, Intel Xeon at
 * 2.0 GHz) in its fast state. A normalized rate is the measured rate
 * times kProbeRefRate / (the probe rate measured interleaved with the
 * same work); a normalized latency is scaled by the inverse, using
 * the probe run next to it.
 */
constexpr double kProbeRefRate = 2.0e9;

/** Probe steps per second from accumulated steps and nanoseconds. */
inline double
probeRate(std::uint64_t steps, std::uint64_t ns)
{
    return ns ? static_cast<double>(steps) * 1e9 / static_cast<double>(ns)
              : std::nan("");
}

/**
 * Fixed-work window estimate of one run. The host's speed drifts on
 * scales of seconds to minutes (see README.md, "Timing rule"), so each
 * window's work rate is normalized by the probe rate measured
 * interleaved with that window's work, and the run reports its median
 * window. The raw fastest window is kept as a diagnostic.
 */
struct WindowEstimate
{
    double rate = std::nan("");        ///< Median normalized rate.
    double p50 = std::nan("");         ///< Median normalized window p50.
    double p99 = std::nan("");         ///< Median normalized window p99.
    double rawFastRate = std::nan(""); ///< Fastest raw window rate.
    std::size_t windows = 0;
    std::size_t batchesPerWindow = 0;
    /** Fewest samples above any window's p99 (must be >= 10). */
    std::size_t minBeyondP99 = 0;
    /** Share of raw windows slower than kSlowFraction of the fastest. */
    double slowShare = 0.0;
    std::vector<double> windowRates; ///< Raw.
    std::vector<double> probeRates;  ///< Probe steps/s, per window.
};

/** A raw window slower than this share of the fastest is "slow". */
constexpr double kSlowFraction = 0.8;

/**
 * Estimate from per-window raw work rates, the probe rate of each
 * window and, per window, the latency of every batch in it, already
 * normalized by the probe run next to that batch (empty when
 * latencies are not kept).
 */
inline WindowEstimate
estimateWindows(const std::vector<double> &rates,
                const std::vector<double> &probeRates,
                const std::vector<std::vector<double>> &latencies)
{
    WindowEstimate e;
    e.windows = rates.size();
    e.windowRates = rates;
    e.probeRates = probeRates;
    if (rates.empty() || probeRates.size() != rates.size()) {
        return e;
    }
    e.rawFastRate = percentile(rates, 1.0).value;
    std::vector<double> norm;
    std::size_t slow = 0;
    for (std::size_t k = 0; k < rates.size(); ++k) {
        norm.push_back(rates[k] * kProbeRefRate / probeRates[k]);
        slow += rates[k] < kSlowFraction * e.rawFastRate ? 1 : 0;
    }
    e.rate = percentile(norm, 0.5).value;
    e.slowShare = static_cast<double>(slow) /
                  static_cast<double>(rates.size());
    std::vector<double> p50s, p99s;
    e.minBeyondP99 = latencies.empty() ? 0 : SIZE_MAX;
    for (std::size_t k = 0; k < latencies.size() && k < rates.size(); ++k) {
        const Percentile t = percentile(latencies[k], 0.99);
        p50s.push_back(percentile(latencies[k], 0.5).value);
        p99s.push_back(t.value);
        e.minBeyondP99 = std::min(e.minBeyondP99, t.beyond);
        e.batchesPerWindow =
            std::max(e.batchesPerWindow, latencies[k].size());
    }
    if (!p50s.empty()) {
        e.p50 = percentile(p50s, 0.5).value;
        e.p99 = percentile(p99s, 0.5).value;
    }
    return e;
}

/** A digest as 0x-prefixed 16-digit hex. */
inline std::string
hexDigest(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Process peak resident set (VmHWM) in MiB, or NaN. */
inline double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) {
        return std::nan("");
    }
    char line[256];
    double kb = std::nan("");
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        unsigned long long v = 0;
        if (std::sscanf(line, "VmHWM: %llu kB", &v) == 1) {
            kb = static_cast<double>(v);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

/** Flat JSON object writer: numbers, strings and number arrays. */
class JsonObject
{
  public:
    void
    num(const std::string &key, double v)
    {
        sep(key);
        if (std::isfinite(v)) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            out_ += buf;
        } else {
            out_ += "null";
        }
    }

    void
    str(const std::string &key, const std::string &v)
    {
        sep(key);
        out_ += '"';
        for (char c : v) {
            if (c == '"' || c == '\\') {
                out_ += '\\';
            }
            out_ += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
        }
        out_ += '"';
    }

    void
    boolean(const std::string &key, bool v)
    {
        sep(key);
        out_ += v ? "true" : "false";
    }

    void
    array(const std::string &key, const std::vector<double> &vs)
    {
        sep(key);
        out_ += '[';
        for (std::size_t i = 0; i < vs.size(); ++i) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%s%.6g", i ? "," : "",
                          std::isfinite(vs[i]) ? vs[i] : 0.0);
            out_ += buf;
        }
        out_ += ']';
    }

    /** Embed an already-serialized JSON value. */
    void
    raw(const std::string &key, const std::string &json)
    {
        sep(key);
        out_ += json;
    }

    std::string json() const { return "{" + out_ + "}"; }

  private:
    void
    sep(const std::string &key)
    {
        if (!out_.empty()) {
            out_ += ',';
        }
        out_ += '"';
        out_ += key;
        out_ += "\":";
    }

    std::string out_;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_UTIL_H_
