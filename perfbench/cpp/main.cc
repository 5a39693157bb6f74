/**
 * @file
 * perfbench: the benchmark's measuring binary (driven by run.py).
 *
 *   perfbench setup --workload W --seed N --out-dir D
 *       one cold construction; prints {"setup_s": ...}
 *   perfbench run --workload W --seed N --seconds S --trace 0|1
 *                 --out-dir D
 *       the measured run; prints a "diagnostics: {...}" line, then
 *       {"correct", "attempted", "failed", "metrics", "failures"}.
 *
 * Exit status: 0 when every output check passed, 1 when one failed,
 * 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cmp_bench.h"
#include "common/hp_alloc.h"
#include "serve_bench.h"
#include "simd/simd.h"

using namespace perfbench;

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench setup|run --workload W "
                 "--seed N [--seconds S] [--trace 0|1] [--out-dir D]\n",
                 msg);
    return 2;
}

bool
parseU64(const std::string &s, std::uint64_t &v)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
        return false;
    }
    v = std::strtoull(s.c_str(), nullptr, 10);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        return usage("missing mode");
    }
    const std::string mode = argv[1];
    std::string workload;
    RunOptions opts;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        std::uint64_t v = 0;
        if (key == "--workload") {
            workload = val;
        } else if (key == "--seed" && parseU64(val, v)) {
            opts.seed = v;
        } else if (key == "--seconds" && parseU64(val, v) && v > 0) {
            opts.seconds = static_cast<double>(v);
        } else if (key == "--trace" && (val == "0" || val == "1")) {
            opts.trace = val == "1";
        } else if (key == "--out-dir") {
            opts.outDir = val;
        } else {
            return usage(("bad argument " + key + " " + val).c_str());
        }
    }
    if ((argc - 2) % 2 != 0) {
        return usage("odd argument count");
    }
    const bool cmp = isCmpWorkload(workload);
    if (!cmp && workload != "serve_churn") {
        return usage(("unknown workload '" + workload + "'").c_str());
    }

    if (mode == "setup") {
        const double secs = cmp ? cmpSetupSeconds(cmpWorkload(workload,
                                                              opts.seed))
                                : serveSetupSeconds(opts.seed, opts.outDir);
        JsonObject o;
        o.num("setup_s", secs);
        std::printf("%s\n", o.json().c_str());
        return 0;
    }
    if (mode != "run") {
        return usage(("unknown mode '" + mode + "'").c_str());
    }

    Report report;
    if (cmp) {
        runCmp(cmpWorkload(workload, opts.seed), opts, report);
    } else {
        runServe(opts, report);
    }
    const Outcome &out = report.outcome;
    report.diagnostics.str("simd", vantage::simd::levelName());
    report.diagnostics.boolean("hugepages", vantage::hugePagesEnabled());
    std::printf("diagnostics: %s\n", report.diagnostics.json().c_str());

    JsonObject result;
    result.boolean("correct", out.correct());
    result.num("attempted", static_cast<double>(out.attempted));
    result.num("failed",
               static_cast<double>(out.failed + out.failures.size()));
    result.raw("metrics", report.metrics.json());
    std::string failures = "[";
    for (std::size_t i = 0; i < out.failures.size(); ++i) {
        JsonObject f;
        f.str("check", out.failures[i]);
        if (i > 0) {
            failures += ',';
        }
        failures += f.json();
    }
    result.raw("failures", failures + "]");
    std::printf("%s\n", result.json().c_str());
    for (const std::string &f : out.failures) {
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    }
    return out.correct() ? 0 : 1;
}
