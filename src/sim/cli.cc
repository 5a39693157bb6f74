#include "sim/cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "obs/qos.h"

namespace vantage {

namespace {

/** Split a comma-separated list. */
std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::istringstream in(value);
    std::string item;
    while (std::getline(in, item, ',')) {
        if (!item.empty()) {
            out.push_back(item);
        }
    }
    return out;
}

bool
parseU64(const std::string &value, std::uint64_t &out)
{
    // strtoull alone would silently wrap negatives ("-5" parses as
    // 2^64-5), so a zero/negative guard downstream never fires;
    // require pure digits up front.
    if (value.empty()) {
        return false;
    }
    for (const char c : value) {
        if (c < '0' || c > '9') {
            return false;
        }
    }
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(value.c_str(), &end, 10);
    return end != nullptr && *end == '\0' && errno != ERANGE;
}

bool
parseF(const std::string &value, double &out)
{
    char *end = nullptr;
    out = std::strtod(value.c_str(), &end);
    return end != nullptr && *end == '\0' && !value.empty();
}

} // namespace

std::optional<SchemeKind>
schemeFromName(const std::string &name)
{
    if (name == "lru") return SchemeKind::UnpartLru;
    if (name == "srrip") return SchemeKind::UnpartSrrip;
    if (name == "drrip") return SchemeKind::UnpartDrrip;
    if (name == "tadrrip") return SchemeKind::UnpartTaDrrip;
    if (name == "waypart") return SchemeKind::WayPart;
    if (name == "pipp") return SchemeKind::Pipp;
    if (name == "vantage") return SchemeKind::Vantage;
    if (name == "vantage-drrip") return SchemeKind::VantageDrrip;
    if (name == "vantage-oracle") return SchemeKind::VantageOracle;
    return std::nullopt;
}

std::optional<ArrayKind>
arrayFromName(const std::string &name)
{
    if (name == "z4-52") return ArrayKind::Z4_52;
    if (name == "z4-16") return ArrayKind::Z4_16;
    if (name == "sa16") return ArrayKind::SA16;
    if (name == "sa64") return ArrayKind::SA64;
    if (name == "random") return ArrayKind::Random;
    return std::nullopt;
}

std::string
cliUsage()
{
    return "usage: vsim [options]\n"
           "\n"
           "workload (choose one):\n"
           "  --mix CLASS[:SEED]   mix class 0-34 (see DESIGN.md)\n"
           "  --apps a,b,c         profile names (one per core)\n"
           "  --traces f1,f2       trace files (one per core)\n"
           "\n"
           "machine:\n"
           "  --cores N            core count (default: app count)\n"
           "  --l2-lines N         L2 lines (default: paper machine)\n"
           "  --banks N            split the L2 into N banks, each\n"
           "                       with its own controller (paper\n"
           "                       Table 2; N must divide the line\n"
           "                       count; default: flat cache)\n"
           "  --no-ucp             static equal allocations\n"
           "  --repartition N      UCP interval in cycles\n"
           "\n"
           "L2 management:\n"
           "  --scheme NAME        lru srrip drrip tadrrip waypart\n"
           "                       pipp vantage vantage-drrip\n"
           "                       vantage-oracle (default vantage)\n"
           "  --array NAME         z4-52 z4-16 sa16 sa64 random\n"
           "  --unmanaged F        Vantage u (default 0.05)\n"
           "  --amax F             Vantage Amax (default 0.5)\n"
           "  --slack F            Vantage slack (default 0.1)\n"
           "\n"
           "run:\n"
           "  --instrs N           measured instructions per core\n"
           "  --warmup N           warmup accesses per core\n"
           "  --seed N             simulation seed\n"
           "  --jobs N             parallel jobs for suite-style\n"
           "                       runs (or $VANTAGE_JOBS; default\n"
           "                       hardware concurrency; a single\n"
           "                       vsim simulation always runs on\n"
           "                       one thread)\n"
           "\n"
           "observability:\n"
           "  --stats-out FILE     write end-of-run stats as JSON\n"
           "  --trace-out FILE     write a controller trace as CSV\n"
           "                       (vantage schemes only)\n"
           "  --stats-period N     controller accesses between trace\n"
           "                       samples (default 10000)\n"
           "  --events-out FILE    write a Chrome trace_event JSON\n"
           "                       timeline (open in Perfetto or\n"
           "                       chrome://tracing)\n"
           "  --trace-categories L comma list for --events-out:\n"
           "                       access,vantage,zcache,alloc,pool,\n"
           "                       suite,sim or all (default all;\n"
           "                       access/vantage/zcache detail needs\n"
           "                       a -DVANTAGE_TRACE=ON build)\n"
           "  --heartbeat N        single-line JSON progress record\n"
           "                       on stderr every N memory accesses\n"
           "  --heartbeat-out FILE append heartbeat records to FILE\n"
           "                       instead of stderr (implies\n"
           "                       --heartbeat with its default\n"
           "                       cadence when not given)\n"
           "  --metrics-port N     serve live Prometheus metrics on\n"
           "                       127.0.0.1:N (0 picks a free port,\n"
           "                       announced on stderr); scrape\n"
           "                       /metrics, or watch with\n"
           "                       scripts/vsim_top.py\n"
           "  --metrics-period-ms N  metrics sampling epoch\n"
           "                       (default 250)\n"
           "  --digest             print a 64-bit FNV-1a digest of\n"
           "                       per-access L2 outcomes (golden\n"
           "                       regression tests)\n"
           "  --slo SPEC           per-partition QoS SLOs, checked\n"
           "                       every epoch; SPEC is ';'-joined\n"
           "                       clauses of 'key=value' pairs with\n"
           "                       keys slack, aperture_bp, missrate,\n"
           "                       latency_us; an 'N:' prefix scopes\n"
           "                       a clause to partition N (see\n"
           "                       README \"QoS engine\")\n"
           "  --qos-out FILE       append QoS violation events and\n"
           "                       the decision audit tail as JSON\n"
           "                       lines (implies QoS evaluation)\n"
           "\n"
           "serve / replay (see README \"Serve mode\"):\n"
           "  --serve PORT         run as a daemon on 127.0.0.1:PORT\n"
           "                       (0 picks a free port, announced\n"
           "                       on stderr); tenants join/leave\n"
           "                       over the frame protocol and each\n"
           "                       gets its own partition\n"
           "  --serve-journal FILE journal every event (joins,\n"
           "                       leaves, accesses) for --replay\n"
           "  --replay FILE        re-execute a journal; prints a\n"
           "                       digest bit-identical to the\n"
           "                       recording session's\n"
           "  --lifecycle N        synthetic serve session: N\n"
           "                       accesses with seeded tenant\n"
           "                       join/leave churn (no sockets)\n"
           "  --max-tenants N      tenant slot capacity for --serve\n"
           "                       and --lifecycle (default 8)\n"
           "  --epoch N            accesses per repartitioning epoch\n"
           "                       in serve/lifecycle mode\n"
           "                       (default 50000)\n"
           "\n"
           "Options also accept the --option=value form.\n"
           "  --help               this text\n";
}

CliOptions
parseCli(const std::vector<std::string> &args, std::string &error)
{
    CliOptions opts;
    opts.machine = CmpConfig::small4Core();
    opts.l2.scheme = SchemeKind::Vantage;
    opts.l2.array = ArrayKind::Z4_52;
    opts.l2.lines = 0; // Resolved after cores are known.
    opts.scale.warmupAccesses = 50'000;
    opts.scale.instructions = 1'000'000;
    error.clear();

    std::uint64_t cores = 0;

    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string arg = args[i];
        // --option=value is equivalent to --option value.
        std::string inline_value;
        bool has_inline = false;
        if (arg.size() > 2 && arg.compare(0, 2, "--") == 0) {
            const std::size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg = arg.substr(0, eq);
                has_inline = true;
            }
        }
        auto next = [&](std::string &out) {
            if (has_inline) {
                out = inline_value;
                return true;
            }
            if (i + 1 >= args.size()) {
                error = arg + " needs a value";
                return false;
            }
            out = args[++i];
            return true;
        };

        std::string value;
        if (arg == "--help" || arg == "-h" || arg == "--no-ucp" ||
            arg == "--digest") {
            if (has_inline) {
                error = arg + " takes no value";
                return opts;
            }
            if (arg == "--no-ucp") {
                opts.machine.useUcp = false;
                continue;
            }
            if (arg == "--digest") {
                opts.digest = true;
                continue;
            }
            opts.showHelp = true;
            return opts;
        } else if (arg == "--cores") {
            if (!next(value) || !parseU64(value, cores) ||
                cores == 0) {
                error = "bad --cores value";
                return opts;
            }
        } else if (arg == "--scheme") {
            if (!next(value)) return opts;
            const auto kind = schemeFromName(value);
            if (!kind) {
                error = "unknown scheme '" + value + "'";
                return opts;
            }
            opts.l2.scheme = *kind;
        } else if (arg == "--array") {
            if (!next(value)) return opts;
            const auto kind = arrayFromName(value);
            if (!kind) {
                error = "unknown array '" + value + "'";
                return opts;
            }
            opts.l2.array = *kind;
        } else if (arg == "--mix") {
            if (!next(value)) return opts;
            std::uint32_t cls = 0, mix_seed = 0;
            const auto colon = value.find(':');
            std::uint64_t tmp = 0;
            if (!parseU64(value.substr(0, colon), tmp) || tmp >= 35) {
                error = "bad --mix class (0-34)";
                return opts;
            }
            cls = static_cast<std::uint32_t>(tmp);
            if (colon != std::string::npos) {
                if (!parseU64(value.substr(colon + 1), tmp)) {
                    error = "bad --mix seed";
                    return opts;
                }
                mix_seed = static_cast<std::uint32_t>(tmp);
            }
            opts.mix = {cls, mix_seed};
        } else if (arg == "--apps") {
            if (!next(value)) return opts;
            opts.apps = splitList(value);
        } else if (arg == "--traces") {
            if (!next(value)) return opts;
            opts.traces = splitList(value);
        } else if (arg == "--instrs") {
            if (!next(value) ||
                !parseU64(value, opts.scale.instructions)) {
                error = "bad --instrs value";
                return opts;
            }
        } else if (arg == "--warmup") {
            if (!next(value) ||
                !parseU64(value, opts.scale.warmupAccesses)) {
                error = "bad --warmup value";
                return opts;
            }
        } else if (arg == "--l2-lines") {
            if (!next(value) || !parseU64(value, opts.l2.lines)) {
                error = "bad --l2-lines value";
                return opts;
            }
        } else if (arg == "--banks") {
            std::uint64_t banks = 0;
            if (!next(value) || !parseU64(value, banks) ||
                banks == 0 || banks > 1024) {
                error = "bad --banks value (1-1024)";
                return opts;
            }
            opts.banks = static_cast<std::uint32_t>(banks);
        } else if (arg == "--unmanaged") {
            if (!next(value) ||
                !parseF(value, opts.l2.vantage.unmanagedFraction)) {
                error = "bad --unmanaged value";
                return opts;
            }
        } else if (arg == "--amax") {
            if (!next(value) ||
                !parseF(value, opts.l2.vantage.maxAperture)) {
                error = "bad --amax value";
                return opts;
            }
        } else if (arg == "--slack") {
            if (!next(value) ||
                !parseF(value, opts.l2.vantage.slack)) {
                error = "bad --slack value";
                return opts;
            }
        } else if (arg == "--repartition") {
            if (!next(value) ||
                !parseU64(value,
                          opts.machine.repartitionCycles)) {
                error = "bad --repartition value";
                return opts;
            }
        } else if (arg == "--seed") {
            if (!next(value) || !parseU64(value, opts.seed)) {
                error = "bad --seed value";
                return opts;
            }
        } else if (arg == "--jobs") {
            std::uint64_t jobs = 0;
            if (!next(value) || !parseU64(value, jobs) ||
                jobs == 0) {
                error = "bad --jobs value";
                return opts;
            }
            opts.scale.jobs = static_cast<std::uint32_t>(jobs);
        } else if (arg == "--stats-out") {
            if (!next(value) || value.empty()) {
                error = "bad --stats-out value";
                return opts;
            }
            opts.statsOut = value;
        } else if (arg == "--trace-out") {
            if (!next(value) || value.empty()) {
                error = "bad --trace-out value";
                return opts;
            }
            opts.traceOut = value;
        } else if (arg == "--stats-period") {
            if (!next(value) ||
                !parseU64(value, opts.scale.statsPeriod) ||
                opts.scale.statsPeriod == 0) {
                error = "bad --stats-period value";
                return opts;
            }
        } else if (arg == "--events-out") {
            if (!next(value) || value.empty()) {
                error = "bad --events-out value";
                return opts;
            }
            opts.eventsOut = value;
        } else if (arg == "--trace-categories") {
            if (!next(value)) return opts;
            std::string cat_error;
            const std::uint32_t mask =
                TraceSession::parseCategories(value, cat_error);
            if (!cat_error.empty()) {
                error = cat_error;
                return opts;
            }
            opts.traceCategories = mask;
        } else if (arg == "--heartbeat") {
            if (!next(value) ||
                !parseU64(value, opts.scale.heartbeatEvery) ||
                opts.scale.heartbeatEvery == 0) {
                error = "bad --heartbeat value";
                return opts;
            }
        } else if (arg == "--heartbeat-out") {
            if (!next(value) || value.empty()) {
                error = "bad --heartbeat-out value";
                return opts;
            }
            opts.heartbeatOut = value;
        } else if (arg == "--metrics-port") {
            std::uint64_t port = 0;
            if (!next(value) || !parseU64(value, port) ||
                port > 65535) {
                error = "bad --metrics-port value (0-65535)";
                return opts;
            }
            opts.metricsPort = static_cast<int>(port);
        } else if (arg == "--serve") {
            std::uint64_t port = 0;
            if (!next(value) || !parseU64(value, port) ||
                port > 65535) {
                error = "bad --serve port (0-65535)";
                return opts;
            }
            opts.servePort = static_cast<int>(port);
        } else if (arg == "--serve-journal") {
            if (!next(value) || value.empty()) {
                error = "bad --serve-journal value";
                return opts;
            }
            opts.serveJournal = value;
        } else if (arg == "--replay") {
            if (!next(value) || value.empty()) {
                error = "bad --replay value";
                return opts;
            }
            opts.replayPath = value;
        } else if (arg == "--lifecycle") {
            if (!next(value) ||
                !parseU64(value, opts.lifecycleAccesses) ||
                opts.lifecycleAccesses == 0) {
                error = "bad --lifecycle value";
                return opts;
            }
        } else if (arg == "--max-tenants") {
            std::uint64_t tenants = 0;
            if (!next(value) || !parseU64(value, tenants) ||
                tenants == 0 || tenants > 1024) {
                error = "bad --max-tenants value (1-1024)";
                return opts;
            }
            opts.maxTenants = static_cast<std::uint32_t>(tenants);
        } else if (arg == "--epoch") {
            if (!next(value) ||
                !parseU64(value, opts.epochAccesses) ||
                opts.epochAccesses == 0) {
                error = "bad --epoch value";
                return opts;
            }
        } else if (arg == "--metrics-period-ms") {
            if (!next(value) ||
                !parseU64(value, opts.metricsPeriodMs) ||
                opts.metricsPeriodMs == 0) {
                error = "bad --metrics-period-ms value";
                return opts;
            }
        } else if (arg == "--slo") {
            if (!next(value) || value.empty()) {
                error = "bad --slo value";
                return opts;
            }
            // Validate the grammar here so a typo exits with a
            // message instead of surfacing mid-run.
            QosConfig probe;
            std::string slo_error;
            if (!parseSloSpec(value, probe, slo_error)) {
                error = "bad --slo spec: " + slo_error;
                return opts;
            }
            opts.sloSpec = value;
        } else if (arg == "--qos-out") {
            if (!next(value) || value.empty()) {
                error = "bad --qos-out value";
                return opts;
            }
            opts.qosOut = value;
        } else {
            error = "unknown option '" + arg + "'";
            return opts;
        }
    }

    // Workload selection: exactly one source.
    const int sources = (opts.mix ? 1 : 0) +
                        (opts.apps.empty() ? 0 : 1) +
                        (opts.traces.empty() ? 0 : 1);
    if (sources == 0) {
        opts.mix = {10u, 0u}; // A mixed default class.
    } else if (sources > 1) {
        error = "choose one of --mix / --apps / --traces";
        return opts;
    }

    // Resolve core count.
    std::uint32_t inferred = 4;
    if (!opts.apps.empty()) {
        inferred = static_cast<std::uint32_t>(opts.apps.size());
    } else if (!opts.traces.empty()) {
        inferred = static_cast<std::uint32_t>(opts.traces.size());
    }
    opts.machine.numCores =
        cores ? static_cast<std::uint32_t>(cores) : inferred;
    if (opts.mix && cores && cores % 4 != 0) {
        error = "--mix needs a multiple of 4 cores";
        return opts;
    }

    if (opts.machine.numCores > 4) {
        // Big machine defaults for big runs.
        const CmpConfig big = CmpConfig::large32Core();
        opts.machine.memCyclesPerLine = big.memCyclesPerLine;
        opts.machine.ucp = big.ucp;
        opts.machine.useUcp = opts.machine.useUcp && true;
    }
    // Range-check the Vantage knobs here so a bad value exits with a
    // message instead of tripping an assert deep in the controller.
    const VantageConfig &v = opts.l2.vantage;
    if (!(v.unmanagedFraction > 0.0 && v.unmanagedFraction < 1.0)) {
        error = "--unmanaged must be in (0, 1)";
        return opts;
    }
    if (!(v.maxAperture > 0.0 && v.maxAperture <= 1.0)) {
        error = "--amax must be in (0, 1]";
        return opts;
    }
    if (!(v.slack > 0.0 && v.slack < 1.0)) {
        error = "--slack must be in (0, 1)";
        return opts;
    }

    if (opts.l2.lines == 0) {
        opts.l2.lines = opts.machine.l2Lines();
    }
    // A bank split that does not divide the lines, or a per-bank
    // geometry the array cannot build, is a configuration error, not
    // an assert.
    if (opts.banks > 0 && opts.l2.lines % opts.banks != 0) {
        error = "--banks must divide the L2 line count";
        return opts;
    }
    // Every bank holds all partitions: one per core, or one per
    // tenant slot when tenants drive the cache.
    L2Spec bank_spec = opts.l2;
    bank_spec.numPartitions =
        opts.servePort >= 0 || opts.lifecycleAccesses > 0
            ? opts.maxTenants
            : opts.machine.numCores;
    const std::uint64_t bank_lines =
        opts.l2.lines / std::max<std::uint32_t>(opts.banks, 1);
    const std::string geometry = arrayGeometryError(bank_spec, bank_lines);
    if (!geometry.empty()) {
        error = (opts.banks > 0 ? "--l2-lines / --banks: "
                                : "--l2-lines: ") +
                geometry;
        return opts;
    }
    // Serve / replay / lifecycle select the whole run mode; they
    // cannot be combined with each other.
    const int modes = (opts.servePort >= 0 ? 1 : 0) +
                      (opts.replayPath.empty() ? 0 : 1) +
                      (opts.lifecycleAccesses > 0 ? 1 : 0);
    if (modes > 1) {
        error = "choose one of --serve / --replay / --lifecycle";
        return opts;
    }
    if (!opts.serveJournal.empty() && opts.servePort < 0 &&
        opts.lifecycleAccesses == 0) {
        error = "--serve-journal requires --serve or --lifecycle";
        return opts;
    }
    if (!opts.replayPath.empty() && !opts.digest) {
        // Replay's whole point is the digest; always print it.
        opts.digest = true;
    }
    opts.l2.numPartitions = opts.machine.numCores;
    opts.l2.seed = opts.seed + 0x5ec;
    return opts;
}

} // namespace vantage
