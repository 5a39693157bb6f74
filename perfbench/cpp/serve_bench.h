/**
 * @file
 * The serve_churn workload: a ServeServer thread on loopback driven
 * by one closed-loop client thread over 4 tenant connections (one
 * outstanding ACCESS_BATCH each, addresses from AppModel streams),
 * with tenants periodically leaving (BYE) and rejoining so slots are
 * reused and drain. Every session is journaled and replayed.
 */

#ifndef PERFBENCH_SERVE_BENCH_H_
#define PERFBENCH_SERVE_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "serve/frame.h"
#include "serve/journal.h"
#include "workload/app_model.h"

namespace perfbench {

/** What the client sends in one session. */
struct ClientPlan
{
    std::vector<vantage::AppSpec> apps; ///< One tenant per app.
    std::uint64_t seed = 1;
    std::uint32_t batchSize = 256;
    std::uint64_t warmBatches = 0;     ///< Not measured.
    std::uint64_t measuredBatches = 0;
    /** Batches a tenant runs before it leaves and rejoins (0 = never). */
    std::uint32_t rejoinEvery = 0;
    int timeoutMs = 10'000;
    /** Give up after this many failed operations. */
    std::uint64_t maxFailures = 32;
};

/** What the client saw. ERR replies, drops and timeouts all fail. */
struct ClientStats
{
    std::uint64_t attempted = 0; ///< Requests sent that expect a reply.
    std::uint64_t failed = 0;
    std::uint64_t errReplies = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t refusedJoins = 0;
    std::uint64_t joins = 0;
    std::uint64_t leaves = 0;
    /** Completion time (ns) of every batch, in completion order. */
    std::vector<std::uint64_t> batchDone;
    /** Round trip (us) of every batch, in completion order. */
    std::vector<double> batchRttUs;
    /** Host-probe time (ns, kProbeSteps steps) after every batch. */
    std::vector<std::uint64_t> batchProbeNs;
    /** STATS replies collected before each leave. */
    std::vector<vantage::TenantStats> stats;
};

/** The closed-loop tenant client (one thread, poll over sockets). */
class ServeClient
{
  public:
    ServeClient(std::uint16_t port, ClientPlan plan);
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Run the plan to completion (or to maxFailures). */
    ClientStats run();

    /** Ask the daemon on `port` to stop. @return false on failure. */
    static bool sendShutdown(std::uint16_t port);

  private:
    struct Tenant;

    bool connectTenant(Tenant &t);
    void send(Tenant &t, vantage::FrameType type,
              const std::vector<std::uint8_t> &payload);
    void sendBatch(Tenant &t);
    void handle(Tenant &t, const vantage::Frame &frame);
    void fail(Tenant &t, bool reconnect);

    std::uint16_t port_;
    ClientPlan plan_;
    std::vector<Tenant> tenants_;
    ClientStats stats_;
    HostProbe probe_;
    std::uint64_t issued_ = 0;
};

/** The serve_churn daemon configuration under `seed`. */
vantage::JournalHeader serveHeader(std::uint64_t seed);

/** The serve_churn client plan for one session under `seed`. */
ClientPlan serveClientPlan(std::uint64_t seed, std::uint32_t session);

/** Batches per fixed-work window (>= 10 beyond each window's p99). */
constexpr std::uint32_t kServeWindowBatches = 1200;

/**
 * Cold set-up as `vsim --serve` pays it: the TenantSim, the server
 * bind and the journal open (journal written under `dir`).
 * @return seconds.
 */
double serveSetupSeconds(std::uint64_t seed, const std::string &dir);

/** Run serve_churn (untraced or traced) into `report`. */
void runServe(const RunOptions &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_SERVE_BENCH_H_
