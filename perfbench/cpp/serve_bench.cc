#include "serve_bench.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "l2_mirror.h"
#include "serve/server.h"
#include "serve/tenant_sim.h"
#include "sim/cmp_config.h"
#include "workload/mixes.h"

namespace perfbench {

using namespace vantage;

namespace {

/// Sessions per untraced run are as many as fit in --seconds; each
/// measures this many windows after its warm-up.
constexpr std::uint32_t kSessionWindows = 3;

/// Full spans for 1 serve batch in 2^8 (a batch holds ~2k spans).
constexpr unsigned kServeSampleShift = 8;

/// Probe steps on each side of a replayJournal call (~1 ms each).
constexpr std::uint32_t kReplayProbeSteps = 1u << 21;

/** Close a socket if open. */
void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/** Connect to the loopback daemon; -1 on failure. */
int
dial(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::vector<std::uint8_t> &wire)
{
    std::size_t sent = 0;
    while (sent < wire.size()) {
        const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

/** Read until one frame decodes; false on EOF, error or timeout. */
bool
readFrame(int fd, FrameDecoder &decoder, Frame &frame, int timeoutMs)
{
    std::string error;
    std::uint8_t buf[4096];
    while (!decoder.next(frame, error)) {
        if (!error.empty()) {
            return false;
        }
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, timeoutMs) <= 0) {
            return false;
        }
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            return false;
        }
        decoder.feed(buf, static_cast<std::size_t>(n));
    }
    return true;
}

} // namespace

// ----------------------------------------------------------------------
// Client.

struct ServeClient::Tenant
{
    enum class State { Off, AwaitHello, AwaitBatch, AwaitStats, AwaitBye,
                       Done };
    int fd = -1;
    State state = State::Off;
    FrameDecoder decoder;
    std::unique_ptr<AppModel> app;
    std::string name;
    std::uint32_t sinceJoin = 0;
    std::uint64_t sentAt = 0;
};

ServeClient::ServeClient(std::uint16_t port, ClientPlan plan)
    : port_(port), plan_(std::move(plan))
{
    tenants_.resize(plan_.apps.size());
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        const auto id = static_cast<std::uint32_t>(i);
        tenants_[i].app = std::make_unique<AppModel>(
            plan_.apps[i], id, plan_.seed * 7919 + id);
        tenants_[i].name = "tenant" + std::to_string(i);
    }
}

ServeClient::~ServeClient()
{
    for (Tenant &t : tenants_) {
        closeFd(t.fd);
    }
}

bool
ServeClient::connectTenant(Tenant &t)
{
    closeFd(t.fd);
    t.decoder = FrameDecoder{};
    t.fd = dial(port_);
    if (t.fd < 0) {
        ++stats_.failed;
        t.state = Tenant::State::Off;
        return false;
    }
    t.state = Tenant::State::AwaitHello;
    send(t, FrameType::Hello, buildHello(t.name));
    return t.fd >= 0;
}

void
ServeClient::send(Tenant &t, FrameType type,
                  const std::vector<std::uint8_t> &payload)
{
    ++stats_.attempted;
    if (!sendAll(t.fd, encodeFrame(type, payload))) {
        ++stats_.disconnects;
        fail(t, false);
    }
}

void
ServeClient::fail(Tenant &t, bool reconnect)
{
    ++stats_.failed;
    closeFd(t.fd);
    t.state = Tenant::State::Off;
    if (reconnect && stats_.failed < plan_.maxFailures) {
        connectTenant(t);
    }
}

void
ServeClient::sendBatch(Tenant &t)
{
    if (issued_ >= plan_.warmBatches + plan_.measuredBatches) {
        t.state = Tenant::State::Done;
        return;
    }
    std::vector<BatchAccess> batch(plan_.batchSize);
    for (BatchAccess &a : batch) {
        const MemRef ref = t.app->next();
        a.addr = ref.addr;
        a.type = ref.type;
    }
    const std::vector<std::uint8_t> payload = buildAccessBatch(batch);
    ++issued_;
    t.state = Tenant::State::AwaitBatch;
    t.sentAt = nowNs();
    send(t, FrameType::AccessBatch, payload);
}

void
ServeClient::handle(Tenant &t, const Frame &frame)
{
    if (frame.type == FrameType::Err) {
        ++stats_.errReplies;
        std::string message;
        parseErr(frame.payload, message);
        if (t.state == Tenant::State::AwaitHello) {
            // A refused join is not retried: the daemon is full.
            stats_.refusedJoins += message == "server full";
            fail(t, false);
            return;
        }
        fail(t, true); // The daemon drops a connection after ERR.
        return;
    }
    switch (t.state) {
      case Tenant::State::AwaitHello: {
        std::uint16_t slot = 0;
        if (frame.type != FrameType::Ok || !parseOkSlot(frame.payload, slot)) {
            fail(t, false);
            return;
        }
        ++stats_.joins;
        t.sinceJoin = 0;
        sendBatch(t);
        return;
      }
      case Tenant::State::AwaitBatch: {
        std::uint32_t hits = 0;
        if (frame.type != FrameType::Ok || !parseOkHits(frame.payload, hits)) {
            fail(t, true);
            return;
        }
        const std::uint64_t now = nowNs();
        stats_.batchDone.push_back(now);
        stats_.batchRttUs.push_back(static_cast<double>(now - t.sentAt) /
                                    1000.0);
        stats_.batchProbeNs.push_back(probe_.run(kProbeSteps));
        ++t.sinceJoin;
        if (plan_.rejoinEvery != 0 && t.sinceJoin >= plan_.rejoinEvery &&
            issued_ < plan_.warmBatches + plan_.measuredBatches) {
            t.state = Tenant::State::AwaitStats;
            send(t, FrameType::Stats, {});
            return;
        }
        sendBatch(t);
        return;
      }
      case Tenant::State::AwaitStats: {
        TenantStats ts;
        if (frame.type != FrameType::StatsReply ||
            !parseStatsReply(frame.payload, ts)) {
            fail(t, true);
            return;
        }
        stats_.stats.push_back(ts);
        t.state = Tenant::State::AwaitBye;
        send(t, FrameType::Bye, {});
        return;
      }
      case Tenant::State::AwaitBye:
        if (frame.type != FrameType::Ok) {
            fail(t, true);
            return;
        }
        ++stats_.leaves;
        connectTenant(t); // Rejoin: the daemon picks a (drained) slot.
        return;
      case Tenant::State::Off:
      case Tenant::State::Done:
        fail(t, false); // Unsolicited frame.
        return;
    }
}

ClientStats
ServeClient::run()
{
    for (Tenant &t : tenants_) {
        connectTenant(t);
    }
    std::vector<pollfd> fds;
    std::vector<Tenant *> polled;
    std::uint8_t buf[64 * 1024];
    while (stats_.failed < plan_.maxFailures) {
        fds.clear();
        polled.clear();
        for (Tenant &t : tenants_) {
            if (t.fd >= 0 && t.state != Tenant::State::Done &&
                t.state != Tenant::State::Off) {
                fds.push_back({t.fd, POLLIN, 0});
                polled.push_back(&t);
            }
        }
        if (fds.empty()) {
            break;
        }
        const int ready = ::poll(fds.data(), fds.size(), plan_.timeoutMs);
        if (ready < 0 && errno == EINTR) {
            continue;
        }
        if (ready <= 0) {
            // Every outstanding request timed out.
            ++stats_.timeouts;
            stats_.failed += fds.size();
            break;
        }
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
                continue;
            }
            Tenant &t = *polled[i];
            const ssize_t n = ::recv(t.fd, buf, sizeof(buf), 0);
            if (n <= 0) {
                ++stats_.disconnects;
                fail(t, true);
                continue;
            }
            t.decoder.feed(buf, static_cast<std::size_t>(n));
            const int fd = t.fd;
            Frame frame;
            std::string error;
            while (t.fd == fd && t.decoder.next(frame, error)) {
                handle(t, frame);
            }
            if (t.fd == fd && !error.empty()) {
                fail(t, true);
            }
        }
    }

    // Graceful end: every joined tenant reports its stats and leaves.
    for (Tenant &t : tenants_) {
        if (t.fd < 0 || t.state != Tenant::State::Done) {
            continue;
        }
        Frame reply;
        TenantStats ts;
        ++stats_.attempted;
        if (!sendAll(t.fd, encodeFrame(FrameType::Stats, {})) ||
            !readFrame(t.fd, t.decoder, reply, plan_.timeoutMs) ||
            reply.type != FrameType::StatsReply ||
            !parseStatsReply(reply.payload, ts)) {
            fail(t, false);
            continue;
        }
        stats_.stats.push_back(ts);
        ++stats_.attempted;
        if (!sendAll(t.fd, encodeFrame(FrameType::Bye, {})) ||
            !readFrame(t.fd, t.decoder, reply, plan_.timeoutMs) ||
            reply.type != FrameType::Ok) {
            fail(t, false);
            continue;
        }
        ++stats_.leaves;
        closeFd(t.fd);
        t.state = Tenant::State::Off;
    }
    return stats_;
}

bool
ServeClient::sendShutdown(std::uint16_t port)
{
    int fd = dial(port);
    if (fd < 0) {
        return false;
    }
    FrameDecoder decoder;
    Frame reply;
    const bool ok = sendAll(fd, encodeFrame(FrameType::Shutdown, {})) &&
                    readFrame(fd, decoder, reply, 10'000) &&
                    reply.type == FrameType::Ok;
    closeFd(fd);
    return ok;
}

// ----------------------------------------------------------------------
// Workload definition and set-up.

JournalHeader
serveHeader(std::uint64_t seed)
{
    JournalHeader hdr;
    hdr.spec.array = ArrayKind::Z4_52;
    hdr.spec.scheme = SchemeKind::Vantage;
    hdr.spec.lines = CmpConfig::small4Core().l2Lines(); // 2 MB.
    hdr.spec.seed = seed + 0x5ec;
    // vsim --serve defaults: 8 slots, UCP every 50k accesses.
    hdr.maxTenants = 8;
    hdr.spec.numPartitions = hdr.maxTenants;
    hdr.epochAccesses = 50'000;
    hdr.useUcp = true;
    return hdr;
}

ClientPlan
serveClientPlan(std::uint64_t seed, std::uint32_t session)
{
    ClientPlan plan;
    plan.apps = makeMix(5, 1, 0); // The cmp4 mix, one app per tenant.
    plan.seed = seed * 131 + session;
    plan.batchSize = 256;
    plan.warmBatches = 400;
    plan.measuredBatches = kSessionWindows * kServeWindowBatches;
    // Each tenant leaves and rejoins about every 300 of its batches:
    // ~3 times per session, so slots are reused and drain.
    plan.rejoinEvery = 300;
    return plan;
}

double
serveSetupSeconds(std::uint64_t seed, const std::string &dir)
{
    const JournalHeader hdr = serveHeader(seed);
    const std::string path = dir + "/setup-" +
                             std::to_string(::getpid()) + ".vsrj";
    std::string error;
    const std::uint64_t t0 = nowNs();
    double secs = 0.0;
    {
        TenantSim sim(hdr);
        JournalWriter journal(path, hdr);
        ServeServer server(sim, &journal);
        const bool ok = server.start(0, error);
        secs = static_cast<double>(nowNs() - t0) / 1e9;
        if (!ok) {
            secs = std::nan("");
        }
    }
    std::remove(path.c_str());
    return secs;
}

// ----------------------------------------------------------------------
// Sessions, replay and the traced re-drive.

namespace {

struct Session
{
    ClientStats client;
    std::uint64_t liveDigest = 0;
    std::uint64_t accesses = 0;
    std::string error;
};

/** One live session: daemon thread + closed-loop client. */
Session
runSession(const JournalHeader &hdr, const ClientPlan &plan,
           const std::string &journalPath)
{
    Session s;
    TenantSim sim(hdr);
    JournalWriter journal(journalPath, hdr);
    ServeServer server(sim, &journal);
    if (!server.start(0, s.error)) {
        return s;
    }
    std::thread daemon([&server] { server.run(); });
    {
        ServeClient client(server.port(), plan);
        s.client = client.run();
    }
    if (!ServeClient::sendShutdown(server.port())) {
        // The daemon thread cannot be stopped; end the process rather
        // than hang on the join.
        std::fprintf(stderr, "perfbench: cannot stop the serve daemon\n");
        std::_Exit(3);
    }
    daemon.join();
    journal.close();
    s.liveDigest = sim.finishDigest();
    s.accesses = sim.accesses();
    return s;
}

/** Fixed-work windows of one session's measured batches. */
void
sessionWindows(const Session &s, const ClientPlan &plan,
               std::vector<double> &rates, std::vector<double> &probes,
               std::vector<std::vector<double>> &latencies)
{
    const std::vector<std::uint64_t> &done = s.client.batchDone;
    const std::size_t warm = plan.warmBatches;
    for (std::size_t i0 = warm; i0 + kServeWindowBatches <= done.size();
         i0 += kServeWindowBatches) {
        const std::size_t i1 = i0 + kServeWindowBatches;
        const double secs =
            static_cast<double>(done[i1 - 1] - done[i0 - 1]) / 1e9;
        rates.push_back(static_cast<double>(kServeWindowBatches) *
                        plan.batchSize / secs);
        std::vector<double> lat;
        std::uint64_t ns = 0;
        for (std::size_t i = i0; i < i1; ++i) {
            const std::uint64_t p = s.client.batchProbeNs[i];
            ns += p;
            lat.push_back(s.client.batchRttUs[i] *
                          probeRate(kProbeSteps, p) / kProbeRefRate);
        }
        latencies.push_back(std::move(lat));
        probes.push_back(
            probeRate(std::uint64_t{kProbeSteps} * kServeWindowBatches, ns));
    }
}

/** TenantSim re-expressed over MirrorL2 + Ucp, layer by layer. */
class TenantMirror
{
  public:
    TenantMirror(const JournalHeader &cfg, LayerClock &clock,
                 L2EventLog *log)
        : clock_(clock), maxTenants_(cfg.maxTenants),
          epochAccesses_(cfg.epochAccesses), l2_(build(cfg)),
          l2m_(*l2_, clock, log)
    {
        if (cfg.useUcp) {
            UcpConfig ucfg;
            ucfg.rripMonitors = l2_->wantsBrrip();
            ucp_ = std::make_unique<Ucp>(maxTenants_, ucfg);
        }
        for (std::uint32_t s = 0; s < maxTenants_; ++s) {
            l2m_.destroyPartition(s, false);
            if (ucp_) {
                ucp_->detachMonitor(s);
            }
        }
        l2m_.rebase();
    }

    void
    joinAt(std::uint16_t slot)
    {
        l2m_.createPartition(slot);
        if (ucp_) {
            ucp_->attachMonitor(slot);
        }
        ++active_;
        rebalance();
        clock_.mark(kJoin);
    }

    void
    leave(std::uint16_t slot)
    {
        l2m_.destroyPartition(slot);
        if (ucp_) {
            ucp_->detachMonitor(slot);
        }
        --active_;
        rebalance();
        clock_.mark(kLeave);
    }

    void
    access(std::uint16_t slot, Addr addr, AccessType type)
    {
        l2m_.access(addr, slot, type);
        if (ucp_) {
            ucp_->observe(slot, addr);
            clock_.mark(kUmonObserve);
        }
        ++accesses_;
        if (epochAccesses_ != 0 && accesses_ % epochAccesses_ == 0) {
            clock_.mark(kTenantAccess);
            repartition();
            clock_.mark(kRepartition);
        }
        clock_.mark(kTenantAccess);
    }

    std::uint64_t digest() const { return l2m_.digest(); }

  private:
    static std::unique_ptr<SharedL2>
    build(const JournalHeader &cfg)
    {
        L2Spec spec = cfg.spec;
        spec.numPartitions = cfg.maxTenants;
        spec.vantage.numPartitions = cfg.maxTenants;
        return std::make_unique<MonoL2>(buildL2(spec));
    }

    void
    rebalance()
    {
        std::vector<std::uint32_t> units(maxTenants_, 0);
        if (active_ > 0) {
            const std::uint32_t quantum = l2_->allocationQuantum();
            const std::uint32_t share = quantum / active_;
            std::uint32_t remainder = quantum % active_;
            for (std::uint32_t s = 0; s < maxTenants_; ++s) {
                if (!l2_->partitionActive(s)) {
                    continue;
                }
                units[s] = share + (remainder > 0 ? 1 : 0);
                if (remainder > 0) {
                    --remainder;
                }
            }
        }
        l2m_.setAllocations(units, false);
    }

    void
    repartition()
    {
        if (!ucp_ || active_ == 0) {
            return;
        }
        const std::uint32_t quantum = l2_->allocationQuantum();
        if (quantum < maxTenants_) {
            ucp_->nextInterval();
            return;
        }
        l2m_.setAllocations(ucp_->computeAllocations(quantum, 1), true);
        if (l2_->wantsBrrip()) {
            l2_->applyBrrip(ucp_->brripChoices());
        }
        ucp_->nextInterval();
        ++clock_.counts.repartitions;
    }

    LayerClock &clock_;
    std::uint32_t maxTenants_;
    std::uint64_t epochAccesses_;
    std::unique_ptr<SharedL2> l2_;
    MirrorL2 l2m_;
    std::unique_ptr<Ucp> ucp_;
    std::uint32_t active_ = 0;
    std::uint64_t accesses_ = 0;
};

/** One journaled event as the daemon received it. */
struct Op
{
    JournalEvent kind = JournalEvent::Access;
    std::uint16_t slot = 0;
    std::string name;
    std::vector<std::uint8_t> wire; ///< Access: an ACCESS_BATCH frame.
};

/** Re-frame the journal: consecutive same-slot accesses per batch. */
std::vector<Op>
buildOps(const JournalReader &reader, std::uint32_t batchSize)
{
    std::vector<Op> ops;
    std::vector<BatchAccess> batch;
    std::uint16_t batchSlot = 0;
    const auto flush = [&] {
        if (!batch.empty()) {
            Op op;
            op.slot = batchSlot;
            op.wire = encodeFrame(FrameType::AccessBatch,
                                  buildAccessBatch(batch));
            ops.push_back(std::move(op));
            batch.clear();
        }
    };
    for (const JournalRecord &rec : reader.records()) {
        if (rec.event == JournalEvent::Access) {
            if (!batch.empty() &&
                (rec.slot != batchSlot || batch.size() >= batchSize)) {
                flush();
            }
            batchSlot = rec.slot;
            batch.push_back({rec.addr, rec.type});
            continue;
        }
        flush();
        ops.push_back({rec.event, rec.slot, rec.name, {}});
    }
    flush();
    return ops;
}

struct Redrive
{
    std::uint64_t digest = 0;
    std::uint64_t accesses = 0;
    double seconds = 0.0;
    bool framesOk = true;
};

/**
 * Feed the recorded session back through the serve calls the daemon
 * makes per frame: FrameDecoder + parseAccessBatch, JournalWriter,
 * and the TenantSim logic (as TenantMirror), charging each to `clock`.
 */
Redrive
redrive(const JournalHeader &hdr, const std::vector<Op> &ops,
        LayerClock &clock, L2EventLog *log, const std::string &journalPath)
{
    Redrive r;
    TenantMirror sim(hdr, clock, log);
    JournalWriter journal(journalPath, hdr);
    FrameDecoder decoder;
    Frame frame;
    std::string error;
    std::vector<BatchAccess> batch;
    const std::uint64_t t0 = nowNs();
    clock.start();
    for (const Op &op : ops) {
        switch (op.kind) {
          case JournalEvent::Join:
            journal.recordJoin(op.slot, op.name);
            clock.mark(kJournalWrite);
            sim.joinAt(op.slot);
            break;
          case JournalEvent::Leave:
            journal.recordLeave(op.slot);
            clock.mark(kJournalWrite);
            sim.leave(op.slot);
            break;
          case JournalEvent::Access:
            clock.beginUnit();
            decoder.feed(op.wire.data(), op.wire.size());
            r.framesOk &= decoder.next(frame, error) &&
                          frame.type == FrameType::AccessBatch &&
                          parseAccessBatch(frame.payload, batch);
            clock.mark(kFrameDecode);
            for (const BatchAccess &a : batch) {
                journal.recordAccess(op.slot, a.type, a.addr);
                clock.mark(kJournalWrite);
                sim.access(op.slot, a.addr, a.type);
            }
            r.accesses += batch.size();
            break;
        }
    }
    journal.close();
    clock.stop();
    r.seconds = static_cast<double>(nowNs() - t0) / 1e9;
    r.digest = sim.digest();
    std::remove(journalPath.c_str());
    return r;
}

/** Batch-weighted mean of a STATS_REPLY latency field, in us. */
double
meanStatUs(const std::vector<TenantStats> &stats,
           std::uint64_t TenantStats::*field)
{
    double sum = 0.0;
    double n = 0.0;
    for (const TenantStats &ts : stats) {
        sum += static_cast<double>(ts.*field) *
               static_cast<double>(ts.batches);
        n += static_cast<double>(ts.batches);
    }
    return n > 0 ? sum / n / 1000.0 : 0.0;
}

void
addClientCounts(Outcome &out, const ClientStats &c)
{
    out.attempted += c.attempted;
    out.failed += c.failed;
}

} // namespace

void
runServe(const RunOptions &opts, Report &report)
{
    Outcome &out = report.outcome;
    JsonObject &m = report.metrics;
    JsonObject &d = report.diagnostics;
    const JournalHeader hdr = serveHeader(opts.seed);
    const std::string journalBase =
        opts.outDir + "/serve-" + std::to_string(::getpid());

    if (!opts.trace) {
        std::vector<double> rates, probes, replayRates, replayProbes;
        std::vector<std::vector<double>> latencies;
        ClientStats total;
        const std::uint64_t t0 = nowNs();
        std::uint32_t session = 0;
        while (session == 0 ||
               static_cast<double>(nowNs() - t0) / 1e9 < opts.seconds) {
            const ClientPlan plan = serveClientPlan(opts.seed, session);
            const std::string path =
                journalBase + "-" + std::to_string(session) + ".vsrj";
            const Session s = runSession(hdr, plan, path);
            ++session;
            out.check(s.error.empty(), "serve daemon: " + s.error);
            addClientCounts(out, s.client);
            total.refusedJoins += s.client.refusedJoins;
            total.errReplies += s.client.errReplies;
            total.disconnects += s.client.disconnects;
            total.timeouts += s.client.timeouts;
            total.joins += s.client.joins;
            total.leaves += s.client.leaves;
            sessionWindows(s, plan, rates, probes, latencies);

            JournalReader reader;
            std::string error;
            const bool loaded = reader.load(path, error);
            out.check(loaded, "journal load: " + error);
            if (loaded) {
                // replayJournal is one call: probe just before and after.
                HostProbe probe;
                std::uint64_t probeNs = probe.run(kReplayProbeSteps);
                const std::uint64_t r0 = nowNs();
                const std::uint64_t replayed = replayJournal(reader);
                const double secs = static_cast<double>(nowNs() - r0) / 1e9;
                probeNs += probe.run(kReplayProbeSteps);
                replayRates.push_back(static_cast<double>(s.accesses) / secs);
                replayProbes.push_back(
                    probeRate(2 * kReplayProbeSteps, probeNs));
                out.check(replayed == s.liveDigest,
                          "session " + std::to_string(session) +
                              ": replay digest " + hexDigest(replayed) +
                              " != live digest " + hexDigest(s.liveDigest));
            }
            std::remove(path.c_str());
            if (!s.error.empty() || s.client.failed > 0) {
                break;
            }
        }
        out.attempted += session; // One replay check per session.
        const WindowEstimate est = estimateWindows(rates, probes, latencies);
        const WindowEstimate replay =
            estimateWindows(replayRates, replayProbes, {});
        out.check(est.windows > 0 && est.minBeyondP99 >= 10,
                  "no window with 10 batches beyond its p99");
        m.num("l2_accesses_per_s", est.rate);
        m.num("batch_p50_us", est.p50);
        m.num("batch_p99_us", est.p99);
        m.num("replay_accesses_per_s", replay.rate);
        m.num("peak_rss_mb", peakRssMb());
        d.num("wall_s", static_cast<double>(nowNs() - t0) / 1e9);
        d.num("sessions", session);
        d.num("joins", static_cast<double>(total.joins));
        d.num("leaves", static_cast<double>(total.leaves));
        d.num("refused_joins", static_cast<double>(total.refusedJoins));
        d.num("err_replies", static_cast<double>(total.errReplies));
        d.num("disconnects", static_cast<double>(total.disconnects));
        d.num("timeouts", static_cast<double>(total.timeouts));
        addWindowDiagnostics(d, "", est);
        addWindowDiagnostics(d, "replay_", replay);
        return;
    }

    // Traced run: one live session (untraced windows), then its
    // journal re-driven through the serve calls with and without the
    // layer clock.
    const ClientPlan plan = serveClientPlan(opts.seed, 0);
    const std::string path = journalBase + "-0.vsrj";
    const Session s = runSession(hdr, plan, path);
    out.check(s.error.empty(), "serve daemon: " + s.error);
    addClientCounts(out, s.client);
    std::vector<double> rates, probes;
    std::vector<std::vector<double>> latencies;
    sessionWindows(s, plan, rates, probes, latencies);
    const WindowEstimate live = estimateWindows(rates, probes, latencies);

    JournalReader reader;
    std::string error;
    const std::uint64_t l0 = nowNs();
    const bool loaded = reader.load(path, error);
    const double loadNs = static_cast<double>(nowNs() - l0);
    std::remove(path.c_str());
    out.check(loaded, "journal load: " + error);
    if (!loaded) {
        return;
    }
    const std::uint64_t replayed = replayJournal(reader);
    out.check(replayed == s.liveDigest,
              "replay digest " + hexDigest(replayed) + " != live digest " +
                  hexDigest(s.liveDigest));

    const std::vector<Op> ops = buildOps(reader, plan.batchSize);
    LayerClock off(false);
    const Redrive plain = redrive(hdr, ops, off, nullptr,
                                  journalBase + "-redrive.vsrj");
    LayerClock clock(true, kServeSampleShift);
    L2EventLog log;
    const Redrive traced = redrive(hdr, ops, clock, &log,
                                   journalBase + "-redrive.vsrj");
    out.check(plain.framesOk && traced.framesOk, "re-framed batch failed");
    out.check(plain.digest == s.liveDigest && traced.digest == s.liveDigest,
              "re-drive digest differs from the live session");
    const ReplayResult rr = replayL2Log(
        log,
        [&hdr] {
            L2Spec spec = hdr.spec;
            spec.numPartitions = hdr.maxTenants;
            spec.vantage.numPartitions = hdr.maxTenants;
            return std::unique_ptr<SharedL2>(
                std::make_unique<MonoL2>(buildL2(spec)));
        },
        nullptr);
    out.check(rr.digest == s.liveDigest, "L2-only replay diverged");
    out.attempted += 4; // The four digest checks above.

    const LayerCounts &c = clock.counts;
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    reportLayers(&clock, m);
    m.num("cache.l1_miss_ratio", 0.0); // No L1 in front of serve.
    m.num("cache.l2_hit_ratio", ratio(c.l2Hits, c.l2Accesses));
    m.num("array.walk_candidates", ratio(c.walkCandidates, c.walks));
    m.num("core.demotions_per_miss",
          ratio(c.demotions, c.l2Accesses - c.l2Hits));
    m.num("alloc.repartitions", static_cast<double>(c.repartitions));
    m.num("cache.l2_replay_accesses_per_s", replayRate(rr));
    m.num("sim.ipc_sum", 0.0); // No cores in serve mode.
    m.num("trace.overhead_ratio", traced.seconds / plain.seconds);
    m.num("serve.join_refused", static_cast<double>(s.client.refusedJoins));
    const double serverP50 =
        meanStatUs(s.client.stats, &TenantStats::latencyP50Ns);
    m.num("serve.server_batch_p50_us", serverP50);
    m.num("serve.server_batch_p99_us",
          meanStatUs(s.client.stats, &TenantStats::latencyP99Ns));
    // Raw client round trips against the server's own batch time.
    const std::vector<double> rtts(
        s.client.batchRttUs.begin() +
            static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                plan.warmBatches, s.client.batchRttUs.size())),
        s.client.batchRttUs.end());
    m.num("serve.queue_wait_us",
          std::max(0.0, percentile(rtts, 0.5).value - serverP50));
    m.num("serve.journal_read_ns",
          loadNs / static_cast<double>(reader.records().size()));

    const std::string tracePath = opts.outDir + "/serve_churn-seed" +
                                  std::to_string(opts.seed) + ".trace.json";
    out.check(clock.writeChromeTrace(tracePath, "perfbench serve_churn"),
              "cannot write " + tracePath);
    d.str("trace_file", tracePath);
    d.str("digest", hexDigest(s.liveDigest));
    addWindowDiagnostics(d, "untraced_", live);
    d.num("redrive_untraced_s", plain.seconds);
    d.num("redrive_traced_s", traced.seconds);
}

} // namespace perfbench
