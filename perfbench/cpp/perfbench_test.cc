/**
 * @file
 * The benchmark's own tests: the window estimator, mirror fidelity
 * on every CMP configuration, and the serve client's failure
 * accounting.
 *
 *   cmake --build .bench_build --target perfbench_test
 *   .bench_build/perfbench_test
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <cmath>
#include <random>
#include <thread>

#include "cmp_bench.h"
#include "serve_bench.h"
#include "sim/cmp_sim.h"
#include "workload/mixes.h"

using namespace perfbench;

namespace {

/**
 * Windows from a host that is either at full speed or slowed to 60 %
 * (3 % noise): the work rate and the probe rate slow together.
 */
void
bimodalWindows(std::size_t n, double fastShare, std::uint32_t seed,
               std::vector<double> &rates, std::vector<double> &probes)
{
    std::mt19937 rng(seed);
    std::normal_distribution<double> noise(1.0, 0.03);
    rates.clear();
    probes.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const bool fast = static_cast<double>(i) <
                          fastShare * static_cast<double>(n);
        const double speed = fast ? 1.0 : 0.6;
        rates.push_back(2.0e6 * speed * noise(rng));
        probes.push_back(kProbeRefRate * speed * noise(rng));
    }
}

} // namespace

TEST(WindowEstimator, NormalizesBimodalHostSpeed)
{
    // However much of the run the slow state holds, the normalized
    // median lands on the full-speed rate; the raw windows do not.
    for (double share : {0.0, 0.05, 0.3, 0.7, 1.0}) {
        std::vector<double> rates, probes;
        bimodalWindows(80, share, 7, rates, probes);
        const WindowEstimate e = estimateWindows(rates, probes, {});
        EXPECT_NEAR(e.rate, 2.0e6, 0.05 * 2.0e6) << "fast share " << share;
        if (share > 0.0 && share < 1.0) {
            EXPECT_NEAR(e.slowShare, 1.0 - share, 0.02);
            EXPECT_GT(e.rawFastRate, 1.8e6);
        }
    }
}

TEST(WindowEstimator, MismatchedProbeCountGivesNoEstimate)
{
    const WindowEstimate e = estimateWindows({1.0, 2.0}, {1.0}, {});
    EXPECT_TRUE(std::isnan(e.rate));
}

TEST(WindowEstimator, LatencyTailKeepsTenSamplesBeyondP99)
{
    std::mt19937 rng(3);
    std::exponential_distribution<double> lat(1.0 / 100.0);
    std::vector<std::vector<double>> windows(4);
    for (auto &w : windows) {
        for (int i = 0; i < 1200; ++i) {
            w.push_back(lat(rng));
        }
    }
    const std::vector<double> ones(4, 1.0);
    const std::vector<double> ref(4, kProbeRefRate);
    const WindowEstimate e = estimateWindows(ones, ref, windows);
    EXPECT_GE(e.minBeyondP99, 10u);
    EXPECT_EQ(e.batchesPerWindow, 1200u);
    EXPECT_GT(e.p99, e.p50);

    // A window of 500 batches cannot support a p99 with 10 beyond.
    windows[2].resize(500);
    EXPECT_LT(estimateWindows(ones, ref, windows).minBeyondP99, 10u);
}

TEST(WindowEstimator, NearestRankPercentile)
{
    const Percentile p = percentile({5, 1, 4, 2, 3}, 0.5);
    EXPECT_EQ(p.value, 3);
    EXPECT_EQ(p.beyond, 2u);
    std::vector<double> hundred(1200);
    for (std::size_t i = 0; i < hundred.size(); ++i) {
        hundred[i] = static_cast<double>(i);
    }
    EXPECT_EQ(percentile(hundred, 0.99).beyond, 12u);
}

// ----------------------------------------------------------------------

class MirrorFidelity : public ::testing::TestWithParam<const char *>
{
};

TEST_P(MirrorFidelity, DigestAndIpcMatchCmpSim)
{
    CmpWorkload w = cmpWorkload(GetParam(), 9);
    const bool large = w.cfg.numCores > 4;
    const std::uint64_t warm = large ? 1500 : 8000;
    const std::uint64_t instrs = large ? 6000 : 60000;

    vantage::CmpSim sim(w.cfg, w.apps, w.buildL2(), w.seed);
    vantage::AccessDigest digest;
    sim.sharedL2().attachDigest(&digest);
    sim.warmup(warm);
    sim.run(instrs);
    sim.run(instrs / 2);
    sim.sharedL2().finalizeDigest();

    LayerClock clock(true, 4);
    L2EventLog log;
    CmpMirror mirror(w, clock, &log);
    mirror.warmup(warm);
    clock.start();
    mirror.run(instrs);
    mirror.run(instrs / 2);
    clock.stop();
    EXPECT_EQ(mirror.digest(), digest.value());
    EXPECT_EQ(mirror.throughput(), sim.throughput());
    EXPECT_GT(clock.counts.repartitions + clock.counts.l2Accesses, 0u);

    // The recorded L2 stream replays to the same digest.
    const ReplayResult rr = replayL2Log(
        log, [&w] { return w.buildL2(); },
        std::make_unique<vantage::Ucp>(w.cfg.numCores, w.cfg.ucp));
    EXPECT_EQ(rr.digest, digest.value());
    EXPECT_FALSE(rr.allocMismatch);
}

INSTANTIATE_TEST_SUITE_P(AllCmpWorkloads, MirrorFidelity,
                         ::testing::Values("cmp4_vantage", "cmp4_waypart",
                                           "cmp32_banked"));

// ----------------------------------------------------------------------

namespace {

/**
 * A one-connection-at-a-time stand-in daemon: accepts HELLO, then
 * answers every ACCESS_BATCH with ERR (or by hanging up).
 */
class FakeDaemon
{
  public:
    explicit FakeDaemon(bool hangUp) : hangUp_(hangUp)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(fd_, 4), 0);
        socklen_t len = sizeof(addr);
        ::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr), &len);
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this] { loop(); });
    }

    ~FakeDaemon()
    {
        stop_ = true;
        thread_.join();
        ::close(fd_);
    }

    FakeDaemon(const FakeDaemon &) = delete;
    FakeDaemon &operator=(const FakeDaemon &) = delete;

    std::uint16_t port() const { return port_; }

  private:
    void
    reply(int c, vantage::FrameType type,
          const std::vector<std::uint8_t> &payload)
    {
        const auto wire = vantage::encodeFrame(type, payload);
        (void)!::send(c, wire.data(), wire.size(), MSG_NOSIGNAL);
    }

    void
    serve(int c)
    {
        vantage::FrameDecoder decoder;
        std::uint8_t buf[4096];
        for (;;) {
            pollfd p{c, POLLIN, 0};
            if (::poll(&p, 1, 100) <= 0) {
                if (stop_) {
                    return;
                }
                continue;
            }
            const ssize_t n = ::recv(c, buf, sizeof(buf), 0);
            if (n <= 0) {
                return;
            }
            decoder.feed(buf, static_cast<std::size_t>(n));
            vantage::Frame frame;
            std::string error;
            while (decoder.next(frame, error)) {
                if (frame.type == vantage::FrameType::Hello) {
                    reply(c, vantage::FrameType::Ok, vantage::buildOkSlot(0));
                } else if (hangUp_) {
                    return;
                } else {
                    reply(c, vantage::FrameType::Err,
                          vantage::buildErr("injected failure"));
                    return;
                }
            }
        }
    }

    void
    loop()
    {
        while (!stop_) {
            pollfd p{fd_, POLLIN, 0};
            if (::poll(&p, 1, 50) <= 0) {
                continue;
            }
            const int c = ::accept(fd_, nullptr, nullptr);
            if (c >= 0) {
                serve(c);
                ::close(c);
            }
        }
    }

    bool hangUp_;
    int fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

ClientPlan
tinyPlan()
{
    ClientPlan plan;
    plan.apps = {vantage::makeMix(5, 1, 0)[0]};
    plan.batchSize = 8;
    plan.measuredBatches = 20;
    plan.timeoutMs = 2000;
    plan.maxFailures = 5;
    return plan;
}

} // namespace

TEST(ServeClientFailures, ErrRepliesCountAsFailed)
{
    FakeDaemon daemon(false);
    ServeClient client(daemon.port(), tinyPlan());
    const ClientStats s = client.run();
    EXPECT_GE(s.failed, 5u);
    EXPECT_GE(s.errReplies, 5u);
    EXPECT_TRUE(s.batchDone.empty());
    EXPECT_GE(s.attempted, s.failed);
}

TEST(ServeClientFailures, DisconnectsCountAsFailed)
{
    FakeDaemon daemon(true);
    ServeClient client(daemon.port(), tinyPlan());
    const ClientStats s = client.run();
    EXPECT_GE(s.failed, 5u);
    EXPECT_GE(s.disconnects, 5u);
    EXPECT_EQ(s.errReplies, 0u);
    EXPECT_TRUE(s.batchDone.empty());
}

TEST(ServeClientFailures, NoDaemonFailsWithoutHanging)
{
    std::uint16_t port = 0;
    {
        FakeDaemon gone(false);
        port = gone.port();
    }
    ServeClient client(port, tinyPlan());
    const ClientStats s = client.run();
    EXPECT_GE(s.failed, 1u);
    EXPECT_TRUE(s.batchDone.empty());
}
