/**
 * @file
 * Stats-plane tests: sampler start/stop lifecycle, snapshot coherence
 * while hot-path writers hammer the sharded registry (the TSan leg of
 * the telemetry plane), a full unix-socket round trip in both
 * exposition formats, and a clean exit while the plane still ticks.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/stats_server.hpp"
#include "runtime/thread_pool.hpp"

namespace mrq {
namespace {

/** Metrics on + plane stopped on both ends of a test. */
class StatsTestGuard
{
  public:
    StatsTestGuard() : prevMetrics_(obs::setMetricsEnabled(true))
    {
        obs::StatsPlane::instance().stop();
        obs::MetricsRegistry::instance().reset();
    }
    ~StatsTestGuard()
    {
        obs::StatsPlane::instance().stop();
        ThreadPool::instance().resize(1);
        obs::MetricsRegistry::instance().reset();
        obs::setMetricsEnabled(prevMetrics_);
    }

  private:
    bool prevMetrics_;
};

bool
waitFor(const std::function<bool()>& pred, int timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
}

/** One request/response exchange over the plane's unix socket. */
std::string
scrape(const std::string& path, const std::string& request)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                  path.c_str());
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return "";
    }
    (void)!::write(fd, request.c_str(), request.size());
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n <= 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

TEST(StatsServer, SamplerStartStopAndRestart)
{
    StatsTestGuard guard;
    obs::StatsPlane& plane = obs::StatsPlane::instance();

    EXPECT_FALSE(plane.running());
    ASSERT_TRUE(plane.start(5, ""));
    EXPECT_TRUE(plane.running());
    EXPECT_FALSE(plane.start(5, "")); // already running

    EXPECT_TRUE(waitFor([&] { return plane.sampleCount() >= 2; }, 2000));
    plane.stop();
    EXPECT_FALSE(plane.running());
    plane.stop(); // idempotent

    // The plane restarts cleanly after a stop.
    ASSERT_TRUE(plane.start(5, ""));
    EXPECT_TRUE(waitFor([&] { return plane.sampleCount() >= 1; }, 2000));
    plane.stop();
}

TEST(StatsServer, NoTornSnapshotsUnderConcurrentWriters)
{
    StatsTestGuard guard;
    obs::StatsPlane& plane = obs::StatsPlane::instance();
    static obs::Counter counter("test.stats.torn");

    ASSERT_TRUE(plane.start(1, ""));

    // Hammer the sharded hot path from pool workers while the sampler
    // thread snapshots concurrently; under TSan this is the race
    // check, everywhere it is the torn-read check below.
    ThreadPool::instance().resize(4);
    const std::size_t n = 200000;
    parallelFor(n, 256, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            counter.add(1);
    });

    // A final tick after quiescence must converge to the exact total.
    EXPECT_TRUE(waitFor(
        [&] {
            const obs::StatsSnapshot s = plane.lastSample();
            for (const auto& c : s.metrics.counters)
                if (c.name == "test.stats.torn")
                    return c.value == static_cast<std::int64_t>(n);
            return false;
        },
        2000));

    // Any mid-run sample sits in [0, n]: never negative, never over.
    const obs::StatsSnapshot last = plane.lastSample();
    for (const auto& c : last.metrics.counters)
        if (c.name == "test.stats.torn") {
            EXPECT_GE(c.value, 0);
            EXPECT_LE(c.value, static_cast<std::int64_t>(n));
        }
    plane.stop();
}

TEST(StatsServer, SocketRoundTripBothFormats)
{
    StatsTestGuard guard;
    obs::StatsPlane& plane = obs::StatsPlane::instance();
    obs::MetricsRegistry::instance().addCounterNamed("test.stats.sock",
                                                     9);

    const std::string path = "/tmp/mrq_test_stats.sock";
    std::remove(path.c_str());
    ASSERT_TRUE(plane.start(0, path));
    EXPECT_EQ(plane.socketPath(), path);

    const std::string prom = scrape(path, "metrics\n");
    EXPECT_NE(prom.find("mrq_test_stats_sock_total 9\n"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE mrq_stats_samples_total counter\n"),
              std::string::npos);
    EXPECT_NE(prom.find("mrq_kernel_peak_flops_per_cycle"),
              std::string::npos);

    const std::string json = scrape(path, "json\n");
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"version\":2"), std::string::npos);
    EXPECT_NE(json.find("\"test.stats.sock\":9"), std::string::npos);

    plane.stop();
    // Socket is gone after stop: connect must fail.
    EXPECT_TRUE(scrape(path, "metrics\n").empty());
}

TEST(StatsServer, StartFromEnvNoOpWhenUnset)
{
    StatsTestGuard guard;
    // The suite runs with MRQ_STATS_* unset; the env entry point must
    // refuse to start anything.
    EXPECT_FALSE(obs::StatsPlane::instance().startFromEnv());
    EXPECT_FALSE(obs::StatsPlane::instance().running());
}

/** A static whose destructor is slow enough for the plane to tick
 *  several times during static destruction. */
struct SlowDestructor
{
    ~SlowDestructor()
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
};

using StatsServerDeathTest = ::testing::Test;

TEST(StatsServerDeathTest, ExitWhileTickingIsClean)
{
    // A process that never stops the plane must still exit cleanly
    // when the registry is first touched after start(): the registry,
    // built after the plane's own static, is destroyed first, while
    // the 1 ms ticks go on during the slow destructor.  start() must
    // build what a tick reads and join the thread at exit.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            obs::StatsPlane::instance().start(1, "");
            static SlowDestructor slow;
            obs::MetricsRegistry::instance().addCounterNamed(
                "test.stats.exit_probe", 1);
            std::exit(0);
        },
        testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace mrq
