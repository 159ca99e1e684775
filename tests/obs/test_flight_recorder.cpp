#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <unistd.h>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace mrq;

/** Force-enable the recorder and restore everything on exit. */
class FlightTestGuard
{
  public:
    FlightTestGuard()
        : prevEnabled_(obs::setFlightEnabled(true)),
          prevCap_(obs::flightRingCapacity())
    {
        obs::flightReset();
    }
    ~FlightTestGuard()
    {
        obs::setFlightRingCapacity(prevCap_);
        obs::flightReset();
        obs::setFlightEnabled(prevEnabled_);
    }

  private:
    bool prevEnabled_;
    std::size_t prevCap_;
};

/** Drain to a temp file and return its contents. */
std::string
drainToString()
{
    char path[] = "/tmp/mrq_flight_XXXXXX";
    const int fd = ::mkstemp(path);
    EXPECT_GE(fd, 0);
    obs::flightDrain(fd);
    ::lseek(fd, 0, SEEK_SET);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    ::unlink(path);
    return out;
}

TEST(FlightRecorder, RecordAndDrain)
{
    FlightTestGuard guard;
    obs::flightMark("unit.mark", 7);
    obs::flightRecord(obs::FlightKind::Metric, "unit.metric", 3, -1,
                      1.5);
    EXPECT_GE(obs::flightEventCount(), 2u);

    const std::string out = drainToString();
    EXPECT_NE(out.find("\"kind\": \"mark\", \"name\": \"unit.mark\", "
                       "\"a\": 7"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"kind\": \"metric\", \"name\": "
                       "\"unit.metric\", \"a\": 3, \"b\": -1, "
                       "\"v\": 1.500000"),
              std::string::npos)
        << out;
}

TEST(FlightRecorder, DropOldestKeepsNewest)
{
    FlightTestGuard guard;
    obs::setFlightRingCapacity(8);
    obs::flightReset();
    for (int i = 0; i < 20; ++i)
        obs::flightMark("unit.wrap", i);
    const std::string out = drainToString();
    // 20 writes into an 8-slot ring: only a-values 12..19 survive.
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(out.find("\"name\": \"unit.wrap\", \"a\": " +
                           std::to_string(i) + ","),
                  std::string::npos)
            << "kept dropped event " << i << "\n"
            << out;
    for (int i = 12; i < 20; ++i)
        EXPECT_NE(out.find("\"name\": \"unit.wrap\", \"a\": " +
                           std::to_string(i) + ","),
                  std::string::npos)
            << "lost retained event " << i << "\n"
            << out;
    EXPECT_GE(obs::flightDroppedEvents(), 12u);
}

TEST(FlightRecorder, DisabledRecordsNothing)
{
    FlightTestGuard guard;
    obs::setFlightEnabled(false);
    obs::flightMark("unit.disabled", 1);
    obs::setFlightEnabled(true);
    const std::string out = drainToString();
    EXPECT_EQ(out.find("unit.disabled"), std::string::npos) << out;
}

TEST(FlightRecorder, MetricSeriesHook)
{
    FlightTestGuard guard;
    const bool prev = obs::setMetricsEnabled(true);
    obs::MetricsRegistry::instance().recordSeries("unit.series", 11,
                                                  2.25);
    obs::setMetricsEnabled(prev);
    const std::string out = drainToString();
    EXPECT_NE(out.find("\"kind\": \"metric\", \"name\": "
                       "\"unit.series\", \"a\": 11"),
              std::string::npos)
        << out;
}

TEST(FlightRecorder, AlertHook)
{
    FlightTestGuard guard;
    const bool prev = obs::setMetricsEnabled(true);
    obs::MetricsRegistry::instance().recordAlert(
        "warn", "unit_rule", "unit.ctx", 5, "detail");
    obs::setMetricsEnabled(prev);
    const std::string out = drainToString();
    EXPECT_NE(out.find("\"kind\": \"alert\", \"name\": "
                       "\"warn:unit_rule\", \"a\": 5"),
              std::string::npos)
        << out;
}

TEST(FlightRecorder, SpanHook)
{
    FlightTestGuard guard;
    const bool prev_metrics = obs::setMetricsEnabled(true);
    const bool prev_trace = obs::setTraceEnabled(true);
    {
        obs::TraceSpan span("unit.flight_span", 42);
    }
    obs::setTraceEnabled(prev_trace);
    obs::setMetricsEnabled(prev_metrics);
    const std::string out = drainToString();
    EXPECT_NE(out.find("\"kind\": \"span\", \"name\": "
                       "\"unit.flight_span\", \"a\": 42"),
              std::string::npos)
        << out;
}

TEST(FlightRecorder, CurrentThreadNameRoundTrip)
{
    FlightTestGuard guard;
    std::thread t([] {
        obs::setCurrentThreadName("mrq-unit-x");
        EXPECT_STREQ(obs::currentThreadFlightName(), "mrq-unit-x");
        obs::flightMark("unit.named_thread");
    });
    t.join();
    const std::string out = drainToString();
    EXPECT_NE(out.find("\"thread\": \"mrq-unit-x\""),
              std::string::npos)
        << out;
}

} // namespace
