/**
 * @file
 * Metrics registry tests: deterministic aggregation across threads,
 * disabled-mode no-op guarantees, byte-identical JSONL output at
 * different pool sizes, and never-torn snapshots read while writers
 * record.  The concurrent tests double as the TSan target for the
 * sharded record path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace mrq {
namespace {

/** Save/restore the global enable flags around each test. */
class MetricsTestGuard
{
  public:
    MetricsTestGuard(bool metrics_on, bool trace_on)
        : prevMetrics_(obs::setMetricsEnabled(metrics_on)),
          prevTrace_(obs::setTraceEnabled(trace_on))
    {
    }
    ~MetricsTestGuard()
    {
        ThreadPool::instance().resize(1);
        obs::setMetricsEnabled(prevMetrics_);
        obs::setTraceEnabled(prevTrace_);
    }

  private:
    bool prevMetrics_;
    bool prevTrace_;
};

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Metrics, CounterAggregatesAcrossThreads)
{
    MetricsTestGuard guard(true, false);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.reset();
    static obs::Counter c("test.metrics.counter_agg");

    ThreadPool::instance().resize(4);
    const std::size_t n = 10000;
    parallelFor(n, 64, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            c.add(1);
    });

    const obs::Snapshot snap = reg.snapshot();
    bool found = false;
    for (const auto& cv : snap.counters)
        if (cv.name == "test.metrics.counter_agg") {
            found = true;
            EXPECT_EQ(cv.value, static_cast<std::int64_t>(n));
        }
    EXPECT_TRUE(found);
}

TEST(Metrics, HistogramAggregatesAndClampsOverflow)
{
    MetricsTestGuard guard(true, false);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.reset();
    static obs::IntHistogram h("test.metrics.hist_agg", 4);

    ThreadPool::instance().resize(4);
    const std::size_t n = 4000;
    parallelFor(n, 32, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            h.record(i % 5); // 4 lands in the overflow bucket with 3
    });

    const obs::Snapshot snap = reg.snapshot();
    bool found = false;
    for (const auto& hv : snap.histograms)
        if (hv.name == "test.metrics.hist_agg") {
            found = true;
            ASSERT_EQ(hv.counts.size(), 4u);
            EXPECT_EQ(hv.counts[0], 800);
            EXPECT_EQ(hv.counts[1], 800);
            EXPECT_EQ(hv.counts[2], 800);
            EXPECT_EQ(hv.counts[3], 1600); // 3s and clamped 4s
            EXPECT_EQ(hv.total, 4000);
        }
    EXPECT_TRUE(found);
}

TEST(Metrics, DisabledModeIsNoOp)
{
    MetricsTestGuard guard(false, false);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    const std::size_t metrics_before = reg.debugMetricCount();
    const std::size_t shards_before = reg.debugShardCount();

    static obs::Counter c("test.metrics.disabled_counter");
    static obs::IntHistogram h("test.metrics.disabled_hist", 8);
    static obs::TimingStat t("test.metrics.disabled_timing");
    for (int i = 0; i < 1000; ++i) {
        c.add(1);
        h.record(3);
        t.record(42);
    }

    // Nothing registered, no shard touched: disabled records are a
    // flag check and nothing else.
    EXPECT_EQ(reg.debugMetricCount(), metrics_before);
    EXPECT_EQ(reg.debugShardCount(), shards_before);
}

TEST(Metrics, DisabledRunWritesNoFile)
{
    MetricsTestGuard guard(false, false);
    const std::string path =
        testing::TempDir() + "mrq_metrics_disabled.jsonl";
    std::remove(path.c_str());

    static obs::Counter c("test.metrics.disabled_file");
    c.add(7);

    // The sink is only invoked by RunScope when a sink is live; a
    // disabled run must leave no trace on disk.
    std::ifstream in(path);
    EXPECT_FALSE(in.good());
}

TEST(Metrics, JsonlIdenticalAcrossThreadCounts)
{
    MetricsTestGuard guard(true, false);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    static obs::Counter c("test.metrics.det_counter");
    static obs::IntHistogram h("test.metrics.det_hist", 8);

    auto workload = [&] {
        parallelFor(5000, 16, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
                c.add(static_cast<std::int64_t>(i % 7));
                h.record(i % 11);
            }
        });
        reg.setGauge("test.metrics.det_gauge", 0.125);
        reg.recordSeries("test.metrics.det_series", 0, 1.5);
        reg.recordSeries("test.metrics.det_series", 1, 2.5);
    };

    const std::string manifest =
        "{\"type\": \"manifest\", \"run\": \"det-test\"}";
    const std::string path1 = testing::TempDir() + "mrq_det_t1.jsonl";
    const std::string path2 = testing::TempDir() + "mrq_det_t4.jsonl";
    std::remove(path1.c_str());
    std::remove(path2.c_str());

    reg.reset();
    ThreadPool::instance().resize(1);
    workload();
    ASSERT_TRUE(reg.writeJsonl(path1, manifest));

    reg.reset();
    ThreadPool::instance().resize(4);
    workload();
    ASSERT_TRUE(reg.writeJsonl(path2, manifest));

    const std::string body1 = readFile(path1);
    const std::string body2 = readFile(path2);
    ASSERT_FALSE(body1.empty());
    EXPECT_EQ(body1, body2) << "JSONL must be byte-identical at any "
                               "pool size";
}

TEST(Metrics, TimingsStayOutOfJsonl)
{
    MetricsTestGuard guard(true, true);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.reset();
    static obs::TimingStat t("test.metrics.jsonl_timing");
    t.record(12345);

    const std::string path = testing::TempDir() + "mrq_timing.jsonl";
    std::remove(path.c_str());
    ASSERT_TRUE(reg.writeJsonl(path, ""));
    const std::string body = readFile(path);
    EXPECT_EQ(body.find("jsonl_timing"), std::string::npos);
    EXPECT_EQ(body.find("\"timing\""), std::string::npos);

    // ... but the aggregate exists for the summary sink.
    const obs::Snapshot snap = reg.snapshot();
    bool found = false;
    for (const auto& tv : snap.timings)
        found = found || tv.name == "test.metrics.jsonl_timing";
    EXPECT_TRUE(found);
}

TEST(Metrics, ResetZeroesValuesKeepsNames)
{
    MetricsTestGuard guard(true, false);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    static obs::Counter c("test.metrics.reset_counter");
    c.add(5);
    reg.reset();
    c.add(2);
    const obs::Snapshot snap = reg.snapshot();
    for (const auto& cv : snap.counters)
        if (cv.name == "test.metrics.reset_counter")
            EXPECT_EQ(cv.value, 2);
}

TEST(Metrics, NamedCounterAccumulates)
{
    MetricsTestGuard guard(true, false);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.reset();
    reg.addCounterNamed("test.metrics.named", 3);
    reg.addCounterNamed("test.metrics.named", 4);
    const obs::Snapshot snap = reg.snapshot();
    bool found = false;
    for (const auto& cv : snap.counters)
        if (cv.name == "test.metrics.named") {
            found = true;
            EXPECT_EQ(cv.value, 7);
        }
    EXPECT_TRUE(found);
}

TEST(Metrics, SnapshotNeverTornUnderConcurrentWriters)
{
    // snapshot() may run on another thread while pool workers hammer
    // the sharded hot path (metrics.hpp); under TSan this is the race
    // check, everywhere it is the torn-read check.
    MetricsTestGuard guard(true, false);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.reset();
    static obs::Counter counter("test.metrics.torn");
    const auto value = [&reg] {
        for (const auto& cv : reg.snapshot().counters)
            if (cv.name == "test.metrics.torn")
                return cv.value;
        return std::int64_t{0};
    };

    ThreadPool::instance().resize(4);
    const std::int64_t n = 200000;
    std::atomic<bool> done{false};
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            const std::int64_t v = value();
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    });
    parallelFor(static_cast<std::size_t>(n), 256,
                [&](std::size_t b, std::size_t e) {
                    for (std::size_t i = b; i < e; ++i)
                        counter.add(1);
                });
    done.store(true, std::memory_order_release);
    reader.join();

    // Any mid-run read sits in [0, n]: never negative, never over.
    EXPECT_GE(lo, 0);
    EXPECT_LE(hi, n);
    // After quiescence the snapshot is the exact total.
    EXPECT_EQ(value(), n);
}

} // namespace
} // namespace mrq
