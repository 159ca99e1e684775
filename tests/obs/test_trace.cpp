/**
 * @file
 * Trace-span tests: nesting paths, per-path counts and totals under
 * serial nesting, inheritance across thread-pool chunks, and
 * disabled-mode inertness.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace mrq {
namespace {

class TraceTestGuard
{
  public:
    TraceTestGuard(bool metrics_on, bool trace_on)
        : prevMetrics_(obs::setMetricsEnabled(metrics_on)),
          prevTrace_(obs::setTraceEnabled(trace_on))
    {
    }
    ~TraceTestGuard()
    {
        ThreadPool::instance().resize(1);
        obs::setMetricsEnabled(prevMetrics_);
        obs::setTraceEnabled(prevTrace_);
    }

  private:
    bool prevMetrics_;
    bool prevTrace_;
};

bool
hasTiming(const obs::Snapshot& snap, const std::string& name,
          std::int64_t* count = nullptr, std::int64_t* total_ns = nullptr)
{
    for (const auto& tv : snap.timings)
        if (tv.name == name) {
            if (count != nullptr)
                *count = tv.t.count;
            if (total_ns != nullptr)
                *total_ns = tv.t.totalNs;
            return true;
        }
    return false;
}

TEST(Trace, NestedSpansRecordFullPath)
{
    TraceTestGuard guard(true, true);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.reset();

    {
        obs::TraceSpan a("a");
        EXPECT_EQ(obs::currentTracePath(), "a");
        {
            obs::TraceSpan b("b");
            EXPECT_EQ(obs::currentTracePath(), "a/b");
        }
        EXPECT_EQ(obs::currentTracePath(), "a");
    }
    EXPECT_EQ(obs::currentTracePath(), "");

    const obs::Snapshot snap = reg.snapshot();
    std::int64_t count = 0;
    EXPECT_TRUE(hasTiming(snap, "span:a", &count));
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(hasTiming(snap, "span:a/b", &count));
    EXPECT_EQ(count, 1);
}

TEST(Trace, SerialNestingConservesCountsAndTotals)
{
    TraceTestGuard guard(true, true);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.reset();

    // root{a{leaf}, a, b} x3 plus a second root: a repeated sibling
    // name is one path, and every closure counts once.
    for (int rep = 0; rep < 3; ++rep) {
        obs::TraceSpan root("nest_root");
        {
            obs::TraceSpan a("nest_a");
            MRQ_TRACE_SPAN("nest_leaf");
            volatile int sink = 0;
            for (int i = 0; i < 1000; ++i)
                sink += i;
        }
        {
            obs::TraceSpan a2("nest_a");
        }
        {
            obs::TraceSpan b("nest_b");
        }
    }
    {
        obs::TraceSpan other("nest_other_root");
    }

    const obs::Snapshot snap = reg.snapshot();
    std::int64_t root_n = 0, a_n = 0, b_n = 0, leaf_n = 0, other_n = 0;
    std::int64_t root_ns = 0, a_ns = 0, b_ns = 0, leaf_ns = 0;
    ASSERT_TRUE(hasTiming(snap, "span:nest_root", &root_n, &root_ns));
    ASSERT_TRUE(hasTiming(snap, "span:nest_root/nest_a", &a_n, &a_ns));
    ASSERT_TRUE(hasTiming(snap, "span:nest_root/nest_b", &b_n, &b_ns));
    ASSERT_TRUE(hasTiming(snap, "span:nest_root/nest_a/nest_leaf",
                          &leaf_n, &leaf_ns));
    ASSERT_TRUE(hasTiming(snap, "span:nest_other_root", &other_n));
    EXPECT_EQ(root_n, 3);
    EXPECT_EQ(a_n, 6);
    EXPECT_EQ(b_n, 3);
    EXPECT_EQ(leaf_n, 3);
    EXPECT_EQ(other_n, 1);
    // Serial nesting: children's inclusive time fits in the parent's.
    EXPECT_LE(a_ns + b_ns, root_ns);
    EXPECT_LE(leaf_ns, a_ns);
}

TEST(Trace, SpansInsideParallelForInheritCallerPath)
{
    TraceTestGuard guard(true, true);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.reset();
    ThreadPool::instance().resize(4);

    const std::size_t n = 64;
    {
        obs::TraceSpan outer("outer");
        parallelFor(n, 1, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
                MRQ_TRACE_SPAN("chunk");
            }
        });
    }

    const obs::Snapshot snap = reg.snapshot();
    std::int64_t count = 0;
    ASSERT_TRUE(hasTiming(snap, "span:outer/chunk", &count))
        << "worker-side spans must parent to the launching span";
    EXPECT_EQ(count, static_cast<std::int64_t>(n));
    // No orphaned "span:chunk" rows: every chunk saw the prefix.
    EXPECT_FALSE(hasTiming(snap, "span:chunk"));
}

TEST(Trace, NestedParallelRegionsKeepNesting)
{
    TraceTestGuard guard(true, true);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.reset();
    ThreadPool::instance().resize(2);

    {
        obs::TraceSpan outer("outer");
        parallelFor(8, 1, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
                obs::TraceSpan mid("mid");
                // Nested region: runs inline on the worker, so inner
                // spans stack on top of mid under the same prefix.
                parallelFor(4, 1, [&](std::size_t b2, std::size_t e2) {
                    for (std::size_t j = b2; j < e2; ++j) {
                        MRQ_TRACE_SPAN("inner");
                    }
                });
            }
        });
    }

    const obs::Snapshot snap = reg.snapshot();
    EXPECT_TRUE(hasTiming(snap, "span:outer/mid"));
    EXPECT_TRUE(hasTiming(snap, "span:outer/mid/inner"));
}

TEST(Trace, DisabledTraceRecordsNothing)
{
    TraceTestGuard guard(true, false);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.reset();

    {
        obs::TraceSpan a("trace_disabled_a");
        EXPECT_EQ(obs::currentTracePath(), "");
        {
            obs::TraceSpan b("trace_disabled_b");
        }
    }

    const obs::Snapshot snap = reg.snapshot();
    for (const auto& tv : snap.timings) {
        EXPECT_EQ(tv.name.find("trace_disabled"), std::string::npos);
    }
}

} // namespace
} // namespace mrq
