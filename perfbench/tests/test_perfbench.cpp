#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/heap_profiler.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i)
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Percentile, RefusesTailsWithFewerThanTenSamplesBeyond)
{
    EXPECT_THROW(percentile(ramp(19), 0.5), std::invalid_argument);
    EXPECT_DOUBLE_EQ(percentile(ramp(20), 0.5), 10.0);
    EXPECT_THROW(percentile(ramp(99), 0.9), std::invalid_argument);
    EXPECT_DOUBLE_EQ(percentile(ramp(100), 0.9), 90.0);
    EXPECT_THROW(percentile(ramp(999), 0.99), std::invalid_argument);
    EXPECT_DOUBLE_EQ(percentile(ramp(1000), 0.99), 990.0);
    EXPECT_EQ(samplesNeeded(0.5), 20u);
    EXPECT_EQ(samplesNeeded(0.9), 100u);
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
}

/** Bits of a float, so comparisons are exact and NaN-safe. */
std::uint32_t
bits(float f)
{
    std::uint32_t u = 0;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

TEST(Workloads, SeedChangesInputsButNotShape)
{
    for (const std::string& name : workloadNames()) {
        SCOPED_TRACE(name);
        const WorkloadSpec spec = workloadSpec(name);
        auto a = makeWorkload(spec, 1, false);
        auto b = makeWorkload(spec, 2, false);
        EXPECT_EQ(a->weightLayers(), b->weightLayers());
        EXPECT_GT(a->weightLayers(), 0u);
        std::vector<std::int32_t> rungs_a;
        std::vector<std::int32_t> rungs_b;
        for (int i = 0; i < 16; ++i) {
            const OpResult ra = a->runOp();
            const OpResult rb = b->runOp();
            rungs_a.push_back(ra.rung);
            rungs_b.push_back(rb.rung);
            EXPECT_TRUE(ra.ok && rb.ok);
            EXPECT_GE(ra.rung, 0);
            EXPECT_LT(ra.rung, static_cast<std::int32_t>(spec.ladder.size()));
            EXPECT_EQ(a->lastOutput().shape(), b->lastOutput().shape());
        }
        EXPECT_EQ(a->trajectory().size(), b->trajectory().size());
        EXPECT_NE(a->trajectory(), b->trajectory());
        EXPECT_NE(rungs_a, rungs_b);
    }
}

TEST(Workloads, OutputChecksPass)
{
    for (const std::string& name : workloadNames()) {
        SCOPED_TRACE(name);
        const WorkloadSpec spec = workloadSpec(name);
        auto w = makeWorkload(spec, 3, false);
        // Enough requests to sample every inference rung.
        const int ops = spec.kind == Kind::CnnInfer ? 80 : 4;
        for (int i = 0; i < ops; ++i)
            EXPECT_TRUE(w->runOp().ok);
        std::string log;
        EXPECT_EQ(w->verify(&log), 0u) << log;
    }
}

TEST(Workloads, UnknownNameIsRejected)
{
    EXPECT_THROW(workloadSpec("nope"), std::invalid_argument);
}

/**
 * The traced run must measure the same program: with the pass-through
 * wrapper recording spans, and the library's counters and heap hooks
 * on, every loss (and every inference logit) is bit-identical to the
 * untraced run of the same seed.
 */
TEST(Workloads, TracedRunComputesBitIdenticalResults)
{
    for (const std::string& name : workloadNames()) {
        SCOPED_TRACE(name);
        const WorkloadSpec spec = workloadSpec(name);
        auto plain = makeWorkload(spec, 7, false);
        auto traced = makeWorkload(spec, 7, true);
        SpanRecorder rec;
        const bool metrics_were = mrq::obs::setMetricsEnabled(true);
        const bool heap = mrq::obs::startHeapProfiler(std::int64_t{1} << 30);
        traced->setRecorder(&rec);
        for (int i = 0; i < 12; ++i) {
            const OpResult p = plain->runOp();
            const OpResult t = traced->runOp();
            EXPECT_EQ(p.rung, t.rung);
            EXPECT_EQ(bits(p.teacherLoss), bits(t.teacherLoss)) << "op " << i;
            EXPECT_EQ(bits(p.studentLoss), bits(t.studentLoss)) << "op " << i;
            const mrq::Tensor& po = plain->lastOutput();
            const mrq::Tensor& to = traced->lastOutput();
            ASSERT_EQ(po.size(), to.size());
            EXPECT_EQ(std::memcmp(po.data(), to.data(),
                                  po.size() * sizeof(float)),
                      0)
                << "op " << i;
        }
        traced->setRecorder(nullptr);
        if (heap)
            mrq::obs::stopHeapProfiler();
        mrq::obs::setMetricsEnabled(metrics_were);
        // The wrapper really recorded the layer calls.
        std::size_t fwd = 0;
        for (const Span& s : rec.spans())
            fwd += std::string(s.name).rfind("nn.fwd.", 0) == 0;
        EXPECT_EQ(fwd, spec.kind == Kind::CnnInfer ? 12u : 24u);
    }
}

TEST(Spans, JsonlRoundTripsAndSelfTimeSubtractsChildren)
{
    std::vector<Span> spans = {
        {1, 0, 0, "step", -1, 100, 1000, 64},
        {2, 1, 0, "data.batch", -1, 110, 200, 32},
        {3, 1, 0, "trainer.iteration", -1, 200, 990, 0},
        {4, 3, 0, "nn.fwd.teacher", 7, 210, 500, 16},
        {5, 4, 0, "nn.conv.fwd", 7, 220, 300, 8},
        {6, 3, 0, "nn.loss", -1, 450, 600, 0}, // overlaps span 4
        {7, 0, 1, "step", -1, 1000, 1100, 0},
    };
    const std::string path = ::testing::TempDir() + "perfbench_spans.jsonl";
    ASSERT_TRUE(writeSpansJsonl(path, "{\"spans\":7}", spans));
    SpanFile file;
    ASSERT_TRUE(readSpansJsonl(path, &file));
    EXPECT_EQ(file.header, "{\"spans\":7}");
    ASSERT_EQ(file.spans.size(), spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& a = spans[i];
        const Span& b = file.spans[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.parent, b.parent);
        EXPECT_EQ(a.op, b.op);
        EXPECT_STREQ(a.name, b.name);
        EXPECT_EQ(a.rung, b.rung);
        EXPECT_EQ(a.startNs, b.startNs);
        EXPECT_EQ(a.endNs, b.endNs);
        EXPECT_EQ(a.allocBytes, b.allocBytes);
    }
    const std::vector<std::int64_t> self = selfTimesNs(file.spans);
    EXPECT_EQ(self[0], 900 - 90 - 790);  // minus data.batch, iteration
    EXPECT_EQ(self[2], 790 - (600 - 210)); // union of [210,500), [450,600)
    EXPECT_EQ(self[3], 290 - 80);
    EXPECT_EQ(self[4], 80);
    EXPECT_EQ(self[6], 100);
    std::remove(path.c_str());

    // A malformed line is refused.
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{}\n{\"id\":1}\n", f);
    std::fclose(f);
    EXPECT_FALSE(readSpansJsonl(path, &file));
    std::remove(path.c_str());
}

TEST(Spans, RecorderNestsAndClosesInOrder)
{
    SpanRecorder rec;
    rec.setOp(3);
    {
        ScopedSpan outer(&rec, "step");
        ScopedSpan inner(&rec, "nn.fwd.student", 2);
    }
    ScopedSpan inert(nullptr, "ignored");
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[0].parent, 0u);
    EXPECT_EQ(rec.spans()[1].parent, 1u);
    EXPECT_EQ(rec.spans()[1].op, 3u);
    EXPECT_EQ(rec.spans()[1].rung, 2);
    EXPECT_LE(rec.spans()[0].startNs, rec.spans()[1].startNs);
    EXPECT_GE(rec.spans()[0].endNs, rec.spans()[1].endNs);
}

} // namespace
} // namespace perfbench
