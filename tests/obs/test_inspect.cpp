/**
 * @file
 * QuantInspector tests: SQNR math against hand-computed tensors,
 * sampling cadence, eval-scope tagging, JSONL byte-identity across
 * thread-pool sizes, the inspector-driven watchdog rules (including
 * the strict-mode abort), and the schema checker contract.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/fake_quant.hpp"
#include "obs/env.hpp"
#include "obs/inspect.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"
#include "runtime/thread_pool.hpp"

#ifndef MRQ_SOURCE_DIR
#define MRQ_SOURCE_DIR "."
#endif

namespace mrq {
namespace {

/** Enable inspector + metrics for one test, restore after. */
class InspectTestGuard
{
  public:
    InspectTestGuard()
        : prevMetrics_(obs::setMetricsEnabled(true)),
          prevEnabled_(obs::QuantInspector::instance().setEnabled(true)),
          prevEvery_(obs::QuantInspector::instance().setEvery(1))
    {
        obs::MetricsRegistry::instance().reset();
        obs::QuantInspector::instance().reset();
    }
    ~InspectTestGuard()
    {
        obs::QuantInspector& inspector = obs::QuantInspector::instance();
        inspector.endStep();
        inspector.reset();
        inspector.setEvery(prevEvery_);
        inspector.setEnabled(prevEnabled_);
        ThreadPool::instance().resize(1);
        obs::MetricsRegistry::instance().reset();
        obs::setMetricsEnabled(prevMetrics_);
    }

  private:
    bool prevMetrics_;
    bool prevEnabled_;
    std::int64_t prevEvery_;
};

std::string
tempPath(const char* name)
{
    return std::string(mrq::obs::envValue("TMPDIR", "/tmp")) + "/" + name;
}

Tensor
rampTensor(std::size_t n)
{
    Tensor t({n});
    for (std::size_t i = 0; i < n; ++i)
        t[i] = -0.9f + 1.8f * static_cast<float>(i) /
                           static_cast<float>(n - 1);
    return t;
}

SubModelConfig
uqConfig()
{
    SubModelConfig cfg;
    cfg.mode = QuantMode::Uq;
    cfg.bits = 5;
    return cfg;
}

SubModelConfig
tqConfig()
{
    SubModelConfig cfg;
    cfg.mode = QuantMode::Tq;
    cfg.bits = 5;
    cfg.groupSize = 16;
    cfg.alpha = 14;
    cfg.beta = 3;
    return cfg;
}

std::string
formatSqnr(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

TEST(Inspect, SqnrDbMath)
{
    // 10*log10(4.0 / 0.25) = 10*log10(16) ~= 12.041 dB.
    EXPECT_NEAR(obs::sqnrDb(4.0, 0.25), 10.0 * std::log10(16.0), 1e-12);
    // Zero noise: large finite value, never +Inf.
    EXPECT_TRUE(std::isfinite(obs::sqnrDb(1.0, 0.0)));
    EXPECT_GT(obs::sqnrDb(1.0, 0.0), 200.0);
}

TEST(Inspect, WeightSqnrMatchesIndependentComputation)
{
    InspectTestGuard guard;
    obs::QuantInspector& inspector = obs::QuantInspector::instance();

    const Tensor w = rampTensor(64);
    inspector.beginStep(0);
    const Tensor out = fakeQuantWeights(w, 1.0f, uqConfig());
    inspector.endStep();
    ASSERT_EQ(inspector.recordCount(), 1u);

    // Same serial double accumulation as the hook.
    double signal = 0.0;
    double noise = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
        signal += static_cast<double>(w[i]) * w[i];
        const double d =
            static_cast<double>(w[i]) - static_cast<double>(out[i]);
        noise += d * d;
    }
    const std::string jsonl = inspector.renderJsonl();
    EXPECT_NE(jsonl.find("\"kind\": \"weight_sqnr\""),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"sqnr_db\": " +
                         formatSqnr(obs::sqnrDb(signal, noise))),
              std::string::npos)
        << jsonl;
}

TEST(Inspect, TermEnergyAccountsKeptAndDroppedMass)
{
    InspectTestGuard guard;
    obs::QuantInspector& inspector = obs::QuantInspector::instance();

    // A tight budget (alpha=2 terms per 16-value group) must drop
    // mass on a dense ramp.
    SubModelConfig cfg = tqConfig();
    cfg.alpha = 2;
    cfg.beta = 1;
    const Tensor w = rampTensor(64);
    inspector.beginStep(0);
    fakeQuantWeights(w, 1.0f, cfg);
    inspector.endStep();

    const std::string jsonl = inspector.renderJsonl();
    ASSERT_NE(jsonl.find("\"kind\": \"term_energy\""),
              std::string::npos);
    EXPECT_EQ(jsonl.find("\"dropped_mass\": 0,"), std::string::npos)
        << "tight budget should drop terms: " << jsonl;
}

TEST(Inspect, SamplingCadenceHonorsEvery)
{
    InspectTestGuard guard;
    obs::QuantInspector& inspector = obs::QuantInspector::instance();
    inspector.setEvery(3);

    // The projection runs every step; its hook only fires on sampled
    // ones.
    const Tensor w = rampTensor(32);
    for (std::int64_t step = 0; step < 9; ++step) {
        inspector.beginStep(step);
        fakeQuantWeights(w, 1.0f, uqConfig());
        inspector.endStep();
    }
    // Steps 0, 3, 6 sampled; one weight_sqnr record each.
    EXPECT_EQ(inspector.recordCount(), 3u);
    // Outside any step, nothing is sampled.
    EXPECT_FALSE(obs::inspectSampling());
}

TEST(Inspect, EvalScopeForcesSamplingAndTagsRecords)
{
    InspectTestGuard guard;
    obs::QuantInspector& inspector = obs::QuantInspector::instance();
    inspector.setEvery(1000); // No training step would sample.

    inspector.beginStep(1);
    EXPECT_FALSE(obs::inspectSampling());
    inspector.endStep();

    const Tensor w = rampTensor(32);
    {
        obs::InspectEvalScope eval_scope;
        EXPECT_TRUE(obs::inspectSampling());
        fakeQuantWeights(w, 1.0f, uqConfig());
    }
    EXPECT_FALSE(obs::inspectSampling());

    const std::string jsonl = inspector.renderJsonl();
    EXPECT_NE(jsonl.find("\"step\": -1, \"phase\": \"eval\""),
              std::string::npos)
        << jsonl;
}

TEST(Inspect, JsonlIdenticalAcrossThreadCounts)
{
    InspectTestGuard guard;
    obs::QuantInspector& inspector = obs::QuantInspector::instance();

    Tensor w({8, 96});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = 0.8f * std::sin(0.37f * static_cast<float>(i));

    auto run_sequence = [&] {
        inspector.reset();
        for (std::int64_t step = 0; step < 3; ++step) {
            inspector.beginStep(step);
            fakeQuantWeights(w, 1.0f, tqConfig());
            fakeQuantData(w, 1.0f, tqConfig());
            inspector.endStep();
        }
        inspector.recordRungAgreement("test", "a8b2", "a20b3", 0.25,
                                      0.875, 8);
        return inspector.renderJsonl();
    };

    ThreadPool::instance().resize(1);
    const std::string at1 = run_sequence();
    ThreadPool::instance().resize(4);
    const std::string at4 = run_sequence();
    ThreadPool::instance().resize(1);

    EXPECT_FALSE(at1.empty());
    EXPECT_EQ(at1, at4);
}

TEST(Inspect, WatchdogSqnrCollapseAgainstTrailingMedian)
{
    InspectTestGuard guard;
    obs::WatchdogConfig cfg;
    cfg.mode = obs::WatchdogMode::on;
    cfg.sqnrWarmup = 4;
    cfg.sqnrCollapseDb = 10.0;
    obs::Watchdog wd(cfg);

    for (int b = 0; b < 5; ++b)
        wd.checkSqnr("conv#0/a8b2", b, 40.0);
    EXPECT_EQ(wd.alertCount(), 0) << "steady SQNR must not alert";

    wd.checkSqnr("conv#0/a8b2", 5, 25.0); // 25 < 40 - 10.
    EXPECT_EQ(wd.alertCount(), 1);
    const auto alerts =
        obs::MetricsRegistry::instance().snapshot().alerts;
    ASSERT_EQ(alerts.size(), 1u);
    EXPECT_EQ(alerts[0].rule, "sqnr_collapse");
    EXPECT_EQ(alerts[0].severity, "warn");

    // Per-context windows: a fresh context restarts its warmup.
    wd.checkSqnr("conv#1/a8b2", 0, 1.0);
    EXPECT_EQ(wd.alertCount(), 1);
}

TEST(Inspect, WatchdogSaturationCeiling)
{
    InspectTestGuard guard;
    obs::WatchdogConfig cfg;
    cfg.mode = obs::WatchdogMode::on;
    cfg.satRateCeiling = 0.9;
    cfg.satMinSamples = 64;
    obs::Watchdog wd(cfg);

    wd.checkSaturation("pact#0/a8b2", 0, 1.0, 10); // Below min samples.
    wd.checkSaturation("pact#0/a8b2", 1, 0.5, 1000); // Below ceiling.
    EXPECT_EQ(wd.alertCount(), 0);
    wd.checkSaturation("pact#0/a8b2", 2, 0.95, 1000);
    EXPECT_EQ(wd.alertCount(), 1);
    const auto alerts =
        obs::MetricsRegistry::instance().snapshot().alerts;
    ASSERT_EQ(alerts.size(), 1u);
    EXPECT_EQ(alerts[0].rule, "saturation_ceiling");
}

TEST(Inspect, WatchdogRungKlWarnAndFatalThresholds)
{
    InspectTestGuard guard;
    obs::WatchdogConfig cfg;
    cfg.mode = obs::WatchdogMode::on;
    cfg.rungKlWarn = 1.0;
    cfg.rungKlFatal = 10.0;
    obs::Watchdog wd(cfg);

    wd.checkRungKl("trainer/a8b2", 0, 0.5);
    EXPECT_EQ(wd.alertCount(), 0);
    wd.checkRungKl("trainer/a8b2", 1, 2.0);
    EXPECT_EQ(wd.alertCount(), 1);
    wd.checkRungKl("trainer/a8b2", 2, 100.0);
    EXPECT_EQ(wd.alertCount(), 2);
    const auto alerts =
        obs::MetricsRegistry::instance().snapshot().alerts;
    ASSERT_EQ(alerts.size(), 2u);
    EXPECT_EQ(alerts[0].severity, "warn");
    EXPECT_EQ(alerts[1].severity, "fatal");
    EXPECT_EQ(alerts[1].rule, "rung_kl_blowup");
}

TEST(Inspect, FeedWatchdogDrainsEachRecordOnce)
{
    InspectTestGuard guard;
    obs::QuantInspector& inspector = obs::QuantInspector::instance();
    obs::WatchdogConfig cfg;
    cfg.mode = obs::WatchdogMode::on;
    cfg.satMinSamples = 64;
    obs::Watchdog wd(cfg);

    inspector.beginStep(0);
    inspector.recordClipSat(-1, "a8b2", 4.0, 100, 100); // rate 1.0.
    inspector.endStep();

    inspector.feedWatchdog(wd, 0);
    EXPECT_EQ(wd.alertCount(), 1);
    inspector.feedWatchdog(wd, 1); // Already drained: no re-alert.
    EXPECT_EQ(wd.alertCount(), 1);
}

using InspectDeathTest = ::testing::Test;

TEST(InspectDeathTest, StrictModeAbortsOnKlBlowup)
{
    InspectTestGuard guard;
    obs::WatchdogConfig cfg;
    cfg.mode = obs::WatchdogMode::strict;

    EXPECT_EXIT(
        {
            obs::Watchdog wd(cfg);
            wd.checkRungKl("trainer/a8b2", 3, 1e9);
        },
        ::testing::ExitedWithCode(70), "fatal alert");
}

TEST(Inspect, SchemaCheckerAcceptsWrittenFile)
{
    if (std::system("python3 --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "python3 not available";

    InspectTestGuard guard;
    obs::QuantInspector& inspector = obs::QuantInspector::instance();

    const Tensor w = rampTensor(64);
    inspector.beginStep(0);
    fakeQuantWeights(w, 1.0f, tqConfig());
    fakeQuantData(w, 1.0f, tqConfig());
    inspector.recordClipSat(-1, "a14b3", 4.0, 7, 64);
    inspector.recordGradNorm("conv.w#0", "mixed", 0.125, 64);
    inspector.recordRungAgreement("trainer", "a8b2", "a20b3", 0.25,
                                  0.875, 8);
    inspector.endStep();
    {
        obs::InspectEvalScope eval_scope;
        fakeQuantWeights(w, 1.0f, uqConfig());
        inspector.recordRungAgreement("classifier.multires", "a8b2",
                                      "a20b3", 0.5, 0.75, 16);
    }

    obs::RunManifest manifest;
    manifest.run = "inspect.test";
    manifest.seed = 1;
    obs::applyBuildProvenance(&manifest);
    const std::string path = tempPath("inspect_schema_test.jsonl");
    ASSERT_TRUE(inspector.writeJsonl(path, manifestJson(manifest),
                                     /*append=*/false));

    const std::string tool =
        std::string(MRQ_SOURCE_DIR) + "/tools/check_schema.py";
    EXPECT_EQ(std::system(("python3 " + tool + " inspect " + path +
                           " > /dev/null 2>&1")
                              .c_str()),
              0);
    const std::string report =
        std::string(MRQ_SOURCE_DIR) + "/tools/inspect_report.py";
    EXPECT_EQ(std::system(("python3 " + report + " " + path +
                           " > /dev/null 2>&1")
                              .c_str()),
              0);
    std::remove(path.c_str());
}

} // namespace
} // namespace mrq
