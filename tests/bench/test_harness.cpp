/**
 * @file
 * Bench-harness tests: robust statistics on known sequences, label
 * slugification, BENCH_*.json schema round-trips, quick-tier
 * determinism of the registered-case runner (two runs identical
 * modulo timing), metrics-snapshot capture, one run (and one set of
 * sink files) per case whatever the sinks, require() and lost-sink
 * failure propagation, and the exit-code contracts of
 * tools/bench_compare.py and tools/profile_diff.py.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"

#ifndef MRQ_SOURCE_DIR
#define MRQ_SOURCE_DIR "."
#endif

namespace mrq {
namespace bench {
namespace {

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tempPath(const char* name)
{
    return std::string(::testing::TempDir()) + name;
}

// ------------------------------------------------------------------
// Robust statistics
// ------------------------------------------------------------------

TEST(BenchStats, MedianAndMadOddCount)
{
    // median 3, deviations {2, 1, 0, 1, 2} -> MAD 1.
    const RobustStats s = robustStats({5.0, 1.0, 3.0, 2.0, 4.0});
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_DOUBLE_EQ(s.mad, 1.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_EQ(s.outliers, 0u);
}

TEST(BenchStats, MedianEvenCount)
{
    const RobustStats s = robustStats({1.0, 2.0, 3.0, 10.0});
    EXPECT_DOUBLE_EQ(s.median, 2.5);
    EXPECT_DOUBLE_EQ(s.mean, 4.0);
}

TEST(BenchStats, OutlierFlaggedBeyondMadFence)
{
    // Median 2, MAD 1; fence = 3.5 * 1.4826 ~ 5.19.  The 100.0
    // sample deviates by 98 and must be flagged; nothing else is.
    const RobustStats s =
        robustStats({1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 100.0});
    EXPECT_EQ(s.outliers, 1u);
    EXPECT_DOUBLE_EQ(s.median, 2.0);
}

TEST(BenchStats, ConstantSamplesHaveZeroMadAndNoOutliers)
{
    const RobustStats s = robustStats({7.0, 7.0, 7.0});
    EXPECT_DOUBLE_EQ(s.median, 7.0);
    EXPECT_DOUBLE_EQ(s.mad, 0.0);
    EXPECT_EQ(s.outliers, 0u);
}

TEST(BenchStats, EmptyAndSingle)
{
    EXPECT_EQ(robustStats({}).count, 0u);
    const RobustStats one = robustStats({4.25});
    EXPECT_EQ(one.count, 1u);
    EXPECT_DOUBLE_EQ(one.median, 4.25);
    EXPECT_DOUBLE_EQ(one.mad, 0.0);
    EXPECT_EQ(one.outliers, 0u);
}

TEST(BenchHarness, SlugifyLabels)
{
    EXPECT_EQ(slugify("mean accuracy with KD (%)"),
              "mean_accuracy_with_kd");
    EXPECT_EQ(slugify("128x128 latency ms"), "128x128_latency_ms");
    EXPECT_EQ(slugify("---"), "value");
    EXPECT_EQ(slugify("Already_fine"), "already_fine");
}

// ------------------------------------------------------------------
// Schema round-trip
// ------------------------------------------------------------------

BenchReport
makeSampleReport()
{
    BenchReport report;
    report.suite = "unit";
    report.manifest.run = "bench.unit";
    report.manifest.seed = 0;
    report.manifest.gitDescribe = "deadbee";
    report.manifest.add("tier", "quick");
    report.manifest.add("threads", "2");
    report.manifest.add("build", "Release");

    CaseRecord rec;
    rec.name = "sample_case";
    rec.reps = 3;
    rec.warmup = 1;
    rec.failed = false;
    rec.wallMs = robustStats({1.5, 2.5, 2.0});
    rec.values["accuracy"] = 0.875;
    rec.values["check_shape"] = 1.0;
    rec.values["tiny"] = 1e-9;
    rec.timingValues["epoch_s"] = 12.75;
    rec.metrics["hw.perf.cycles"] = MetricValue::ofInt(123456789012345);
    rec.metrics["train.eval.metric"] = MetricValue::ofDouble(0.1875);
    report.cases.push_back(rec);
    return report;
}

TEST(BenchReportTest, JsonRoundTripPreservesEverything)
{
    const BenchReport report = makeSampleReport();
    const std::string json = report.toJson();

    BenchReport parsed;
    std::string error;
    ASSERT_TRUE(parseBenchReport(json, &parsed, &error)) << error;

    EXPECT_EQ(parsed.suite, "unit");
    EXPECT_EQ(parsed.manifest.run, "bench.unit");
    EXPECT_EQ(parsed.manifest.gitDescribe, "deadbee");
    ASSERT_EQ(parsed.cases.size(), 1u);
    const CaseRecord& rec = parsed.cases[0];
    EXPECT_EQ(rec.name, "sample_case");
    EXPECT_EQ(rec.reps, 3);
    EXPECT_EQ(rec.warmup, 1);
    EXPECT_FALSE(rec.failed);
    EXPECT_DOUBLE_EQ(rec.wallMs.median, 2.0);
    EXPECT_EQ(rec.wallMs.count, 3u);
    EXPECT_DOUBLE_EQ(rec.values.at("accuracy"), 0.875);
    EXPECT_DOUBLE_EQ(rec.values.at("tiny"), 1e-9);
    EXPECT_DOUBLE_EQ(rec.timingValues.at("epoch_s"), 12.75);
    ASSERT_TRUE(rec.metrics.at("hw.perf.cycles").isInt);
    EXPECT_EQ(rec.metrics.at("hw.perf.cycles").i, 123456789012345);
    ASSERT_FALSE(rec.metrics.at("train.eval.metric").isInt);
    EXPECT_DOUBLE_EQ(rec.metrics.at("train.eval.metric").d, 0.1875);

    // Second round trip is byte-stable (shortest-round-trip doubles).
    EXPECT_EQ(parsed.toJson(), json);
}

TEST(BenchReportTest, ResourcesRoundTripCarriesHeapKeys)
{
    BenchReport report = makeSampleReport();
    CaseRecord& rec = report.cases[0];
    rec.resources["alloc_bytes"] = 1048576.0;
    rec.resources["alloc_count"] = 42.0;
    rec.resources["peak_heap"] = 2097152.0;
    rec.resources["peak_rss_kb"] = 9000.0;

    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"version\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"alloc_bytes\""), std::string::npos);

    BenchReport parsed;
    std::string error;
    ASSERT_TRUE(parseBenchReport(json, &parsed, &error)) << error;
    ASSERT_EQ(parsed.cases.size(), 1u);
    const auto& res = parsed.cases[0].resources;
    EXPECT_DOUBLE_EQ(res.at("alloc_bytes"), 1048576.0);
    EXPECT_DOUBLE_EQ(res.at("alloc_count"), 42.0);
    EXPECT_DOUBLE_EQ(res.at("peak_heap"), 2097152.0);
    EXPECT_DOUBLE_EQ(res.at("peak_rss_kb"), 9000.0);
    EXPECT_EQ(parsed.toJson(), json);
}

TEST(BenchReportTest, ParserToleratesOlderVersionsAndAbsentFields)
{
    // A v2 document (no heap keys) and a v1 document (no resources
    // at all) both parse: committed baselines survive schema bumps,
    // and absent keys surface as an empty map, never an error.
    const char* v2 =
        "{\"type\": \"bench\", \"version\": 2, \"suite\": \"unit\",\n"
        " \"manifest\": {\"type\": \"manifest\", \"run\": \"r\", "
        "\"seed\": 0, \"git\": \"d\"},\n"
        " \"cases\": [{\"name\": \"c\", \"reps\": 1, \"warmup\": 0,\n"
        "   \"failed\": false,\n"
        "   \"wall_ms\": {\"count\": 1, \"median\": 1.0, \"mad\": 0.0,"
        " \"min\": 1.0, \"max\": 1.0, \"mean\": 1.0, \"outliers\": 0},"
        "\n"
        "   \"values\": {}, \"timing_values\": {}, \"metrics\": {},\n"
        "   \"resources\": {\"peak_rss_kb\": 512}}]}\n";
    BenchReport parsed;
    std::string error;
    ASSERT_TRUE(parseBenchReport(v2, &parsed, &error)) << error;
    ASSERT_EQ(parsed.cases.size(), 1u);
    EXPECT_DOUBLE_EQ(parsed.cases[0].resources.at("peak_rss_kb"),
                     512.0);
    EXPECT_EQ(parsed.cases[0].resources.count("alloc_bytes"), 0u);

    const char* v1 =
        "{\"type\": \"bench\", \"version\": 1, \"suite\": \"unit\",\n"
        " \"manifest\": {\"type\": \"manifest\", \"run\": \"r\", "
        "\"seed\": 0, \"git\": \"d\"},\n"
        " \"cases\": [{\"name\": \"c\", \"reps\": 1, \"warmup\": 0,\n"
        "   \"failed\": false,\n"
        "   \"wall_ms\": {\"count\": 1, \"median\": 1.0, \"mad\": 0.0,"
        " \"min\": 1.0, \"max\": 1.0, \"mean\": 1.0, \"outliers\": 0},"
        "\n"
        "   \"values\": {}, \"timing_values\": {}, \"metrics\": {}}]}"
        "\n";
    BenchReport old;
    ASSERT_TRUE(parseBenchReport(v1, &old, &error)) << error;
    ASSERT_EQ(old.cases.size(), 1u);
    EXPECT_TRUE(old.cases[0].resources.empty());
}

TEST(BenchReportTest, ParserRejectsMalformedInput)
{
    BenchReport out;
    std::string error;
    EXPECT_FALSE(parseBenchReport("{", &out, &error));
    EXPECT_FALSE(parseBenchReport("[]", &out, &error));
    EXPECT_FALSE(parseBenchReport(
        "{\"type\": \"bench\", \"version\": 99, \"suite\": \"x\", "
        "\"manifest\": {}, \"cases\": []}",
        &out, &error));
    EXPECT_FALSE(error.empty());
}

TEST(BenchReportTest, WriteFailureReturnsFalse)
{
    const BenchReport report = makeSampleReport();
    EXPECT_FALSE(report.write("/proc/definitely/not/writable.json"));
}

// ------------------------------------------------------------------
// Registered-case runner
// ------------------------------------------------------------------

int g_body_runs = 0;

void
syntheticCase(BenchContext& ctx)
{
    ++g_body_runs;
    static obs::Counter counter("test.bench.synthetic_counter");
    counter.add(ctx.quick() ? 7 : 70);
    ctx.printf("synthetic table line\n");
    ctx.row("synthetic metric", ctx.quick() ? 0.25 : 2.5, "paper");
    ctx.value("raw_value", 42.0);
    ctx.timingValue("fake_ms", 1.25);
    ctx.require(true, "always holds");
}

void
failingCase(BenchContext& ctx)
{
    ctx.require(false, "always fails");
}

/** A case around a pipeline: one counter before the pipeline's
 *  RunScope opens, one inside it. */
void
sinksCase(BenchContext&)
{
    static obs::Counter before("test.bench.before_scope");
    static obs::Counter inside("test.bench.inside_scope");
    before.add(3);
    obs::RunManifest manifest;
    manifest.run = "unit.pipeline";
    const obs::RunScope pipeline(std::move(manifest), /*verbose=*/false);
    inside.add(5);
}

const bool g_registered =
    Registry::instance().add("ztest_synthetic", "Unit", "synthetic case",
                             &syntheticCase, defaultCase()) &&
    Registry::instance().add("ztest_failing", "Unit", "failing case",
                             &failingCase, heavyCase()) &&
    Registry::instance().add("ztest_sinks", "Unit", "case around a run",
                             &sinksCase, heavyCase());

RunnerOptions
unitOptions(const std::string& out_path, const std::string& filter)
{
    RunnerOptions opts;
    opts.suite = "unit";
    opts.outPath = out_path;
    opts.filter = filter;
    opts.quick = true;
    return opts;
}

void
runAndParseInto(BenchReport* out, const std::string& out_path,
                const std::string& filter, int expected_exit)
{
    ASSERT_TRUE(g_registered);
    EXPECT_EQ(runRegisteredCases(unitOptions(out_path, filter)),
              expected_exit);
    std::string error;
    ASSERT_TRUE(parseBenchReport(readFile(out_path), out, &error))
        << error;
}

void
expectSameMetrics(const CaseRecord& a, const CaseRecord& b)
{
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (const auto& [name, mv] : a.metrics) {
        ASSERT_TRUE(b.metrics.count(name)) << name;
        const MetricValue& other = b.metrics.at(name);
        EXPECT_EQ(mv.isInt, other.isInt) << name;
        EXPECT_EQ(mv.i, other.i) << name;
        EXPECT_DOUBLE_EQ(mv.d, other.d) << name;
    }
}

TEST(BenchRunner, CapturesValuesTimingAndMetrics)
{
    const std::string path = tempPath("bench_runner_capture.json");
    BenchReport parsed;
    runAndParseInto(&parsed, path, "ztest_synthetic", 0);

    ASSERT_EQ(parsed.cases.size(), 1u);
    const CaseRecord& rec = parsed.cases[0];
    EXPECT_EQ(rec.name, "ztest_synthetic");
    EXPECT_EQ(rec.reps, 3);
    EXPECT_EQ(rec.warmup, 1);
    EXPECT_FALSE(rec.failed);
    EXPECT_EQ(rec.wallMs.count, 3u);

    // Quick tier selected -> the quick-sized value was recorded.
    EXPECT_DOUBLE_EQ(rec.values.at("synthetic_metric"), 0.25);
    EXPECT_DOUBLE_EQ(rec.values.at("raw_value"), 42.0);
    EXPECT_DOUBLE_EQ(rec.values.at("check_always_holds"), 1.0);
    EXPECT_DOUBLE_EQ(rec.timingValues.at("fake_ms"), 1.25);

    // The registry was reset before each rep, so the snapshot holds
    // exactly one repetition's worth of the counter.
    ASSERT_TRUE(rec.metrics.count("test.bench.synthetic_counter"));
    EXPECT_EQ(rec.metrics.at("test.bench.synthetic_counter").i, 7);

    // Every case's resources carry the process's peak RSS.
    ASSERT_TRUE(rec.resources.count("peak_rss_kb"));
    EXPECT_GT(rec.resources.at("peak_rss_kb"), 0.0);

    // Manifest stamped with tier and suite.
    EXPECT_EQ(parsed.suite, "unit");
    EXPECT_EQ(parsed.manifest.run, "bench.unit");
    bool saw_tier = false;
    for (const auto& [k, v] : parsed.manifest.entries)
        if (k == "tier") {
            saw_tier = true;
            EXPECT_EQ(v, "quick");
        }
    EXPECT_TRUE(saw_tier);
}

TEST(BenchRunner, QuickTierRunsAreIdenticalModuloTiming)
{
    const std::string path_a = tempPath("bench_runner_det_a.json");
    const std::string path_b = tempPath("bench_runner_det_b.json");
    BenchReport a, b;
    runAndParseInto(&a, path_a, "ztest_synthetic", 0);
    runAndParseInto(&b, path_b, "ztest_synthetic", 0);

    ASSERT_EQ(a.cases.size(), 1u);
    ASSERT_EQ(b.cases.size(), 1u);
    EXPECT_EQ(a.cases[0].values, b.cases[0].values);
    EXPECT_EQ(a.cases[0].timingValues, b.cases[0].timingValues);
    expectSameMetrics(a.cases[0], b.cases[0]);
}

TEST(BenchRunner, SinksDoNotChangeCaseMetrics)
{
    BenchReport plain, sinks;
    runAndParseInto(&plain, tempPath("bench_runner_plain.json"),
                    "ztest_sinks", 0);
    const std::string dir = tempPath("bench_runner_run_dir");
    std::filesystem::remove_all(dir);
    ::setenv("MRQ_RUN_DIR", dir.c_str(), 1);
    const bool prev_trace = obs::setTraceEnabled(true);
    const bool prev_export = obs::setTraceExportEnabled(true);
    runAndParseInto(&sinks, tempPath("bench_runner_sinks.json"),
                    "ztest_sinks", 0);
    obs::setTraceExportEnabled(prev_export);
    obs::setTraceEnabled(prev_trace);
    ::unsetenv("MRQ_RUN_DIR");

    // The pipeline's scope opened inside the case's run, so it reset
    // nothing: both counters survive, with or without sinks.
    ASSERT_EQ(plain.cases.size(), 1u);
    ASSERT_EQ(sinks.cases.size(), 1u);
    EXPECT_EQ(plain.cases[0].metrics.at("test.bench.before_scope").i, 3);
    EXPECT_EQ(plain.cases[0].metrics.at("test.bench.inside_scope").i, 5);
    expectSameMetrics(plain.cases[0], sinks.cases[0]);

    // Only the case's scope wrote files, each once.
    std::vector<std::string> files;
    for (const auto& e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path().filename().string());
    std::sort(files.begin(), files.end());
    EXPECT_EQ(files, (std::vector<std::string>{"metrics.jsonl",
                                               "ztest_sinks.trace.json"}));
    const std::string metrics = readFile(dir + "/metrics.jsonl");
    const std::regex manifest(R"re("type": "manifest", "run": "([^"]*)")re");
    std::vector<std::string> runs;
    for (auto it = std::sregex_iterator(metrics.begin(), metrics.end(),
                                        manifest);
         it != std::sregex_iterator(); ++it)
        runs.push_back((*it)[1].str());
    EXPECT_EQ(runs, std::vector<std::string>{"ztest_sinks"}) << metrics;
    std::filesystem::remove_all(dir);
}

TEST(BenchRunner, WarmupAndRepsRunTheBody)
{
    const std::string path = tempPath("bench_runner_reps.json");
    g_body_runs = 0;
    BenchReport parsed;
    runAndParseInto(&parsed, path, "ztest_synthetic", 0);
    // 1 warmup + 3 timed reps.
    EXPECT_EQ(g_body_runs, 4);
}

TEST(BenchRunner, FailedRequireFailsTheSuite)
{
    const std::string path = tempPath("bench_runner_fail.json");
    BenchReport parsed;
    runAndParseInto(&parsed, path, "ztest_failing", 1);
    ASSERT_EQ(parsed.cases.size(), 1u);
    EXPECT_TRUE(parsed.cases[0].failed);
    EXPECT_DOUBLE_EQ(parsed.cases[0].values.at("check_always_fails"),
                     0.0);
}

TEST(BenchRunner, LostPerCaseSinkFailsTheSuite)
{
    // A run directory under a regular file can never be created: the
    // case's profile is lost, and the suite's exit says so even
    // though every case passed.
    const std::string blocker = tempPath("bench_runner_blocker");
    {
        std::ofstream out(blocker);
        out << "not a directory\n";
    }
    ::setenv("MRQ_RUN_DIR", (blocker + "/run").c_str(), 1);
    ::setenv("MRQ_SAMPLE", "1", 1);
    BenchReport parsed;
    runAndParseInto(&parsed, tempPath("bench_runner_lost.json"),
                    "ztest_synthetic", 1);
    ::unsetenv("MRQ_SAMPLE");
    ::unsetenv("MRQ_RUN_DIR");
    std::remove(blocker.c_str());
    ASSERT_EQ(parsed.cases.size(), 1u);
    EXPECT_FALSE(parsed.cases[0].failed);
}

TEST(BenchRunner, NoMatchingCasesIsAnError)
{
    RunnerOptions opts =
        unitOptions(tempPath("bench_runner_none.json"),
                    "no_such_case_exists");
    EXPECT_EQ(runRegisteredCases(opts), 1);
}

// ------------------------------------------------------------------
// bench_compare.py exit-code contract
// ------------------------------------------------------------------

TEST(BenchCompare, ExitCodesOnIdenticalAndPerturbedRuns)
{
    if (std::system("python3 --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "python3 not available";
    const std::string tool =
        std::string(MRQ_SOURCE_DIR) + "/tools/bench_compare.py";

    const std::string base = tempPath("bench_cmp_base.json");
    const std::string same = tempPath("bench_cmp_same.json");
    const std::string worse = tempPath("bench_cmp_worse.json");

    BenchReport report = makeSampleReport();
    ASSERT_TRUE(report.write(base));
    ASSERT_TRUE(report.write(same));
    report.cases[0].values["accuracy"] = 0.5; // deterministic drift
    ASSERT_TRUE(report.write(worse));

    const std::string quiet = " > /dev/null 2>&1";
    EXPECT_EQ(std::system(("python3 " + tool + " " + base + " " + same +
                           quiet)
                              .c_str()),
              0);
    EXPECT_NE(std::system(("python3 " + tool + " " + base + " " +
                           worse + quiet)
                              .c_str()),
              0);
}

TEST(BenchCompare, CheckResourcesGatesHeapGrowthButNotAbsence)
{
    if (std::system("python3 --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "python3 not available";
    const std::string tool =
        std::string(MRQ_SOURCE_DIR) + "/tools/bench_compare.py";

    const std::string base = tempPath("bench_cmp_res_base.json");
    const std::string grown = tempPath("bench_cmp_res_grown.json");
    const std::string absent = tempPath("bench_cmp_res_absent.json");

    BenchReport report = makeSampleReport();
    report.cases[0].resources["alloc_bytes"] = 1000.0;
    ASSERT_TRUE(report.write(base));
    // 3x growth trips the default 2x noise gate...
    report.cases[0].resources["alloc_bytes"] = 3000.0;
    ASSERT_TRUE(report.write(grown));
    // ...but a run without heap accounting (sanitizer build, profiler
    // off) only notes the absent key.
    report.cases[0].resources.clear();
    ASSERT_TRUE(report.write(absent));

    const std::string quiet = " > /dev/null 2>&1";
    const std::string flags = " --check-resources ";
    EXPECT_EQ(std::system(("python3 " + tool + flags + base + " " +
                           base + quiet)
                              .c_str()),
              0);
    EXPECT_NE(std::system(("python3 " + tool + flags + base + " " +
                           grown + quiet)
                              .c_str()),
              0);
    EXPECT_EQ(std::system(("python3 " + tool + flags + base + " " +
                           absent + quiet)
                              .c_str()),
              0);
}

TEST(BenchCompare, MalformedTrajectoryExitsTwoWithoutTraceback)
{
    // A trajectory that fails the bench schema is a usage error (2)
    // with a one-line diagnostic, never a traceback or the regression
    // exit (1).
    if (std::system("python3 --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "python3 not available";
    const std::string tool =
        std::string(MRQ_SOURCE_DIR) + "/tools/bench_compare.py";
    const std::string base = tempPath("bench_cmp_bad_base.json");
    ASSERT_TRUE(makeSampleReport().write(base));
    const std::string text = readFile(base);
    const auto variant = [&](const char* name, const char* pattern,
                             const char* with) {
        const std::string path = tempPath(name);
        const std::string bad =
            std::regex_replace(text, std::regex(pattern), with,
                               std::regex_constants::format_first_only);
        EXPECT_NE(bad, text) << pattern;
        std::ofstream(path) << bad;
        return path;
    };
    const std::string bad[] = {
        variant("bench_cmp_null_values.json", R"("values": \{[^}]*\})",
                R"("values": null)"),
        variant("bench_cmp_no_wall_ms.json", R"("wall_ms": \{[^}]*\},)",
                ""),
        tempPath("bench_cmp_not_json.json"),
    };
    std::ofstream(bad[2]) << "not json\n";
    const std::string log = tempPath("bench_cmp_bad.log");
    for (const std::string& cur : bad) {
        const int rc = std::system(("python3 " + tool + " --check-timing " +
                                    base + " " + cur + " > " + log +
                                    " 2>&1")
                                       .c_str());
        ASSERT_TRUE(WIFEXITED(rc));
        EXPECT_EQ(WEXITSTATUS(rc), 2) << cur << "\n" << readFile(log);
        EXPECT_EQ(readFile(log).find("Traceback"), std::string::npos)
            << readFile(log);
    }
}

TEST(BenchCompare, TruncatedProfileDowngradesToDiagnostic)
{
    // profile_diff.py must exit 2 with a diagnostic (not a traceback)
    // on empty, truncated or mismatched (cpu vs heap) inputs of either
    // kind; bench_compare treats that as "attribution unavailable",
    // not a gate failure of its own.
    if (std::system("python3 --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "python3 not available";
    const std::string dir = std::string(::testing::TempDir());
    const std::string cpu_header =
        "{\"type\": \"stack_profile\", \"version\": 2, \"kind\": "
        "\"cpu\", \"unit\": \"ns\", \"isa\": \"generic\", \"git\": "
        "\"t\", \"hz\": 100, \"period_ns\": 10000000, \"samples\": 1, "
        "\"dropped\": 0}\n";
    const std::string cpu_stack =
        "{\"type\": \"stack\", \"thread\": \"main\", \"span\": \"\", "
        "\"kernel\": \"\", \"count\": 1, \"weight\": 10000000, "
        "\"frames\": [\"f\"]}\n";
    const std::string cpu_end = "{\"type\": \"stack_profile_end\", "
                                "\"stacks\": 1, \"count\": 1, "
                                "\"weight\": 10000000}\n";
    const std::string heap_header =
        "{\"type\": \"stack_profile\", \"version\": 2, \"kind\": "
        "\"heap\", \"unit\": \"bytes\", \"isa\": \"generic\", \"git\": "
        "\"t\", \"interval_bytes\": 4096, \"samples\": 1, "
        "\"sampled_bytes\": 4096, \"current_bytes\": 0, "
        "\"peak_bytes\": 4096, \"alloc_count\": 1, \"alloc_bytes\": "
        "4096, \"free_count\": 0, \"free_bytes\": 0, "
        "\"guard_violations\": 0}\n";
    const std::string heap_stack =
        "{\"type\": \"stack\", \"thread\": \"\", \"span\": \"\", "
        "\"kernel\": \"\", \"count\": 1, \"weight\": 4096, "
        "\"frames\": [\"f\"]}\n";
    const std::string heap_end = "{\"type\": \"stack_profile_end\", "
                                 "\"stacks\": 1, \"count\": 1, "
                                 "\"weight\": 4096}\n";
    const auto write = [&](const std::string& name,
                           const std::string& text) {
        const std::string path = dir + "bench_cmp_" + name + ".jsonl";
        std::ofstream(path) << text;
        return path;
    };
    const std::string cpu = write("cpu", cpu_header + cpu_stack + cpu_end);
    const std::string heap =
        write("heap", heap_header + heap_stack + heap_end);
    const std::string tool =
        std::string(MRQ_SOURCE_DIR) + "/tools/profile_diff.py";
    const auto diff = [&](const std::string& a, const std::string& b) {
        const int rc = std::system(("python3 " + tool + " " + a + " " +
                                    b + " > /dev/null 2>&1")
                                       .c_str());
        return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    };
    // Sanity: well-formed self-diffs are clean.
    EXPECT_EQ(diff(cpu, cpu), 0);
    EXPECT_EQ(diff(heap, heap), 0);
    const std::pair<std::string, std::string> bad[] = {
        {write("empty", ""), "empty file"},
        {write("cpu_header_only", cpu_header), "empty cpu profile"},
        {write("heap_header_only", heap_header), "empty heap profile"},
        {write("cpu_truncated", cpu_header + cpu_stack),
         "truncated cpu profile"},
        {write("heap_truncated", heap_header + heap_stack),
         "truncated heap profile"},
        {write("headless", heap_stack + heap_end), "lost header"},
    };
    for (const auto& [path, what] : bad)
        EXPECT_EQ(diff(path, path), 2)
            << what << ": want the documented parse exit, not a "
                       "traceback (1) or a clean diff";
    EXPECT_EQ(diff(cpu, heap), 2) << "cpu vs heap must not diff";
    EXPECT_EQ(diff(heap, cpu), 2) << "heap vs cpu must not diff";

    // A tripped timing gate whose profiles cannot be diffed still
    // fails on the gate, with an "attribution unavailable" note.
    const std::string base_dir = dir + "bench_cmp_prof_base";
    const std::string cur_dir = dir + "bench_cmp_prof_cur";
    std::filesystem::create_directories(base_dir);
    std::filesystem::create_directories(cur_dir);
    std::ofstream(base_dir + "/sample_case.cpu.jsonl") << cpu_header;
    std::ofstream(cur_dir + "/sample_case.cpu.jsonl")
        << cpu_header + cpu_stack + cpu_end;
    const std::string base = tempPath("bench_cmp_attr_base.json");
    const std::string slow = tempPath("bench_cmp_attr_slow.json");
    BenchReport report = makeSampleReport();
    ASSERT_TRUE(report.write(base));
    report.cases[0].wallMs = robustStats({900.0, 900.0, 900.0});
    ASSERT_TRUE(report.write(slow));
    const std::string log = tempPath("bench_cmp_attr.log");
    const int rc = std::system(
        ("python3 " + std::string(MRQ_SOURCE_DIR) +
         "/tools/bench_compare.py --check-timing --profiles-base=" +
         base_dir + " --profiles-cur=" + cur_dir + " " + base + " " +
         slow + " > " + log + " 2>&1")
            .c_str());
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 1) << readFile(log);
    EXPECT_NE(readFile(log).find("attribution unavailable"),
              std::string::npos)
        << readFile(log);
}

} // namespace
} // namespace bench
} // namespace mrq
