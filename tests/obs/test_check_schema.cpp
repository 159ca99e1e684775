/**
 * @file
 * tools/check_schema.py against the library's own writers.  For every
 * artifact kind a freshly written file passes, and one single-field
 * mutation per schema check is rejected with exit 1.  An unknown kind
 * and a flag the kind does not define are usage errors (exit 2).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "harness/report.hpp"
#include "obs/crash_handler.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/inspect.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/stack_profile.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

#ifndef MRQ_SOURCE_DIR
#define MRQ_SOURCE_DIR "."
#endif

namespace mrq {
namespace {

namespace fs = std::filesystem;

bool
pythonAvailable()
{
    return std::system("python3 --version > /dev/null 2>&1") == 0;
}

fs::path
tempFile(const std::string& name)
{
    return fs::temp_directory_path() /
           ("mrq_check_schema_" + std::to_string(::getpid()) + "_" +
            name);
}

std::string
readAll(const fs::path& p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Exit code of `tools/check_schema.py ARGS`. */
int
checkSchema(const std::string& args)
{
    const int rc = std::system(("python3 " + std::string(MRQ_SOURCE_DIR) +
                                "/tools/check_schema.py " + args +
                                " > /dev/null 2>&1")
                                   .c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/** One schema check and an edit that must trip it: the first match
 *  of @c pattern (every match when @c all) becomes @c with ("$01"
 *  is the first group, so a digit may follow it). */
struct Mutation
{
    const char* check;
    const char* pattern;
    const char* with;
    bool all = false;
};

/** @p path passes as @p kind, and every mutation of it fails. */
void
expectMutationsRejected(const std::string& kind, const fs::path& path,
                        const std::vector<Mutation>& mutations)
{
    const std::string text = readAll(path);
    ASSERT_EQ(checkSchema(kind + " " + path.string()), 0) << text;
    const fs::path bad = tempFile("mutated_" + kind);
    for (const Mutation& m : mutations) {
        const std::regex re(m.pattern);
        ASSERT_TRUE(std::regex_search(text, re))
            << kind << ": " << m.check << ": no match for " << m.pattern;
        std::ofstream(bad, std::ios::binary) << std::regex_replace(
            text, re, m.with,
            m.all ? std::regex_constants::format_default
                  : std::regex_constants::format_first_only);
        EXPECT_EQ(checkSchema(kind + " " + bad.string()), 1)
            << kind << ": " << m.check << "\n"
            << readAll(bad);
    }
    fs::remove(bad);
}

obs::RunManifest
testManifest(const char* run)
{
    obs::RunManifest m;
    m.run = run;
    m.seed = 1;
    obs::applyBuildProvenance(&m);
    return m;
}

TEST(CheckSchema, BenchReportWrite)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    bench::BenchReport report;
    report.suite = "schema";
    report.manifest = testManifest("bench.schema");
    for (const char* name : {"case_a", "case_b"}) {
        bench::CaseRecord rec;
        rec.name = name;
        rec.reps = 3;
        rec.warmup = 1;
        rec.wallMs = bench::robustStats({1.5, 2.5, 2.0});
        rec.values["accuracy"] = 0.875;
        rec.timingValues["epoch_s"] = 1.25;
        rec.resources["peak_rss_kb"] = 5140.0;
        report.cases.push_back(rec);
    }
    const fs::path path = tempFile("bench.json");
    ASSERT_TRUE(report.write(path.string()));
    expectMutationsRejected(
        "bench", path,
        {{"cases are sorted", R"("name": "case_a")", R"("name": "case_z")"},
         {"case names are unique", R"("name": "case_b")",
          R"("name": "case_a")"},
         {"wall_ms has exactly seven keys", R"(("outliers": \d+))",
          R"($01, "p99": 1)"},
         {"count equals reps", R"("count": 3)", R"("count": 2)"},
         {"min <= median <= max", R"("median": [-0-9.e+]+)",
          R"("median": 1000)"},
         {"outliers <= count", R"("outliers": \d+)", R"("outliers": 4)"},
         {"outliers >= 0", R"("outliers": \d+)", R"("outliers": -1)"},
         {"resources required from v2", R"(,\s*"resources": \{[^}]*\})",
          ""},
         {"resources forbidden in v1", R"("version": 3)",
          R"("version": 1)"},
         {"values are numeric", R"("accuracy": [-0-9.e+]+)",
          R"("accuracy": null)"}});
    fs::remove(path);
}

TEST(CheckSchema, MetricsWriteJsonl)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    const bool prev = obs::setMetricsEnabled(true);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.reset();
    reg.addCounterNamed("schema.counter", 7);
    reg.setGauge("schema.gauge", 0.5);
    reg.recordHistogram(reg.histogramId("schema.hist"), 4, 1);
    reg.recordHistogram(reg.histogramId("schema.hist"), 4, 3);
    reg.recordSeries("schema.series", 0, 1.5);
    reg.recordAlert("warn", "schema_rule", "ctx", 3, "detail");
    const fs::path path = tempFile("metrics.jsonl");
    ASSERT_TRUE(reg.writeJsonl(
        path.string(), obs::manifestJson(testManifest("schema.metrics")),
        /*append=*/false));
    reg.reset();
    obs::setMetricsEnabled(prev);
    expectMutationsRejected(
        "metrics", path,
        {{"the manifest comes first", "^[^\n]*\n", ""},
         {"counter value is an int",
          R"(("name": "schema.counter", "value": )7)", R"($01"7")"},
         {"gauge value is a number",
          R"(("name": "schema.gauge", "value": )[^}]+)", R"($01"x")"},
         {"series step is an int", R"(("name": "schema.series", "step": )0)",
          R"($01"0")"},
         {"series value is a number",
          R"(("name": "schema.series", "step": 0, "value": )[^}]+)",
          R"($01"x")"},
         {"alert severity is warn|fatal", R"("severity": "warn")",
          R"("severity": "info")"},
         {"alert rule is a non-empty string", R"("rule": "schema_rule")",
          R"("rule": "")"},
         {"alert context is a non-empty string", R"("context": "ctx")",
          R"("context": 5)"},
         {"alert batch is an int", R"("batch": 3)", R"("batch": "3")"},
         {"hist total equals sum(counts)",
          R"(("name": "schema.hist"[^\n]*"total": )\d+)", R"($01999)"},
         {"timing lines are rejected",
          R"("type": "counter", "name": "schema.counter")",
          R"("type": "timing", "name": "schema.counter")"}});
    fs::remove(path);
}

TEST(CheckSchema, InspectorWriteJsonl)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    const bool prev_metrics = obs::setMetricsEnabled(true);
    obs::QuantInspector& inspector = obs::QuantInspector::instance();
    const bool prev = inspector.setEnabled(true);
    inspector.reset();
    inspector.beginStep(0);
    inspector.recordClipSat(-1, "a14b3", 4.0, 7, 64);
    inspector.recordGradNorm("conv.w#0", "mixed", 0.125, 64);
    inspector.recordRungAgreement("trainer", "a8b2", "a20b3", 0.25, 0.875,
                                  8);
    inspector.endStep();
    {
        obs::InspectEvalScope eval_scope;
        inspector.recordRungAgreement("classifier.multires", "a8b2",
                                      "a20b3", 0.5, 0.75, 16);
    }
    const fs::path path = tempFile("inspect.jsonl");
    ASSERT_TRUE(inspector.writeJsonl(
        path.string(), obs::manifestJson(testManifest("schema.inspect")),
        /*append=*/false));
    inspector.reset();
    inspector.setEnabled(prev);
    obs::setMetricsEnabled(prev_metrics);
    expectMutationsRejected(
        "inspect", path,
        {{"an eval record has step -1", R"("step": -1, "phase": "eval")",
          R"("step": 0, "phase": "eval")"},
         {"a train record has step >= 0", R"("step": \d+, "phase": "train")",
          R"("step": -2, "phase": "train")"},
         {"clip > 0", R"("clip": [-0-9.e+]+)", R"("clip": 0)"},
         {"saturated <= n", R"("saturated": \d+)", R"("saturated": 65)"},
         {"rate equals saturated/n", R"("rate": [-0-9.e+]+)",
          R"("rate": 0.5)"},
         {"kl >= 0", R"("kl": [-0-9.e+]+)", R"("kl": -0.5)"},
         {"top1 in [0, 1]", R"("top1": [-0-9.e+]+)", R"("top1": 1.5)"},
         {"l2 >= 0", R"("l2": [-0-9.e+]+)", R"("l2": -1)"}});
    fs::remove(path);
}

obs::ProfileStack
stack(std::int64_t count, std::int64_t weight)
{
    obs::ProfileStack s;
    s.thread = "main";
    s.span = "schema/span";
    s.count = count;
    s.weight = weight;
    s.frames = {"inner", "outer"};
    return s;
}

TEST(CheckSchema, WriteStackProfileBothKinds)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    const std::int64_t period = 10000000;
    obs::ProfileDoc cpu;
    cpu.kind = obs::ProfileKind::Cpu;
    cpu.totals = {{"hz", 100}, {"period_ns", period}, {"samples", 5},
                  {"dropped", 0}};
    cpu.threads = {{"main", {{"busy_ns", 1}, {"queue_wait_ns", 2},
                             {"idle_ns", 3}}}};
    cpu.stacks = {stack(3, 3 * period), stack(2, 2 * period)};
    const fs::path cpu_path = tempFile("cpu.jsonl");
    ASSERT_TRUE(obs::writeStackProfile(cpu_path.string(), cpu));
    expectMutationsRejected(
        "profile", cpu_path,
        {{"the header comes first", R"("type": "stack_profile",)",
          R"("type": "thread",)"},
         {"there is one header", R"("type": "thread",)",
          R"("type": "stack_profile",)"},
         {"the end line is present",
          "\\{\"type\": \"stack_profile_end\"[^\n]*\n", ""},
         {"nothing follows the end line",
          "(\\{\"type\": \"stack_profile_end\"[^\n]*\n)",
          "$01{\"type\": \"thread\", \"thread\": \"late\", \"busy_ns\": 0, "
          "\"queue_wait_ns\": 0, \"idle_ns\": 0}\n"},
         {"end stacks matches the rows", R"("stacks": \d+)",
          R"("stacks": 7)"},
         {"end count matches the rows", R"("count": \d+(, "weight": \d+\}))",
          R"("count": 99$01)"},
         {"end weight matches the rows", R"("weight": \d+\})",
          R"("weight": 1})"},
         {"cpu weight = count * period_ns",
          R"(("type": "stack"[^\n]*"weight": )\d+)", R"($017)"},
         {"cpu samples = sum(count)", R"("samples": \d+)",
          R"("samples": 99)"},
         {"unit matches kind", R"("unit": "ns")", R"("unit": "bytes")"},
         {"hz >= 1", R"("hz": \d+)", R"("hz": 0)"},
         {"schema version 2", R"("version": 2)", R"("version": 3)"},
         {"stack count >= 1", R"("count": 3, "weight": \d+)",
          R"("count": 0, "weight": 0)"},
         {"frames are strings", R"("frames": \[)", R"("frames": [7, )"},
         {"thread fields >= 0", R"("busy_ns": \d+)", R"("busy_ns": -1)"}});

    obs::ProfileDoc heap;
    heap.kind = obs::ProfileKind::Heap;
    heap.totals = {{"interval_bytes", 4096}, {"samples", 2},
                   {"sampled_bytes", 8192},  {"current_bytes", 100},
                   {"peak_bytes", 8192},     {"alloc_count", 2},
                   {"alloc_bytes", 8192},    {"free_count", 1},
                   {"free_bytes", 4096},     {"guard_violations", 0}};
    heap.threads = {{"main", {{"alloc_bytes", 8192}, {"alloc_count", 2}}}};
    heap.stacks = {stack(1, 4096), stack(1, 4096)};
    const fs::path heap_path = tempFile("heap.jsonl");
    ASSERT_TRUE(obs::writeStackProfile(heap_path.string(), heap));
    expectMutationsRejected(
        "profile", heap_path,
        {{"peak_bytes >= current_bytes", R"("current_bytes": \d+)",
          R"("current_bytes": 9000)"},
         {"sum(weight) <= sampled_bytes", R"("sampled_bytes": \d+)",
          R"("sampled_bytes": 4096)"},
         {"interval_bytes >= 1", R"("interval_bytes": \d+)",
          R"("interval_bytes": 0)"},
         {"unit matches kind", R"("unit": "bytes")", R"("unit": "ns")"},
         {"thread fields are ints", R"("alloc_count": 2\})",
          R"("alloc_count": "2"})"}});
    fs::remove(cpu_path);
    fs::remove(heap_path);
}

TEST(CheckSchema, WriteTrace)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    const bool prev_metrics = obs::setMetricsEnabled(true);
    const bool prev_trace = obs::setTraceEnabled(true);
    const bool prev_export = obs::setTraceExportEnabled(true);
    obs::resetTraceBuffers();
    {
        obs::TraceSpan outer("schema_outer");
        MRQ_TRACE_SPAN("schema_inner");
    }
    obs::traceCounterSample("schema.counter", 0.25);
    obs::traceInstant("alert:schema_rule", "detail");
    const fs::path path = tempFile("trace.json");
    ASSERT_TRUE(obs::writeTrace(path.string()));
    // The same writer with no span at all.
    obs::resetTraceBuffers();
    obs::traceCounterSample("schema.counter", 0.5);
    const fs::path spanless = tempFile("spanless.json");
    ASSERT_TRUE(obs::writeTrace(spanless.string()));
    obs::resetTraceBuffers();
    obs::setTraceExportEnabled(prev_export);
    obs::setTraceEnabled(prev_trace);
    obs::setMetricsEnabled(prev_metrics);

    EXPECT_EQ(checkSchema("trace --require-counter " + path.string()), 0);
    EXPECT_EQ(checkSchema("trace " + spanless.string()), 1)
        << "a trace needs at least one span";
    expectMutationsRejected(
        "trace", path,
        {{"pid is 1", R"("pid": 1)", R"("pid": 2)"},
         {"every tid in use is named",
          R"(("ph": "X", "pid": 1, "tid": )\d+)", R"($0177)"},
         {"an X name is the leaf of args.path", R"("name": "schema_inner")",
          R"("name": "schema_other")"},
         {"timestamps are rebased", R"("ts": )", R"("ts": 9000000000)",
          true},
         {"droppedEvents >= 0", R"("droppedEvents": "\d+")",
          R"("droppedEvents": "-1")"},
         {"threads >= 1", R"("threads": "\d+")", R"("threads": "0")"}});
    fs::remove(path);
    fs::remove(spanless);
}

TEST(CheckSchema, Usr1PostmortemDump)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    const fs::path dir = tempFile("pm");
    fs::remove_all(dir);
    fs::create_directories(dir);
    obs::CrashHandlerConfig cfg;
    cfg.dumpDir = dir.string();
    ASSERT_TRUE(obs::installCrashHandlers(cfg));
    const bool prev = obs::setFlightEnabled(true);
    obs::flightMark("schema.usr1_probe", 1);
    ::raise(SIGUSR1);
    obs::setFlightEnabled(prev);
    fs::path dump;
    for (const auto& e : fs::directory_iterator(dir))
        dump = e.path();
    ASSERT_FALSE(dump.empty()) << "no usr1 dump in " << dir;

    EXPECT_EQ(checkSchema("postmortem --reason usr1 --require-flight " +
                          dump.string()),
              0);
    EXPECT_EQ(checkSchema("postmortem --reason signal " + dump.string()),
              1);
    const std::string text = readAll(dump);
    const fs::path signal = tempFile("signal.jsonl");
    std::ofstream(signal, std::ios::binary) << std::regex_replace(
        text, std::regex(R"("reason": "usr1")"),
        R"("reason": "signal", "signal": "SIGSEGV", "signo": 11, )"
        R"("fault_addr": "0x10")");
    EXPECT_EQ(checkSchema("postmortem --reason signal " + signal.string()),
              0)
        << readAll(signal);
    expectMutationsRejected(
        "postmortem", signal,
        {{"fault_addr is hex", R"("fault_addr": "0x10")",
          R"("fault_addr": "0xzz")"}});
    expectMutationsRejected(
        "postmortem", dump,
        {{"the header comes first", R"("type": "postmortem",)",
          R"("type": "manifest",)"},
         {"there is one header", R"("type": "frame")",
          R"("type": "postmortem")"},
         {"a signal reason carries its signal fields",
          R"("reason": "usr1")", R"("reason": "signal")"},
         {"pc is hex", R"("pc": "0x)", R"("pc": "zz)"},
         {"end frames matches the file", R"("frames": \d+)",
          R"("frames": 999)"},
         {"end flight_events matches the file",
          R"("flight_events": \d+)", R"("flight_events": 999)"},
         {"nothing follows the end line",
          "(\\{\"type\": \"postmortem_end\"[^\n]*\n)",
          "$01{\"type\": \"frame\", \"index\": 0, \"pc\": \"0x1\", "
          "\"symbol\": \"?\", \"object\": \"?\"}\n"},
         {"the end line is present",
          "\\{\"type\": \"postmortem_end\"[^\n]*\n", ""}});
    fs::remove(signal);
    fs::remove_all(dir);
}

TEST(CheckSchema, UnknownKindAndForeignFlagAreUsageErrors)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    const fs::path path = tempFile("usage.json");
    std::ofstream(path) << "{}\n";
    EXPECT_EQ(checkSchema("nosuchkind " + path.string()), 2);
    EXPECT_EQ(checkSchema(path.string()), 2);
    EXPECT_EQ(checkSchema("bench --require-counter " + path.string()), 2);
    EXPECT_EQ(checkSchema("trace --require-stacks " + path.string()), 2);
    EXPECT_EQ(checkSchema("metrics --reason signal " + path.string()), 2);
    EXPECT_EQ(checkSchema("postmortem --reason nope " + path.string()), 2);
    EXPECT_EQ(checkSchema("bench"), 2);
    EXPECT_EQ(checkSchema("bench " + path.string()), 1);
    fs::remove(path);
}

} // namespace
} // namespace mrq
