#include "harness/harness.hpp"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdlib>
#include <cstring>

#include "obs/crash_handler.hpp"
#include "obs/heap_profiler.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/proc_stats.hpp"
#include "obs/sampler.hpp"
#include "obs/trace_export.hpp"
#include "runtime/thread_pool.hpp"

#ifndef MRQ_BUILD_TYPE
#define MRQ_BUILD_TYPE "unknown"
#endif

namespace mrq {
namespace bench {

namespace {

/**
 * Per-case sink path: "{run}" (when present) or a suffix before the
 * extension becomes the case slug, so a suite run leaves one file per
 * case instead of the last case overwriting the rest.  Shared by the
 * timeline (MRQ_TRACE_OUT) and sample-profile (MRQ_SAMPLE_OUT) sinks.
 */
std::string
casePathFor(std::string path, const std::string& case_name)
{
    const std::string slug = slugify(case_name);
    const std::size_t brace = path.find("{run}");
    if (brace != std::string::npos)
        return path.replace(brace, 5, slug);
    const std::size_t dot = path.find_last_of('.');
    const std::size_t slash = path.find_last_of('/');
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash))
        return path.substr(0, dot) + "." + slug + path.substr(dot);
    return path + "." + slug;
}

std::string
caseTracePath(const std::string& case_name)
{
    return casePathFor(obs::traceExportPath(), case_name);
}

std::string
baseSuiteName(const char* argv0)
{
    std::string name = argv0 != nullptr ? argv0 : "bench";
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    if (name.rfind("bench_", 0) == 0)
        name = name.substr(6);
    return name.empty() ? "bench" : name;
}

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--list] [--quick] [--reps=N] [--filter=SUBSTR]\n"
        "          [--out=PATH] [--suite=NAME]\n",
        argv0 != nullptr ? argv0 : "bench");
    std::exit(2);
}

} // namespace

std::string
slugify(const std::string& label)
{
    std::string out;
    out.reserve(label.size());
    bool pending_sep = false;
    for (char c : label) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            if (pending_sep && !out.empty())
                out.push_back('_');
            pending_sep = false;
            out.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
        } else {
            pending_sep = true;
        }
    }
    return out.empty() ? "value" : out;
}

// ------------------------------------------------------------------
// BenchContext
// ------------------------------------------------------------------

void
BenchContext::printf(const char* fmt, ...)
{
    if (table_ == nullptr || !table_->enabled())
        return;
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stdout, fmt, args);
    va_end(args);
}

void
BenchContext::row(const std::string& label, double measured,
                  const std::string& paper)
{
    if (table_ != nullptr)
        table_->row(label, measured, paper);
    value(slugify(label), measured);
}

void
BenchContext::value(const std::string& name, double v)
{
    if (record_ != nullptr)
        record_->values[name] = v;
}

void
BenchContext::timingValue(const std::string& name, double v)
{
    if (record_ != nullptr)
        record_->timingValues[name] = v;
}

void
BenchContext::require(bool ok, const std::string& label)
{
    value("check_" + slugify(label), ok ? 1.0 : 0.0);
    if (!ok) {
        failed_ = true;
        std::fprintf(stderr, "[%s] CHECK FAILED: %s\n",
                     caseName_.c_str(), label.c_str());
    }
}

// ------------------------------------------------------------------
// Registry
// ------------------------------------------------------------------

Registry&
Registry::instance()
{
    static Registry registry;
    return registry;
}

bool
Registry::add(std::string name, std::string paper_id, std::string what,
              CaseFn fn, CaseOptions opts)
{
    for (const CaseDef& c : cases_) {
        if (c.name == name) {
            std::fprintf(stderr,
                         "bench harness: duplicate case '%s'\n",
                         name.c_str());
            std::abort();
        }
    }
    CaseDef def;
    def.name = std::move(name);
    def.paperId = std::move(paper_id);
    def.what = std::move(what);
    def.fn = fn;
    def.opts = opts;
    cases_.push_back(std::move(def));
    return true;
}

std::vector<CaseDef>
Registry::sortedCases() const
{
    std::vector<CaseDef> out = cases_;
    std::sort(out.begin(), out.end(),
              [](const CaseDef& a, const CaseDef& b) {
                  return a.name < b.name;
              });
    return out;
}

// ------------------------------------------------------------------
// Runner
// ------------------------------------------------------------------

class Runner
{
  public:
    static CaseRecord
    runCase(const CaseDef& def, const RunnerOptions& opts,
            TablePrinter& table)
    {
        CaseRecord record;
        record.name = def.name;
        record.warmup =
            def.opts.warmup >= 0 ? def.opts.warmup : 1;
        record.reps = opts.repsOverride > 0 ? opts.repsOverride
                      : def.opts.reps > 0   ? def.opts.reps
                                            : 3;

        BenchContext ctx;
        ctx.table_ = &table;
        ctx.record_ = &record;
        ctx.caseName_ = def.name;
        ctx.quick_ = opts.quick;

        // The header prints once per case, ahead of any repetition.
        table.setEnabled(true);
        table.header(def.paperId, def.what);

        const std::size_t prev_threads =
            ThreadPool::instance().threadCount();
        const bool prev_metrics = obs::setMetricsEnabled(true);

        // Each case gets a timeline of its own: drop whatever earlier
        // cases buffered, then flush this case's events to a per-case
        // file after the measured reps.
        const bool trace_case = obs::traceExportEnabled();
        if (trace_case)
            obs::resetTraceBuffers();

        for (int w = 0; w < record.warmup; ++w) {
            table.setEnabled(false);
            record.values.clear();
            record.timingValues.clear();
            obs::MetricsRegistry::instance().reset();
            def.fn(ctx);
        }

        // Hardware counters attach per timed rep (one PerfScope each)
        // and sum in the perf side store; the store is cleared per
        // case so the totals below cover exactly this case's reps.
        obs::resetPerfTotals();
        const char* kPerfScope = "bench.rep";

        // Same per-case scoping for the sampling profiler: stacks
        // accumulated before the timed reps (warmup, earlier cases)
        // would pollute this case's attribution.
        const bool sample_case = obs::samplerRunning();
        if (sample_case)
            obs::resetSamplerProfile();

        // And for the heap profiler: drop warmup allocations and
        // rebase the peak so the per-case resources cover exactly the
        // timed reps.
        const bool heap_case = obs::heapProfilerRunning();
        if (heap_case)
            obs::resetHeapProfile();

        std::vector<double> samples;
        samples.reserve(static_cast<std::size_t>(record.reps));
        for (int r = 0; r < record.reps; ++r) {
            obs::faultInjectionPoint("bench_rep", r);
            table.setEnabled(r == 0);
            record.values.clear();
            record.timingValues.clear();
            obs::MetricsRegistry::instance().reset();
            obs::PerfScope perf(kPerfScope);
            samples.push_back(wallTimeMs([&] { def.fn(ctx); }));
        }
        record.metrics =
            flattenSnapshot(obs::MetricsRegistry::instance().snapshot());

        // Machine-dependent per-case facts go into the noise-gated
        // "resources" map, never into values/metrics.
        const obs::ProcStats proc = obs::readProcStats();
        if (proc.peakRssKb >= 0)
            record.resources["peak_rss_kb"] =
                static_cast<double>(proc.peakRssKb);
        for (const auto& [scope, totals] : obs::perfTotalsSnapshot()) {
            if (scope != kPerfScope || totals.cycles <= 0)
                continue;
            record.resources["cycles"] =
                static_cast<double>(totals.cycles);
            record.resources["instructions"] =
                static_cast<double>(totals.instructions);
            record.resources["cache_misses"] =
                static_cast<double>(totals.cacheMisses);
            record.resources["branch_misses"] =
                static_cast<double>(totals.branchMisses);
        }
        // A per-case sink that cannot be written is reported and
        // counted (obs::sinkFlushFailures), failing the suite's exit.
        if (sample_case) {
            record.resources["samples"] =
                static_cast<double>(obs::samplerSampleCount());
            const std::string sample_out = obs::sampleOutPath();
            if (!sample_out.empty() &&
                !obs::writeSampleProfile(
                    casePathFor(sample_out, def.name)))
                obs::noteSinkLost("sample profile", def.name);
        }
        if (heap_case) {
            const obs::HeapStats heap = obs::heapStatsSnapshot();
            record.resources["alloc_bytes"] =
                static_cast<double>(heap.allocBytes);
            record.resources["alloc_count"] =
                static_cast<double>(heap.allocCount);
            record.resources["peak_heap"] =
                static_cast<double>(heap.peakBytes);
            const std::string heap_out = obs::heapOutPath();
            if (!heap_out.empty() &&
                !obs::writeHeapProfile(casePathFor(heap_out, def.name)))
                obs::noteSinkLost("heap profile", def.name);
        }
        if (trace_case && !obs::writeTrace(caseTracePath(def.name)))
            obs::noteSinkLost("timeline", def.name);

        obs::setMetricsEnabled(prev_metrics);
        if (ThreadPool::instance().threadCount() != prev_threads)
            ThreadPool::instance().resize(prev_threads);

        table.setEnabled(true);
        record.wallMs = robustStats(samples);
        record.failed = ctx.failed();
        return record;
    }
};

RunnerOptions
parseRunnerOptions(int argc, char** argv)
{
    RunnerOptions opts;
    opts.suite = baseSuiteName(argc > 0 ? argv[0] : nullptr);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list")
            opts.list = true;
        else if (arg == "--quick")
            opts.quick = true;
        else if (arg.rfind("--reps=", 0) == 0)
            opts.repsOverride = std::atoi(arg.c_str() + 7);
        else if (arg.rfind("--filter=", 0) == 0)
            opts.filter = arg.substr(9);
        else if (arg.rfind("--out=", 0) == 0)
            opts.outPath = arg.substr(6);
        else if (arg.rfind("--suite=", 0) == 0)
            opts.suite = arg.substr(8);
        else
            usage(argc > 0 ? argv[0] : nullptr);
    }
    if (opts.repsOverride < 0)
        opts.repsOverride = 0;
    return opts;
}

int
runRegisteredCases(const RunnerOptions& opts)
{
    std::vector<CaseDef> cases = Registry::instance().sortedCases();
    if (!opts.filter.empty()) {
        cases.erase(std::remove_if(cases.begin(), cases.end(),
                                   [&](const CaseDef& c) {
                                       return c.name.find(
                                                  opts.filter) ==
                                              std::string::npos;
                                   }),
                    cases.end());
    }
    if (opts.list) {
        for (const CaseDef& c : cases)
            std::printf("%s\n", c.name.c_str());
        return 0;
    }
    if (cases.empty()) {
        std::fprintf(stderr, "bench harness: no cases match\n");
        return 1;
    }
    // Sampling profiler (no-op unless MRQ_SAMPLE / MRQ_SAMPLE_OUT):
    // armed once for the suite; runCase resets the aggregate per case.
    obs::startSamplerFromEnv();
    // Heap profiler (MRQ_HEAPPROF): same suite-level arming; runCase
    // resets the aggregate per case and fills the alloc_* resources.
    obs::startHeapProfilerFromEnv();

    BenchReport report;
    report.suite = opts.suite;
    report.manifest.run = "bench." + opts.suite;
    report.manifest.seed = 0;
    report.manifest.gitDescribe = obs::buildGitDescribe();
    obs::applyBuildProvenance(&report.manifest);
    report.manifest.add("tier", opts.quick ? "quick" : "full");
    report.manifest.add(
        "threads",
        std::to_string(ThreadPool::instance().threadCount()));
    report.manifest.add("build", MRQ_BUILD_TYPE);
    // Black box for bench runs too: a crashed case leaves a
    // post-mortem naming the rep it died in.
    if (obs::installCrashHandlersFromEnv())
        obs::setPostmortemManifest(obs::manifestJson(report.manifest));

    TablePrinter table;
    bool any_failed = false;
    const std::int64_t lost_before = obs::sinkFlushFailures();
    for (const CaseDef& def : cases) {
        CaseRecord record = Runner::runCase(def, opts, table);
        std::fprintf(stderr,
                     "[bench] %-36s reps=%d median=%.3fms mad=%.3fms "
                     "outliers=%zu%s\n",
                     record.name.c_str(), record.reps,
                     record.wallMs.median, record.wallMs.mad,
                     record.wallMs.outliers,
                     record.failed ? " FAILED" : "");
        any_failed = any_failed || record.failed;
        report.cases.push_back(std::move(record));
    }
    // Disarm before teardown (per-case profiles are already written);
    // a joinable drain thread must never reach static destruction.
    obs::stopSampler();
    obs::stopHeapProfiler();

    const std::string path = !opts.outPath.empty()
                                 ? opts.outPath
                                 : "BENCH_" + opts.suite + ".json";
    const bool wrote = report.write(path);
    if (wrote)
        std::fprintf(stderr, "[bench] wrote %s (%zu cases)\n",
                     path.c_str(), report.cases.size());
    const bool lost = obs::sinkFlushFailures() != lost_before;
    return any_failed || !wrote || lost ? 1 : 0;
}

int
benchMain(int argc, char** argv)
{
    return runRegisteredCases(parseRunnerOptions(argc, argv));
}

} // namespace bench
} // namespace mrq
