#include "harness/harness.hpp"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdlib>
#include <cstring>

#include "obs/crash_handler.hpp"
#include "obs/heap_profiler.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/sigsafe.hpp"
#include "runtime/thread_pool.hpp"

#ifdef MRQ_HAVE_SIGSAFE_IO
#include <sys/resource.h>
#endif

#ifndef MRQ_BUILD_TYPE
#define MRQ_BUILD_TYPE "unknown"
#endif

namespace mrq {
namespace bench {

namespace {

/** Machine-dependent facts about the reps just run, for the
 *  noise-gated "resources" map (never values/metrics). */
std::map<std::string, double>
caseResources()
{
    std::map<std::string, double> out;
#ifdef MRQ_HAVE_SIGSAFE_IO
    long long peak_rss_kb = obs::sigsafe::peakRssKb();
    // getrusage also knows peak RSS (KiB on Linux) — the fallback when
    // /proc was unreadable.
    struct rusage ru {};
    if (peak_rss_kb < 0 && getrusage(RUSAGE_SELF, &ru) == 0 &&
        ru.ru_maxrss > 0)
        peak_rss_kb = ru.ru_maxrss;
    if (peak_rss_kb >= 0)
        out["peak_rss_kb"] = static_cast<double>(peak_rss_kb);
#endif
    if (obs::samplerRunning())
        out["samples"] = static_cast<double>(obs::samplerSampleCount());
    if (obs::heapProfilerRunning()) {
        const obs::HeapStats heap = obs::heapStatsSnapshot();
        out["alloc_bytes"] = static_cast<double>(heap.allocBytes);
        out["alloc_count"] = static_cast<double>(heap.allocCount);
        out["peak_heap"] = static_cast<double>(heap.peakBytes);
    }
    return out;
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

        for (int w = 0; w < record.warmup; ++w) {
            table.setEnabled(false);
            record.values.clear();
            record.timingValues.clear();
            obs::MetricsRegistry::instance().reset();
            def.fn(ctx);
        }

        std::vector<double> samples;
        samples.reserve(static_cast<std::size_t>(record.reps));
        {
            // The timed reps are one run named after the case.  Its
            // scope starts the timeline and both profiles afresh as it
            // opens, so they and the resources below cover exactly
            // these reps, and writes the case's sink files as it
            // closes; a file it cannot write is counted in
            // obs::sinkFlushFailures and fails the suite.  A pipeline
            // in the body opens a nested scope, which is pass-through.
            obs::RunManifest manifest;
            manifest.run = def.name;
            manifest.add("suite", opts.suite);
            manifest.add("tier", opts.quick ? "quick" : "full");
            const obs::RunScope run(std::move(manifest),
                                    /*verbose=*/false);

            for (int r = 0; r < record.reps; ++r) {
                obs::faultInjectionPoint("bench_rep", r);
                table.setEnabled(r == 0);
                record.values.clear();
                record.timingValues.clear();
                obs::MetricsRegistry::instance().reset();
                samples.push_back(wallTimeMs([&] { def.fn(ctx); }));
            }
            record.metrics = flattenSnapshot(
                obs::MetricsRegistry::instance().snapshot());
            record.resources = caseResources();
        }

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
    // Disarm the profilers each case's scope armed (the per-case
    // profiles are already written); a joinable drain thread must
    // never reach static destruction.
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
