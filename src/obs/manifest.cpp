#include "obs/manifest.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "kernels/isa.hpp"
#include "obs/crash_handler.hpp"
#include "obs/env.hpp"
#include "obs/heap_profiler.hpp"
#include "obs/inspect.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/stack_profile.hpp"
#include "obs/trace_export.hpp"

#ifndef MRQ_GIT_DESCRIBE
#define MRQ_GIT_DESCRIBE "unknown"
#endif
#ifndef MRQ_GIT_DIRTY
#define MRQ_GIT_DIRTY "0"
#endif
#ifndef MRQ_COMPILER
#define MRQ_COMPILER "unknown"
#endif
#ifndef MRQ_BUILD_TYPE
#define MRQ_BUILD_TYPE "unknown"
#endif
#ifndef MRQ_SANITIZE
#define MRQ_SANITIZE "none"
#endif

namespace mrq {
namespace obs {

namespace {

/** The live outermost RunScope, or null.  Guarded: the watchdog may
 *  flush it from library code while the owner frame is far up the
 *  stack, and the hang monitor from its own thread. */
std::mutex g_outermost_mutex;
RunScope* g_outermost = nullptr;

std::atomic<std::int64_t> g_sink_flush_failures{0};

/** Report one lost sink file on stderr and count it in
 *  sinkFlushFailures(). */
void
noteSinkLost(const char* what, const std::string& run)
{
    std::fprintf(stderr, "mrq: %s for run '%s' were lost\n", what,
                 run.c_str());
    g_sink_flush_failures.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

const char*
buildGitDescribe()
{
    return MRQ_GIT_DESCRIBE;
}

void
applyBuildProvenance(RunManifest* manifest)
{
    if (manifest->gitDescribe.empty())
        manifest->gitDescribe = MRQ_GIT_DESCRIBE;
    if (manifest->gitDirty.empty())
        manifest->gitDirty = MRQ_GIT_DIRTY;
    if (manifest->compiler.empty())
        manifest->compiler = MRQ_COMPILER;
    if (manifest->buildType.empty())
        manifest->buildType = MRQ_BUILD_TYPE;
    if (manifest->sanitizer.empty())
        manifest->sanitizer = MRQ_SANITIZE;
    if (manifest->isa.empty())
        manifest->isa = kernels::isaName(kernels::activeIsa());
}

std::string
manifestJson(const RunManifest& manifest)
{
    std::string out = "{\"type\": \"manifest\", \"run\": \"" +
                      jsonEscape(manifest.run) + "\", \"seed\": " +
                      std::to_string(manifest.seed) + ", \"git\": \"" +
                      jsonEscape(manifest.gitDescribe) + "\"";
    const std::pair<const char*, const std::string*> provenance[] = {
        {"git_dirty", &manifest.gitDirty},
        {"compiler", &manifest.compiler},
        {"build_type", &manifest.buildType},
        {"sanitizer", &manifest.sanitizer},
        {"isa", &manifest.isa},
    };
    for (const auto& [key, value] : provenance)
        if (!value->empty())
            out += std::string(", \"") + key + "\": \"" +
                   jsonEscape(*value) + "\"";
    for (const auto& [key, value] : manifest.entries)
        out += ", \"" + jsonEscape(key) + "\": \"" + jsonEscape(value) +
               "\"";
    out += "}";
    return out;
}

std::string
runFilePath(const std::string& file, const std::string& run)
{
    const char* dir = envValue("MRQ_RUN_DIR", nullptr);
    if (dir == nullptr)
        return {};
    return std::string(dir) + "/" + (run.empty() ? file : run + "." + file);
}

RunScope::RunScope(RunManifest manifest, bool verbose)
    : manifest_(std::move(manifest)), verbose_(verbose)
{
    {
        // Only the outermost scope is a run: one opened inside it (a
        // pipeline inside a bench case) resets and writes nothing.
        std::lock_guard<std::mutex> lock(g_outermost_mutex);
        if (g_outermost != nullptr)
            return;
        g_outermost = this;
    }
    outermost_ = true;
    applyBuildProvenance(&manifest_);
    const bool sink_live = envSet("MRQ_RUN_DIR") || traceEnabled() ||
                           verbose_;
    prevVerbose_ = setLogVerbose(verbose_);
    if (sink_live) {
        MetricsRegistry::instance().reset();
        prevEnabled_ = setMetricsEnabled(true);
    } else {
        prevEnabled_ = metricsEnabled();
    }
    // A fresh run gets a fresh inspector block: drop stale records but
    // keep the layer registry (layer objects cache their ids).
    if (QuantInspector::instance().enabled())
        QuantInspector::instance().reset();
    // Arm the black box before anything can crash: install the signal
    // handlers (idempotent; MRQ_CRASH_HANDLER=0 opts out) and publish
    // this run's manifest line for post-mortem dumps.
    if (installCrashHandlersFromEnv())
        setPostmortemManifest(manifestJson(manifest_));
    // The profilers (MRQ_SAMPLE, MRQ_HEAPPROF) keep running across
    // runs once armed.
    startSamplerFromEnv();
    startHeapProfilerFromEnv();
    // This run's timeline and profiles start here, so each file holds
    // exactly this run and not what ran before it.
    if (traceExportEnabled())
        resetTraceBuffers();
    if (samplerRunning())
        resetSamplerProfile();
    if (heapProfilerRunning())
        resetHeapProfile();
}

void
RunScope::flush()
{
    if (!outermost_ || flushed_)
        return;
    flushed_ = true;
    const std::string& run = manifest_.run;
    if (metricsEnabled()) {
        const std::string path = runFilePath("metrics.jsonl");
        if (!path.empty()) {
            if (!MetricsRegistry::instance().writeJsonl(
                    path, manifestJson(manifest_)))
                noteSinkLost("metrics", run);
            else if (verbose_)
                std::fprintf(stdout, "mrq: metrics -> %s\n",
                             path.c_str());
        }
        if (verbose_)
            MetricsRegistry::instance().printSummary(stdout);
    }
    struct PerRunSink
    {
        bool live;
        const char* file;
        const char* what;
        bool (*write)(const std::string&);
    };
    const PerRunSink per_run[] = {
        {traceExportEnabled(), "trace.json", "timeline", &writeTrace},
        {samplerRunning(), "cpu.jsonl", "sample profile",
         &writeSampleProfile},
        {heapProfilerRunning(), "heap.jsonl", "heap profile",
         &writeHeapProfile},
    };
    for (const PerRunSink& sink : per_run) {
        const std::string path =
            sink.live ? runFilePath(sink.file, run) : std::string();
        if (!path.empty() && !sink.write(path))
            noteSinkLost(sink.what, run);
    }
    QuantInspector& inspector = QuantInspector::instance();
    const std::string inspect_path = runFilePath("inspect.jsonl");
    if (inspector.enabled() && !inspect_path.empty()) {
        // Appended, manifest line first, like metrics.
        if (!inspector.writeJsonl(inspect_path, manifestJson(manifest_),
                                  /*append=*/true))
            noteSinkLost("inspector records", run);
        else if (verbose_)
            std::fprintf(stdout, "mrq: inspector -> %s\n",
                         inspect_path.c_str());
    }
}

RunScope::~RunScope()
{
    if (!outermost_)
        return;
    flush();
    {
        std::lock_guard<std::mutex> lock(g_outermost_mutex);
        g_outermost = nullptr;
    }
    setMetricsEnabled(prevEnabled_);
    setLogVerbose(prevVerbose_);
}

void
flushActiveRunScope()
{
    // Read under the lock, flush outside it: flush() writes files and
    // may take the registry/ring locks.
    RunScope* scope = nullptr;
    {
        std::lock_guard<std::mutex> lock(g_outermost_mutex);
        scope = g_outermost;
    }
    if (scope != nullptr)
        scope->flush();
}

std::int64_t
sinkFlushFailures()
{
    return g_sink_flush_failures.load(std::memory_order_relaxed);
}

} // namespace obs
} // namespace mrq
