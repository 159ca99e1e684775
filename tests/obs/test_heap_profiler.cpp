/**
 * @file
 * Heap-observability tests: profiler lifecycle and env knobs, counter
 * accounting through the interposed operators, span/kernel
 * attribution of sampled allocation stacks, the JSONL schema
 * round-trip against tools/check_schema.py profile and a
 * profile_diff.py self-diff, the tool's folded rendering, both
 * profilers armed at once, and the AllocGuard no-alloc regions —
 * counting,
 * dismiss(), pool inheritance, and (in the death-test suite) the
 * strict mode's attributed exit 70.
 *
 * Every test that needs real heap accounting skips when the
 * replacement operators are not linked (sanitizer builds supply
 * their own operator new, so interposition is compiled out there).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kernels/roofline.hpp"
#include "obs/heap_profiler.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

#ifndef MRQ_SOURCE_DIR
#define MRQ_SOURCE_DIR "."
#endif

namespace {

using namespace mrq;
namespace fs = std::filesystem;

bool
pythonAvailable()
{
    return std::system("python3 --version > /dev/null 2>&1") == 0;
}

int
runTool(const std::string& tool, const std::string& args,
        const std::string& stdout_path = "/dev/null")
{
    const std::string path =
        std::string(MRQ_SOURCE_DIR) + "/tools/" + tool;
    return std::system(("python3 " + path + " " + args + " > " +
                        stdout_path + " 2>/dev/null")
                           .c_str());
}

std::string
readAll(const fs::path& p)
{
    std::string out;
    if (FILE* f = std::fopen(p.string().c_str(), "rb")) {
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            out.append(buf, n);
        std::fclose(f);
    }
    return out;
}

/** Start the heap profiler at the minimum interval (4 KiB, so every
 *  allocation of at least that size is sampled); stop and clear on
 *  exit. */
class HeapProfGuard
{
  public:
    HeapProfGuard() : started_(obs::startHeapProfiler(1))
    {
        if (started_)
            obs::resetHeapProfile();
    }
    ~HeapProfGuard()
    {
        obs::stopHeapProfiler();
        obs::resetHeapProfile();
    }
    bool started() const { return started_; }

  private:
    bool started_;
};

/** An allocation large enough that the 4 KiB minimum interval
 *  guarantees at least one sample lands on it. */
void
churnHeap(int blocks = 4, std::size_t bytes = 64 * 1024)
{
    for (int i = 0; i < blocks; ++i) {
        volatile char* p = new char[bytes];
        p[0] = static_cast<char>(i);
        delete[] const_cast<char*>(p);
    }
}

TEST(HeapProfiler, StartStopLifecycle)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    EXPECT_FALSE(obs::heapProfilerRunning());
    {
        HeapProfGuard guard;
        ASSERT_TRUE(guard.started());
        EXPECT_TRUE(obs::heapProfilerRunning());
        // Second start while armed is rejected, not stacked.
        EXPECT_FALSE(obs::startHeapProfiler());
    }
    EXPECT_FALSE(obs::heapProfilerRunning());
    obs::stopHeapProfiler(); // idempotent when not running
    EXPECT_FALSE(obs::heapProfilerRunning());
}

TEST(HeapProfiler, EnvKnobsClampAndImplyEnable)
{
    ::unsetenv("MRQ_HEAPPROF");
    EXPECT_FALSE(obs::heapProfilerEnabledFromEnv());
    EXPECT_FALSE(obs::startHeapProfilerFromEnv());
    ::setenv("MRQ_HEAPPROF", "1", 1);
    EXPECT_TRUE(obs::heapProfilerEnabledFromEnv());
    ::unsetenv("MRQ_HEAPPROF");

    ::setenv("MRQ_HEAPPROF_INTERVAL", "1", 1);
    EXPECT_EQ(obs::heapProfilerIntervalBytes(), 4096);
    ::setenv("MRQ_HEAPPROF_INTERVAL", "99999999999", 1);
    EXPECT_EQ(obs::heapProfilerIntervalBytes(), 1LL << 30);
    ::unsetenv("MRQ_HEAPPROF_INTERVAL");
    EXPECT_EQ(obs::heapProfilerIntervalBytes(),
              obs::kHeapDefaultIntervalBytes);
    obs::stopHeapProfiler();
    obs::resetHeapProfile();
}

TEST(HeapProfiler, CountersTrackAllocAndFree)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    HeapProfGuard guard;
    ASSERT_TRUE(guard.started());

    churnHeap(4, 64 * 1024);
    const obs::HeapStats stats = obs::heapStatsSnapshot();
    EXPECT_GE(stats.allocCount, 4);
    EXPECT_GE(stats.allocBytes, 4 * 64 * 1024);
    EXPECT_GE(stats.freeCount, 4);
    EXPECT_GE(stats.peakBytes, stats.currentBytes);
    EXPECT_GE(stats.samples, 4)
        << "64 KiB allocations at the 4 KiB floor must all sample";
    EXPECT_GT(stats.sampledBytes, 0);
}

TEST(HeapProfiler, SamplesAttributeSpanAndKernel)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    HeapProfGuard guard;
    ASSERT_TRUE(guard.started());
    const bool prev_trace = obs::setTraceEnabled(true);
    {
        obs::TraceSpan span("heap_attr_span");
        kernels::KernelRegion region(kernels::KernelId::AddRow, 64);
        churnHeap();
    }
    obs::setTraceEnabled(prev_trace);

    EXPECT_GE(obs::heapSampleCount(), 4);
    const std::vector<obs::ProfileStack> stacks = obs::heapStacks();
    ASSERT_FALSE(stacks.empty());
    bool attributed = false;
    for (const obs::ProfileStack& s : stacks) {
        EXPECT_GT(s.count, 0);
        EXPECT_GT(s.weight, 0);
        EXPECT_FALSE(s.frames.empty()) << "stack with no frames";
        if (s.span.find("heap_attr_span") != std::string::npos &&
            s.kernel == "add_row")
            attributed = true;
    }
    EXPECT_TRUE(attributed)
        << "no sampled stack tagged with the active span + kernel";
}

TEST(HeapProfiler, ResetClearsProfileAndRebasesPeak)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    HeapProfGuard guard;
    ASSERT_TRUE(guard.started());
    churnHeap();
    EXPECT_GE(obs::heapSampleCount(), 1);
    obs::resetHeapProfile();
    EXPECT_EQ(obs::heapSampleCount(), 0);
    EXPECT_TRUE(obs::heapStacks().empty());
    const obs::HeapStats stats = obs::heapStatsSnapshot();
    EXPECT_EQ(stats.allocCount, 0);
    EXPECT_EQ(stats.peakBytes, stats.currentBytes)
        << "reset must rebase the peak to the current level";
}

TEST(HeapProfiler, JsonlSchemaRoundTripAndSelfDiff)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    HeapProfGuard guard;
    ASSERT_TRUE(guard.started());
    const bool prev_trace = obs::setTraceEnabled(true);
    {
        obs::TraceSpan span("heap_schema_span");
        kernels::KernelRegion region(kernels::KernelId::TermPairs,
                                     128);
        churnHeap();
    }
    obs::setTraceEnabled(prev_trace);
    // Quiesce before writing so the counter/stack-map cross-checks in
    // the schema tool see a stable profile.
    obs::stopHeapProfiler();

    const fs::path dir = fs::temp_directory_path();
    const fs::path profile =
        dir / ("mrq_heap_profile_" + std::to_string(::getpid()) +
               ".jsonl");
    ASSERT_TRUE(obs::writeHeapProfile(profile.string()));
    EXPECT_EQ(runTool("check_schema.py",
                      "profile --require-stacks --require-span " +
                          profile.string()),
              0)
        << readAll(profile);
    // A profile diffed against itself must be all-zero.
    EXPECT_EQ(runTool("profile_diff.py", "--expect-zero " +
                                             profile.string() + " " +
                                             profile.string()),
              0);
    fs::remove(profile);
}

TEST(HeapProfiler, RunPlaceholderLandsProfileUnderRunName)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    // The outermost RunScope writes the run's profile to
    // <run>.heap.jsonl in MRQ_RUN_DIR as it closes.
    HeapProfGuard guard;
    ASSERT_TRUE(guard.started());
    const fs::path dir = fs::temp_directory_path() / "mrq_heap_run";
    fs::remove_all(dir);
    ::setenv("MRQ_RUN_DIR", dir.string().c_str(), 1);
    {
        obs::RunManifest manifest;
        manifest.run = "unit.heap";
        const obs::RunScope run(std::move(manifest), /*verbose=*/false);
        churnHeap();
    }
    ::unsetenv("MRQ_RUN_DIR");
    const fs::path expect = dir / "unit.heap.heap.jsonl";
    EXPECT_TRUE(fs::exists(expect)) << expect;
    const std::string text = readAll(expect);
    EXPECT_NE(text.find("\"kind\": \"heap\""), std::string::npos)
        << text;
    fs::remove_all(dir);
}

TEST(HeapProfiler, FoldedStacksCarrySpanAndByteWeight)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    HeapProfGuard guard;
    ASSERT_TRUE(guard.started());
    const bool prev_trace = obs::setTraceEnabled(true);
    {
        obs::TraceSpan outer("heap_fold_outer");
        obs::TraceSpan inner("heap_fold_inner");
        churnHeap();
    }
    obs::setTraceEnabled(prev_trace);
    obs::stopHeapProfiler();

    // Folded stacks come from the diff tool's --folded rendering of
    // the written profile.
    const fs::path dir = fs::temp_directory_path();
    const std::string tag = std::to_string(::getpid());
    const fs::path profile = dir / ("mrq_heap_fold_" + tag + ".jsonl");
    const fs::path out = dir / ("mrq_heap_fold_" + tag + ".txt");
    ASSERT_TRUE(obs::writeHeapProfile(profile.string()));
    ASSERT_EQ(runTool("profile_diff.py", "--folded " + profile.string(),
                      out.string()),
              0);
    const std::string folded = readAll(out);
    fs::remove(profile);
    fs::remove(out);
    ASSERT_FALSE(folded.empty());
    EXPECT_NE(folded.find("heap_fold_outer;heap_fold_inner"),
              std::string::npos)
        << folded;
    // Every line is "stack <bytes>" with a positive weight.
    std::size_t start = 0;
    while (start < folded.size()) {
        std::size_t end = folded.find('\n', start);
        if (end == std::string::npos)
            end = folded.size();
        const std::string line = folded.substr(start, end - start);
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_GT(std::stoll(line.substr(space + 1)), 0) << line;
        start = end + 1;
    }
}

TEST(HeapProfiler, BothProfilersArmedWriteValidProfiles)
{
    // Pins two rules of the shared stack-profile core.  Each kind
    // keeps its own lock: copying the CPU aggregate allocates while
    // holding the CPU lock, and the heap sample that allocation takes
    // needs the heap lock.  The heap copy runs with its hook
    // suppressed: a sample taken mid-copy would re-enter the heap
    // lock on the copying thread and deadlock.  64 distinct span
    // paths per kind make each copy allocate more than the 4 KiB
    // interval.  Without interposition only the CPU half runs.
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    constexpr std::size_t kSpans = 64;
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (std::size_t i = 0; i < kSpans; ++i)
            out.push_back("both_armed_" + std::to_string(i));
        return out;
    }();
    const bool heap = obs::heapInterpositionActive();
    ASSERT_TRUE(obs::startSampler());
    obs::resetSamplerProfile();
    HeapProfGuard heap_guard;
    ASSERT_EQ(heap_guard.started(), heap);
    const bool prev_trace = obs::setTraceEnabled(true);
    ThreadPool::instance().resize(3);
    parallelFor(kSpans, 1, [](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            obs::TraceSpan span(names[i].c_str());
            churnHeap(1, 8 * 1024);
        }
    });
    ThreadPool::instance().resize(1);
    for (std::size_t i = 0; i < kSpans; ++i) {
        obs::TraceSpan span(names[i].c_str());
        ASSERT_TRUE(obs::debugSampleNow());
    }
    obs::setTraceEnabled(prev_trace);

    const fs::path dir = fs::temp_directory_path();
    const std::string tag = std::to_string(::getpid());
    const fs::path cpu = dir / ("mrq_both_cpu_" + tag + ".jsonl");
    const fs::path mem = dir / ("mrq_both_heap_" + tag + ".jsonl");
    // Both profiles are written while both profilers are armed.
    EXPECT_TRUE(obs::writeSampleProfile(cpu.string()));
    if (heap) {
        EXPECT_TRUE(obs::writeHeapProfile(mem.string()));
    }
    obs::stopSampler();
    obs::resetSamplerProfile();

    EXPECT_EQ(runTool("check_schema.py",
                      "profile --require-stacks " + cpu.string()),
              0)
        << readAll(cpu);
    if (heap) {
        EXPECT_EQ(runTool("check_schema.py",
                          "profile --require-stacks " + mem.string()),
                  0)
            << readAll(mem);
    }
    fs::remove(cpu);
    fs::remove(mem);
}

// ---- AllocGuard ---------------------------------------------------

/** Pin the guard mode for one test; restore and clear on exit. */
class GuardModeScope
{
  public:
    explicit GuardModeScope(obs::AllocGuardMode mode)
        : prev_(obs::setAllocGuardMode(mode))
    {
        obs::resetAllocGuardViolations();
    }
    ~GuardModeScope()
    {
        obs::resetAllocGuardViolations();
        obs::setAllocGuardMode(prev_);
    }

  private:
    obs::AllocGuardMode prev_;
};

TEST(AllocGuard, InertWhenModeOff)
{
    GuardModeScope scope(obs::AllocGuardMode::Off);
    obs::AllocGuard guard("test.off");
    EXPECT_FALSE(guard.active());
    churnHeap(1);
    EXPECT_EQ(guard.violations(), 0);
}

TEST(AllocGuard, CountsViolationsAndRestoresSite)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    GuardModeScope scope(obs::AllocGuardMode::On);
    EXPECT_EQ(obs::currentAllocGuardDepth(), 0);
    {
        obs::AllocGuard guard("test.count");
        ASSERT_TRUE(guard.active());
        EXPECT_EQ(obs::currentAllocGuardDepth(), 1);
        EXPECT_STREQ(obs::currentAllocGuardSite(), "test.count");
        churnHeap(3, 8 * 1024);
        EXPECT_GE(guard.violations(), 3);
        guard.dismiss(); // keep the destructor report out of alerts
    }
    EXPECT_EQ(obs::currentAllocGuardDepth(), 0);
    EXPECT_EQ(obs::currentAllocGuardSite(), nullptr);
    EXPECT_GE(obs::allocGuardViolationTotal(), 3);
    // Outside any guard, allocations are not violations.
    obs::resetAllocGuardViolations();
    churnHeap(1);
    EXPECT_EQ(obs::allocGuardViolationTotal(), 0);
}

TEST(AllocGuard, ReportRecordsAlertAndCounterDismissSuppresses)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    GuardModeScope scope(obs::AllocGuardMode::On);
    const bool prev_metrics = obs::setMetricsEnabled(true);
    const obs::Snapshot before =
        obs::MetricsRegistry::instance().snapshot();
    const auto counter_value = [](const obs::Snapshot& s) {
        for (const auto& c : s.counters)
            if (c.name == "alloc_guard.violations")
                return c.value;
        return std::int64_t{0};
    };
    {
        obs::AllocGuard guard("test.report");
        churnHeap(1);
    }
    const obs::Snapshot after =
        obs::MetricsRegistry::instance().snapshot();
    EXPECT_GT(counter_value(after), counter_value(before))
        << "destructor must feed the violation counter";
    EXPECT_GT(after.alerts.size(), before.alerts.size())
        << "destructor must record a watchdog alert";
    {
        obs::AllocGuard guard("test.dismissed");
        churnHeap(1);
        guard.dismiss();
    }
    const obs::Snapshot dismissed =
        obs::MetricsRegistry::instance().snapshot();
    EXPECT_EQ(counter_value(dismissed), counter_value(after))
        << "dismissed guards must report nothing";
    obs::setMetricsEnabled(prev_metrics);
}

TEST(AllocGuard, NestingRestoresOuterSite)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    GuardModeScope scope(obs::AllocGuardMode::On);
    obs::AllocGuard outer("test.outer");
    {
        obs::AllocGuard inner("test.inner");
        EXPECT_EQ(obs::currentAllocGuardDepth(), 2);
        EXPECT_STREQ(obs::currentAllocGuardSite(), "test.inner");
        inner.dismiss();
    }
    EXPECT_EQ(obs::currentAllocGuardDepth(), 1);
    EXPECT_STREQ(obs::currentAllocGuardSite(), "test.outer");
    outer.dismiss();
}

TEST(AllocGuard, InheritedGuardEnforcesOnWorkerThread)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    GuardModeScope scope(obs::AllocGuardMode::On);
    // A plain thread with no inherited guard: allocations are fine.
    std::thread clean([] { churnHeap(1); });
    clean.join();
    EXPECT_EQ(obs::allocGuardViolationTotal(), 0);
    // The same allocation under an inherited guard is a violation
    // (this is the path ThreadPool::workerLoop uses to extend a
    // caller's guard across parallelFor).
    std::thread guarded([] {
        obs::InheritedAllocGuard inherited(1, "test.inherited");
        churnHeap(1);
    });
    guarded.join();
    EXPECT_GE(obs::allocGuardViolationTotal(), 1);
    obs::resetAllocGuardViolations();
}

TEST(AllocGuard, PoolWorkersInheritGuardFromSubmitter)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    GuardModeScope scope(obs::AllocGuardMode::On);
    ThreadPool::instance().resize(3);
    {
        obs::AllocGuard guard("test.pool");
        parallelFor(8, 1, [](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                volatile char* p = new char[8 * 1024];
                p[0] = 1;
                delete[] const_cast<char*>(p);
            }
        });
        EXPECT_GE(guard.violations(), 8)
            << "worker-side allocations must count against the "
               "submitting guard";
        guard.dismiss();
    }
    ThreadPool::instance().resize(1);
    obs::resetAllocGuardViolations();
}

// ---- Strict mode (excluded from the TSan leg) ---------------------

class AllocGuardDeathTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        testing::GTEST_FLAG(death_test_style) = "threadsafe";
    }
};

TEST_F(AllocGuardDeathTest, StrictViolationExitsSeventyWithBacktrace)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    EXPECT_EXIT(
        {
            obs::setAllocGuardMode(obs::AllocGuardMode::Strict);
            obs::resetAllocGuardViolations();
            obs::AllocGuard guard("test.strict");
            volatile char* p = new char[16 * 1024];
            p[0] = 1;
            delete[] const_cast<char*>(p);
            // The destructor reports and exits 70; reaching exit(0)
            // would fail the death test.
        },
        testing::ExitedWithCode(obs::kAllocGuardExitCode),
        "alloc_guard.*no-alloc region \\[test\\.strict\\]");
}

TEST_F(AllocGuardDeathTest, StrictCleanRegionExitsZero)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    EXPECT_EXIT(
        {
            obs::setAllocGuardMode(obs::AllocGuardMode::Strict);
            obs::resetAllocGuardViolations();
            {
                obs::AllocGuard guard("test.strict_clean");
                volatile int sink = 0;
                for (int i = 0; i < 1000; ++i)
                    sink += i;
                (void)sink;
            }
            std::exit(0);
        },
        testing::ExitedWithCode(0), "");
}

} // namespace
