/**
 * @file
 * Sampling-profiler tests: lifecycle, deterministic capture via
 * debugSampleNow (raise(SIGPROF) delivers synchronously, exercising
 * exactly the handler path), span/kernel attribution, the JSONL
 * schema round-trip against tools/check_schema.py profile and a
 * profile_diff.py self-diff, the tool's folded rendering of a CPU
 * profile, off-CPU thread-time decomposition, and
 * — in the SamplerDeathTest suite, excluded from the TSan leg — a
 * crash landing mid-sampling that must still produce a schema-valid
 * post-mortem (SIGPROF is masked inside the dump path).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <signal.h>
#include <string>
#include <unistd.h>
#include <vector>

#include "kernels/roofline.hpp"
#include "obs/crash_handler.hpp"
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

/** Start the sampler for one test; stop and clear on exit. */
class SamplerGuard
{
  public:
    SamplerGuard() : started_(obs::startSampler()) {}
    ~SamplerGuard()
    {
        obs::stopSampler();
        obs::resetSamplerProfile();
    }
    bool started() const { return started_; }

  private:
    bool started_;
};

/** Capture @p n deterministic samples on the calling thread. */
void
captureSamples(int n)
{
    for (int i = 0; i < n; ++i)
        ASSERT_TRUE(obs::debugSampleNow());
}

TEST(Sampler, StartStopLifecycle)
{
    EXPECT_FALSE(obs::samplerRunning());
    {
        SamplerGuard guard;
        ASSERT_TRUE(guard.started());
        EXPECT_TRUE(obs::samplerRunning());
        // Second start while armed is rejected, not stacked.
        EXPECT_FALSE(obs::startSampler());
    }
    EXPECT_FALSE(obs::samplerRunning());
    obs::stopSampler(); // idempotent when not running
    EXPECT_FALSE(obs::samplerRunning());
}

TEST(Sampler, EnvKnobsClampAndImplyEnable)
{
    ::setenv("MRQ_SAMPLE_HZ", "250", 1);
    EXPECT_EQ(obs::samplerHz(), 250);
    ::setenv("MRQ_SAMPLE_HZ", "0", 1);
    EXPECT_EQ(obs::samplerHz(), 1);
    ::setenv("MRQ_SAMPLE_HZ", "99999999", 1);
    EXPECT_EQ(obs::samplerHz(), 10000);
    ::unsetenv("MRQ_SAMPLE_HZ");
    EXPECT_EQ(obs::samplerHz(), obs::kSampleDefaultHz);
    EXPECT_EQ(obs::samplePeriodNs(),
              1000000000LL / obs::kSampleDefaultHz);

    ::unsetenv("MRQ_SAMPLE");
    EXPECT_FALSE(obs::samplerEnabledFromEnv());
    EXPECT_FALSE(obs::startSamplerFromEnv());
    ::setenv("MRQ_SAMPLE", "1", 1);
    EXPECT_TRUE(obs::samplerEnabledFromEnv());
    ::unsetenv("MRQ_SAMPLE");
}

TEST(Sampler, DebugSamplesAttributeSpanAndKernel)
{
    SamplerGuard guard;
    ASSERT_TRUE(guard.started());
    obs::resetSamplerProfile();
    const bool prev_trace = obs::setTraceEnabled(true);
    {
        obs::TraceSpan span("sampler_attr_span");
        kernels::KernelRegion region(kernels::KernelId::AddRow, 64);
        captureSamples(32);
    }
    obs::setTraceEnabled(prev_trace);

    EXPECT_GE(obs::samplerSampleCount(), 32);
    const std::vector<obs::ProfileStack> stacks = obs::samplerStacks();
    ASSERT_FALSE(stacks.empty());
    bool attributed = false;
    for (const obs::ProfileStack& s : stacks) {
        EXPECT_GT(s.count, 0);
        EXPECT_FALSE(s.frames.empty()) << "stack with no frames";
        if (s.span.find("sampler_attr_span") != std::string::npos &&
            s.kernel == "add_row")
            attributed = true;
    }
    EXPECT_TRUE(attributed)
        << "no stack tagged with the active span + kernel family";
    // The tag is restored on region exit: samples taken now carry no
    // kernel.
    obs::resetSamplerProfile();
    captureSamples(4);
    for (const obs::ProfileStack& s : obs::samplerStacks())
        EXPECT_EQ(s.kernel, "") << "stale kernel tag after region";
}

TEST(Sampler, ResetClearsProfile)
{
    SamplerGuard guard;
    ASSERT_TRUE(guard.started());
    captureSamples(8);
    EXPECT_GE(obs::samplerSampleCount(), 8);
    obs::resetSamplerProfile();
    EXPECT_EQ(obs::samplerSampleCount(), 0);
    EXPECT_TRUE(obs::samplerStacks().empty());
}

TEST(Sampler, ForcedSampleWorksWithTimerOff)
{
    {
        SamplerGuard guard; // installs the handler
        ASSERT_TRUE(guard.started());
    }
    ASSERT_FALSE(obs::samplerRunning());
    obs::resetSamplerProfile();
    // Un-forced raise is refused while the timer is off...
    EXPECT_FALSE(obs::debugSampleNow());
    // ...but force records through the persistent handler.
    EXPECT_TRUE(obs::debugSampleNow(/*force=*/true));
    EXPECT_EQ(obs::samplerSampleCount(), 1);
    obs::resetSamplerProfile();
}

TEST(Sampler, FoldedStacksCarrySpanAndWeight)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    SamplerGuard guard;
    ASSERT_TRUE(guard.started());
    obs::resetSamplerProfile();
    const bool prev_trace = obs::setTraceEnabled(true);
    {
        obs::TraceSpan outer("sampler_fold_outer");
        obs::TraceSpan inner("sampler_fold_inner");
        captureSamples(16);
    }
    obs::setTraceEnabled(prev_trace);

    // Folded stacks come from the diff tool's --folded rendering of
    // the written profile.
    const fs::path dir = fs::temp_directory_path();
    const std::string tag = std::to_string(::getpid());
    const fs::path profile = dir / ("mrq_sample_fold_" + tag + ".jsonl");
    const fs::path out = dir / ("mrq_sample_fold_" + tag + ".txt");
    ASSERT_TRUE(obs::writeSampleProfile(profile.string()));
    ASSERT_EQ(runTool("profile_diff.py", "--folded " + profile.string(),
                      out.string()),
              0);
    const std::string folded = readAll(out);
    fs::remove(profile);
    fs::remove(out);
    ASSERT_FALSE(folded.empty());
    EXPECT_NE(folded.find("sampler_fold_outer;sampler_fold_inner"),
              std::string::npos)
        << folded;
    // Every line is "stack <ns>" with a positive multiple of the
    // period.
    std::size_t start = 0;
    while (start < folded.size()) {
        std::size_t end = folded.find('\n', start);
        if (end == std::string::npos)
            end = folded.size();
        const std::string line = folded.substr(start, end - start);
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const long long ns = std::stoll(line.substr(space + 1));
        EXPECT_GT(ns, 0) << line;
        EXPECT_EQ(ns % obs::samplePeriodNs(), 0) << line;
        start = end + 1;
    }
}

TEST(Sampler, JsonlSchemaRoundTripAndSelfDiff)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    SamplerGuard guard;
    ASSERT_TRUE(guard.started());
    obs::resetSamplerProfile();
    const bool prev_trace = obs::setTraceEnabled(true);
    {
        obs::TraceSpan span("sampler_schema_span");
        kernels::KernelRegion region(kernels::KernelId::TermPairs,
                                     128);
        captureSamples(24);
    }
    obs::setTraceEnabled(prev_trace);

    const fs::path dir = fs::temp_directory_path();
    const fs::path profile =
        dir / ("mrq_sample_profile_" + std::to_string(::getpid()) +
               ".jsonl");
    ASSERT_TRUE(obs::writeSampleProfile(profile.string()));
    EXPECT_EQ(runTool("check_schema.py",
                      "profile --require-stacks --require-kernel " +
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

TEST(Sampler, RunPlaceholderLandsProfileUnderRunName)
{
    // The outermost RunScope writes the run's profile to
    // <run>.cpu.jsonl in MRQ_RUN_DIR as it closes.
    SamplerGuard guard;
    ASSERT_TRUE(guard.started());
    const fs::path dir = fs::temp_directory_path() / "mrq_sampler_run";
    fs::remove_all(dir);
    ::setenv("MRQ_RUN_DIR", dir.string().c_str(), 1);
    {
        obs::RunManifest manifest;
        manifest.run = "unit.sampler";
        const obs::RunScope run(std::move(manifest), /*verbose=*/false);
        captureSamples(4);
    }
    ::unsetenv("MRQ_RUN_DIR");
    const fs::path expect = dir / "unit.sampler.cpu.jsonl";
    EXPECT_TRUE(fs::exists(expect)) << expect;
    const std::string text = readAll(expect);
    EXPECT_NE(text.find("\"kind\": \"cpu\""), std::string::npos)
        << text;
    fs::remove_all(dir);
}

TEST(Sampler, ThreadTimeDecomposesPoolWallClock)
{
    SamplerGuard guard;
    ASSERT_TRUE(guard.started());
    obs::resetSamplerProfile();
    ThreadPool::instance().resize(3);
    // Enough chunks of real work that every worker both waits and
    // executes.
    parallelFor(64, 1, [](std::size_t begin, std::size_t end) {
        volatile double sink = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            for (int j = 0; j < 20000; ++j)
                sink += static_cast<double>(j) * 1e-9;
        (void)sink;
    });
    const std::vector<obs::ThreadTime> times =
        obs::threadTimeBreakdown();
    ThreadPool::instance().resize(1);

    ASSERT_FALSE(times.empty());
    bool worker_seen = false;
    std::int64_t busy_total = 0;
    for (const obs::ThreadTime& t : times) {
        EXPECT_FALSE(t.name.empty());
        EXPECT_GE(t.busyNs, 0) << t.name;
        EXPECT_GE(t.queueWaitNs, 0) << t.name;
        EXPECT_GE(t.idleNs, 0) << t.name;
        busy_total += t.busyNs;
        if (t.name.rfind("mrq-pool-", 0) == 0 && t.busyNs > 0)
            worker_seen = true;
    }
    EXPECT_GT(busy_total, 0);
    EXPECT_TRUE(worker_seen)
        << "no pool worker accumulated on-CPU time";
}

// ---- Crash interplay (excluded from the TSan leg) -----------------

class SamplerDeathTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        testing::GTEST_FLAG(death_test_style) = "threadsafe";
        dir_ = fs::temp_directory_path() /
               ("mrq_sampler_postmortem_" +
                std::string(testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::error_code ec;
        fs::remove_all(dir_, ec);
        fs::create_directories(dir_, ec);
    }
    void
    TearDown() override
    {
        ::unsetenv("MRQ_RUN_DIR");
        ::unsetenv("MRQ_FAULT");
        fs::remove_all(dir_);
    }

    std::string
    findDump() const
    {
        std::error_code ec;
        for (const auto& e : fs::directory_iterator(dir_, ec)) {
            const std::string name = e.path().filename().string();
            if (name.rfind("postmortem.", 0) == 0 &&
                name.find(".usr1.") == std::string::npos)
                return e.path().string();
        }
        return {};
    }

    fs::path dir_;
};

TEST_F(SamplerDeathTest, CrashMidSamplingWritesValidPostmortem)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    ::setenv("MRQ_RUN_DIR", dir_.string().c_str(), 1);
    ::setenv("MRQ_FAULT", "segv@epoch:0", 1);
    EXPECT_EXIT(
        {
            obs::installCrashHandlersFromEnv();
            // Sample aggressively right up to the fault so SIGPROF
            // traffic overlaps the crash window; the dump path masks
            // SIGPROF, so the post-mortem must still be intact.
            if (obs::startSampler())
                for (int i = 0; i < 256; ++i)
                    obs::debugSampleNow();
            obs::faultInjectionPoint("epoch", 0);
        },
        testing::KilledBySignal(SIGSEGV), "");
    const std::string dump = findDump();
    ASSERT_FALSE(dump.empty()) << "no dump in " << dir_;
    EXPECT_EQ(runTool("check_schema.py",
                      "postmortem --reason signal --require-flight " +
                          dump),
              0)
        << readAll(dump);
    EXPECT_NE(readAll(dump).find("\"signal\": \"SIGSEGV\""),
              std::string::npos);
}

} // namespace
