/**
 * @file
 * Death tests for the crash/hang post-mortem path.  Each fault kind
 * is injected via MRQ_FAULT in a forked child (threadsafe style:
 * gtest re-execs the binary, so the child installs handlers into a
 * clean single-threaded process), the exit signal/code is asserted,
 * and the dump the child left behind is validated against
 * tools/check_schema.py postmortem.
 *
 * The interposed operator new (obs/new_delete.cpp, pulled from the
 * archive) underpins the HandlerPathAllocatesNoHeap test:
 * writePostmortemNow() must not touch the heap, per the
 * async-signal-safety contract documented in obs/crash_handler.hpp.
 * This TU must NOT define its own counting operator new — a directly
 * linked definition would satisfy the linker before the archive
 * member and silently disable heap interposition binary-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <new>
#include <regex>
#include <signal.h>
#include <string>
#include <thread>
#include <unistd.h>

#include "obs/crash_handler.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heap_profiler.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

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

/** Run the schema checker over @p dump with extra @p args. */
int
runChecker(const std::string& dump, const std::string& args)
{
    const std::string tool =
        std::string(MRQ_SOURCE_DIR) + "/tools/check_schema.py";
    return std::system(("python3 " + tool + " postmortem " + args + " " +
                        dump + " > /dev/null 2>&1")
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

/** The child's dump (this pid's or any postmortem.*.jsonl in dir —
 *  threadsafe death tests re-exec, so the child pid differs). */
std::string
findDump(const fs::path& dir)
{
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir, ec)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("postmortem.", 0) == 0 &&
            name.find(".usr1.") == std::string::npos)
            return e.path().string();
    }
    return {};
}

class CrashHandlerTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        testing::GTEST_FLAG(death_test_style) = "threadsafe";
        // No pid in the path: the threadsafe death-test child re-runs
        // SetUp in its own process and must land in the same dir the
        // parent globs afterwards.
        dir_ = fs::temp_directory_path() /
               ("mrq_postmortem_" +
                std::string(testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::error_code ec;
        fs::remove_all(dir_, ec); // Child SetUp may race the parent's
        fs::create_directories(dir_, ec); // wait; both are benign.
    }
    void
    TearDown() override
    {
        // Death-test children inherit these; scrub in the parent so
        // later tests (and pipelines' faultInjectionPoint calls)
        // never see a stray armed fault.
        ::unsetenv("MRQ_RUN_DIR");
        ::unsetenv("MRQ_FAULT");
        ::unsetenv("MRQ_HANG_AFTER");
        ::unsetenv("MRQ_WATCHDOG");
        fs::remove_all(dir_);
    }

    /** Arm env for the child; the parent scrubs it in TearDown. */
    void
    armEnv(const char* fault)
    {
        ::setenv("MRQ_RUN_DIR", dir_.string().c_str(), 1);
        ::setenv("MRQ_FAULT", fault, 1);
    }

    fs::path dir_;
};

TEST_F(CrashHandlerTest, SegvInjectionWritesSchemaValidDump)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    armEnv("segv@epoch:0");
    EXPECT_EXIT(
        {
            obs::installCrashHandlersFromEnv();
            obs::setPostmortemManifest(
                "{\"type\": \"manifest\", \"run\": \"unit.crash\", "
                "\"seed\": 1, \"git\": \"test\"}");
            obs::faultInjectionPoint("epoch", 0);
        },
        testing::KilledBySignal(SIGSEGV), "");
    const std::string dump = findDump(dir_);
    ASSERT_FALSE(dump.empty()) << "no dump in " << dir_;
    EXPECT_EQ(runChecker(dump, "--reason signal --require-flight "
                               "--require-symbol"),
              0)
        << readAll(dump);
    const std::string text = readAll(dump);
    EXPECT_NE(text.find("\"signal\": \"SIGSEGV\""), std::string::npos);
    EXPECT_NE(text.find("\"run\": \"unit.crash\""), std::string::npos);
    // The flight drain must carry the mark for the faulting epoch.
    EXPECT_NE(text.find("\"name\": \"epoch\", \"a\": 0"),
              std::string::npos)
        << text;
}

TEST_F(CrashHandlerTest, AbortInjectionWritesDump)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    armEnv("abort@epoch:0");
    EXPECT_EXIT(
        {
            obs::installCrashHandlersFromEnv();
            obs::faultInjectionPoint("epoch", 0);
        },
        testing::KilledBySignal(SIGABRT), "");
    const std::string dump = findDump(dir_);
    ASSERT_FALSE(dump.empty());
    EXPECT_EQ(runChecker(dump, "--reason signal --require-flight"), 0)
        << readAll(dump);
    EXPECT_NE(readAll(dump).find("\"signal\": \"SIGABRT\""),
              std::string::npos);
}

TEST_F(CrashHandlerTest, FpeInjectionWritesDump)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    armEnv("fpe@bench_rep:1");
    EXPECT_EXIT(
        {
            obs::installCrashHandlersFromEnv();
            obs::faultInjectionPoint("bench_rep", 0);
            obs::faultInjectionPoint("bench_rep", 1);
        },
        testing::KilledBySignal(SIGFPE), "");
    const std::string dump = findDump(dir_);
    ASSERT_FALSE(dump.empty());
    EXPECT_EQ(runChecker(dump, "--reason signal"), 0)
        << readAll(dump);
    const std::string text = readAll(dump);
    EXPECT_NE(text.find("\"signal\": \"SIGFPE\""), std::string::npos);
    // Visit 0 must not fire: only the second visit matches ":1".
    EXPECT_NE(text.find("\"name\": \"bench_rep\", \"a\": 1"),
              std::string::npos)
        << text;
}

TEST_F(CrashHandlerTest, TerminateHookWritesDump)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    armEnv("terminate@epoch:0");
    EXPECT_EXIT(
        {
            obs::installCrashHandlersFromEnv();
            obs::faultInjectionPoint("epoch", 0);
        },
        testing::KilledBySignal(SIGABRT), "");
    const std::string dump = findDump(dir_);
    ASSERT_FALSE(dump.empty());
    EXPECT_EQ(runChecker(dump, "--reason terminate"), 0)
        << readAll(dump);
}

TEST_F(CrashHandlerTest, StderrFallbackWithoutDumpDir)
{
    ::setenv("MRQ_FAULT", "segv@epoch:0", 1);
    // No MRQ_RUN_DIR: the dump goes to stderr, which the
    // death-test matcher can see.
    EXPECT_EXIT(
        {
            obs::installCrashHandlersFromEnv();
            obs::faultInjectionPoint("epoch", 0);
        },
        testing::KilledBySignal(SIGSEGV),
        "\"type\": \"postmortem\".*\"reason\": \"signal\"");
}

TEST_F(CrashHandlerTest, HangStrictDumpsAndExits70)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    armEnv("hang@epoch:1");
    ::setenv("MRQ_HANG_AFTER", "200", 1);
    ::setenv("MRQ_WATCHDOG", "strict", 1);
    EXPECT_EXIT(
        {
            obs::installCrashHandlersFromEnv();
            obs::faultInjectionPoint("epoch", 0); // heartbeat
            obs::faultInjectionPoint("epoch", 1); // hangs here
        },
        testing::ExitedWithCode(obs::kHangExitCode), "");
    const std::string dump = findDump(dir_);
    ASSERT_FALSE(dump.empty()) << "no hang dump in " << dir_;
    EXPECT_EQ(runChecker(dump, "--reason hang --require-flight"), 0)
        << readAll(dump);
}

TEST_F(CrashHandlerTest, Usr1OnDemandDumpInProcess)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    obs::CrashHandlerConfig cfg;
    cfg.dumpDir = dir_.string();
    ASSERT_TRUE(obs::installCrashHandlers(cfg));
    const bool prev = obs::setFlightEnabled(true);
    obs::flightMark("unit.usr1_probe", 99);
    ::raise(SIGUSR1);
    obs::setFlightEnabled(prev);
    std::string usr1;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir_, ec))
        if (e.path().string().find(".usr1.jsonl") != std::string::npos)
            usr1 = e.path().string();
    ASSERT_FALSE(usr1.empty()) << "no usr1 dump in " << dir_;
    EXPECT_EQ(runChecker(usr1, "--reason usr1 --require-flight"), 0)
        << readAll(usr1);
    EXPECT_NE(readAll(usr1).find("unit.usr1_probe"),
              std::string::npos);
}

TEST_F(CrashHandlerTest, HandlerPathAllocatesNoHeap)
{
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    obs::CrashHandlerConfig cfg;
    ASSERT_TRUE(obs::installCrashHandlers(cfg));
    const bool prev = obs::setFlightEnabled(true);
    obs::flightMark("unit.noheap", 1);
    const int fd = ::open("/dev/null", O_WRONLY);
    ASSERT_GE(fd, 0);
    // Arm the heap counters at the maximum sampling interval: every
    // operator-new call increments allocCount, (almost) none get the
    // expensive sampled-stack treatment.
    ASSERT_TRUE(obs::startHeapProfiler(1LL << 30));
    // Warm every lazy path once (first backtrace in this stack shape,
    // first dladdr over these objects), then measure.
    (void)obs::writePostmortemNow(fd, "usr1");
    const long long before = obs::heapStatsSnapshot().allocCount;
    const std::size_t lines = obs::writePostmortemNow(fd, "usr1");
    const long long after = obs::heapStatsSnapshot().allocCount;
    obs::stopHeapProfiler();
    ::close(fd);
    obs::setFlightEnabled(prev);
    EXPECT_GT(lines, 2u);
    EXPECT_EQ(after - before, 0)
        << "handler path allocated " << (after - before) << " times";
}

TEST_F(CrashHandlerTest, HeapDigestOnlyOnceAHookIsArmed)
{
    // The heap hooks count nothing until one is armed, so a process
    // that never armed one writes no heap line rather than a digest
    // of zeros.  The threadsafe child is a fresh process, with
    // nothing armed until it starts the profiler.
    if (!obs::heapInterpositionActive())
        GTEST_SKIP() << "replacement operators not linked";
    const fs::path unarmed = dir_ / "unarmed.jsonl";
    const fs::path armed = dir_ / "armed.jsonl";
    EXPECT_EXIT(
        {
            const auto dump = [](const fs::path& path) {
                const int fd = ::open(path.c_str(),
                                      O_WRONLY | O_CREAT | O_TRUNC, 0644);
                obs::writePostmortemNow(fd, "usr1");
                ::close(fd);
            };
            dump(unarmed);
            obs::startHeapProfiler(1LL << 30);
            volatile char* p = new char[4096];
            p[0] = 1;
            delete[] const_cast<char*>(p);
            obs::stopHeapProfiler();
            dump(armed);
            std::exit(0);
        },
        testing::ExitedWithCode(0), "");
    EXPECT_EQ(readAll(unarmed).find("\"type\": \"heap\""),
              std::string::npos)
        << readAll(unarmed);
    const std::string text = readAll(armed);
    std::smatch m;
    ASSERT_TRUE(std::regex_search(
        text, m, std::regex(R"re("type": "heap".*"alloc_count": (\d+))re")))
        << text;
    EXPECT_GT(std::stoll(m[1].str()), 0) << text;
}

TEST_F(CrashHandlerTest, GracefulSigtermFlushesSinksAndExits75)
{
    const fs::path metrics = dir_ / "metrics.jsonl";
    ::setenv("MRQ_RUN_DIR", dir_.string().c_str(), 1);
    EXPECT_EXIT(
        {
            obs::installCrashHandlersFromEnv();
            obs::RunManifest m;
            m.run = "unit.graceful";
            m.seed = 7;
            obs::RunScope scope(std::move(m), /*verbose=*/false);
            obs::MetricsRegistry::instance().recordSeries(
                "unit.graceful.series", 1, 3.5);
            ::raise(SIGTERM);
        },
        testing::ExitedWithCode(obs::kGracefulExitCode), "");
    const std::string text = readAll(metrics);
    EXPECT_NE(text.find("\"run\": \"unit.graceful\""),
              std::string::npos)
        << "graceful shutdown lost the metrics sink: " << text;
    EXPECT_NE(text.find("unit.graceful.series"), std::string::npos);
}

TEST_F(CrashHandlerTest, MalformedFaultSpecIsIgnored)
{
    obs::CrashHandlerConfig cfg;
    cfg.fault = "not-a-spec";
    ASSERT_TRUE(obs::installCrashHandlers(cfg));
    // Must not fire anything.
    obs::faultInjectionPoint("epoch", 0);
    cfg.fault = "segv@:3";
    ASSERT_TRUE(obs::installCrashHandlers(cfg));
    obs::faultInjectionPoint("epoch", 0);
    SUCCEED();
}

} // namespace
