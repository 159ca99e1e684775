/**
 * @file
 * Stack-profile core tests: the shared JSON escaper and "{run}"
 * placeholder, the aggregate's deterministic heaviest-first row
 * order, the one JSONL writer against tools/check_profile_schema.py
 * for both kinds, and the folded-stack rendering of
 * tools/profile_diff.py --folded (span path root-first, ';' joins,
 * equal stacks merged, deep nesting, empty profiles).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "obs/stack_profile.hpp"

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

fs::path
tempFile(const std::string& stem)
{
    return fs::temp_directory_path() /
           ("mrq_stack_profile_" + stem + "_" +
            std::to_string(::getpid()));
}

/** Run tools/<tool> on @p args; stdout lands in @p out when given. */
int
runTool(const std::string& tool, const std::string& args,
        std::string* out = nullptr)
{
    const fs::path capture = tempFile("stdout");
    const std::string cmd = "python3 " + std::string(MRQ_SOURCE_DIR) +
                            "/tools/" + tool + " " + args + " > " +
                            capture.string() + " 2>/dev/null";
    const int rc = std::system(cmd.c_str());
    if (out != nullptr)
        *out = readAll(capture);
    fs::remove(capture);
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

obs::ProfileStack
stack(const std::string& thread, const std::string& span,
      std::int64_t count, std::int64_t weight,
      std::vector<std::string> frames = {})
{
    obs::ProfileStack s;
    s.thread = thread;
    s.span = span;
    s.count = count;
    s.weight = weight;
    s.frames = std::move(frames);
    return s;
}

/** A heap-kind document over @p stacks whose totals are consistent
 *  with them (heap weights are free-form byte counts). */
obs::ProfileDoc
heapDoc(std::vector<obs::ProfileStack> stacks)
{
    std::int64_t count = 0;
    std::int64_t weight = 0;
    for (const obs::ProfileStack& s : stacks) {
        count += s.count;
        weight += s.weight;
    }
    obs::ProfileDoc doc;
    doc.kind = obs::ProfileKind::Heap;
    doc.totals = {{"interval_bytes", 4096}, {"samples", count},
                  {"sampled_bytes", weight}, {"current_bytes", 0},
                  {"peak_bytes", weight},   {"alloc_count", count},
                  {"alloc_bytes", weight},  {"free_count", count},
                  {"free_bytes", weight},   {"guard_violations", 0}};
    doc.threads = {{"main", {{"alloc_bytes", weight},
                             {"alloc_count", count}}}};
    doc.stacks = std::move(stacks);
    return doc;
}

/** Write @p doc, require the checker to accept it, and return the
 *  tool's folded rendering. */
std::string
foldedOf(const obs::ProfileDoc& doc)
{
    const fs::path path = tempFile("folded.jsonl");
    EXPECT_TRUE(obs::writeStackProfile(path.string(), doc));
    EXPECT_EQ(runTool("check_profile_schema.py", path.string()), 0)
        << readAll(path);
    std::string folded;
    EXPECT_EQ(runTool("profile_diff.py", "--folded " + path.string(),
                      &folded),
              0);
    fs::remove(path);
    return folded;
}

TEST(StackProfile, JsonEscapeAndRunPlaceholder)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(obs::jsonEscape(std::string("n\nt\t\x01", 5)),
              "n\\u000at\\u0009\\u0001");
    EXPECT_EQ(obs::resolveRunPath("out/{run}.jsonl", "case_a"),
              "out/case_a.jsonl");
    EXPECT_EQ(obs::resolveRunPath("out/fixed.jsonl", "case_a"),
              "out/fixed.jsonl");
}

TEST(StackProfile, AggregateRowsSortHeaviestFirst)
{
    obs::StackAggregate agg;
    obs::StackKey light;
    light.thread = "t-b";
    light.pcs = {0x10};
    obs::StackKey heavy;
    heavy.thread = "t-a";
    heavy.pcs = {0x20, 0x30};
    obs::StackKey tie = light;
    tie.thread = "t-a";
    agg.add(light, 5);
    agg.add(heavy, 7);
    agg.add(heavy, 7);
    agg.add(tie, 5);

    const std::vector<obs::ProfileStack> rows =
        obs::profileStacks(agg.copy());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].thread, "t-a");
    EXPECT_EQ(rows[0].count, 2);
    EXPECT_EQ(rows[0].weight, 14);
    ASSERT_EQ(rows[0].frames.size(), 2u); // innermost first
    EXPECT_EQ(rows[0].frames[0], obs::symbolizePc(0x20));
    // Equal weights fall back to thread order.
    EXPECT_EQ(rows[1].thread, "t-a");
    EXPECT_EQ(rows[2].thread, "t-b");
    agg.clear();
    EXPECT_TRUE(agg.copy().empty());
}

TEST(StackProfile, WriterOutputPassesCheckerForBothKinds)
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
    cpu.stacks = {stack("main", "s", 3, 3 * period, {"f"}),
                  stack("main", "", 2, 2 * period, {"g"})};
    const fs::path cpu_path = tempFile("cpu.jsonl");
    ASSERT_TRUE(obs::writeStackProfile(cpu_path.string(), cpu));
    EXPECT_EQ(runTool("check_profile_schema.py",
                      "--require-stacks --require-span " +
                          cpu_path.string()),
              0)
        << readAll(cpu_path);
    // A CPU weight off the period grid is rejected.
    cpu.stacks[0].weight += 1;
    ASSERT_TRUE(obs::writeStackProfile(cpu_path.string(), cpu));
    EXPECT_EQ(runTool("check_profile_schema.py", cpu_path.string()), 1);

    const fs::path heap_path = tempFile("heap.jsonl");
    ASSERT_TRUE(obs::writeStackProfile(
        heap_path.string(),
        heapDoc({stack("", "s", 1, 8192, {"alloc"})})));
    EXPECT_EQ(runTool("check_profile_schema.py",
                      "--require-stacks " + heap_path.string()),
              0)
        << readAll(heap_path);
    // The diff refuses to compare across kinds.
    cpu.stacks[0].weight -= 1;
    ASSERT_TRUE(obs::writeStackProfile(cpu_path.string(), cpu));
    EXPECT_EQ(runTool("profile_diff.py",
                      cpu_path.string() + " " + heap_path.string()),
              2);
    fs::remove(cpu_path);
    fs::remove(heap_path);
}

TEST(StackProfile, FoldedJoinsSpanRootFirst)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    const std::string folded = foldedOf(heapDoc(
        {stack("", "fold_root/fold_a", 1, 64, {"inner", "outer"})}));
    EXPECT_EQ(folded, "fold_root;fold_a;outer;inner 64\n");
    EXPECT_EQ(folded.find('/'), std::string::npos)
        << "folded stacks must use ';' separators";
}

TEST(StackProfile, FoldedMergesRepeatedStacks)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    // The same stack on two threads is one line; under a different
    // parent it is a distinct stack; a name repeated at adjacent
    // depths (recursion-shaped) keeps every occurrence.
    const std::string folded = foldedOf(heapDoc({
        stack("t1", "fold_p/fold_dup", 1, 700),
        stack("t2", "fold_p/fold_dup", 1, 300),
        stack("t1", "fold_q/fold_dup", 1, 500),
        stack("t1", "fold_rec/fold_rec", 1, 250),
    }));
    EXPECT_EQ(folded, "fold_p;fold_dup 1000\n"
                      "fold_q;fold_dup 500\n"
                      "fold_rec;fold_rec 250\n");
}

TEST(StackProfile, FoldedDeepNesting)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    constexpr int kDepth = 12;
    std::string path = "deep_0";
    std::string expect = "deep_0";
    for (int i = 1; i < kDepth; ++i) {
        path += "/deep_" + std::to_string(i);
        expect += ";deep_" + std::to_string(i);
    }
    EXPECT_EQ(foldedOf(heapDoc({stack("", path, 1, 4242)})),
              expect + " 4242\n");
}

TEST(StackProfile, FoldedEmptyProfileIsEmpty)
{
    if (!pythonAvailable())
        GTEST_SKIP() << "python3 not available";
    EXPECT_EQ(foldedOf(heapDoc({})), "");
}

} // namespace
} // namespace mrq
