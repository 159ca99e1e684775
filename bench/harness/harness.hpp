/**
 * @file
 * Bench harness: registered cases + a shared runner.
 *
 * Every reproduction bench registers named cases with MRQ_BENCH (or
 * MRQ_BENCH_HEAVY for multi-minute training cases); the shared runner
 * then handles what used to be copy-pasted per binary:
 *
 *   - warmup + timed repetitions per case (--reps=N overrides the
 *     per-case count), aggregated with robust statistics
 *     (median/MAD/min/max, outlier count),
 *   - a MetricsRegistry reset before each repetition and a snapshot
 *     after the last one, so hw-sim cycles, term-pair counts and
 *     projection-cache hit rates land in the report next to wall
 *     time,
 *   - one obs::RunScope per case around the timed reps, so the
 *     case's sink files land in MRQ_RUN_DIR under the case name and
 *     a pipeline run inside the case neither resets the registry nor
 *     writes files of its own,
 *   - one versioned BENCH_<suite>.json per run (schema in
 *     report.hpp), stamped with the PR 2 RunManifest header
 *     (git describe, seed, MRQ_THREADS, build type, tier),
 *   - deterministic stdout: each case's reference table is emitted by
 *     exactly one repetition through the shared TablePrinter, and the
 *     harness's own timing summary goes to stderr, so stdout is
 *     byte-identical across repetitions and MRQ_THREADS.
 *
 * Tiers: --quick selects the quick tier; case bodies read
 * ctx.quick() and shrink their workload (fewer epochs, smaller
 * sample counts) while keeping every table and recorded value in
 * place, so CI can gate the full trajectory in minutes.
 *
 * A binary's suite name defaults to its executable name minus the
 * "bench_" prefix; bench_repro links every bench translation unit
 * and therefore writes one BENCH_repro.json covering all registered
 * cases.
 */

#ifndef MRQ_BENCH_HARNESS_HARNESS_HPP
#define MRQ_BENCH_HARNESS_HARNESS_HPP

#include <string>
#include <vector>

#include "harness/report.hpp"

namespace mrq {
namespace bench {

/** Per-case run policy (0 / -1 = inherit the harness defaults). */
struct CaseOptions
{
    int reps = 0;    ///< Timed repetitions (default 3, heavy 1).
    int warmup = -1; ///< Warmup runs (default 1, heavy 0).
};

inline CaseOptions
defaultCase()
{
    return CaseOptions{};
}

/** Training-scale cases: one rep, no warmup unless --reps explicitly
 *  asks for more. */
inline CaseOptions
heavyCase()
{
    CaseOptions o;
    o.reps = 1;
    o.warmup = 0;
    return o;
}

/**
 * Handle a case body uses to emit its reference table and record the
 * scalars that become the machine-readable trajectory.  Printing is
 * live during exactly one repetition; recording happens every
 * repetition (the maps are cleared per rep, so the report holds one
 * repetition's worth of deterministic values).
 */
class BenchContext
{
  public:
    /** True in the reduced quick tier (--quick). */
    bool
    quick() const
    {
        return quick_;
    }

    /** The shared stdout sink (enabled on the printing rep only). */
    TablePrinter&
    out()
    {
        return *table_;
    }

    /** printf-style table/progress line through the shared printer. */
    void printf(const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
        __attribute__((format(printf, 2, 3)))
#endif
        ;

    /**
     * Print one "measured vs paper" row and record @p measured under
     * the slugified label in the report's deterministic "values" map.
     * Only deterministic quantities may go through row(); anything
     * wall-clock derived belongs in timingValue().
     */
    void row(const std::string& label, double measured,
             const std::string& paper);

    /** Record a deterministic scalar without printing. */
    void value(const std::string& name, double v);

    /** Record a wall-clock-derived scalar (compared with the timing
     *  tolerance, masked by the determinism test). */
    void timingValue(const std::string& name, double v);

    /**
     * Record a pass/fail shape check (1/0 under "check_<label>") and
     * mark the case — and the process exit status — failed when
     * @p ok is false.  Failures print to stderr on every rep so they
     * are visible even on non-printing repetitions.
     */
    void require(bool ok, const std::string& label);

    /** True when this case has failed a require() so far. */
    bool
    failed() const
    {
        return failed_;
    }

  private:
    friend class Runner;

    TablePrinter* table_ = nullptr;
    CaseRecord* record_ = nullptr;
    std::string caseName_;
    bool quick_ = false;
    bool failed_ = false;
};

using CaseFn = void (*)(BenchContext&);

/** One registered case. */
struct CaseDef
{
    std::string name;    ///< JSON name, e.g. "fig05.group_error".
    std::string paperId; ///< Header id, e.g. "Figure 5".
    std::string what;    ///< Header description.
    CaseFn fn = nullptr;
    CaseOptions opts;
};

/** Process-wide case registry (filled by MRQ_BENCH at static init). */
class Registry
{
  public:
    static Registry& instance();

    /** Idempotent by name; duplicate names abort at startup (two
     *  cases writing the same trajectory key is always a bug). */
    bool add(std::string name, std::string paper_id, std::string what,
             CaseFn fn, CaseOptions opts);

    /** All registered cases, sorted by name. */
    std::vector<CaseDef> sortedCases() const;

  private:
    Registry() = default;
    std::vector<CaseDef> cases_;
};

/** Everything the runner needs besides the registry. */
struct RunnerOptions
{
    std::string suite;   ///< Names the output file BENCH_<suite>.json.
    std::string outPath; ///< Overrides the default path when set.
    std::string filter;  ///< Substring filter on case names.
    bool quick = false;
    int repsOverride = 0; ///< > 0 forces this many reps on all cases.
    bool list = false;    ///< Print case names and exit.
};

/** Resolved harness defaults (env + argv); argv wins over env. */
RunnerOptions parseRunnerOptions(int argc, char** argv);

/**
 * Run every registered case that matches the filter and write the
 * report.  Returns the process exit code: 0 on success, 1 when any
 * case failed a require() or the report could not be written.
 */
int runRegisteredCases(const RunnerOptions& opts);

/** The shared main() body (harness_main.cpp calls this). */
int benchMain(int argc, char** argv);

/** Slugify a human label into a JSON key: lowercase, runs of
 *  non-alphanumerics collapsed to '_', trimmed. */
std::string slugify(const std::string& label);

} // namespace bench
} // namespace mrq

/** Register a bench case: MRQ_BENCH(name, "Figure 5", "...") { body }.
 *  The body receives `ctx` (a BenchContext&). */
#define MRQ_BENCH_IMPL(id, paper, what, opts)                          \
    static void mrq_bench_fn_##id(::mrq::bench::BenchContext& ctx);    \
    static const bool mrq_bench_reg_##id =                             \
        ::mrq::bench::Registry::instance().add(                       \
            #id, paper, what, &mrq_bench_fn_##id, opts);               \
    static void mrq_bench_fn_##id(::mrq::bench::BenchContext& ctx)

#define MRQ_BENCH(id, paper, what)                                     \
    MRQ_BENCH_IMPL(id, paper, what, ::mrq::bench::defaultCase())

#define MRQ_BENCH_HEAVY(id, paper, what)                               \
    MRQ_BENCH_IMPL(id, paper, what, ::mrq::bench::heavyCase())

#endif // MRQ_BENCH_HARNESS_HARNESS_HPP
