/**
 * @file
 * Report layer of the bench harness: the versioned BENCH_<suite>.json
 * schema (one JSON object per suite run), its writer and a minimal
 * parser for round-trip tests and in-process comparisons, plus the
 * shared TablePrinter every bench routes its stdout through.
 *
 * Schema (version 3; version-1/2 files still parse — v2 added the
 * "resources" map, v3 added the heap-accounting keys inside it):
 *
 *   {"type": "bench", "version": 3, "suite": str,
 *    "manifest": {"type": "manifest", "run": str, "seed": int,
 *                 "git": str, ...string extras...},
 *    "cases": [
 *      {"name": str, "reps": int, "warmup": int, "failed": bool,
 *       "wall_ms": {"count": int, "median": num, "mad": num,
 *                   "min": num, "max": num, "mean": num,
 *                   "outliers": int},
 *       "values": {str: num, ...},          // deterministic scalars
 *       "timing_values": {str: num, ...},   // wall-clock derived
 *       "metrics": {str: num, ...},         // MetricsRegistry snapshot
 *       "resources": {str: num, ...}},      // peak RSS / heap
 *      ...]}
 *
 * Determinism contract: for a fixed seed, tier and MRQ_THREADS, two
 * runs differ only in "wall_ms", "timing_values" and "resources" —
 * everything in "values" and "metrics" is bit-identical (this is what
 * tools/bench_compare.py and the quick-tier CI gate rely on).
 * "resources" holds per-case process facts (peak_rss_kb, and — when
 * the heap interposition is linked — alloc_bytes/alloc_count/peak_heap
 * over the timed reps) that are machine-dependent by nature, so the
 * tools treat them like timings: noise-gated, never exact.  Cases and
 * the keys inside each map are sorted by name so diffs are stable.
 */

#ifndef MRQ_BENCH_HARNESS_REPORT_HPP
#define MRQ_BENCH_HARNESS_REPORT_HPP

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/stats.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

namespace mrq {
namespace bench {

/** Bump when the JSON layout changes; bench_compare refuses a
 *  version it does not know.  v2 added the per-case "resources" map;
 *  v3 added heap-accounting resource keys (alloc_bytes, alloc_count,
 *  peak_heap).  Older files still parse (absent keys stay absent). */
inline constexpr int kBenchSchemaVersion = 3;
inline constexpr int kBenchSchemaMinVersion = 1;

/** One metric value captured from a registry snapshot: counters and
 *  histogram totals are integers, gauges are doubles. */
struct MetricValue
{
    bool isInt = true;
    std::int64_t i = 0;
    double d = 0.0;

    static MetricValue
    ofInt(std::int64_t v)
    {
        MetricValue m;
        m.isInt = true;
        m.i = v;
        return m;
    }

    static MetricValue
    ofDouble(double v)
    {
        MetricValue m;
        m.isInt = false;
        m.d = v;
        return m;
    }

    double
    asDouble() const
    {
        return isInt ? static_cast<double>(i) : d;
    }
};

/** Everything recorded about one registered case. */
struct CaseRecord
{
    std::string name;
    int reps = 0;
    int warmup = 0;
    bool failed = false;
    RobustStats wallMs;
    std::map<std::string, double> values;
    std::map<std::string, double> timingValues;
    std::map<std::string, MetricValue> metrics;
    /** Machine-dependent per-case facts (peak_rss_kb, perf counter
     *  totals over the timed reps); noise-gated by the tools. */
    std::map<std::string, double> resources;
};

/** One suite run: manifest header + per-case records. */
struct BenchReport
{
    std::string suite;
    obs::RunManifest manifest;
    std::vector<CaseRecord> cases; ///< Sorted by name before writing.

    /** Render the whole report as pretty-printed JSON. */
    std::string toJson() const;

    /**
     * Write toJson() to @p path, creating parent directories.
     * Returns false — after a diagnostic on stderr — when the file
     * cannot be written, so the harness can exit non-zero instead of
     * silently dropping the trajectory point (the RuntimeReport
     * contract this layer absorbed).
     */
    [[nodiscard]] bool write(const std::string& path) const;
};

/**
 * Parse a BENCH_*.json produced by BenchReport::write back into a
 * BenchReport (schema round-trip; used by tests and in-process
 * comparisons).  Returns false and fills @p error on malformed input
 * or an unknown schema version.  The manifest's extra entries are
 * restored into RunManifest::entries minus the fixed keys.
 */
bool parseBenchReport(const std::string& json, BenchReport* out,
                      std::string* error);

/** Reduce a registry snapshot to the flat per-case metrics map:
 *  counters and gauges by name, histograms as name.total/name.sum.
 *  Series and wall-clock timings are deliberately dropped (series
 *  belong to the JSONL sink; timings are non-deterministic). */
std::map<std::string, MetricValue>
flattenSnapshot(const obs::Snapshot& snap);

/**
 * Shared sink for every bench's reference tables.  All bench stdout
 * goes through one printer so the emitted tables are deterministic:
 * the harness enables the printer for exactly one repetition per
 * case, and nothing thread-count- or wall-clock-dependent is ever
 * formatted into a table cell (timings belong in the JSON report).
 */
class TablePrinter
{
  public:
    explicit TablePrinter(std::FILE* out = stdout) : out_(out) {}

    void
    setEnabled(bool on)
    {
        enabled_ = on;
    }

    bool
    enabled() const
    {
        return enabled_;
    }

    /** printf-style table/progress line (dropped when disabled). */
    void printf(const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
        __attribute__((format(printf, 2, 3)))
#endif
        ;

    /** Standard experiment header (the old bench::header). */
    void header(const std::string& id, const std::string& what);

    /** One "measured vs paper" row (the old bench::row). */
    void row(const std::string& label, double measured,
             const std::string& paper);

  private:
    std::FILE* out_ = nullptr;
    bool enabled_ = true;
};

/** Wall-clock a callable; returns elapsed milliseconds. */
template <typename Fn>
inline double
wallTimeMs(Fn&& fn)
{
    const std::int64_t t0 = obs::nowNs();
    static_cast<Fn&&>(fn)();
    const std::int64_t t1 = obs::nowNs();
    return static_cast<double>(t1 - t0) * 1e-6;
}

} // namespace bench
} // namespace mrq

#endif // MRQ_BENCH_HARNESS_REPORT_HPP
