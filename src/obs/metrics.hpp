/**
 * @file
 * Metrics registry: counters, gauges, fixed-bucket histograms, series
 * and timing aggregates, collected across every layer of the stack
 * (runtime pool, quantizers, trainer, hw-sim, pipelines).
 *
 * Collection model: hot-path updates (counters, histograms, timings)
 * go to per-thread shards — each shard is written by exactly one
 * thread, so recording is lock-free and TSan-clean — and are summed
 * into one total at snapshot time.  Shard slots are single-writer
 * relaxed atomics in release-published fixed blocks, so snapshot()
 * may also run on another thread concurrently with hot-path writers
 * (a mid-run read from a monitoring thread) and reads clean,
 * never-torn values that are at worst a few updates stale.  All
 * sharded values are integers, so the aggregate is independent of
 * which thread recorded what and
 * therefore independent of MRQ_THREADS.  Registry-level values
 * (gauges, series) hold doubles and must be recorded from serial code
 * (outside parallelFor bodies); the library only records values there
 * that are themselves bit-identical at any thread count (losses,
 * metrics, cycle-derived latencies), keeping the JSONL sink
 * byte-identical across thread counts.
 *
 * Sinks: writeJsonl() emits one JSON object per line (manifest first,
 * then metrics sorted by name); printSummary() renders a human table.
 * Wall-clock timing aggregates are the one inherently
 * non-deterministic family: they never reach the JSONL file, and they
 * appear in the summary only when tracing is on (MRQ_TRACE=1), so a
 * verbose run's stdout stays diffable across MRQ_THREADS.
 *
 * Disabled mode (no MRQ_RUN_DIR, no MRQ_TRACE, no RunScope with
 * verbose, no bench case): every record call is a single relaxed
 * atomic load and a branch; no descriptors, shards or files are
 * created.
 */

#ifndef MRQ_OBS_METRICS_HPP
#define MRQ_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace mrq {
namespace obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
extern std::atomic<bool> g_trace_enabled;
} // namespace detail

/** True when metric recording is on (env or RunScope/test override). */
inline bool
metricsEnabled()
{
    return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/** True when trace spans are on (MRQ_TRACE=1 or override). */
inline bool
traceEnabled()
{
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/** Override metric collection (tests, RunScope); returns previous. */
bool setMetricsEnabled(bool on);

/** Override trace spans (tests, RunScope); returns previous. */
bool setTraceEnabled(bool on);

/** Monotonic clock in nanoseconds (for timing aggregates). */
std::int64_t nowNs();

/** Aggregated wall-time statistics of one timing site or span path. */
struct TimingTotal
{
    std::int64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t minNs = 0;
    std::int64_t maxNs = 0;
};

/** One flushed view of every metric, aggregated over all shards. */
struct Snapshot
{
    struct CounterValue
    {
        std::string name;
        std::int64_t value = 0;
    };
    struct GaugeValue
    {
        std::string name;
        double value = 0.0;
    };
    struct HistValue
    {
        std::string name;
        std::vector<std::int64_t> counts; ///< Last bucket = overflow.
        std::int64_t total = 0;           ///< Sum of counts.
        std::int64_t weighted = 0;        ///< Sum of recorded values.
    };
    struct SeriesPoint
    {
        std::string name;
        std::int64_t step = 0;
        double value = 0.0;
    };
    struct TimingValue
    {
        std::string name;
        TimingTotal t;
    };
    /** Structured watchdog alert (see obs/watchdog.hpp). */
    struct AlertRecord
    {
        std::string severity; ///< "warn" or "fatal".
        std::string rule;     ///< e.g. "nan_loss".
        std::string context;  ///< e.g. "classifier.multires/a8b2".
        std::int64_t batch = -1; ///< Deterministic batch index, -1 =
                                 ///< epoch/eval boundary.
        std::string detail;   ///< Human-readable specifics.
    };

    std::vector<CounterValue> counters; ///< Sorted by name.
    std::vector<GaugeValue> gauges;     ///< Sorted by name.
    std::vector<HistValue> histograms;  ///< Sorted by name.
    std::vector<SeriesPoint> series;    ///< In recording order.
    std::vector<TimingValue> timings;   ///< Sorted by name.
    std::vector<AlertRecord> alerts;    ///< In recording order.
};

/**
 * Process-wide metric store.  Registration and registry-level records
 * take a mutex; sharded records are lock-free after the first touch
 * per thread.  snapshot() is safe to call concurrently with sharded
 * hot-path writers (Metrics.SnapshotNeverTornUnderConcurrentWriters
 * pins this); for an *exact* total it must still run outside parallel regions (every
 * parallelFor return edge is a synchronization point, so "after the
 * loop" is always safe).  reset()/writeJsonl() remain serial-point
 * operations.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry& instance();

    // ---- registration (idempotent by name, thread-safe) ----
    int counterId(const std::string& name);
    int histogramId(const std::string& name);
    int timingId(const std::string& name);

    // ---- sharded hot-path records ----
    void addCounter(int id, std::int64_t n);
    /** Record @p value into bucket min(value, buckets - 1). */
    void recordHistogram(int id, std::size_t buckets, std::size_t value);
    void recordTiming(int id, std::int64_t ns);

    // ---- registry-level records (serial contexts only) ----
    /** Register-and-add in one call (dynamic names, e.g. per layer). */
    void addCounterNamed(const std::string& name, std::int64_t n);
    void setGauge(const std::string& name, double value);
    void recordSeries(const std::string& name, std::int64_t step,
                      double value);
    /** Record a structured watchdog alert.  All inputs must be
     *  deterministic (rule, batch index, %.17g-formatted values) so
     *  the JSONL sink stays byte-identical across MRQ_THREADS. */
    void recordAlert(const std::string& severity, const std::string& rule,
                     const std::string& context, std::int64_t batch,
                     const std::string& detail);

    // ---- sinks ----
    Snapshot snapshot() const;

    /**
     * Append the manifest line (when non-empty) and every
     * deterministic metric (counters, gauges, histograms, series —
     * not timings) as JSONL to @p path, creating parent directories.
     * @return False when the file cannot be written.
     */
    bool writeJsonl(const std::string& path,
                    const std::string& manifest_json, bool append = true);

    /** Human-readable end-of-run table.  Timing rows (wall-clock,
     *  non-deterministic) appear only when traceEnabled(). */
    void printSummary(std::FILE* out) const;

    /** Zero all recorded values; keeps registered names and shards. */
    void reset();

    // ---- test hooks ----
    std::size_t debugShardCount() const;
    std::size_t debugMetricCount() const;
    /** Hot-path updates dropped because a metric id exceeded the
     *  fixed shard capacity (should stay 0 in any sane process). */
    std::int64_t debugDroppedUpdates() const;

  private:
    MetricsRegistry() = default;
    struct Impl;
    Impl& impl() const;
};

/**
 * Static-site counter handle: `static obs::Counter c{"name"};`.
 * Registration is deferred to the first add() while enabled, so a
 * disabled process never allocates.
 */
class Counter
{
  public:
    constexpr explicit Counter(const char* name) : name_(name) {}

    void
    add(std::int64_t n = 1)
    {
        if (!metricsEnabled())
            return;
        int id = id_.load(std::memory_order_relaxed);
        if (id < 0) {
            id = MetricsRegistry::instance().counterId(name_);
            id_.store(id, std::memory_order_relaxed);
        }
        MetricsRegistry::instance().addCounter(id, n);
    }

  private:
    const char* name_;
    std::atomic<int> id_{-1};
};

/**
 * Static-site fixed-bucket histogram of small non-negative integers:
 * bucket i counts value i, the last bucket counts >= buckets - 1.
 */
class IntHistogram
{
  public:
    constexpr IntHistogram(const char* name, std::size_t buckets)
        : name_(name), buckets_(buckets)
    {
    }

    void
    record(std::size_t value)
    {
        if (!metricsEnabled())
            return;
        int id = id_.load(std::memory_order_relaxed);
        if (id < 0) {
            id = MetricsRegistry::instance().histogramId(name_);
            id_.store(id, std::memory_order_relaxed);
        }
        MetricsRegistry::instance().recordHistogram(id, buckets_, value);
    }

  private:
    const char* name_;
    std::size_t buckets_;
    std::atomic<int> id_{-1};
};

/** Static-site timing aggregate (summary sink only, never JSONL). */
class TimingStat
{
  public:
    constexpr explicit TimingStat(const char* name) : name_(name) {}

    void
    record(std::int64_t ns)
    {
        if (!metricsEnabled())
            return;
        int id = id_.load(std::memory_order_relaxed);
        if (id < 0) {
            id = MetricsRegistry::instance().timingId(name_);
            id_.store(id, std::memory_order_relaxed);
        }
        MetricsRegistry::instance().recordTiming(id, ns);
    }

  private:
    const char* name_;
    std::atomic<int> id_{-1};
};

// ---- structured run log (replaces scattered printf in pipelines) ----

/** Route verbose pipeline output; returns previous setting. */
bool setLogVerbose(bool on);

/** True when logf() prints. */
bool logVerbose();

/** Structured progress line ("[mrq] " prefix); silent unless verbose. */
void logf(const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_METRICS_HPP
