/**
 * @file
 * Timeline export: per-event span records flushed as Chrome
 * trace-event JSON.
 *
 * When MRQ_TRACE=1 and MRQ_RUN_DIR are both set, every TraceSpan
 * destruction additionally records one
 * *complete* event — start, duration, interned path id, optional
 * argument — into a per-thread ring buffer.  Rings are bounded and
 * drop-oldest: a long run keeps the most recent window per thread and
 * counts what it dropped, so tracing can stay on for a whole training
 * job without unbounded memory.  Each ring is written by exactly one
 * thread and read only at serial points (RunScope entry and exit),
 * where thread-pool quiescence provides the happens-before edge — the
 * same model as the metrics shards.
 *
 * Counter tracks (loss curves, cache hit rate, hw cycles) and instant
 * events (watchdog alerts) are recorded from serial code into
 * mutex-guarded side buffers and land on tid 0's track.
 *
 * writeTrace() renders everything as one JSON object in the Chrome
 * trace-event format ("traceEvents" array of ph=X/C/i/M events,
 * microsecond timestamps rebased to the earliest event), loadable in
 * Perfetto or chrome://tracing.  The outermost RunScope brackets its
 * run with resetTraceBuffers()/writeTrace(), so <run>.trace.json in
 * MRQ_RUN_DIR holds exactly that run (a pipeline, a bench case).
 *
 * Timelines are wall-clock and therefore exempt from the JSONL
 * determinism contract: nothing recorded here ever reaches the JSONL
 * sink.  (Per-thread drop counts depend on MRQ_THREADS by nature;
 * they appear only inside the trace file itself.)
 */

#ifndef MRQ_OBS_TRACE_EXPORT_HPP
#define MRQ_OBS_TRACE_EXPORT_HPP

#include <atomic>
#include <cstdint>
#include <string>

namespace mrq {
namespace obs {

namespace detail {
extern std::atomic<bool> g_trace_export_enabled;
} // namespace detail

/** True when per-event timeline recording is on (MRQ_TRACE=1 with
 *  MRQ_RUN_DIR set, or setTraceExportEnabled).  Spans also require
 *  traceEnabled(). */
inline bool
traceExportEnabled()
{
    return detail::g_trace_export_enabled.load(std::memory_order_relaxed);
}

/** Override timeline recording (tests, bench); returns previous. */
bool setTraceExportEnabled(bool on);

/** Record one completed span (called by ~TraceSpan).  @p arg < 0
 *  means "no argument". */
void traceExportSpan(int path_id, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t arg);

/** Sample a counter track (ph=C) at "now".  Serial contexts only;
 *  no-op unless traceExportEnabled(). */
void traceCounterSample(const char* track, double value);

/**
 * Record an instant event (ph=i) at "now", e.g. a watchdog alert.
 * @p detail is free-form text shown in the event args.  Serial
 * contexts only; no-op unless traceExportEnabled().
 */
void traceInstant(const std::string& name, const std::string& detail);

/**
 * Write every buffered event as Chrome trace-event JSON to @p path
 * (parent directories are created).  Buffers are left intact, so
 * successive flushes rewrite the file with a growing timeline.
 * @return False when the file cannot be written.
 */
bool writeTrace(const std::string& path);

/** Drop all buffered events and zero the drop counters.  Must run at
 *  a serial point (no concurrent span recording). */
void resetTraceBuffers();

/** Total events dropped to ring overflow since the last reset. */
std::uint64_t traceDroppedEvents();

/** Buffered span-event count across all rings (post-drop). */
std::uint64_t traceBufferedEvents();

/**
 * Resize every ring (existing and future) to @p capacity events and
 * clear them.  Test hook for overflow accounting; serial points only.
 */
void setTraceRingCapacity(std::size_t capacity);

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_TRACE_EXPORT_HPP
