/**
 * @file
 * RAII trace spans with thread-pool-aware nesting.
 *
 * A TraceSpan pushes its name onto a thread-local span stack on
 * construction and, on destruction, records its wall time under its
 * full slash-joined path ("pipeline.fp_epoch/trainer.iteration/...")
 * as a timing aggregate in the MetricsRegistry.  Paths, not
 * individual events, are aggregated — a span that runs a thousand
 * times is one summary row.  When timeline export is live
 * (MRQ_TRACE=1 with MRQ_RUN_DIR, see trace_export.hpp) each span
 * additionally records one begin/end event into its thread's ring
 * buffer.
 *
 * Paths are interned: every distinct (parent path, name) pair gets a
 * process-wide integer id whose full string and registry timing id
 * are computed once.  After the first visit of a call site on a
 * thread, opening and closing a span performs no allocation and takes
 * no lock — the thread-local cache maps (parent id, name pointer)
 * straight to the interned entry.  Interned ids are valid across
 * threads, which is how a dispatching thread hands its position to
 * pool workers.
 *
 * Nesting across runtime::ThreadPool chunks: ThreadPool::run captures
 * the caller's current path id and installs it as the *inherited
 * prefix* on every worker executing that job's chunks (via
 * InheritedTracePath), so spans opened inside parallelFor bodies
 * parent to the span that launched the loop even though they run on a
 * different thread.
 *
 * Spans are active only when traceEnabled() (MRQ_TRACE=1 or
 * setTraceEnabled); when disabled, construction is a relaxed atomic
 * load and a branch.  Span
 * timings go to the summary sink only — wall times are inherently
 * non-deterministic, and the JSONL sink must stay byte-identical
 * across MRQ_THREADS.
 */

#ifndef MRQ_OBS_TRACE_HPP
#define MRQ_OBS_TRACE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace mrq {
namespace obs {

namespace detail {
struct PathEntry; // Interned path node (trace.cpp).
}

/** Scoped timer; records under its nesting path on destruction. */
class TraceSpan
{
  public:
    explicit TraceSpan(const char* name) : TraceSpan(name, -1) {}

    /**
     * Span with an attached argument (chunk index, layer index, ...)
     * that lands in the timeline event's args; the aggregate timing
     * row ignores it, so argument cardinality never multiplies
     * summary rows.  Negative values mean "no argument".
     */
    TraceSpan(const char* name, std::int64_t arg);
    ~TraceSpan();

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

  private:
    const detail::PathEntry* entry_ = nullptr;
    const detail::PathEntry* prev_ = nullptr;
    std::int64_t startNs_ = 0;
    std::int64_t arg_ = -1;
};

/**
 * Current thread's full span path (inherited prefix + open spans),
 * empty when tracing is off or no span is open.
 */
std::string currentTracePath();

/** Interned id of the current path (0 = root/none); cheap, lock-free.
 *  Captured by ThreadPool::run to parent worker-side spans. */
int currentTracePathId();

/**
 * Intern "<current path>/<name>" without opening a span and return
 * its id (0 when tracing is off).  For code that records timeline
 * events directly — e.g. the thread pool's per-chunk events — without
 * inserting a level into the span paths user code sees.
 */
int internTracePathChild(const char* name);

/** Full path string of an interned id ("" for 0 or unknown ids). */
std::string tracePathString(int id);

/** Every interned path indexed by id (index 0 = ""); for exporters
 *  that resolve ids in bulk instead of locking per event. */
std::vector<std::string> traceAllPaths();

/** Installs an inherited path prefix for the current thread (RAII). */
class InheritedTracePath
{
  public:
    /** @param path_id Interned id from currentTracePathId(); 0 is a
     *  no-op. */
    explicit InheritedTracePath(int path_id);
    ~InheritedTracePath();

    InheritedTracePath(const InheritedTracePath&) = delete;
    InheritedTracePath& operator=(const InheritedTracePath&) = delete;

  private:
    const detail::PathEntry* previous_ = nullptr;
    bool installed_ = false;
};

} // namespace obs
} // namespace mrq

#define MRQ_OBS_CONCAT2(a, b) a##b
#define MRQ_OBS_CONCAT(a, b) MRQ_OBS_CONCAT2(a, b)

/** Open a scoped trace span for the rest of the enclosing block. */
#define MRQ_TRACE_SPAN(name)                                             \
    ::mrq::obs::TraceSpan MRQ_OBS_CONCAT(mrq_trace_span_, __LINE__)(name)

#endif // MRQ_OBS_TRACE_HPP
