/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are opened and closed by the benchmark around its calls into
 * each library layer, on the calling thread only.  Each span carries
 * its parent, the operation (step or request) it belongs to, the rung
 * it ran at, and the heap bytes allocated inside it, so per-layer
 * counts come from the same boundaries as the times.  Records stay in
 * memory until the run ends and are then written as JSONL.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/** One closed (or still open) span. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root.
    std::uint64_t op = 0;     ///< Step or request index.
    const char* name = "";    ///< Static string (or interned on read).
    std::int32_t rung = -1;   ///< Ladder index, -1 when not tied to one.
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t allocBytes = 0; ///< Heap bytes allocated inside.
};

/** Records spans on one thread; ids start at 1. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Operation index stamped on spans opened from now on. */
    void setOp(std::uint64_t op) { op_ = op; }

    /** Open a child of the innermost open span. @p name must be a
     *  string literal. */
    std::uint32_t open(const char* name, std::int32_t rung = -1);

    /** Close the innermost open span, which must be @p id. */
    void close(std::uint32_t id);

    const std::vector<Span>& spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
    std::uint64_t op_ = 0;
};

/** RAII span on a recorder; inert when the recorder is null. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder* rec, const char* name, std::int32_t rung = -1)
        : rec_(rec), id_(rec != nullptr ? rec->open(name, rung) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (rec_ != nullptr)
            rec_->close(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder* rec_;
    std::uint32_t id_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by its direct children (overlapping children counted once).
 * Parents must precede their children, as the recorder writes them.
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span>& spans);

/** Write @p header (one JSON object) then one JSON line per span. */
bool writeSpansJsonl(const std::string& path, const std::string& header,
                     const std::vector<Span>& spans);

/** Spans read back from a JSONL file; names point into @ref names. */
struct SpanFile
{
    std::string header;
    std::set<std::string> names;
    std::vector<Span> spans;
};

/** Parse a file written by writeSpansJsonl.  False on any malformed
 *  line. */
bool readSpansJsonl(const std::string& path, SpanFile* out);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
