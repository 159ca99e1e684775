/**
 * @file
 * Stack-profile core shared by the CPU sampler (obs/sampler.hpp) and
 * the heap profiler (obs/heap_profiler.hpp).
 *
 * Both profilers capture the same thing — a frame-pointer backtrace
 * tagged with the thread's interned span path (obs/trace.hpp) and the
 * process's active kernel family (kernels/roofline.hpp) — and differ
 * only in what one capture weighs (a sampling period of CPU time, or
 * the bytes allocated since the previous heap sample) and in the
 * safety rules of the capture site (a SIGPROF handler; a reentrancy
 * guard inside operator new).  Capture stays with each profiler;
 * everything downstream of it lives here:
 *
 *  - StackAggregate: (thread, span-path id, kernel tag, PCs) ->
 *    (count, weight).  One immortal instance per profile kind, each
 *    with its own mutex: the sampler's drain thread allocates while
 *    holding the CPU lock, and a heap sample taken by that allocation
 *    must not wait on it.
 *  - symbolizePc: dladdr + demangle over an immortal PC -> name cache,
 *    emission context only.
 *  - profileStacks: symbolized rows in one deterministic order —
 *    weight descending, ties broken by thread, span, kernel, frames.
 *  - One JSONL writer (atomic tmp+rename via obs/atomic_file.hpp);
 *    the outermost RunScope names its files (obs/manifest.hpp).
 *
 * Profile JSONL, schema v2 (one JSON object per line):
 *
 *   {"type": "stack_profile", "version": 2, "kind": "cpu"|"heap",
 *    "unit": "ns"|"bytes", "isa": "...", "git": "...", <totals>}
 *   {"type": "thread", "thread": "...", <per-thread fields>}  (0+)
 *   {"type": "stack", "thread": "...", "span": "...",
 *    "kernel": "...", "count": C, "weight": W,
 *    "frames": ["inner", ..., "outer"]}                      (0+)
 *   {"type": "stack_profile_end", "stacks": K, "count": sum(C),
 *    "weight": sum(W)}
 *
 * Each kind fills <totals> and the per-thread fields (see
 * writeSampleProfile / writeHeapProfile).  `tools/check_schema.py
 * profile` validates either kind; tools/profile_diff.py ranks
 * per-stack weight deltas between two profiles of one kind and
 * renders a profile as flamegraph folded stacks (--folded).  Profile
 * data is wall-clock or allocator-dependent and shares the timeline's
 * exemption from the JSONL determinism contract.
 */

#ifndef MRQ_OBS_STACK_PROFILE_HPP
#define MRQ_OBS_STACK_PROFILE_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mrq {
namespace obs {

/** Stack-profile JSONL schema version (header "version" field). */
constexpr int kStackProfileVersion = 2;

/** What a profile's weight measures. */
enum class ProfileKind : int
{
    Cpu = 0,  ///< Sampled CPU time; weight in ns.
    Heap = 1, ///< Sampled allocated bytes; weight in bytes.
};

/** JSON string-literal body of @p s: quotes and backslashes escaped,
 *  control characters as \u00XX.  Every JSONL sink in src/obs uses
 *  it, so their outputs escape identically. */
std::string jsonEscape(const std::string& s);

/** Demangled symbol name for @p pc via dladdr, argument list dropped
 *  ("0x..." when the PC has no dynamic symbol).  Cached; emission
 *  context only (allocates, locks). */
std::string symbolizePc(std::uintptr_t pc);

/** Aggregation key: where a capture landed. */
struct StackKey
{
    std::string thread;               ///< "" when not keyed by thread.
    int pathId = 0;                   ///< Interned span path id.
    int kernel = -1;                  ///< Kernel sample tag (-1 none).
    std::vector<std::uintptr_t> pcs;  ///< Innermost first.

    bool operator<(const StackKey& o) const;
};

/** Captures landing on one key and the weight they carry. */
struct StackWeight
{
    std::int64_t count = 0;
    std::int64_t weight = 0;
};

using StackMap = std::map<StackKey, StackWeight>;

/** Mutex-guarded (key -> count, weight) map. */
class StackAggregate
{
  public:
    /** Charge one capture of @p weight to @p key. */
    void add(StackKey key, std::int64_t weight);

    void clear();

    /** Copy of the map, taken under the lock.  The copy allocates. */
    StackMap copy() const;

  private:
    mutable std::mutex mutex_;
    StackMap map_;
};

/** The process-wide aggregate of @p kind.  Immortal (never
 *  destroyed): interposed operator delete runs through static
 *  destruction and must never meet a dying mutex. */
StackAggregate& stackAggregate(ProfileKind kind);

/** One symbolized stack row. */
struct ProfileStack
{
    std::string thread; ///< Flight name ("" when not keyed by thread).
    std::string span;   ///< Slash-joined span path ("" = none).
    std::string kernel; ///< Kernel-family slug ("" = none).
    std::int64_t count = 0;
    std::int64_t weight = 0;
    /** Symbolized frames, innermost first. */
    std::vector<std::string> frames;
};

/** Symbolize @p agg into rows, heaviest first (ties broken
 *  lexicographically for determinism). */
std::vector<ProfileStack> profileStacks(const StackMap& agg);

/** A named integer of the header or of a thread row. */
struct ProfileField
{
    const char* key;
    std::int64_t value;
};

/** One per-thread row (off-CPU time, allocation churn). */
struct ProfileThread
{
    std::string name;
    std::vector<ProfileField> fields;
};

/** Everything one profile file holds. */
struct ProfileDoc
{
    ProfileKind kind = ProfileKind::Cpu;
    std::vector<ProfileField> totals; ///< Kind-specific header totals.
    std::vector<ProfileThread> threads;
    std::vector<ProfileStack> stacks;
};

/** Write @p doc as a JSONL profile (header, thread rows, stack rows,
 *  end line with the row count and the count/weight sums) to @p path
 *  via AtomicFile. */
bool writeStackProfile(const std::string& path, const ProfileDoc& doc);

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_STACK_PROFILE_HPP
