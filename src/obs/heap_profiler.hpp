/**
 * @file
 * Memory observability: sampling heap profiler + no-alloc guards.
 *
 * The SIGPROF sampler (obs/sampler.hpp) explains where CPU cycles go;
 * this module explains where heap bytes go.  A replacement operator
 * new/delete set (obs/new_delete.cpp, linked into the static library
 * unless a sanitizer provides its own) reports every C++ heap
 * allocation to a pair of hooks.  When nothing is armed the hooks
 * cost one relaxed atomic load and a branch per call — the same
 * disabled-cost contract every other obs site honors, gated in the
 * telemetry_overhead bench.
 *
 * Two consumers share the hooks:
 *
 *  - The sampling profiler (MRQ_HEAPPROF): per-thread byte countdown
 *    at MRQ_HEAPPROF_INTERVAL (default 512 KiB); the allocation that
 *    crosses the boundary captures a backtrace plus the thread's
 *    active span path (obs/trace.hpp) and the process's active kernel
 *    family (kernels/roofline.hpp) — the exact attribution machinery
 *    the SIGPROF sampler threads through KernelRegion — and charges
 *    the accumulated bytes to that (span, kernel, stack) key.  Live
 *    totals (current/peak bytes, allocation counts) feed the bench
 *    harness resources map and post-mortem dumps; the aggregate (the
 *    heap instance of obs/stack_profile.hpp, plus per-thread churn
 *    rows) is emitted as a kind "heap" stack profile weighted by
 *    bytes (MRQ_HEAPPROF_OUT, "{run}" substituted), checked and
 *    diffed by the same tools as the CPU profile.
 *
 *  - AllocGuard (MRQ_ALLOC_GUARD=on|strict): an RAII region declaring
 *    "this path must not allocate".  A violating allocation inside
 *    the region is counted (and the first one backtraced) by the
 *    hook; the guard's destructor — normal serial context — reports
 *    the violations as a watchdog alert and, in strict mode, prints
 *    the symbolized offending backtrace and exits 70 (the watchdog
 *    strict-fatal code).  Guards nest, propagate into thread-pool
 *    workers alongside the inherited trace path, and can be
 *    dismiss()ed on paths where an allocation turns out to be
 *    legitimate (e.g. a first-touch cache fill).
 *
 * Interposition is compiled out under -fsanitize builds (ASan/TSan
 * supply their own operator new); heapInterpositionActive() tells
 * consumers — tests, the bench harness resources map — whether heap
 * accounting is real in this binary.  Allocations from malloc/free
 * in C code are not interposed (a static-archive malloc definition
 * cannot safely shadow glibc's); operator new covers the C++ code
 * this project is made of.
 */

#ifndef MRQ_OBS_HEAP_PROFILER_HPP
#define MRQ_OBS_HEAP_PROFILER_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/stack_profile.hpp"

namespace mrq {
namespace obs {

/** Default sampling interval: one stack per 512 KiB allocated. */
constexpr std::int64_t kHeapDefaultIntervalBytes = 512 * 1024;

/** Compile-time bounds of the static violation/churn storage. */
constexpr std::size_t kHeapMaxFrames = 24;
constexpr std::size_t kHeapMaxThreads = 64;

/** Strict guard violations exit with the watchdog strict-fatal code. */
constexpr int kAllocGuardExitCode = 70;

namespace detail {
/** Nonzero while any consumer is armed (bit 0 profiler, bit 1 at
 *  least one active guard).  Read inline by the interposed
 *  operators' disabled hot path. */
extern std::atomic<int> g_heap_hooks;
/** Bit 0 of g_heap_hooks as its own flag for inline reads. */
extern std::atomic<int> g_heapprof_running;
/** Set by obs/new_delete.cpp's static initializer when the
 *  replacement operators are linked into this binary. */
extern std::atomic<bool> g_heap_interposed;

/** Allocation/free hooks called by the replacement operators.
 *  Reentrancy-guarded (allocations made while recording are not
 *  recorded) and no-ops while g_heap_hooks is zero. */
void heapOnAlloc(void* p, std::size_t size) noexcept;
void heapOnFree(void* p) noexcept;

/** Async-signal-safe counter digest for post-mortem dumps (relaxed
 *  atomic loads only; no locks, no allocation). */
struct HeapDumpCounters
{
    std::int64_t currentBytes;
    std::int64_t peakBytes;
    std::int64_t allocCount;
    std::int64_t allocBytes;
    std::int64_t freeCount;
    std::int64_t freeBytes;
    std::int64_t samples;
    std::int64_t guardViolations;
};
HeapDumpCounters heapDumpCounters() noexcept;
} // namespace detail

/** True when the replacement operator new/delete set is linked (false
 *  under sanitizer builds); heap accounting is inert otherwise. */
inline bool
heapInterpositionActive()
{
    return detail::g_heap_interposed.load(std::memory_order_relaxed);
}

/** True while the sampling heap profiler is armed. */
inline bool
heapProfilerRunning()
{
    return detail::g_heapprof_running.load(
               std::memory_order_relaxed) != 0;
}

/** True when MRQ_HEAPPROF is truthy or MRQ_HEAPPROF_OUT is set. */
bool heapProfilerEnabledFromEnv();

/** Sampling interval: MRQ_HEAPPROF_INTERVAL bytes clamped to
 *  [4096, 1 GiB]; kHeapDefaultIntervalBytes when unset. */
std::int64_t heapProfilerIntervalBytes();

/** MRQ_HEAPPROF_OUT ("" when unset); may contain "{run}". */
std::string heapOutPath();

/**
 * Arm the sampling profiler (idempotent; false when already running
 * or the interposition is not linked).  @p interval_bytes overrides
 * the env-derived interval when > 0.  Serial context only.
 */
bool startHeapProfiler(std::int64_t interval_bytes = 0);

/** startHeapProfiler() when heapProfilerEnabledFromEnv(). */
bool startHeapProfilerFromEnv();

/** Disarm the profiler; the aggregated profile survives for
 *  flushing.  Serial context only. */
void stopHeapProfiler();

/** Sampled stacks since the last resetHeapProfile(). */
std::int64_t heapSampleCount();

/** Bytes those samples represent (every allocated byte lands in
 *  exactly one sample's weight). */
std::int64_t heapSampledBytes();

/** Drop aggregated stacks, zero the alloc/free totals and per-thread
 *  churn, and rebase the peak to the current level — the bench
 *  harness calls this per case.  Serial context only. */
void resetHeapProfile();

/** Live heap totals (since the last resetHeapProfile()).  The
 *  current level can briefly read negative-adjacent when frees of
 *  pre-arming allocations outnumber tracked allocations; it is
 *  clamped at zero. */
struct HeapStats
{
    std::int64_t currentBytes = 0;
    std::int64_t peakBytes = 0;
    std::int64_t allocCount = 0;
    std::int64_t allocBytes = 0;
    std::int64_t freeCount = 0;
    std::int64_t freeBytes = 0;
    std::int64_t samples = 0;
    std::int64_t sampledBytes = 0;
    std::int64_t guardViolations = 0;
};
HeapStats heapStatsSnapshot();

/** Per-thread allocation churn (merged by flight name). */
struct HeapThreadChurn
{
    std::string name;
    std::int64_t allocBytes = 0;
    std::int64_t allocCount = 0;
};
std::vector<HeapThreadChurn> heapThreadChurn();

/** Aggregated allocation stacks (thread ""), most bytes first
 *  (obs::profileStacks order; weight = sampled bytes). */
std::vector<ProfileStack> heapStacks();

/** Write the kind "heap" profile (totals: interval_bytes, samples,
 *  sampled_bytes, current_bytes, peak_bytes, alloc/free counts and
 *  bytes, guard_violations; thread rows: alloc_bytes, alloc_count) to
 *  @p path via AtomicFile. */
bool writeHeapProfile(const std::string& path);

/** Write MRQ_HEAPPROF_OUT (with "{run}" replaced by @p run).  True
 *  when nothing was lost. */
bool flushHeapProfile(const std::string& run);

// ---- No-alloc guard regions ---------------------------------------

/** What AllocGuard does about violations. */
enum class AllocGuardMode : int
{
    Off = 0,    ///< Guards are inert.
    On = 1,     ///< Violations -> watchdog alert + counter.
    Strict = 2, ///< Alert, then backtrace to stderr and exit 70.
};

/** MRQ_ALLOC_GUARD: "1"/"true"/"on" -> On, "strict" -> Strict,
 *  anything else Off (same vocabulary as MRQ_WATCHDOG). */
AllocGuardMode allocGuardModeFromEnv();

/** The effective mode (env, cached, unless overridden). */
AllocGuardMode allocGuardMode();

/** Test override; returns the previous effective mode. */
AllocGuardMode setAllocGuardMode(AllocGuardMode mode);

/** Violations recorded process-wide since the last reset. */
std::int64_t allocGuardViolationTotal();

/** Zero the violation totals and the captured backtrace (tests). */
void resetAllocGuardViolations();

/**
 * RAII "this path must not allocate" region.  Inert when the mode is
 * Off, @p enable is false, or the interposition is not linked.
 * Violations are detected by the allocation hook while any guard is
 * active on the allocating thread and reported by the destructor.
 * Normal context only; guards may nest.
 */
class AllocGuard
{
  public:
    /** @p site names the region in alerts ("trainer.opt_step"); it
     *  must outlive the guard (string literals). */
    explicit AllocGuard(const char* site, bool enable = true);
    ~AllocGuard();

    AllocGuard(const AllocGuard&) = delete;
    AllocGuard& operator=(const AllocGuard&) = delete;

    /** Forgive this region: the destructor reports nothing. */
    void dismiss() { dismissed_ = true; }

    /** True when the guard is actually enforcing. */
    bool active() const { return active_; }

    /** Violations recorded process-wide since this guard opened. */
    std::int64_t violations() const;

  private:
    const char* site_;
    const char* prevSite_;
    std::int64_t entryViolations_ = 0;
    bool active_ = false;
    bool dismissed_ = false;
};

/** Guard depth of the calling thread (for pool inheritance). */
int currentAllocGuardDepth();

/** Innermost active guard site of the calling thread (nullptr when
 *  unguarded). */
const char* currentAllocGuardSite();

/** Extends a caller's guard into a worker thread for one job, like
 *  obs::InheritedTracePath: enforcement only — reporting stays with
 *  the originating AllocGuard after the parallel region joins. */
class InheritedAllocGuard
{
  public:
    InheritedAllocGuard(int depth, const char* site);
    ~InheritedAllocGuard();

    InheritedAllocGuard(const InheritedAllocGuard&) = delete;
    InheritedAllocGuard& operator=(const InheritedAllocGuard&) =
        delete;

  private:
    int prevDepth_;
    const char* prevSite_;
    bool armed_ = false;
};

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_HEAP_PROFILER_HPP
