/**
 * @file
 * Heap-profiler implementation.  See heap_profiler.hpp for the model.
 *
 * Everything the hooks touch before deciding they are off is
 * constant-initialized BSS (atomics, plain-POD thread_locals), so the
 * replacement operators are safe from the first pre-main allocation
 * to the last static destructor.  Once armed, recording is guarded by
 * a thread_local reentrancy flag: any allocation the profiler itself
 * makes (aggregation-map nodes, thread_local registration, the
 * symbol cache) passes through unrecorded instead of recursing.
 *
 * Mutable shared state that outlives arming (the heap stack
 * aggregate of obs/stack_profile.hpp) is intentionally immortal —
 * never destroyed — because interposed operator delete keeps running
 * through static destruction and must never race a dying mutex.
 */

#include "obs/heap_profiler.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include <execinfo.h>
#include <malloc.h>

#include "kernels/roofline.hpp"
#include "obs/env.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mrq {
namespace obs {

namespace detail {
std::atomic<int> g_heap_hooks{0};
std::atomic<int> g_heapprof_running{0};
std::atomic<bool> g_heap_interposed{false};
} // namespace detail

namespace {

// ---- constant-initialized hot state -------------------------------

thread_local bool t_in_hook = false;
thread_local long long t_accum_bytes = 0;
thread_local int t_guard_depth = 0;
thread_local const char* t_guard_site = nullptr;

std::atomic<std::int64_t> g_current_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};
std::atomic<std::int64_t> g_alloc_count{0};
std::atomic<std::int64_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_free_count{0};
std::atomic<std::int64_t> g_free_bytes{0};
std::atomic<std::int64_t> g_samples{0};
std::atomic<std::int64_t> g_sampled_bytes{0};
std::atomic<std::int64_t> g_interval_bytes{kHeapDefaultIntervalBytes};

std::atomic<int> g_active_guards{0};
std::atomic<std::int64_t> g_guard_violations{0};
std::atomic<int> g_guard_mode{-1}; // -1 = read MRQ_ALLOC_GUARD lazily

// First violating allocation, captured once: 0 empty, 1 being
// written, 2 ready for the reporting guard to symbolize.
std::atomic<int> g_violation_state{0};
void* g_violation_pcs[kHeapMaxFrames];
int g_violation_nframes = 0;
long long g_violation_size = 0;
const char* g_violation_site = nullptr;
char g_violation_thread[kFlightThreadNameCap] = {};

// ---- per-thread churn slots (sampler slot pattern) ----------------

struct HeapSlot
{
    std::atomic<int> state; // 0 free, 1 live, 2 retired
    char name[kFlightThreadNameCap];
    std::atomic<std::int64_t> allocBytes;
    std::atomic<std::int64_t> allocCount;
};

HeapSlot g_heap_slots[kHeapMaxThreads];
std::mutex g_heap_slot_mutex; // guards acquisition + names

thread_local HeapSlot* t_heap_slot = nullptr;

struct HeapSlotRetirer
{
    ~HeapSlotRetirer()
    {
        HeapSlot* slot = t_heap_slot;
        t_heap_slot = nullptr;
        if (slot != nullptr)
            slot->state.store(2, std::memory_order_release);
    }
};

/** Register the calling thread's churn slot.  Only reached with
 *  t_in_hook set, so the __cxa_thread_atexit allocation made by the
 *  retirer registration is never itself recorded. */
HeapSlot*
ensureHeapSlot()
{
    if (t_heap_slot != nullptr)
        return t_heap_slot;
    static thread_local HeapSlotRetirer retirer;
    (void)retirer;
    std::lock_guard<std::mutex> lock(g_heap_slot_mutex);
    HeapSlot* found = nullptr;
    for (auto& slot : g_heap_slots) {
        const int state = slot.state.load(std::memory_order_relaxed);
        if (state == 0 || state == 2) {
            found = &slot;
            break;
        }
    }
    if (found == nullptr)
        return nullptr;
    found->allocBytes.store(0, std::memory_order_relaxed);
    found->allocCount.store(0, std::memory_order_relaxed);
    const char* name = currentThreadFlightName();
    if (name[0] != '\0') {
        std::snprintf(found->name, sizeof found->name, "%s", name);
    } else {
        std::snprintf(found->name, sizeof found->name, "thread-%td",
                      found - g_heap_slots);
    }
    found->state.store(1, std::memory_order_release);
    t_heap_slot = found;
    return found;
}

/** glibc's backtrace() dlopens libgcc (with malloc) on first use;
 *  run it once from normal context before any capture site needs
 *  it.  Idempotent, thread-safe via the static guard. */
void
warmBacktrace()
{
    static const bool warmed = [] {
        void* frames[4];
        backtrace(frames, 4);
        return true;
    }();
    (void)warmed;
}

/** Charge @p weight_bytes to the calling thread's current (span,
 *  kernel, stack).  Reached with t_in_hook set; allocation and
 *  locking are therefore fine here — sampling fires once per
 *  interval, not per allocation. */
void
takeSample(std::int64_t weight_bytes)
{
    StackKey key;
    key.pathId = currentTracePathId();
    key.kernel = kernels::activeKernelSampleTag();
    // Three frames of plumbing sit on top of the allocating caller:
    // takeSample, heapOnAlloc and the replacement operator itself.
    void* pcs[kHeapMaxFrames + 3];
    const int n =
        backtrace(pcs, static_cast<int>(kHeapMaxFrames + 3));
    const int skip = n > 3 ? 3 : n;
    const int keep = n - skip;
    key.pcs.reserve(static_cast<std::size_t>(keep > 0 ? keep : 0));
    for (int i = 0; i < keep; ++i)
        key.pcs.push_back(
            reinterpret_cast<std::uintptr_t>(pcs[i + skip]));
    // Counters first, stack second: a profile copies the stacks
    // before it reads the counters, so its stacks never outweigh its
    // sampled_bytes total.
    g_samples.fetch_add(1, std::memory_order_relaxed);
    g_sampled_bytes.fetch_add(weight_bytes,
                              std::memory_order_relaxed);
    stackAggregate(ProfileKind::Heap).add(std::move(key), weight_bytes);
}

/** Count a guarded-region violation; the first one process-wide also
 *  captures its backtrace for the reporting guard to symbolize. */
void
recordViolation(std::size_t size)
{
    g_guard_violations.fetch_add(1, std::memory_order_relaxed);
    int expected = 0;
    if (!g_violation_state.compare_exchange_strong(
            expected, 1, std::memory_order_acq_rel))
        return;
    g_violation_size = static_cast<long long>(size);
    g_violation_site = t_guard_site;
    std::snprintf(g_violation_thread, sizeof g_violation_thread, "%s",
                  currentThreadFlightName());
    void* pcs[kHeapMaxFrames + 3];
    const int n =
        backtrace(pcs, static_cast<int>(kHeapMaxFrames + 3));
    const int skip = n > 3 ? 3 : n;
    int keep = n - skip;
    if (keep > static_cast<int>(kHeapMaxFrames))
        keep = static_cast<int>(kHeapMaxFrames);
    for (int i = 0; i < keep; ++i)
        g_violation_pcs[i] = pcs[i + skip];
    g_violation_nframes = keep > 0 ? keep : 0;
    g_violation_state.store(2, std::memory_order_release);
}

std::int64_t
clampInterval(std::int64_t bytes)
{
    if (bytes < 4096)
        return 4096;
    if (bytes > (1LL << 30))
        return 1LL << 30;
    return bytes;
}

} // namespace

namespace detail {

void
heapOnAlloc(void* p, std::size_t size) noexcept
{
    if (p == nullptr)
        return;
    const int hooks = g_heap_hooks.load(std::memory_order_relaxed);
    if (hooks == 0)
        return;
    if (t_in_hook)
        return;
    t_in_hook = true;
    std::size_t charged = malloc_usable_size(p);
    if (charged == 0)
        charged = size;
    const std::int64_t bytes = static_cast<std::int64_t>(charged);
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
    const std::int64_t cur =
        g_current_bytes.fetch_add(bytes, std::memory_order_relaxed) +
        bytes;
    std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
    while (cur > peak &&
           !g_peak_bytes.compare_exchange_weak(
               peak, cur, std::memory_order_relaxed)) {
    }
    HeapSlot* slot = ensureHeapSlot();
    if (slot != nullptr) {
        slot->allocBytes.fetch_add(bytes, std::memory_order_relaxed);
        slot->allocCount.fetch_add(1, std::memory_order_relaxed);
    }
    if (t_guard_depth > 0)
        recordViolation(size);
    if ((hooks & 1) != 0) {
        t_accum_bytes += bytes;
        if (t_accum_bytes >=
            g_interval_bytes.load(std::memory_order_relaxed)) {
            takeSample(t_accum_bytes);
            t_accum_bytes = 0;
        }
    }
    t_in_hook = false;
}

void
heapOnFree(void* p) noexcept
{
    if (p == nullptr)
        return;
    if (g_heap_hooks.load(std::memory_order_relaxed) == 0)
        return;
    if (t_in_hook)
        return;
    t_in_hook = true;
    const std::int64_t bytes =
        static_cast<std::int64_t>(malloc_usable_size(p));
    g_free_count.fetch_add(1, std::memory_order_relaxed);
    g_free_bytes.fetch_add(bytes, std::memory_order_relaxed);
    // Frees of allocations made before arming drive this below zero;
    // readers clamp.
    g_current_bytes.fetch_sub(bytes, std::memory_order_relaxed);
    t_in_hook = false;
}

HeapDumpCounters
heapDumpCounters() noexcept
{
    HeapDumpCounters c;
    const std::int64_t cur =
        g_current_bytes.load(std::memory_order_relaxed);
    c.currentBytes = cur > 0 ? cur : 0;
    // An allocation publishes its new level before it raises the
    // peak; a reader in between still reports peak >= current.
    const std::int64_t peak =
        g_peak_bytes.load(std::memory_order_relaxed);
    c.peakBytes = peak > c.currentBytes ? peak : c.currentBytes;
    c.allocCount = g_alloc_count.load(std::memory_order_relaxed);
    c.allocBytes = g_alloc_bytes.load(std::memory_order_relaxed);
    c.freeCount = g_free_count.load(std::memory_order_relaxed);
    c.freeBytes = g_free_bytes.load(std::memory_order_relaxed);
    c.samples = g_samples.load(std::memory_order_relaxed);
    c.guardViolations =
        g_guard_violations.load(std::memory_order_relaxed);
    return c;
}

} // namespace detail

// ---- knobs / lifecycle --------------------------------------------

bool
heapProfilerEnabledFromEnv()
{
    return envTruthy("MRQ_HEAPPROF") || envSet("MRQ_HEAPPROF_OUT");
}

std::int64_t
heapProfilerIntervalBytes()
{
    return clampInterval(envLong("MRQ_HEAPPROF_INTERVAL",
                                 kHeapDefaultIntervalBytes));
}

std::string
heapOutPath()
{
    return envValue("MRQ_HEAPPROF_OUT", "");
}

bool
startHeapProfiler(std::int64_t interval_bytes)
{
    if (!heapInterpositionActive() || heapProfilerRunning())
        return false;
    warmBacktrace();
    (void)traceEnabled();
    (void)currentTracePathId();
    g_interval_bytes.store(interval_bytes > 0
                               ? clampInterval(interval_bytes)
                               : heapProfilerIntervalBytes(),
                           std::memory_order_relaxed);
    detail::g_heapprof_running.store(1, std::memory_order_relaxed);
    detail::g_heap_hooks.fetch_or(1, std::memory_order_relaxed);
    flightMark("heapprof.start",
               g_interval_bytes.load(std::memory_order_relaxed));
    return true;
}

bool
startHeapProfilerFromEnv()
{
    if (!heapProfilerEnabledFromEnv())
        return false;
    return startHeapProfiler();
}

void
stopHeapProfiler()
{
    if (!heapProfilerRunning())
        return;
    detail::g_heapprof_running.store(0, std::memory_order_relaxed);
    detail::g_heap_hooks.fetch_and(~1, std::memory_order_relaxed);
    flightMark("heapprof.stop", heapSampleCount());
}

std::int64_t
heapSampleCount()
{
    return g_samples.load(std::memory_order_relaxed);
}

std::int64_t
heapSampledBytes()
{
    return g_sampled_bytes.load(std::memory_order_relaxed);
}

void
resetHeapProfile()
{
    stackAggregate(ProfileKind::Heap).clear();
    g_samples.store(0, std::memory_order_relaxed);
    g_sampled_bytes.store(0, std::memory_order_relaxed);
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_alloc_bytes.store(0, std::memory_order_relaxed);
    g_free_count.store(0, std::memory_order_relaxed);
    g_free_bytes.store(0, std::memory_order_relaxed);
    const std::int64_t cur =
        g_current_bytes.load(std::memory_order_relaxed);
    g_peak_bytes.store(cur > 0 ? cur : 0,
                       std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(g_heap_slot_mutex);
    for (auto& slot : g_heap_slots) {
        if (slot.state.load(std::memory_order_acquire) == 0)
            continue;
        slot.allocBytes.store(0, std::memory_order_relaxed);
        slot.allocCount.store(0, std::memory_order_relaxed);
    }
}

// ---- snapshots ----------------------------------------------------

HeapStats
heapStatsSnapshot()
{
    HeapStats s;
    const detail::HeapDumpCounters c = detail::heapDumpCounters();
    s.currentBytes = c.currentBytes;
    s.peakBytes = c.peakBytes;
    s.allocCount = c.allocCount;
    s.allocBytes = c.allocBytes;
    s.freeCount = c.freeCount;
    s.freeBytes = c.freeBytes;
    s.samples = c.samples;
    s.sampledBytes = heapSampledBytes();
    s.guardViolations = c.guardViolations;
    return s;
}

std::vector<HeapThreadChurn>
heapThreadChurn()
{
    std::map<std::string, HeapThreadChurn> merged;
    std::lock_guard<std::mutex> lock(g_heap_slot_mutex);
    for (auto& slot : g_heap_slots) {
        if (slot.state.load(std::memory_order_acquire) == 0)
            continue;
        HeapThreadChurn& c = merged[slot.name];
        c.name = slot.name;
        c.allocBytes +=
            slot.allocBytes.load(std::memory_order_relaxed);
        c.allocCount +=
            slot.allocCount.load(std::memory_order_relaxed);
    }
    std::vector<HeapThreadChurn> out;
    out.reserve(merged.size());
    for (auto& kv : merged)
        out.push_back(std::move(kv.second));
    return out;
}

std::vector<ProfileStack>
heapStacks()
{
    StackMap agg;
    {
        // Copying the map allocates; a sample taken mid-copy would
        // re-enter the aggregate's mutex on this thread and deadlock,
        // so the copy must run with the hook suppressed.
        const bool prev_in_hook = t_in_hook;
        t_in_hook = true;
        agg = stackAggregate(ProfileKind::Heap).copy();
        t_in_hook = prev_in_hook;
    }
    return profileStacks(agg);
}

bool
writeHeapProfile(const std::string& path)
{
    ProfileDoc doc;
    doc.kind = ProfileKind::Heap;
    doc.stacks = heapStacks();
    const HeapStats t = heapStatsSnapshot();
    doc.totals = {{"interval_bytes",
                   g_interval_bytes.load(std::memory_order_relaxed)},
                  {"samples", t.samples},
                  {"sampled_bytes", t.sampledBytes},
                  {"current_bytes", t.currentBytes},
                  {"peak_bytes", t.peakBytes},
                  {"alloc_count", t.allocCount},
                  {"alloc_bytes", t.allocBytes},
                  {"free_count", t.freeCount},
                  {"free_bytes", t.freeBytes},
                  {"guard_violations", t.guardViolations}};
    for (const HeapThreadChurn& c : heapThreadChurn())
        doc.threads.push_back({c.name,
                               {{"alloc_bytes", c.allocBytes},
                                {"alloc_count", c.allocCount}}});
    return writeStackProfile(path, doc);
}

bool
flushHeapProfile(const std::string& run)
{
    const std::string out = heapOutPath();
    return out.empty() || writeHeapProfile(resolveRunPath(out, run));
}

// ---- no-alloc guards ----------------------------------------------

AllocGuardMode
allocGuardModeFromEnv()
{
    const std::string v = envValue("MRQ_ALLOC_GUARD", "");
    if (v == "strict")
        return AllocGuardMode::Strict;
    if (truthy(v.c_str()))
        return AllocGuardMode::On;
    return AllocGuardMode::Off;
}

AllocGuardMode
allocGuardMode()
{
    int mode = g_guard_mode.load(std::memory_order_relaxed);
    if (mode < 0) {
        mode = static_cast<int>(allocGuardModeFromEnv());
        g_guard_mode.store(mode, std::memory_order_relaxed);
    }
    return static_cast<AllocGuardMode>(mode);
}

AllocGuardMode
setAllocGuardMode(AllocGuardMode mode)
{
    const AllocGuardMode prev = allocGuardMode();
    g_guard_mode.store(static_cast<int>(mode),
                       std::memory_order_relaxed);
    return prev;
}

std::int64_t
allocGuardViolationTotal()
{
    return g_guard_violations.load(std::memory_order_relaxed);
}

void
resetAllocGuardViolations()
{
    g_guard_violations.store(0, std::memory_order_relaxed);
    g_violation_state.store(0, std::memory_order_relaxed);
}

namespace {

/** Destructor-context violation reporting: watchdog alert + flight
 *  mark + counter; strict mode prints the captured backtrace and
 *  exits with the watchdog strict-fatal code. */
void
reportGuardViolations(const char* site, std::int64_t count,
                      AllocGuardMode mode)
{
    static Counter violation_counter("alloc_guard.violations");
    violation_counter.add(count);
    flightMark("alloc_guard.violation", count);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%lld allocation(s) inside no-alloc region",
                  static_cast<long long>(count));
    std::string detail = buf;
    const bool captured =
        g_violation_state.load(std::memory_order_acquire) == 2;
    if (captured && g_violation_nframes > 0) {
        std::snprintf(buf, sizeof buf, "; first: %lld bytes at ",
                      g_violation_size);
        detail += buf;
        detail += symbolizePc(reinterpret_cast<std::uintptr_t>(
            g_violation_pcs[0]));
    }
    if (metricsEnabled())
        MetricsRegistry::instance().recordAlert(
            mode == AllocGuardMode::Strict ? "fatal" : "warn",
            "alloc_guard", site, -1, detail);
    if (mode != AllocGuardMode::Strict)
        return;
    std::fprintf(stderr,
                 "mrq: alloc_guard: %lld allocation(s) inside "
                 "no-alloc region [%s]\n",
                 static_cast<long long>(count), site);
    if (captured) {
        std::fprintf(
            stderr, "mrq: alloc_guard: first violation: %lld bytes "
                    "on thread %s (site %s)\n",
            g_violation_size,
            g_violation_thread[0] != '\0' ? g_violation_thread
                                          : "unknown",
            g_violation_site != nullptr ? g_violation_site : site);
        for (int i = 0; i < g_violation_nframes; ++i) {
            const std::uintptr_t pc =
                reinterpret_cast<std::uintptr_t>(
                    g_violation_pcs[i]);
            std::fprintf(stderr, "mrq: alloc_guard:   #%d %s\n", i,
                         symbolizePc(pc).c_str());
        }
    }
    // std::exit skips the RunScope destructor; flush its sinks
    // first so the run that died still leaves its artifacts.
    flushActiveRunScope();
    std::exit(kAllocGuardExitCode);
}

} // namespace

AllocGuard::AllocGuard(const char* site, bool enable)
    : site_(site), prevSite_(t_guard_site)
{
    if (!enable || site == nullptr)
        return;
    if (allocGuardMode() == AllocGuardMode::Off)
        return;
    if (!heapInterpositionActive())
        return;
    warmBacktrace();
    entryViolations_ =
        g_guard_violations.load(std::memory_order_relaxed);
    ++t_guard_depth;
    t_guard_site = site;
    if (g_active_guards.fetch_add(1, std::memory_order_relaxed) == 0)
        detail::g_heap_hooks.fetch_or(2, std::memory_order_relaxed);
    active_ = true;
}

AllocGuard::~AllocGuard()
{
    if (!active_)
        return;
    --t_guard_depth;
    t_guard_site = prevSite_;
    if (g_active_guards.fetch_sub(1, std::memory_order_relaxed) == 1)
        detail::g_heap_hooks.fetch_and(~2,
                                       std::memory_order_relaxed);
    if (dismissed_)
        return;
    const std::int64_t got = violations();
    if (got > 0)
        reportGuardViolations(site_, got, allocGuardMode());
}

std::int64_t
AllocGuard::violations() const
{
    if (!active_)
        return 0;
    return g_guard_violations.load(std::memory_order_relaxed) -
           entryViolations_;
}

int
currentAllocGuardDepth()
{
    return t_guard_depth;
}

const char*
currentAllocGuardSite()
{
    return t_guard_site;
}

InheritedAllocGuard::InheritedAllocGuard(int depth, const char* site)
    : prevDepth_(t_guard_depth), prevSite_(t_guard_site)
{
    if (depth <= 0)
        return;
    if (allocGuardMode() == AllocGuardMode::Off)
        return;
    if (!heapInterpositionActive())
        return;
    t_guard_depth += depth;
    if (site != nullptr)
        t_guard_site = site;
    // The submitter's own AllocGuard normally keeps the hook bit
    // armed for the whole parallel region, but a worker can outlive
    // that window (or, in tests, run with no outer guard at all) —
    // hold an arm refcount of our own.
    if (g_active_guards.fetch_add(1, std::memory_order_relaxed) == 0)
        detail::g_heap_hooks.fetch_or(2, std::memory_order_relaxed);
    armed_ = true;
}

InheritedAllocGuard::~InheritedAllocGuard()
{
    if (!armed_)
        return;
    t_guard_depth = prevDepth_;
    t_guard_site = prevSite_;
    if (g_active_guards.fetch_sub(1, std::memory_order_relaxed) == 1)
        detail::g_heap_hooks.fetch_and(~2,
                                       std::memory_order_relaxed);
}

} // namespace obs
} // namespace mrq
