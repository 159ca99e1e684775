/**
 * @file
 * Sampling-profiler implementation.  See sampler.hpp for the model.
 *
 * Storage layout mirrors the flight recorder: a static BSS array of
 * per-thread slots (ring + off-CPU accumulators), acquired under a
 * small mutex from *normal context only* — slot acquisition registers
 * a thread_local retirer whose __cxa_thread_atexit hookup allocates,
 * which a signal handler must never do.  The SIGPROF handler itself
 * touches only its own thread's slot: one relaxed load of the write
 * counter, one acquire load of the read counter, a backtrace() into
 * the pre-sized ring entry, and a release store publishing it.  When
 * the ring is full or the thread never registered, the sample is
 * dropped and counted — drop-newest, so entries the drain thread is
 * copying are never overwritten.
 */

#include "obs/sampler.hpp"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include <execinfo.h>
#include <pthread.h>
#include <sys/time.h>

#include "kernels/roofline.hpp"
#include "obs/env.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace mrq {
namespace obs {

namespace detail {
std::atomic<int> g_sampler_running{0};
} // namespace detail

namespace {

/** One captured sample (POD; lives in the static rings). */
struct Sample
{
    std::int32_t pathId;
    std::int16_t kernel;
    std::uint16_t nframes;
    void* pc[kSampleMaxFrames];
};

/** Per-thread ring + wall-clock state accumulators.  Single-producer
 *  (the owning thread, possibly from the SIGPROF handler) /
 *  single-consumer (the drain thread). */
struct SampleSlot
{
    std::atomic<int> state; // 0 free, 1 live, 2 retired
    char name[kFlightThreadNameCap];
    std::atomic<std::uint64_t> writes;
    std::atomic<std::uint64_t> reads;
    Sample ring[kSampleRingCap];
    // Off-CPU accounting: owner-written, breakdown-read (relaxed —
    // monotonic counters, approximate reads are fine).
    std::atomic<std::int64_t> stateNs[3];
    std::atomic<int> curState;
    std::atomic<std::int64_t> curSince;
};

SampleSlot g_slots[kSampleMaxThreads];
std::mutex g_slot_mutex; // guards acquisition + names

thread_local SampleSlot* t_slot = nullptr;

std::atomic<std::int64_t> g_samples{0};
std::atomic<std::int64_t> g_dropped{0};
std::atomic<int> g_force_sample{0};
std::atomic<bool> g_handler_installed{false};

std::int64_t g_period_ns = 0; // set in startSampler (serial)

std::thread g_drainer;
std::mutex g_drain_mutex; // serializes drainOnce callers
std::mutex g_drain_cv_mutex;
std::condition_variable g_drain_cv;
bool g_drain_stop = false;

/** Retires this thread's slot at thread exit; the ring stays
 *  drainable until reclaimed.  Instantiated from normal context only
 *  (registration allocates via __cxa_thread_atexit). */
struct SlotRetirer
{
    ~SlotRetirer()
    {
        SampleSlot* slot = t_slot;
        t_slot = nullptr;
        if (slot != nullptr)
            slot->state.store(2, std::memory_order_release);
    }
};

/** Register the calling thread's slot (normal context only). */
SampleSlot*
ensureSlot()
{
    if (t_slot != nullptr)
        return t_slot;
    static thread_local SlotRetirer retirer;
    (void)retirer;
    std::lock_guard<std::mutex> lock(g_slot_mutex);
    SampleSlot* found = nullptr;
    for (auto& slot : g_slots) {
        if (slot.state.load(std::memory_order_relaxed) == 0) {
            found = &slot;
            break;
        }
    }
    if (found == nullptr) {
        // Reclaim a fully drained retired slot (drop-oldest thread).
        for (auto& slot : g_slots) {
            if (slot.state.load(std::memory_order_relaxed) == 2 &&
                slot.reads.load(std::memory_order_relaxed) ==
                    slot.writes.load(std::memory_order_relaxed)) {
                found = &slot;
                break;
            }
        }
    }
    if (found == nullptr)
        return nullptr;
    found->writes.store(0, std::memory_order_relaxed);
    found->reads.store(0, std::memory_order_relaxed);
    for (auto& ns : found->stateNs)
        ns.store(0, std::memory_order_relaxed);
    found->curState.store(static_cast<int>(ThreadState::Busy),
                          std::memory_order_relaxed);
    found->curSince.store(nowNs(), std::memory_order_relaxed);
    const char* name = currentThreadFlightName();
    if (name[0] != '\0') {
        std::snprintf(found->name, sizeof found->name, "%s", name);
    } else {
        std::snprintf(found->name, sizeof found->name, "thread-%td",
                      found - g_slots);
    }
    found->state.store(1, std::memory_order_release);
    t_slot = found;
    return found;
}

/**
 * The SIGPROF handler.  Async-signal-safe: errno save/restore, atomic
 * loads/stores, backtrace() (warmed at startSampler so glibc's lazy
 * libgcc dlopen never runs here), currentTracePathId() (plain POD
 * thread_local) and activeKernelSampleTag() (relaxed atomic load).
 */
void
sampleHandler(int, siginfo_t*, void*)
{
    const int saved_errno = errno;
    const bool forced =
        g_force_sample.load(std::memory_order_relaxed) != 0;
    if (forced)
        g_force_sample.store(0, std::memory_order_relaxed);
    if (detail::g_sampler_running.load(std::memory_order_relaxed) ==
            0 &&
        !forced) {
        errno = saved_errno;
        return;
    }
    SampleSlot* slot = t_slot;
    if (slot == nullptr) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        errno = saved_errno;
        return;
    }
    const std::uint64_t w = slot->writes.load(std::memory_order_relaxed);
    const std::uint64_t r = slot->reads.load(std::memory_order_acquire);
    if (w - r >= kSampleRingCap) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        errno = saved_errno;
        return;
    }
    Sample& s = slot->ring[w % kSampleRingCap];
    s.pathId = currentTracePathId();
    s.kernel =
        static_cast<std::int16_t>(kernels::activeKernelSampleTag());
    // Two extra frames cover this handler and the signal trampoline,
    // which we strip so frames[0] is the interrupted PC.
    void* pcs[kSampleMaxFrames + 2];
    const int n =
        backtrace(pcs, static_cast<int>(kSampleMaxFrames + 2));
    const int skip = n > 2 ? 2 : n;
    int keep = n - skip;
    if (keep > static_cast<int>(kSampleMaxFrames))
        keep = static_cast<int>(kSampleMaxFrames);
    for (int i = 0; i < keep; ++i)
        s.pc[i] = pcs[i + skip];
    s.nframes = static_cast<std::uint16_t>(keep < 0 ? 0 : keep);
    slot->writes.store(w + 1, std::memory_order_release);
    g_samples.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
}

/** Empty every ring into the aggregation map.  Serialized so the
 *  drain thread and emission-time callers never interleave on the
 *  consumer counters. */
std::size_t
drainOnce()
{
    std::lock_guard<std::mutex> drain_lock(g_drain_mutex);
    std::size_t total = 0;
    for (auto& slot : g_slots) {
        if (slot.state.load(std::memory_order_acquire) == 0)
            continue;
        std::uint64_t r = slot.reads.load(std::memory_order_relaxed);
        const std::uint64_t w =
            slot.writes.load(std::memory_order_acquire);
        if (r == w)
            continue;
        std::string name;
        {
            std::lock_guard<std::mutex> lock(g_slot_mutex);
            name = slot.name;
        }
        StackAggregate& agg = stackAggregate(ProfileKind::Cpu);
        for (; r != w; ++r) {
            const Sample& s = slot.ring[r % kSampleRingCap];
            StackKey key;
            key.thread = name;
            key.pathId = s.pathId;
            key.kernel = s.kernel;
            key.pcs.reserve(s.nframes);
            for (std::uint16_t i = 0; i < s.nframes; ++i)
                key.pcs.push_back(
                    reinterpret_cast<std::uintptr_t>(s.pc[i]));
            agg.add(std::move(key), g_period_ns);
            ++total;
        }
        slot.reads.store(w, std::memory_order_release);
    }
    if (total > 0)
        flightMark("sampler.drain",
                   static_cast<std::int64_t>(total));
    return total;
}

/** Periodic flight-recorder checkpoint of the per-thread wall-clock
 *  decomposition (a=busy, b=queue-wait, v=idle, all ns). */
void
checkpointThreadTimes()
{
    for (const ThreadTime& t : threadTimeBreakdown()) {
        const std::string name = "tstate." + t.name;
        flightRecord(FlightKind::Metric, name.c_str(), t.busyNs,
                     t.queueWaitNs, static_cast<double>(t.idleNs));
    }
}

void
drainLoop()
{
    blockSamplingInThisThread();
    setCurrentThreadName("mrq-sampler");
    int tick = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(g_drain_cv_mutex);
            g_drain_cv.wait_for(lock, std::chrono::milliseconds(100),
                                [] { return g_drain_stop; });
            if (g_drain_stop)
                return;
        }
        drainOnce();
        if (++tick % 10 == 0)
            checkpointThreadTimes();
    }
}

} // namespace

bool
samplerEnabledFromEnv()
{
    return envTruthy("MRQ_SAMPLE");
}

long
samplerHz()
{
    long hz = envLong("MRQ_SAMPLE_HZ", kSampleDefaultHz);
    if (hz < 1)
        hz = 1;
    if (hz > 10000)
        hz = 10000;
    return hz;
}

std::int64_t
samplePeriodNs()
{
    if (g_period_ns > 0)
        return g_period_ns;
    return 1000000000LL / samplerHz();
}

bool
startSampler()
{
    if (samplerRunning())
        return false;
    // Warm every lazy path the handler will hit: glibc's backtrace
    // dlopens libgcc (with malloc) on first use, and the trace plumb
    // may read its env toggle lazily.
    {
        void* warm[4];
        backtrace(warm, 4);
    }
    (void)traceEnabled();
    (void)currentTracePathId();
    ensureSlot();
    // A profile has one period: samples aggregated at another rate
    // would break weight = count * period_ns.
    const std::int64_t period = 1000000000LL / samplerHz();
    if (period != g_period_ns)
        stackAggregate(ProfileKind::Cpu).clear();
    g_period_ns = period;
    if (!g_handler_installed.load(std::memory_order_acquire)) {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_sigaction = sampleHandler;
        sa.sa_flags = SA_RESTART | SA_SIGINFO;
        sigemptyset(&sa.sa_mask);
        if (sigaction(SIGPROF, &sa, nullptr) != 0)
            return false;
        g_handler_installed.store(true, std::memory_order_release);
    }
    {
        std::lock_guard<std::mutex> lock(g_drain_cv_mutex);
        g_drain_stop = false;
    }
    detail::g_sampler_running.store(1, std::memory_order_relaxed);
    g_drainer = std::thread(drainLoop);
    const long hz = samplerHz();
    long usec = 1000000L / hz;
    if (usec < 1)
        usec = 1;
    struct itimerval it;
    it.it_interval.tv_sec = usec / 1000000L;
    it.it_interval.tv_usec = usec % 1000000L;
    it.it_value = it.it_interval;
    if (setitimer(ITIMER_PROF, &it, nullptr) != 0) {
        detail::g_sampler_running.store(0, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(g_drain_cv_mutex);
            g_drain_stop = true;
        }
        g_drain_cv.notify_all();
        if (g_drainer.joinable())
            g_drainer.join();
        return false;
    }
    flightMark("sampler.start", hz);
    // Safety net for env-armed runs that never call stopSampler(): a
    // joinable g_drainer at static destruction would terminate().
    // atexit handlers registered here (after all static init) run
    // before that TU's destructors, so the join is always safe.
    static const bool registered = [] {
        std::atexit([] { stopSampler(); });
        return true;
    }();
    (void)registered;
    return true;
}

bool
startSamplerFromEnv()
{
    if (!samplerEnabledFromEnv())
        return false;
    return startSampler();
}

void
stopSampler()
{
    if (!samplerRunning())
        return;
    struct itimerval off;
    std::memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, nullptr);
    detail::g_sampler_running.store(0, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(g_drain_cv_mutex);
        g_drain_stop = true;
    }
    g_drain_cv.notify_all();
    if (g_drainer.joinable())
        g_drainer.join();
    drainOnce();
    flightMark("sampler.stop", samplerSampleCount());
}

std::int64_t
samplerSampleCount()
{
    return g_samples.load(std::memory_order_relaxed);
}

std::int64_t
samplerDroppedSamples()
{
    return g_dropped.load(std::memory_order_relaxed);
}

void
resetSamplerProfile()
{
    {
        // Discard in-flight ring entries: fast-forward every consumer
        // counter to its producer counter.
        std::lock_guard<std::mutex> drain_lock(g_drain_mutex);
        for (auto& slot : g_slots) {
            if (slot.state.load(std::memory_order_acquire) == 0)
                continue;
            slot.reads.store(
                slot.writes.load(std::memory_order_acquire),
                std::memory_order_release);
        }
    }
    stackAggregate(ProfileKind::Cpu).clear();
    g_samples.store(0, std::memory_order_relaxed);
    g_dropped.store(0, std::memory_order_relaxed);
    resetThreadTime();
}

std::vector<ProfileStack>
samplerStacks()
{
    drainOnce();
    return profileStacks(stackAggregate(ProfileKind::Cpu).copy());
}

bool
writeSampleProfile(const std::string& path)
{
    ProfileDoc doc;
    doc.kind = ProfileKind::Cpu;
    doc.stacks = samplerStacks();
    std::int64_t samples = 0;
    for (const ProfileStack& s : doc.stacks)
        samples += s.count;
    doc.totals = {{"hz", samplerHz()},
                  {"period_ns", samplePeriodNs()},
                  {"samples", samples},
                  {"dropped", samplerDroppedSamples()}};
    for (const ThreadTime& t : threadTimeBreakdown())
        doc.threads.push_back({t.name,
                               {{"busy_ns", t.busyNs},
                                {"queue_wait_ns", t.queueWaitNs},
                                {"idle_ns", t.idleNs}}});
    return writeStackProfile(path, doc);
}

// ---- Off-CPU accounting -------------------------------------------

namespace {

/** Close the current state segment of @p slot at @p now. */
void
accumulateState(SampleSlot* slot, std::int64_t now)
{
    const int cur = slot->curState.load(std::memory_order_relaxed);
    const std::int64_t since =
        slot->curSince.load(std::memory_order_relaxed);
    if (since > 0 && now > since && cur >= 0 && cur < 3)
        slot->stateNs[cur].fetch_add(now - since,
                                     std::memory_order_relaxed);
}

} // namespace

void
noteThreadState(ThreadState state)
{
    if (!threadAccountingOn())
        return;
    SampleSlot* slot = ensureSlot();
    if (slot == nullptr)
        return;
    const std::int64_t now = nowNs();
    accumulateState(slot, now);
    slot->curState.store(static_cast<int>(state),
                         std::memory_order_relaxed);
    slot->curSince.store(now, std::memory_order_relaxed);
}

void
noteThreadBusy(std::int64_t publish_ns)
{
    if (!threadAccountingOn())
        return;
    SampleSlot* slot = ensureSlot();
    if (slot == nullptr)
        return;
    const std::int64_t now = nowNs();
    const std::int64_t since =
        slot->curSince.load(std::memory_order_relaxed);
    if (since > 0 && now > since) {
        // The wait splits at the job's publish time: before it the
        // thread was idle (no work existed), after it the published
        // job was waiting to be picked up.
        std::int64_t split = publish_ns;
        if (split <= since)
            split = split > 0 ? since : now;
        if (split > now)
            split = now;
        if (split > since)
            slot->stateNs[static_cast<int>(ThreadState::Idle)]
                .fetch_add(split - since, std::memory_order_relaxed);
        if (now > split)
            slot->stateNs[static_cast<int>(ThreadState::QueueWait)]
                .fetch_add(now - split, std::memory_order_relaxed);
    }
    slot->curState.store(static_cast<int>(ThreadState::Busy),
                         std::memory_order_relaxed);
    slot->curSince.store(now, std::memory_order_relaxed);
}

std::vector<ThreadTime>
threadTimeBreakdown()
{
    std::map<std::string, ThreadTime> merged;
    const std::int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(g_slot_mutex);
    for (auto& slot : g_slots) {
        const int state = slot.state.load(std::memory_order_acquire);
        if (state == 0)
            continue;
        ThreadTime t;
        t.name = slot.name;
        t.busyNs = slot.stateNs[0].load(std::memory_order_relaxed);
        t.queueWaitNs =
            slot.stateNs[1].load(std::memory_order_relaxed);
        t.idleNs = slot.stateNs[2].load(std::memory_order_relaxed);
        if (state == 1) {
            // Count the in-progress segment up to now.
            const int cur =
                slot.curState.load(std::memory_order_relaxed);
            const std::int64_t since =
                slot.curSince.load(std::memory_order_relaxed);
            if (since > 0 && now > since) {
                if (cur == 0)
                    t.busyNs += now - since;
                else if (cur == 1)
                    t.queueWaitNs += now - since;
                else if (cur == 2)
                    t.idleNs += now - since;
            }
        }
        ThreadTime& m = merged[t.name];
        m.name = t.name;
        m.busyNs += t.busyNs;
        m.queueWaitNs += t.queueWaitNs;
        m.idleNs += t.idleNs;
    }
    std::vector<ThreadTime> out;
    out.reserve(merged.size());
    for (auto& kv : merged)
        out.push_back(std::move(kv.second));
    return out;
}

void
resetThreadTime()
{
    const std::int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(g_slot_mutex);
    for (auto& slot : g_slots) {
        if (slot.state.load(std::memory_order_acquire) == 0)
            continue;
        for (auto& ns : slot.stateNs)
            ns.store(0, std::memory_order_relaxed);
        slot.curSince.store(now, std::memory_order_relaxed);
    }
}

// ---- Signal interplay / test hooks --------------------------------

void
blockSamplingInThisThread()
{
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGPROF);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

bool
debugSampleNow(bool force)
{
    if (!g_handler_installed.load(std::memory_order_acquire))
        return false;
    if (!samplerRunning() && !force)
        return false;
    ensureSlot();
    if (force)
        g_force_sample.store(1, std::memory_order_relaxed);
    raise(SIGPROF);
    return true;
}

} // namespace obs
} // namespace mrq
