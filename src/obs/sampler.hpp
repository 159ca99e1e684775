/**
 * @file
 * Statistical sampling profiler with off-CPU accounting.
 *
 * Trace spans only see code someone wrapped in a TraceSpan; the
 * sampler sees everything.  A SIGPROF timer
 * (ITIMER_PROF at MRQ_SAMPLE_HZ, default 97 Hz — prime, so it cannot
 * phase-lock with 10ms scheduler ticks) interrupts whichever thread
 * is burning CPU; the handler captures a frame-pointer backtrace plus
 * the thread's active span path (interned id, obs/trace.hpp) and the
 * process's active kernel family (kernels/roofline.hpp) into a
 * per-thread lock-free ring, following the async-signal-safe rules
 * proven by the crash handler: pre-allocated static storage, plain
 * POD thread_locals, relaxed/release atomics, no malloc, no locks,
 * no stdio.  backtrace() is warmed at start (glibc lazily dlopens
 * libgcc with malloc on first use).
 *
 * A background drain thread (SIGPROF blocked, so it never pollutes
 * the profile) empties the rings every ~100ms into the CPU stack
 * aggregate of obs/stack_profile.hpp, keyed by (thread, span path,
 * kernel, stack) and weighted by the sampling period.  Symbolization
 * — slow and allocation-happy, never in the handler — happens only at
 * emission time.
 *
 * Off-CPU accounting rides the same module: the thread pool reports
 * busy / queue-wait / idle transitions through noteThreadState /
 * noteThreadBusy, so each worker's wall clock decomposes into
 * on-CPU and two flavours of off-CPU time.  The breakdown feeds the
 * stats endpoint (obs/exposition.hpp), periodic flight-recorder
 * checkpoints ("tstate.<thread>" metric events) and the profile's
 * thread rows.
 *
 * Output is a kind "cpu" stack profile (MRQ_SAMPLE_OUT, schema and
 * tools in obs/stack_profile.hpp; "{run}" placeholder substituted
 * like MRQ_TRACE_OUT).
 *
 * Knobs: MRQ_SAMPLE=1 enables (MRQ_SAMPLE_OUT implies it),
 * MRQ_SAMPLE_HZ overrides the rate (clamped to [1, 10000]),
 * MRQ_SAMPLE_OUT names the sink.
 */

#ifndef MRQ_OBS_SAMPLER_HPP
#define MRQ_OBS_SAMPLER_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stack_profile.hpp"

namespace mrq {
namespace obs {

/** Default sampling rate; prime so it cannot alias the scheduler. */
constexpr long kSampleDefaultHz = 97;

/** Compile-time bounds of the static per-thread sample rings. */
constexpr std::size_t kSampleMaxThreads = 64;
constexpr std::size_t kSampleRingCap = 256;
constexpr std::size_t kSampleMaxFrames = 24;

namespace detail {
/** Nonzero while the SIGPROF timer is armed.  Read inline by the
 *  disabled-cost hot paths (KernelRegion, noteThreadState). */
extern std::atomic<int> g_sampler_running;
} // namespace detail

/** True while the sampling timer is armed (relaxed load + branch). */
inline bool
samplerRunning()
{
    return detail::g_sampler_running.load(std::memory_order_relaxed) !=
           0;
}

/** True when MRQ_SAMPLE is truthy or MRQ_SAMPLE_OUT names a sink. */
bool samplerEnabledFromEnv();

/** Sampling rate: MRQ_SAMPLE_HZ clamped to [1, 10000]. */
long samplerHz();

/** Sample period in ns at samplerHz() (the weight of one sample). */
std::int64_t samplePeriodNs();

/** MRQ_SAMPLE_OUT ("" when unset); may contain "{run}". */
std::string sampleOutPath();

/**
 * Arm the profiler: install the SIGPROF handler (idempotent), warm
 * the lazy libc paths, start the drain thread and the ITIMER_PROF
 * timer.  Returns false when already running or the platform lacks
 * the primitives.  Serial context only.
 */
bool startSampler();

/** startSampler() when samplerEnabledFromEnv(); false otherwise. */
bool startSamplerFromEnv();

/** Disarm the timer, stop the drain thread and drain the rings.  The
 *  aggregated profile survives for flushing.  Serial context only. */
void stopSampler();

/** Samples captured since the last resetSamplerProfile(). */
std::int64_t samplerSampleCount();

/** Samples lost to full/unregistered rings since the last reset. */
std::int64_t samplerDroppedSamples();

/** Drop aggregated stacks, counters and thread-time accumulators —
 *  the bench harness calls this per case.  Serial context only. */
void resetSamplerProfile();

/** Drain the rings and return the aggregated stacks, heaviest first
 *  (obs::profileStacks order; weight = count * samplePeriodNs()). */
std::vector<ProfileStack> samplerStacks();

/** Write the kind "cpu" profile (totals: hz, period_ns, samples,
 *  dropped; thread rows: busy_ns, queue_wait_ns, idle_ns) to @p path
 *  via AtomicFile. */
bool writeSampleProfile(const std::string& path);

/** Write MRQ_SAMPLE_OUT (with "{run}" replaced by @p run).  True when
 *  nothing was lost. */
bool flushSampleProfile(const std::string& run);

// ---- Off-CPU accounting -------------------------------------------

/** Wall-clock states of a pool thread. */
enum class ThreadState : int
{
    Busy = 0,      ///< Executing job chunks (on-CPU).
    QueueWait = 1, ///< Job published but not yet picked up.
    Idle = 2,      ///< Parked waiting for work.
};

/** True when thread-state transitions should be recorded (metrics on
 *  or sampler armed); cost when off: two relaxed loads. */
inline bool
threadAccountingOn()
{
    return metricsEnabled() || samplerRunning();
}

/** Record a state transition for the calling thread.  Registers the
 *  thread (by its flight name) on first use.  Normal context only —
 *  never call from a signal handler. */
void noteThreadState(ThreadState state);

/**
 * Transition to Busy after a condition-variable wait, splitting the
 * elapsed wait at @p publish_ns (the job's publish timestamp from
 * obs::nowNs(); <= 0 means no pending job was observed): time before
 * the publish was Idle, time after it QueueWait.
 */
void noteThreadBusy(std::int64_t publish_ns);

/** Per-thread wall-clock decomposition. */
struct ThreadTime
{
    std::string name;             ///< Flight name of the thread.
    std::int64_t busyNs = 0;      ///< On-CPU (executing chunks).
    std::int64_t queueWaitNs = 0; ///< Published job not yet picked up.
    std::int64_t idleNs = 0;      ///< Parked, no work pending.
};

/** Live breakdown over every registered thread (mutex-guarded slot
 *  walk; in-progress state counted up to now). */
std::vector<ThreadTime> threadTimeBreakdown();

/** Zero the accumulators (serial context; resetSamplerProfile calls
 *  this too). */
void resetThreadTime();

// ---- Signal interplay / test hooks --------------------------------

/** Block SIGPROF in the calling thread so it is never sampled (drain
 *  thread, stats plane, watchdog, dump paths). */
void blockSamplingInThisThread();

/** Deliver one SIGPROF to the calling thread synchronously (raise),
 *  exercising exactly the handler path — deterministic sample
 *  generation for tests and the overhead bench.  Requires a prior
 *  startSampler() in this process (the handler stays installed after
 *  stopSampler(); set @p force to record while the timer is off). */
bool debugSampleNow(bool force = false);

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_SAMPLER_HPP
