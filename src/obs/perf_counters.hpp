/**
 * @file
 * Hardware performance-counter layer (MRQ_PERF): thin wrapper over
 * Linux `perf_event_open` counting cycles, instructions, cache misses
 * and branch misses for the calling thread (plus threads spawned while
 * attached, via the inherit flag — pool workers created *before*
 * attach are not counted).
 *
 * Availability is best-effort by design: the syscall is routinely
 * blocked in containers and by `kernel.perf_event_paranoid`, and the
 * whole layer degrades to a silent no-op in that case — every scope
 * still runs, readings just come back invalid.  Counter values are
 * inherently non-deterministic and flow only into the perf side store
 * read by the bench harness's noise-gated `resources` map, never into
 * a deterministic sink.
 *
 * Scoping: the bench harness attaches one PerfScope per timed rep and
 * the trainer one per epoch; totals accumulate per scope name.
 */

#ifndef MRQ_OBS_PERF_COUNTERS_HPP
#define MRQ_OBS_PERF_COUNTERS_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mrq {
namespace obs {

/** One stopped-counter reading; -1 = event unavailable. */
struct PerfReading
{
    std::int64_t cycles = -1;
    std::int64_t instructions = -1;
    std::int64_t cacheMisses = -1;
    std::int64_t branchMisses = -1;

    /** True when at least one event actually counted. */
    bool
    valid() const
    {
        return cycles >= 0 || instructions >= 0 || cacheMisses >= 0 ||
               branchMisses >= 0;
    }
};

/**
 * A set of per-thread hardware counters.  open() tries all four
 * events independently (a PMU may expose only a subset); start()/
 * stop() bracket the measured region.  Safe to use when unavailable:
 * everything no-ops and stop() returns an all-invalid reading.
 */
class PerfCounterSet
{
  public:
    PerfCounterSet() = default;
    ~PerfCounterSet();
    PerfCounterSet(const PerfCounterSet&) = delete;
    PerfCounterSet& operator=(const PerfCounterSet&) = delete;

    /** Open the event fds; false when no event could be opened. */
    bool open();
    void close();
    /** True when at least one event fd is live. */
    bool available() const;

    /** Zero and enable every open counter. */
    void start();
    /** Disable and read every open counter. */
    PerfReading stop();

  private:
    static constexpr int kEvents = 4;
    int fds_[kEvents] = {-1, -1, -1, -1};
};

/** True when MRQ_PERF is truthy, the syscall works on this system,
 *  and no test forced unavailability. */
bool perfEnabled();

/** Test hook: force the layer to behave as if perf_event_open were
 *  unavailable; returns the previous setting. */
bool debugForcePerfUnavailable(bool on);

// ---- per-scope totals side store (non-deterministic; bench
// ---- `resources` only, never JSONL) ----

/** Accumulated readings of every PerfScope with one name. */
struct PerfTotals
{
    std::int64_t scopes = 0; ///< Number of completed scopes.
    std::int64_t cycles = 0;
    std::int64_t instructions = 0;
    std::int64_t cacheMisses = 0;
    std::int64_t branchMisses = 0;
};

/** Fold @p r into the totals for @p name (invalid fields skipped). */
void perfAccumulate(const std::string& name, const PerfReading& r);

/** Every accumulated total, sorted by name. */
std::vector<std::pair<std::string, PerfTotals>> perfTotalsSnapshot();

/** Drop all accumulated totals (bench per-case isolation, tests). */
void resetPerfTotals();

/**
 * RAII measured region: opens + starts counters when perfEnabled(),
 * and on destruction stops and folds the reading into the side store
 * under @p name.  Cost when disabled: one relaxed load and a branch.
 */
class PerfScope
{
  public:
    explicit PerfScope(const char* name);
    ~PerfScope();
    PerfScope(const PerfScope&) = delete;
    PerfScope& operator=(const PerfScope&) = delete;

    /** Stop early and return the reading (also accumulated; the
     *  destructor then becomes a no-op). */
    PerfReading stop();

  private:
    const char* name_;
    PerfCounterSet set_;
    bool active_ = false;
};

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_PERF_COUNTERS_HPP
