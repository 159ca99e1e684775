/**
 * @file
 * Exposition layer of the telemetry plane: renders one combined view
 * of the process — registry metrics, /proc resource stats, perf
 * side-store totals, and kernel roofline derivations — as Prometheus
 * text format or a JSON snapshot.  Served over the stats socket
 * (obs/stats_server.hpp) and scraped by tools/mrq_stats.py.
 *
 * Everything here is read-only over live data: collecting a
 * StatsSnapshot never writes into the registry, so the sampler thread
 * cannot perturb the deterministic JSONL sink.
 *
 * Prometheus mapping: counters become `mrq_<name>_total`, gauges
 * `mrq_<name>`, histograms full `_bucket{le=...}`/`_sum`/`_count`
 * families, timing aggregates `mrq_<name>_seconds_total` +
 * `mrq_<name>_calls_total` (wall-clock, inherently non-deterministic
 * — fine for a live endpoint, still banned from JSONL).  Metric-name
 * dots mangle to underscores.  Kernel families additionally export
 * `mrq_kernel_achieved_gflops{kernel=...,isa=...}` (nominal flops /
 * aggregated region wall time — with nested parallel regions this is
 * closer to per-core than machine-wide throughput) and
 * `mrq_kernel_arith_intensity` from the cost constants in
 * kernels/roofline.hpp, against the `mrq_kernel_peak_flops_per_cycle`
 * ceiling.
 */

#ifndef MRQ_OBS_EXPOSITION_HPP
#define MRQ_OBS_EXPOSITION_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kernels/isa.hpp"
#include "obs/heap_profiler.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/proc_stats.hpp"
#include "obs/sampler.hpp"

namespace mrq {
namespace obs {

/** Schema version of the JSON snapshot (tools/check_schema.py stats).
 *  v2 added the "heap" object (heap-profiler totals + per-thread
 *  churn); consumers of v1 fields are unaffected. */
constexpr int kStatsSchemaVersion = 2;

/** One coherent view of every live telemetry source. */
struct StatsSnapshot
{
    Snapshot metrics;
    ProcStats proc;
    std::vector<std::pair<std::string, PerfTotals>> perf;
    kernels::Isa isa = kernels::Isa::Generic;
    std::int64_t traceDropped = 0; ///< Trace-ring drop-oldest count.
    std::int64_t samples = 0;      ///< Sampler ticks so far (0 = on-demand).
    /** Names of live registered threads (obs/flight_recorder.hpp). */
    std::vector<std::string> threadNames;
    /** Per-thread wall-clock decomposition (obs/sampler.hpp); empty
     *  until thread accounting has run. */
    std::vector<ThreadTime> threadTime;
    bool profilerRunning = false;        ///< SIGPROF timer armed.
    std::int64_t profilerSamples = 0;    ///< Stack samples captured.
    std::int64_t profilerDropped = 0;    ///< Samples lost (full ring).
    /** Heap accounting (obs/heap_profiler.hpp).  The counter totals
     *  are live whenever the interposition is linked and any consumer
     *  armed them; all-zero otherwise. */
    bool heapInterposed = false;     ///< Replacement operators linked.
    bool heapProfilerRunning = false; ///< Byte-interval sampler armed.
    HeapStats heap;
    std::vector<HeapThreadChurn> heapChurn;
};

/** Collect a snapshot of every source (never writes the registry). */
StatsSnapshot collectStatsSnapshot();

/** Render @p s in Prometheus text exposition format (version 0.0.4;
 *  tools/check_schema.py prom validates it). */
std::string renderPrometheus(const StatsSnapshot& s);

/** Render @p s as one JSON object (schema kStatsSchemaVersion). */
std::string renderStatsJson(const StatsSnapshot& s);

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_EXPOSITION_HPP
