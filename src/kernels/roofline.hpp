/**
 * @file
 * Flop/byte accounting for the micro-kernel substrate (the roofline
 * half of the telemetry plane, obs/stats_server.hpp).
 *
 * Each dispatched kernel family carries nominal per-element cost
 * constants: flops per element and bytes moved per element, where an
 * "element" is the kernel's natural work unit (a MAC for the GEMM
 * kernels, a tensor element for the lattice/elementwise kernels, a
 * hidden cell for the LSTM gate pass, a term pair / bucket for the
 * hw-sim integer reductions).  The constants are *nominal* — e.g. a
 * transcendental counts a fixed 10 flops, the GEMM MAC count is the
 * shape product without the zero-skip — so arithmetic intensity is a
 * model property, not a measurement.
 *
 * Call sites record op-level totals through KernelRegion (elems
 * counter + wall-ns timing, serial context wrapping the parallel
 * region) or recordKernelElems (counter only, for per-group hw-sim
 * hot paths).  The element counters are shape-derived and therefore
 * deterministic (safe for the JSONL sink); the wall-ns goes through
 * the timing family, which never reaches a deterministic sink.  The
 * exposition layer divides flops-per-elem * elems by the region time
 * to report achieved GFLOP/s against peakFlopsPerCycle() per ISA.
 */

#ifndef MRQ_KERNELS_ROOFLINE_HPP
#define MRQ_KERNELS_ROOFLINE_HPP

#include <cstddef>
#include <cstdint>

#include "kernels/isa.hpp"
#include "obs/heap_profiler.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace mrq {
namespace kernels {

/** Dispatched kernel families with roofline accounting. */
enum class KernelId
{
    GemmDot = 0,      ///< dotRows(): elems = MACs.
    GemmAxpy,         ///< sparseRowGemm() (and the depthwise axpy):
                      ///< elems = nominal MACs.
    AddRow,           ///< addRowInPlace(): elems = elements.
    AddScalar,        ///< addScalarInPlace(): elems = elements.
    LatticeQuantize,  ///< latticeQuantize (+ TQ projection): elements.
    LatticeDequant,   ///< latticeDequant(): elems = elements.
    LatticeRoundTrip, ///< latticeRoundTrip(): elems = elements.
    LstmGates,        ///< lstmGates(): elems = hidden cells.
    TermPairs,        ///< termPairAccumulate(): elems = term pairs.
    BucketSum,        ///< weightedBucketSum(): elems = buckets.
};
constexpr std::size_t kKernelCount = 10;

/** Nominal per-element cost model of one kernel family. */
struct KernelCost
{
    const char* slug;    ///< Metric name component ("gemm_dot", ...).
    double flopsPerElem; ///< Nominal flops (int ops for hw-sim).
    double bytesPerElem; ///< Nominal bytes moved.
};

/** Cost constants for @p id (static storage). */
const KernelCost& kernelCost(KernelId id);

/** Nominal peak flops/cycle/core of one ISA variant (fma lanes x 2);
 *  the roofline ceiling the exposition layer reports against. */
double peakFlopsPerCycle(Isa isa);

namespace detail {
void recordKernelRegion(KernelId id, std::int64_t elems,
                        std::int64_t ns);
/** Swap the process-wide active-kernel tag (sampler attribution);
 *  returns the previous tag. */
int exchangeActiveKernelTag(int tag);
void setActiveKernelTag(int tag);
} // namespace detail

/** Kernel family currently inside a KernelRegion (-1 = none).
 *  Async-signal-safe: one relaxed atomic load — the SIGPROF sampler
 *  reads it to tag samples with the running kernel.  Process-wide,
 *  so concurrent *serial* dispatch contexts (unusual) attribute
 *  statistically, not exactly; nested regions restore correctly. */
int activeKernelSampleTag();

/** Counter-only element accounting for hot per-group call sites
 *  (hw-sim term pairs); one sharded add, safe inside parallelFor. */
void recordKernelElems(KernelId id, std::int64_t elems);

/**
 * RAII op-level accounting region: wrap the whole (possibly parallel)
 * op from a serial context.  Records the shape-derived element count
 * and the region wall time under "kernel.<slug>"; while the SIGPROF
 * sampler or the heap profiler runs it also publishes the kernel id
 * as the process-wide active-kernel tag so CPU samples and sampled
 * allocations both attribute to the family.  Disabled cost: three
 * relaxed loads and a branch.
 */
class KernelRegion
{
  public:
    KernelRegion(KernelId id, std::int64_t elems)
    {
        const bool metrics = obs::metricsEnabled();
        if (!metrics && !obs::samplerRunning() &&
            !obs::heapProfilerRunning())
            return;
        id_ = id;
        tagged_ = true;
        prevTag_ =
            detail::exchangeActiveKernelTag(static_cast<int>(id));
        if (!metrics)
            return;
        elems_ = elems;
        startNs_ = obs::nowNs();
        live_ = true;
    }
    ~KernelRegion()
    {
        if (tagged_)
            detail::setActiveKernelTag(prevTag_);
        if (live_)
            detail::recordKernelRegion(id_, elems_,
                                       obs::nowNs() - startNs_);
    }
    KernelRegion(const KernelRegion&) = delete;
    KernelRegion& operator=(const KernelRegion&) = delete;

  private:
    KernelId id_ = KernelId::GemmDot;
    std::int64_t elems_ = 0;
    std::int64_t startNs_ = 0;
    int prevTag_ = -1;
    bool live_ = false;
    bool tagged_ = false;
};

} // namespace kernels
} // namespace mrq

#endif // MRQ_KERNELS_ROOFLINE_HPP
