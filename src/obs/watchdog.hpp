/**
 * @file
 * Training-health watchdog: a rule engine evaluated at batch/epoch
 * boundaries of a multi-resolution training run.
 *
 * Multi-bit / nested-quantization training fails in characteristic
 * ways: a low-budget student destabilizes the shared master weights
 * (NaN/Inf losses, sudden divergence), the nesting property breaks (a
 * higher-(alpha, beta) rung scoring *worse* than a lower one), or the
 * weight-projection cache stops hitting because something invalidates
 * it every step.  The watchdog checks for all four and emits
 * structured `alert` records — severity, rule, context, deterministic
 * batch index, detail — into the metrics JSONL sink (and as instant
 * events on the timeline when export is on).
 *
 * Rules:
 *  - nan_loss (fatal): any checked loss is NaN or +-Inf.
 *  - loss_divergence (warn): loss exceeds divergenceFactor x the
 *    trailing median of the last medianWindow losses for the same
 *    context, after warmupBatches samples.
 *  - rung_inversion (warn): a higher rung's eval metric trails a
 *    lower rung's by more than rungTolerance.
 *  - cache_hit_rate_floor (warn): projection-cache hit rate below
 *    cacheHitRateFloor after cacheMinLookups lookups.
 *
 * Inspector-driven rules (inputs arrive via
 * QuantInspector::feedWatchdog; see obs/inspect.hpp):
 *  - sqnr_collapse (warn): a layer/rung SQNR drops more than
 *    sqnrCollapseDb below its trailing median of the last sqnrWindow
 *    samples, after sqnrWarmup samples for that context.
 *  - saturation_ceiling (warn): a PACT clip saturates more than
 *    satRateCeiling of its values (given >= satMinSamples values).
 *  - rung_kl_blowup (warn/fatal): teacher/student logit KL above
 *    rungKlWarn warns; above rungKlFatal — or non-finite — is fatal
 *    (the distillation signal is gone), honoring strict mode.
 *
 * Modes (MRQ_WATCHDOG): off (unset/other), on ("1/true/on"), strict
 * ("strict" — additionally flushes all live sinks and aborts the
 * process with exit code 70 on any *fatal* alert).
 *
 * Determinism: every input the rules see (losses, eval metrics,
 * integer cache counters, batch indices) is bit-identical across
 * MRQ_THREADS, and detail strings format doubles with %.17g, so the
 * emitted alert records are byte-identical at any thread count.  All
 * methods must be called from serial code (batch/epoch boundaries).
 */

#ifndef MRQ_OBS_WATCHDOG_HPP
#define MRQ_OBS_WATCHDOG_HPP

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace mrq {
namespace obs {

enum class WatchdogMode
{
    off,   ///< Checks disabled entirely.
    on,    ///< Alerts recorded, run continues.
    strict ///< Fatal alerts flush sinks and exit(70).
};

/** Parse MRQ_WATCHDOG ("1/true/on" -> on, "strict" -> strict). */
WatchdogMode watchdogModeFromEnv();

struct WatchdogConfig
{
    WatchdogMode mode = WatchdogMode::off;
    double divergenceFactor = 4.0; ///< Loss vs trailing median.
    int warmupBatches = 16;        ///< Samples before divergence checks.
    int medianWindow = 32;         ///< Trailing window length.
    double rungTolerance = 0.02;   ///< Nesting-monotonicity epsilon.
    double cacheHitRateFloor = 0.5;
    std::int64_t cacheMinLookups = 64; ///< Grace before the floor rule.

    // Inspector-driven rules.
    double sqnrCollapseDb = 10.0; ///< Drop vs trailing median (dB).
    int sqnrWarmup = 4;           ///< Samples before collapse checks.
    int sqnrWindow = 16;          ///< Trailing SQNR window length.
    double satRateCeiling = 0.9;  ///< Max tolerated clip saturation.
    std::int64_t satMinSamples = 64; ///< Grace before the ceiling rule.
    double rungKlWarn = 1.0;      ///< Teacher/student KL warn level.
    double rungKlFatal = 10.0;    ///< KL above this (or NaN) is fatal.
};

/** Rule engine; one instance per trainer (serial use only). */
class Watchdog
{
  public:
    /** Mode from MRQ_WATCHDOG, thresholds at defaults. */
    Watchdog();
    explicit Watchdog(const WatchdogConfig& config);

    /** Replace the configuration (tests inject thresholds/mode). */
    void configure(const WatchdogConfig& config);
    const WatchdogConfig&
    config() const
    {
        return cfg_;
    }

    bool
    enabled() const
    {
        return cfg_.mode != WatchdogMode::off;
    }

    /**
     * Batch-boundary check of one loss value.  @p context names the
     * stream (e.g. "trainer.teacher"); the trailing-median window is
     * kept per context.
     */
    void checkLoss(const std::string& context, std::int64_t batch,
                   double loss);

    /**
     * Epoch/eval-boundary nesting-monotonicity check.  @p names and
     * @p metrics are ordered lowest budget first; with
     * @p higher_is_better (accuracy, mAP) each rung must not trail
     * its best lower-budget predecessor by more than rungTolerance;
     * inverted for perplexity-style metrics.
     */
    void checkRungMonotonicity(const std::string& context,
                               std::int64_t batch,
                               const std::vector<std::string>& names,
                               const std::vector<double>& metrics,
                               bool higher_is_better);

    /** Epoch-boundary projection-cache hit-rate floor check. */
    void checkCacheHitRate(const std::string& context, std::int64_t batch,
                           std::int64_t hits, std::int64_t misses);

    /**
     * SQNR-collapse check of one projection sample.  @p context names
     * the layer/rung pair (e.g. "conv#2/a8b2"); the trailing-median
     * window is kept per context, like checkLoss.
     */
    void checkSqnr(const std::string& context, std::int64_t batch,
                   double sqnr_db);

    /** Clip saturation-rate ceiling ( @p rate in [0, 1] over
     *  @p samples values; below satMinSamples nothing is judged). */
    void checkSaturation(const std::string& context, std::int64_t batch,
                         double rate, std::int64_t samples);

    /** Teacher/student (or rung-pair) logit-KL blowup check. */
    void checkRungKl(const std::string& context, std::int64_t batch,
                     double kl);

    /** Alerts raised by this instance since construction. */
    std::int64_t
    alertCount() const
    {
        return alerts_;
    }

  private:
    void raise(const char* severity, const char* rule,
               const std::string& context, std::int64_t batch,
               const std::string& detail);

    WatchdogConfig cfg_;
    std::map<std::string, std::deque<double>> lossWindows_;
    std::map<std::string, std::deque<double>> sqnrWindows_;
    std::int64_t alerts_ = 0;
};

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_WATCHDOG_HPP
