/**
 * @file
 * Quantization introspection: per-layer / per-rung numerical-health
 * telemetry for the UQ -> SDR -> TQ projection pipeline.
 *
 * The pipelines' end-to-end metrics say *that* a rung degraded; the
 * inspector says *where* and *why*.  When enabled (MRQ_INSPECT=on)
 * it samples training steps (every
 * MRQ_INSPECT_EVERY-th step, default 1) and records, per layer and per
 * sub-model rung:
 *
 *  - weight_sqnr / act_sqnr  SQNR (dB) of the projected tensor against
 *    its full-precision source, computed where both are in hand
 *    (fake_quant.cpp).
 *  - clip_sat                PACT clip saturation: fraction of
 *    activation values clamped at the learned clip, plus the clip
 *    value itself (its trajectory over steps).
 *  - term_energy             lattice magnitude mass and term counts
 *    kept vs dropped at the rung's (alpha, beta) budget.
 *  - grad_norm               L2 norm per parameter tensor after
 *    backward.
 *  - rung_agree              teacher/student logit KL and top-1 match
 *    per distillation draw; at eval time a full pairwise rung
 *    agreement matrix.
 *
 * Collection model mirrors the MetricsRegistry determinism contract:
 * every record is made from serial code (layer-level forward/backward
 * calls run on the main thread; parallelism lives inside kernels), all
 * counts are integers, derived doubles are accumulated serially and
 * rendered with %.17g, and no wall-clock value is ever recorded — so
 * the JSONL sink is byte-identical at any MRQ_THREADS.
 *
 * Cost model: disabled, every hook site is one relaxed atomic load
 * (inspectSampling()) and a branch; the extra serial SQNR/energy loops
 * run only on sampled steps.  bench_runtime's inspector_overhead case
 * enforces this.
 *
 * Records are drained into the watchdog at batch boundaries
 * (feedWatchdog), driving the sqnr_collapse / saturation_ceiling /
 * rung_kl_blowup rules; the outermost RunScope appends its block to
 * inspect.jsonl in MRQ_RUN_DIR at run exit.
 */

#ifndef MRQ_OBS_INSPECT_HPP
#define MRQ_OBS_INSPECT_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mrq {
namespace obs {

class Watchdog;

namespace detail {
extern std::atomic<bool> g_inspect_sampling;
} // namespace detail

/** True when the current step is sampled (hot-path guard; one relaxed
 *  load).  Set by QuantInspector::beginStep / InspectEvalScope. */
inline bool
inspectSampling()
{
    return detail::g_inspect_sampling.load(std::memory_order_relaxed);
}

/**
 * Deterministic SQNR in dB: 10*log10(signal_power / noise_power) with
 * a tiny epsilon on both terms so a perfect projection (zero noise)
 * yields a large finite value instead of +Inf.
 */
double sqnrDb(double signal_power, double noise_power);

/** Record kinds (the "kind" field of each JSONL line). */
enum class InspectKind
{
    WeightSqnr,
    ActSqnr,
    ClipSat,
    TermEnergy,
    GradNorm,
    RungAgree,
};

/** One introspection sample.  Field use depends on kind; unused
 *  fields stay at their defaults and are not rendered. */
struct InspectRecord
{
    InspectKind kind = InspectKind::WeightSqnr;
    std::int64_t step = -1;   ///< Trainer batch index; -1 = eval.
    const char* phase = "train"; ///< "train" or "eval".
    std::string layer;        ///< e.g. "conv#2", or a parameter name.
    std::string rung;         ///< SubModelConfig::name(), "fp32", ...
    std::string ref;          ///< RungAgree: the reference rung.
    double v0 = 0.0;          ///< sqnr_db / clip / l2 / kl.
    double v1 = 0.0;          ///< top1 (RungAgree).
    std::int64_t n = 0;       ///< Elements / samples / rows.
    std::int64_t i0 = 0;      ///< saturated / kept_mass.
    std::int64_t i1 = 0;      ///< dropped_mass.
    std::int64_t i2 = 0;      ///< kept_terms.
    std::int64_t i3 = 0;      ///< dropped_terms.
};

/**
 * Process-wide introspection collector.  All mutating methods must be
 * called from serial code; the only thing hot paths touch is
 * inspectSampling().
 */
class QuantInspector
{
  public:
    static QuantInspector& instance();

    /** On when MRQ_INSPECT is truthy. */
    bool enabled() const { return enabled_; }

    /** Override enablement (tests, bench); returns previous. */
    bool setEnabled(bool on);

    /** Override the sampling cadence (tests, bench); returns
     *  previous.  Values < 1 are clamped to 1. */
    std::int64_t setEvery(std::int64_t every);
    std::int64_t every() const { return every_; }

    /**
     * Serial step boundary: decides whether this step is sampled
     * (step % every == 0) and tags subsequent records with @p step and
     * phase "train".  endStep() turns sampling back off so forwards
     * outside an iteration (probes, calibration) record nothing.
     */
    void beginStep(std::int64_t step);
    void endStep();

    /**
     * Register one introspected layer site under a deterministic name
     * "<kind_hint>#<index>" (first-registration order; serial).  Layer
     * ids survive reset() so cached ids in layer objects stay valid
     * across runs.
     */
    int registerLayer(const char* kind_hint);

    /** Name for @p id; "anon" for -1 / unknown. */
    std::string layerName(int id) const;

    // ---- record hooks (serial contexts only) ----
    void recordWeightSqnr(int layer, const std::string& rung,
                          double sqnr_db, std::int64_t n);
    void recordActSqnr(int layer, const std::string& rung,
                       double sqnr_db, std::int64_t n);
    void recordClipSat(int layer, const std::string& rung, double clip,
                       std::int64_t saturated, std::int64_t total);
    void recordTermEnergy(int layer, const std::string& rung,
                          std::int64_t kept_mass,
                          std::int64_t dropped_mass,
                          std::int64_t kept_terms,
                          std::int64_t dropped_terms,
                          std::int64_t values);
    void recordGradNorm(const std::string& param, const std::string& rung,
                        double l2, std::int64_t n);
    void recordRungAgreement(const std::string& context,
                             const std::string& rung,
                             const std::string& ref, double kl,
                             double top1, std::int64_t rows);

    /**
     * Drain records accumulated since the previous drain through the
     * watchdog's inspector-driven rules (sqnr_collapse,
     * saturation_ceiling, rung_kl_blowup).  @p batch stamps any alert.
     */
    void feedWatchdog(Watchdog& watchdog, std::int64_t batch);

    /** Render every record as JSONL (determinism tests diff this). */
    std::string renderJsonl() const;

    /**
     * Append @p manifest_json (when non-empty) and every record to
     * @p path.  @return False when the file cannot be written.
     */
    bool writeJsonl(const std::string& path,
                    const std::string& manifest_json, bool append = true);

    /** Drop records and the watchdog drain cursor (new run).  The
     *  layer registry is kept: layer objects cache their ids. */
    void reset();

    std::size_t recordCount() const;

  private:
    friend class InspectEvalScope;

    QuantInspector();
    void record(InspectRecord r);

    mutable std::mutex mutex_;
    std::vector<InspectRecord> records_;
    std::vector<std::string> layers_;
    std::size_t drained_ = 0;
    bool enabled_ = false;
    std::int64_t every_ = 1;
    std::int64_t step_ = -1;
    const char* phase_ = "train";
};

/**
 * Attributes records made inside a projection call to a layer:
 * WeightQuantizer::project and PactQuant::forward set the scope, the
 * hooks in fake_quant.cpp read it.  Serial use only (the scope is a
 * plain process global); construction is two int writes, so wrapping
 * a projection unconditionally costs nothing measurable.
 */
class InspectLayerScope
{
  public:
    explicit InspectLayerScope(int layer_id);
    ~InspectLayerScope();

    InspectLayerScope(const InspectLayerScope&) = delete;
    InspectLayerScope& operator=(const InspectLayerScope&) = delete;

  private:
    int prev_;
};

/** Layer id set by the innermost InspectLayerScope, -1 when none. */
int currentInspectLayer();

/**
 * Eval-phase marker: while alive (and the inspector is enabled),
 * sampling is forced on regardless of cadence and records are tagged
 * phase "eval", step -1 — so every evaluation emits the full
 * per-layer / per-rung table.
 */
class InspectEvalScope
{
  public:
    InspectEvalScope();
    ~InspectEvalScope();

    InspectEvalScope(const InspectEvalScope&) = delete;
    InspectEvalScope& operator=(const InspectEvalScope&) = delete;

  private:
    bool active_ = false;
    bool prevSampling_ = false;
    const char* prevPhase_ = "train";
    std::int64_t prevStep_ = -1;
};

} // namespace obs
} // namespace mrq

#endif // MRQ_OBS_INSPECT_HPP
