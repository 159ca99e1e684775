#include "train/pipelines.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/term_accounting.hpp"
#include "data/batcher.hpp"
#include "nn/loss.hpp"
#include "obs/crash_handler.hpp"
#include "obs/inspect.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace mrq {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

std::string
formatOpt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/** Self-describing manifest for one pipeline run (JSONL line 1). */
obs::RunManifest
pipelineManifest(const char* run, const PipelineOptions& opts,
                 const SubModelLadder& ladder)
{
    obs::RunManifest m;
    m.run = run;
    m.seed = opts.seed;
    m.add("fp_epochs", std::to_string(opts.fpEpochs));
    m.add("mr_epochs", std::to_string(opts.mrEpochs));
    m.add("batch_size", std::to_string(opts.batchSize));
    m.add("fp_lr", formatOpt(opts.fpLr));
    m.add("mr_lr", formatOpt(opts.mrLr));
    m.add("momentum", formatOpt(opts.momentum));
    m.add("weight_decay", formatOpt(opts.weightDecay));
    m.add("distill_weight", formatOpt(opts.distillWeight));
    m.add("distill_temperature", formatOpt(opts.distillTemperature));
    m.add("distillation", opts.useDistillation ? "on" : "off");
    m.add("bptt", std::to_string(opts.bptt));
    std::string rungs;
    for (const SubModelConfig& cfg : ladder) {
        if (!rungs.empty())
            rungs += ',';
        rungs += cfg.name();
    }
    m.add("ladder", rungs);
    return m;
}

/** Record one evaluated rung: gauges keyed by rung name + a curve. */
void
recordSubModelEval(std::size_t index, const SubModelResult& r)
{
    if (!obs::metricsEnabled())
        return;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    const std::string base = "train.eval." + r.config.name();
    reg.setGauge(base + ".metric", r.metric);
    reg.setGauge(base + ".term_pairs",
                 static_cast<double>(r.termPairs));
    reg.recordSeries("train.eval.metric",
                     static_cast<std::int64_t>(index), r.metric);
}

/** Record one epoch's mean loss on the named curve. */
void
recordEpoch(const char* series, std::size_t epoch, double mean_loss)
{
    if (!obs::metricsEnabled())
        return;
    obs::MetricsRegistry::instance().recordSeries(
        series, static_cast<std::int64_t>(epoch), mean_loss);
}

TrainerOptions
trainerOptions(const PipelineOptions& opts, float lr)
{
    TrainerOptions t;
    t.lr = lr;
    t.momentum = opts.momentum;
    t.weightDecay = opts.weightDecay;
    t.distillWeight = opts.distillWeight;
    t.useDistillation = opts.useDistillation;
    t.seed = opts.seed ^ 0xabcdULL;
    return t;
}

SubModelConfig
fpConfig()
{
    SubModelConfig cfg;
    cfg.mode = QuantMode::None;
    return cfg;
}

/** Cumulative projection-cache hit/miss totals from the registry. */
void
projCacheCounts(std::int64_t* hits, std::int64_t* misses)
{
    *hits = 0;
    *misses = 0;
    if (!obs::metricsEnabled())
        return;
    const obs::Snapshot snap = obs::MetricsRegistry::instance().snapshot();
    for (const auto& c : snap.counters) {
        if (c.name == "nn.proj_cache.hits")
            *hits = c.value;
        else if (c.name == "nn.proj_cache.misses")
            *misses = c.value;
    }
}

/**
 * Tune-epoch boundary: sample the cumulative projection-cache hit
 * rate onto a timeline counter track.  Tuning invalidates the cache
 * on every optimizer step, so a near-zero rate here is expected and
 * carries no judgment — the watchdog floor rule only inspects the
 * eval phase (evalCacheHealth), where weights are frozen and
 * projections should hit.
 */
void
epochCacheTrack()
{
    if (!obs::traceExportEnabled())
        return;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    projCacheCounts(&hits, &misses);
    if (hits + misses > 0)
        obs::traceCounterSample("cache.hit_rate",
                                static_cast<double>(hits) /
                                    static_cast<double>(hits + misses));
}

/**
 * Eval-phase cache health: judge the hit rate of the lookups made
 * since (hits_before, misses_before) — captured just before the eval
 * loop — so training-time misses cannot trip the floor.  The counters
 * are integers summed over shards, so the delta — and any alert it
 * triggers — is identical at every MRQ_THREADS.
 */
void
evalCacheHealth(MultiResTrainer& trainer, const char* run,
                std::int64_t hits_before, std::int64_t misses_before)
{
    if (!trainer.watchdog().enabled() && !obs::traceExportEnabled())
        return;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    projCacheCounts(&hits, &misses);
    hits -= hits_before;
    misses -= misses_before;
    trainer.watchdog().checkCacheHitRate(run, trainer.batchIndex(), hits,
                                         misses);
    if (obs::traceExportEnabled() && hits + misses > 0)
        obs::traceCounterSample("cache.hit_rate",
                                static_cast<double>(hits) /
                                    static_cast<double>(hits + misses));
}

/**
 * Eval-boundary nesting-monotonicity check over the evaluated rungs
 * (ladder order is ascending budgets).  batch = -1 marks an
 * eval-boundary alert.
 */
void
checkLadderMonotonicity(MultiResTrainer& trainer, const char* run,
                        const std::vector<SubModelResult>& rungs,
                        bool higher_is_better)
{
    if (!trainer.watchdog().enabled() || rungs.size() < 2)
        return;
    std::vector<std::string> names;
    std::vector<double> metrics;
    names.reserve(rungs.size());
    metrics.reserve(rungs.size());
    for (const SubModelResult& r : rungs) {
        names.push_back(r.config.name());
        metrics.push_back(r.metric);
    }
    trainer.watchdog().checkRungMonotonicity(run, -1, names, metrics,
                                             higher_is_better);
}

/** Rows [base, base + len) of @p t along dim 0, as a new tensor. */
Tensor
rowSlice(const Tensor& t, std::size_t base, std::size_t len)
{
    const std::size_t row = t.size() / t.dim(0);
    std::vector<std::size_t> shape = t.shape();
    shape[0] = len;
    Tensor out(std::move(shape));
    std::copy(t.data() + base * row, t.data() + (base + len) * row,
              out.data());
    return out;
}

/**
 * Re-estimate batch-norm running statistics for @p cfg from
 * @p batches consecutive, wrapping training batches of @p batch_size
 * images (switchable-precision networks need per-configuration
 * statistics; EXPERIMENTS.md Known deviation 4).
 */
void
recalibrateBatchNorm(MultiResTrainer& trainer, const Tensor& train_images,
                     const SubModelConfig& cfg, std::size_t batches,
                     std::size_t batch_size)
{
    const std::size_t train_n = train_images.dim(0);
    for (std::size_t b = 0; b < batches; ++b) {
        const std::size_t base = (b * batch_size) % train_n;
        const std::size_t len = std::min(batch_size, train_n - base);
        if (len < 2)
            continue;
        trainer.calibrate(rowSlice(train_images, base, len), cfg);
    }
}

/** Eval-mode outputs for every row of @p inputs at @p cfg, run in
 *  batches of @p batch rows and stacked along dim 0. */
Tensor
inferRows(MultiResTrainer& trainer, const Tensor& inputs,
          const SubModelConfig& cfg, std::size_t batch)
{
    const std::size_t n = inputs.dim(0);
    Tensor all;
    for (std::size_t base = 0; base < n; base += batch) {
        const Tensor out = trainer.inferAt(
            rowSlice(inputs, base, std::min(batch, n - base)), cfg);
        if (all.empty()) {
            std::vector<std::size_t> shape = out.shape();
            shape[0] = n;
            all = Tensor(std::move(shape));
        }
        std::copy(out.data(), out.data() + out.size(),
                  all.data() + base * (out.size() / out.dim(0)));
    }
    return all;
}

/** Test-set top-1 accuracy at one configuration; the test logits it
 *  scored are handed back in @p logits when non-null. */
double
evalClassifier(MultiResTrainer& trainer, const SynthImages& data,
               const SubModelConfig& cfg, Tensor* logits)
{
    recalibrateBatchNorm(trainer, data.trainImages(), cfg, 15, 50);
    Tensor out = inferRows(trainer, data.testImages(), cfg, 100);
    const double accuracy = top1Accuracy(out, data.testLabels());
    if (logits != nullptr)
        *logits = std::move(out);
    return accuracy;
}

/** Test-set mAP@0.5 at one configuration. */
double
evalYolo(MultiResTrainer& trainer, const SynthDetect& data,
         const SubModelConfig& cfg)
{
    recalibrateBatchNorm(trainer, data.trainImages(), cfg, 10, 32);
    return meanAveragePrecision(
        decodeYolo(inferRows(trainer, data.testImages(), cfg, 50)),
        data.testBoxes(), SynthDetect::kNumClasses);
}

/** KL distillation on temperature-softened logits. */
SoftLossFn
logitDistillation(float temperature)
{
    return [temperature](const Tensor& s, const Tensor& t, Tensor* ds) {
        return distillationLoss(s, t, temperature, ds);
    };
}

/**
 * What a task family contributes to the shared recipe (runPipeline):
 * its batches, losses, evaluator and probes.  The phases, their
 * telemetry and the eval-boundary checks are common to all three.
 */
struct TaskFamily
{
    const char* name = "";      ///< Run-name prefix.
    std::size_t batches = 0;    ///< Training batches per epoch.
    /** Training input of batch @p b of the epoch; also binds the
     *  targets @ref hard reads. */
    std::function<Tensor(std::size_t b)> next;
    HardLossFn hard;
    SoftLossFn soft;
    float gradClip = TrainerOptions{}.gradClip;
    /** Metric of one configuration (higherIsBetter orders rungs).  A
     *  family that scores per-sample logits hands them back through a
     *  non-null Tensor*, for the inter-rung agreement matrix; the
     *  others leave it untouched. */
    std::function<double(MultiResTrainer&, const SubModelConfig&,
                         Tensor*)>
        eval;
    bool higherIsBetter = true;
    /** MAC-count input; its dim 0 is the per-sample divisor. */
    Tensor macProbe;
};

/** Phase 2 of the recipe. */
enum class Tune
{
    MultiRes, ///< Algorithm 1 over the ladder.
    Single,   ///< Plain fine-tuning at the one-rung ladder.
    None,     ///< No fine-tuning: post-training quantization.
};

/**
 * The paper's recipe for any task family: full-precision pretraining,
 * weight-clip calibration, fine-tuning per @p tune, then an evaluation
 * of every ladder rung.
 */
PipelineResult
runPipeline(Module& model, const SubModelLadder& ladder,
            const PipelineOptions& opts, Tune tune, const TaskFamily& fam)
{
    PipelineResult result;
    const std::string run =
        std::string(fam.name) + (tune == Tune::MultiRes ? ".multires"
                                 : tune == Tune::Single ? ".single"
                                                        : ".post_training");
    obs::RunScope obs_run(pipelineManifest(run.c_str(), opts, ladder),
                          opts.verbose);
    TrainerOptions trainer_opts = trainerOptions(opts, opts.fpLr);
    trainer_opts.gradClip = fam.gradClip;
    MultiResTrainer trainer(model, ladder, trainer_opts);
    const std::size_t batches = fam.batches;

    // Phase 1: full-precision pretraining.
    for (std::size_t epoch = 0; epoch < opts.fpEpochs; ++epoch) {
        obs::faultInjectionPoint("epoch",
                                 static_cast<std::int64_t>(epoch));
        MRQ_TRACE_SPAN("pipeline.fp_epoch");
        const auto t0 = Clock::now();
        trainer.optimizer().setLr(
            cosineLr(opts.fpLr, static_cast<int>(epoch),
                     static_cast<int>(opts.fpEpochs)));
        double loss = 0.0;
        for (std::size_t b = 0; b < batches; ++b) {
            const Tensor input = fam.next(b);
            loss += trainer.trainIterationSingle(input, fam.hard,
                                                 fpConfig());
        }
        result.fpEpochSeconds += seconds(t0, Clock::now());
        recordEpoch("train.fp.loss", epoch, loss / batches);
        obs::logf("phase=fp epoch=%zu loss=%.4f", epoch, loss / batches);
    }
    if (opts.fpEpochs > 0)
        result.fpEpochSeconds /= static_cast<double>(opts.fpEpochs);
    model.calibrateWeightClips();
    result.fp32Metric = fam.eval(trainer, fpConfig(), nullptr);
    if (obs::metricsEnabled())
        obs::MetricsRegistry::instance().setGauge("train.eval.fp32.metric",
                                                  result.fp32Metric);
    obs::logf("phase=eval rung=fp32 metric=%.4f", result.fp32Metric);

    // Phase 2: fine-tuning (multi-resolution, single config, or none).
    if (tune != Tune::None) {
        for (std::size_t epoch = 0; epoch < opts.mrEpochs; ++epoch) {
            obs::faultInjectionPoint("epoch",
                                     static_cast<std::int64_t>(epoch));
            MRQ_TRACE_SPAN("pipeline.tune_epoch");
            const auto t0 = Clock::now();
            trainer.optimizer().setLr(
                cosineLr(opts.mrLr, static_cast<int>(epoch),
                         static_cast<int>(opts.mrEpochs)));
            double loss = 0.0;
            double teacher_loss = 0.0;
            std::vector<double> rung_loss(ladder.size(), 0.0);
            std::vector<std::size_t> rung_count(ladder.size(), 0);
            for (std::size_t b = 0; b < batches; ++b) {
                const Tensor input = fam.next(b);
                if (tune == Tune::MultiRes) {
                    const MultiResTrainer::IterStats st =
                        trainer.trainIteration(input, fam.hard, fam.soft);
                    loss += st.studentLoss;
                    teacher_loss += st.teacherLoss;
                    rung_loss[st.studentIndex] += st.studentLoss;
                    rung_count[st.studentIndex] += 1;
                } else {
                    loss += trainer.trainIterationSingle(input, fam.hard,
                                                         ladder.front());
                }
            }
            result.mrEpochSeconds += seconds(t0, Clock::now());
            recordEpoch("train.tune.loss", epoch, loss / batches);
            if (tune == Tune::MultiRes) {
                recordEpoch("train.tune.teacher_loss", epoch,
                            teacher_loss / batches);
                for (std::size_t r = 0; r < ladder.size(); ++r)
                    if (rung_count[r] > 0)
                        recordEpoch(("train.tune.loss." +
                                     ladder[r].name())
                                        .c_str(),
                                    epoch,
                                    rung_loss[r] /
                                        static_cast<double>(
                                            rung_count[r]));
            }
            obs::logf("phase=tune epoch=%zu loss=%.4f", epoch,
                      loss / batches);
            epochCacheTrack();
        }
        if (opts.mrEpochs > 0)
            result.mrEpochSeconds /= static_cast<double>(opts.mrEpochs);
    }

    // Per-sample MAC count for term-pair accounting.
    model.setTraining(false);
    const std::size_t macs = countModelMacs(model, fam.macProbe);
    model.setTraining(true);
    model.setQuantContext(&trainer.context());

    // Evaluation across the ladder.
    std::int64_t eval_hits0 = 0;
    std::int64_t eval_misses0 = 0;
    projCacheCounts(&eval_hits0, &eval_misses0);
    {
        MRQ_TRACE_SPAN("pipeline.eval");
        obs::InspectEvalScope inspect_eval;

        // Inter-rung agreement: each pair of rungs is scored on logit
        // KL + top-1 match over the logits the rungs' own evaluations
        // produced, so no extra forward runs and batch-norm statistics
        // are the ones each eval used.
        const bool agreement =
            obs::inspectSampling() && ladder.size() > 1;
        std::vector<Tensor> logits(agreement ? ladder.size() : 0);

        for (std::size_t i = 0; i < ladder.size(); ++i) {
            obs::faultInjectionPoint("rung",
                                     static_cast<std::int64_t>(i));
            const SubModelConfig& cfg = ladder[i];
            SubModelResult r;
            r.config = cfg;
            r.metric =
                fam.eval(trainer, cfg, agreement ? &logits[i] : nullptr);
            r.termPairs = termPairCount(macs, cfg);
            recordSubModelEval(i, r);
            obs::logf("phase=eval rung=%s metric=%.4f term_pairs=%zu",
                      cfg.name().c_str(), r.metric, r.termPairs);
            result.subModels.push_back(std::move(r));
        }

        if (agreement && !logits.front().empty()) {
            obs::QuantInspector& inspector =
                obs::QuantInspector::instance();
            for (std::size_t i = 0; i < logits.size(); ++i)
                for (std::size_t j = i + 1; j < logits.size(); ++j) {
                    double kl = 0.0;
                    double top1 = 0.0;
                    logitAgreement(logits[i], logits[j], &kl, &top1);
                    inspector.recordRungAgreement(
                        run, ladder[i].name(), ladder[j].name(), kl,
                        top1, static_cast<std::int64_t>(logits[i].dim(0)));
                }
        }
    }
    evalCacheHealth(trainer, run.c_str(), eval_hits0, eval_misses0);
    checkLadderMonotonicity(trainer, run.c_str(), result.subModels,
                            fam.higherIsBetter);
    obs::QuantInspector::instance().feedWatchdog(trainer.watchdog(), -1);
    return result;
}

// ---------------------------------------------------------------------
// Task families: each builds its record and runs the shared recipe.
// ---------------------------------------------------------------------

PipelineResult
classifierPipeline(Sequential& model, const SynthImages& data,
                   const SubModelLadder& ladder,
                   const PipelineOptions& opts, Tune tune)
{
    Batcher batcher(data.trainImages().dim(0), opts.batchSize, opts.seed);
    std::vector<int> labels;
    TaskFamily fam;
    fam.name = "classifier";
    fam.batches = batcher.batchesPerEpoch();
    fam.next = [&](std::size_t) {
        const auto idx = batcher.next();
        Tensor input = data.gatherImages(idx);
        labels = data.gatherLabels(idx);
        return input;
    };
    fam.hard = [&labels](const Tensor& out, Tensor* dout) {
        return softmaxCrossEntropy(out, labels, dout);
    };
    fam.soft = logitDistillation(opts.distillTemperature);
    fam.eval = [&data](MultiResTrainer& trainer, const SubModelConfig& cfg,
                       Tensor* logits) {
        return evalClassifier(trainer, data, cfg, logits);
    };
    fam.macProbe = rowSlice(data.testImages(), 0, 1);
    return runPipeline(model, ladder, opts, tune, fam);
}

PipelineResult
lmPipeline(LstmLm& model, const SynthText& data,
           const SubModelLadder& ladder, const PipelineOptions& opts,
           Tune tune)
{
    const std::vector<int>& stream = data.train();
    const std::size_t batch = opts.batchSize;
    const std::size_t col_len = (stream.size() - 1) / batch;
    const std::size_t windows =
        col_len > opts.bptt ? (col_len - 1) / opts.bptt : 0;
    require(windows > 0, "runLmMultiRes: training stream too short");

    std::vector<int> targets;
    TaskFamily fam;
    fam.name = "lm";
    fam.batches = windows;
    fam.next = [&](std::size_t w) {
        const std::size_t start = w * opts.bptt;
        const std::size_t t_len =
            std::min(opts.bptt, col_len - 1 - start);
        Tensor input({t_len, batch});
        targets.resize(t_len * batch);
        for (std::size_t t = 0; t < t_len; ++t)
            for (std::size_t b = 0; b < batch; ++b) {
                const std::size_t pos = b * col_len + start + t;
                input(t, b) = static_cast<float>(stream[pos]);
                targets[t * batch + b] = stream[pos + 1];
            }
        return input;
    };
    fam.hard = [&targets](const Tensor& out, Tensor* dout) {
        return softmaxCrossEntropy(out, targets, dout);
    };
    fam.soft = logitDistillation(opts.distillTemperature);
    fam.gradClip = 1.0f;
    fam.eval = [&](MultiResTrainer& trainer, const SubModelConfig& cfg,
                   Tensor*) {
        trainer.context().config = cfg;
        return lmPerplexity(model, data.valid(), opts.bptt);
    };
    fam.higherIsBetter = false; // Perplexity.
    // MACs per token: the probe is one window of validation tokens.
    fam.macProbe = Tensor({opts.bptt, 1});
    for (std::size_t t = 0; t < opts.bptt; ++t)
        fam.macProbe(t, 0) = static_cast<float>(data.valid()[t]);
    return runPipeline(model, ladder, opts, tune, fam);
}

PipelineResult
yoloPipeline(TinyYolo& model, const SynthDetect& data,
             const SubModelLadder& ladder, const PipelineOptions& opts,
             Tune tune)
{
    Batcher batcher(data.trainImages().dim(0), opts.batchSize, opts.seed);
    const std::size_t plane = 3 * data.imageSize() * data.imageSize();
    std::vector<std::vector<DetBox>> batch_truth;
    TaskFamily fam;
    fam.name = "yolo";
    fam.batches = batcher.batchesPerEpoch();
    fam.next = [&](std::size_t) {
        const auto idx = batcher.next();
        Tensor input({idx.size(), 3, data.imageSize(), data.imageSize()});
        batch_truth.clear();
        for (std::size_t i = 0; i < idx.size(); ++i) {
            std::copy(data.trainImages().data() + idx[i] * plane,
                      data.trainImages().data() + (idx[i] + 1) * plane,
                      input.data() + i * plane);
            batch_truth.push_back(data.trainBoxes()[idx[i]]);
        }
        return input;
    };
    fam.hard = [&batch_truth](const Tensor& out, Tensor* dout) {
        return yoloLoss(out, batch_truth, dout);
    };
    // Detection distillation: match the teacher's raw prediction maps.
    fam.soft = [](const Tensor& s, const Tensor& t, Tensor* ds) {
        return mseLoss(s, t, ds);
    };
    fam.eval = [&data](MultiResTrainer& trainer, const SubModelConfig& cfg,
                       Tensor*) { return evalYolo(trainer, data, cfg); };
    fam.macProbe = rowSlice(data.testImages(), 0, 1);
    return runPipeline(model, ladder, opts, tune, fam);
}

} // namespace

// Single-config runs pass a one-rung ladder: it feeds the trainer's
// teacher bookkeeping, keeps the student draw degenerate and is the
// evaluated set.

PipelineResult
runClassifierMultiRes(Sequential& model, const SynthImages& data,
                      const SubModelLadder& ladder,
                      const PipelineOptions& opts)
{
    return classifierPipeline(model, data, ladder, opts, Tune::MultiRes);
}

PipelineResult
runClassifierSingle(Sequential& model, const SynthImages& data,
                    const SubModelConfig& cfg, const PipelineOptions& opts)
{
    return classifierPipeline(model, data, {cfg}, opts, Tune::Single);
}

PipelineResult
runClassifierPostTraining(Sequential& model, const SynthImages& data,
                          const SubModelLadder& ladder,
                          const PipelineOptions& opts)
{
    return classifierPipeline(model, data, ladder, opts, Tune::None);
}

PipelineResult
runLmMultiRes(LstmLm& model, const SynthText& data,
              const SubModelLadder& ladder, const PipelineOptions& opts)
{
    return lmPipeline(model, data, ladder, opts, Tune::MultiRes);
}

PipelineResult
runLmSingle(LstmLm& model, const SynthText& data,
            const SubModelConfig& cfg, const PipelineOptions& opts)
{
    return lmPipeline(model, data, {cfg}, opts, Tune::Single);
}

PipelineResult
runYoloMultiRes(TinyYolo& model, const SynthDetect& data,
                const SubModelLadder& ladder, const PipelineOptions& opts)
{
    return yoloPipeline(model, data, ladder, opts, Tune::MultiRes);
}

PipelineResult
runYoloSingle(TinyYolo& model, const SynthDetect& data,
              const SubModelConfig& cfg, const PipelineOptions& opts)
{
    return yoloPipeline(model, data, {cfg}, opts, Tune::Single);
}

} // namespace mrq
