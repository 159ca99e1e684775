/**
 * @file
 * End-to-end training/evaluation pipelines for the three task
 * families the paper evaluates (image classification, language
 * modeling, object detection).
 *
 * Each pipeline mirrors the paper's recipe: full-precision
 * pretraining (the paper initializes from pretrained torchvision /
 * PyTorch-example models), weight-clip calibration, then either
 * Algorithm-1 multi-resolution fine-tuning, individually-trained
 * fine-tuning at one configuration, or no fine-tuning at all
 * (post-training quantization, the Sec. 6.3 baseline).
 *
 * All seven entry points run one driver (pipelines.cpp); a task
 * family supplies only its batches, losses, evaluator and probes.
 * Image evaluation re-estimates batch-norm statistics per
 * configuration first (EXPERIMENTS.md Known deviation 4).
 */

#ifndef MRQ_TRAIN_PIPELINES_HPP
#define MRQ_TRAIN_PIPELINES_HPP

#include <vector>

#include "core/multires_trainer.hpp"
#include "data/synth_detect.hpp"
#include "data/synth_images.hpp"
#include "data/synth_text.hpp"
#include "models/lstm_lm.hpp"
#include "models/tiny_yolo.hpp"
#include "nn/sequential.hpp"

namespace mrq {

/** Pipeline hyperparameters (shared across tasks). */
struct PipelineOptions
{
    std::size_t fpEpochs = 8;  ///< Full-precision pretraining epochs.
    std::size_t mrEpochs = 8;  ///< Multi-resolution (or single) epochs.
    std::size_t batchSize = 32;
    float fpLr = 0.08f;
    float mrLr = 0.02f;
    float momentum = 0.9f;
    float weightDecay = 1e-4f;
    /**
     * Soft-loss mix and temperature.  The paper fixes neither; gentle
     * settings keep the KD term from over-softening the targets of
     * very aggressive students (see bench_ablation_distill).
     */
    float distillWeight = 0.3f;
    float distillTemperature = 2.0f;
    bool useDistillation = true;
    std::size_t bptt = 16;     ///< LM truncated-BPTT window.
    std::uint64_t seed = 7;
    bool verbose = false;
};

/** Per-sub-model outcome of a pipeline run. */
struct SubModelResult
{
    SubModelConfig config;
    double metric = 0.0;        ///< Accuracy / perplexity / mAP.
    std::size_t termPairs = 0;  ///< Term-pair multiplications per sample.
};

/** Outcome of a pipeline run across the ladder. */
struct PipelineResult
{
    std::vector<SubModelResult> subModels;
    double fp32Metric = 0.0;           ///< Metric of the FP model.
    double fpEpochSeconds = 0.0;       ///< Mean FP epoch wall time.
    double mrEpochSeconds = 0.0;       ///< Mean multi-res epoch wall time.
};

// ---------------------------------------------------------------------
// Classification.
// ---------------------------------------------------------------------

/** FP pretrain + Algorithm-1 multi-resolution fine-tune + evaluate. */
PipelineResult runClassifierMultiRes(Sequential& model,
                                     const SynthImages& data,
                                     const SubModelLadder& ladder,
                                     const PipelineOptions& opts);

/** FP pretrain + fine-tune at a single configuration + evaluate. */
PipelineResult runClassifierSingle(Sequential& model,
                                   const SynthImages& data,
                                   const SubModelConfig& cfg,
                                   const PipelineOptions& opts);

/** FP pretrain only; evaluate every ladder entry post-training. */
PipelineResult runClassifierPostTraining(Sequential& model,
                                         const SynthImages& data,
                                         const SubModelLadder& ladder,
                                         const PipelineOptions& opts);

// ---------------------------------------------------------------------
// Language modeling.
// ---------------------------------------------------------------------

/** FP pretrain + multi-resolution fine-tune + evaluate perplexities. */
PipelineResult runLmMultiRes(LstmLm& model, const SynthText& data,
                             const SubModelLadder& ladder,
                             const PipelineOptions& opts);

/** FP pretrain + fine-tune at a single configuration + evaluate. */
PipelineResult runLmSingle(LstmLm& model, const SynthText& data,
                           const SubModelConfig& cfg,
                           const PipelineOptions& opts);

// ---------------------------------------------------------------------
// Detection.
// ---------------------------------------------------------------------

/** FP pretrain + multi-resolution fine-tune + evaluate mAP. */
PipelineResult runYoloMultiRes(TinyYolo& model, const SynthDetect& data,
                               const SubModelLadder& ladder,
                               const PipelineOptions& opts);

/** FP pretrain + fine-tune at a single configuration + evaluate. */
PipelineResult runYoloSingle(TinyYolo& model, const SynthDetect& data,
                             const SubModelConfig& cfg,
                             const PipelineOptions& opts);

} // namespace mrq

#endif // MRQ_TRAIN_PIPELINES_HPP
