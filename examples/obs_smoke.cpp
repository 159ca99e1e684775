/**
 * @file
 * Observability smoke run: a deliberately tiny multi-resolution
 * training pipeline sized for CI.  Run with
 *
 *     MRQ_RUN_DIR=run ./obs_smoke
 *
 * and the run manifest plus every deterministic metric (loss curves,
 * kept-term histograms, projection-cache hits, per-rung evals) lands
 * in run/metrics.jsonl — `tools/check_schema.py metrics` validates
 * the format.  The file is byte-identical at any MRQ_THREADS.
 *
 * Also exercises the rest of the observability stack, each switch
 * adding a file to the run directory (the run is
 * classifier.multires):
 *
 *     MRQ_TRACE=1                Chrome/Perfetto timeline, <run>.trace.json
 *                                (tools/check_schema.py trace;
 *                                tools/trace_report.py prints per-path
 *                                self/total time and calls)
 *     MRQ_SAMPLE=1               CPU and heap stack profiles,
 *     MRQ_HEAPPROF=1             <run>.cpu.jsonl and <run>.heap.jsonl
 *                                (tools/check_schema.py profile;
 *                                tools/profile_diff.py diffs two or
 *                                renders one as folded stacks)
 *     MRQ_WATCHDOG=on|strict     training-health alerts in the JSONL
 *     MRQ_INSPECT=on             per-layer/per-rung numerical-health
 *                                records in inspect.jsonl
 *                                (tools/check_schema.py inspect,
 *                                tools/inspect_report.py)
 *
 * Exits non-zero when any telemetry sink failed to flush, so CI
 * catches silently lost files.  Runtime: a few seconds on one core.
 */

#include <cstdio>

#include "data/synth_images.hpp"
#include "models/classifiers.hpp"
#include "obs/manifest.hpp"
#include "train/pipelines.hpp"

int
main()
{
    using namespace mrq;

    SynthImages data(/*train=*/120, /*test=*/40, /*seed=*/3,
                     /*size=*/8, /*classes=*/4, /*noise=*/0.3);
    Rng rng(1);
    auto model = buildResNetTiny(rng, data.numClasses());

    // Two-rung TQ ladder: one aggressive, one near-full-resolution.
    SubModelLadder ladder;
    const std::size_t alphas[2] = {8, 16};
    const std::size_t betas[2] = {2, 3};
    for (int i = 0; i < 2; ++i) {
        SubModelConfig cfg;
        cfg.mode = QuantMode::Tq;
        cfg.bits = 5;
        cfg.groupSize = 16;
        cfg.alpha = alphas[i];
        cfg.beta = betas[i];
        ladder.push_back(cfg);
    }

    PipelineOptions opts;
    opts.fpEpochs = 1;
    opts.mrEpochs = 2;
    opts.batchSize = 20;
    opts.seed = 5;
    opts.verbose = true;

    const PipelineResult result =
        runClassifierMultiRes(*model, data, ladder, opts);

    std::printf("fp32 accuracy: %.3f\n", result.fp32Metric);
    for (const SubModelResult& r : result.subModels)
        std::printf("%-8s accuracy %.3f  term pairs %zu\n",
                    r.config.name().c_str(), r.metric, r.termPairs);
    return obs::sinkFlushFailures() == 0 ? 0 : 1;
}
