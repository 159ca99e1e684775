/**
 * @file
 * Shared workloads for the reproduction benches: the standard
 * synthetic datasets, pipeline options and ladders the paper's
 * figures use.  Printing and JSON reporting live in the harness
 * (bench/harness/); this header only sizes workloads.
 *
 * Every helper takes the BenchContext so the quick tier (--quick)
 * can shrink epochs and sample counts while keeping ladders, seeds
 * and table structure identical — the quick run exercises the same
 * code paths and emits the same trajectory keys, just from a smaller
 * workload.
 */

#ifndef MRQ_BENCH_BENCH_UTIL_HPP
#define MRQ_BENCH_BENCH_UTIL_HPP

#include <cstdint>

#include "core/quant_config.hpp"
#include "data/synth_images.hpp"
#include "harness/harness.hpp"
#include "train/pipelines.hpp"

namespace mrq {
namespace bench {

/** Standard classification workload for the training benches. */
inline SynthImages
standardImages(const BenchContext& ctx, std::uint64_t seed = 42)
{
    // 16 fine-grained classes on noisy 12x12 images: hard enough that
    // quantization budgets visibly trade accuracy, small enough for
    // single-core bench runs.  The quick tier keeps the task shape
    // and shrinks the sample count.
    if (ctx.quick())
        return SynthImages(/*train=*/150, /*test=*/60, seed,
                           /*size=*/12, /*classes=*/16, /*noise=*/0.35);
    return SynthImages(/*train=*/1200, /*test=*/400, seed, /*size=*/12,
                       /*classes=*/16, /*noise=*/0.35);
}

/** Standard pipeline options sized for single-core bench runs. */
inline PipelineOptions
standardOptions(const BenchContext& ctx, std::uint64_t seed = 7)
{
    PipelineOptions opts;
    opts.fpEpochs = ctx.quick() ? 1 : 5;
    opts.mrEpochs = ctx.quick() ? 1 : 8;
    opts.batchSize = ctx.quick() ? 25 : 50;
    opts.seed = seed;
    return opts;
}

/** Scale a sampling count down in the quick tier. */
inline std::size_t
sampleCount(const BenchContext& ctx, std::size_t full,
            std::size_t quick)
{
    return ctx.quick() ? quick : full;
}

/** The paper's 8 sub-model (alpha, beta) ladder from Fig. 19. */
inline SubModelLadder
figure19Ladder()
{
    // (8,2) (10,2) (12,2) (14,2) (14,3) (16,3) (18,3) (20,3):
    // alpha rises 8..20, beta switches from 2 to 3 midway.
    SubModelLadder ladder;
    const std::size_t alphas[8] = {8, 10, 12, 14, 14, 16, 18, 20};
    const std::size_t betas[8] = {2, 2, 2, 2, 3, 3, 3, 3};
    for (int i = 0; i < 8; ++i) {
        SubModelConfig cfg;
        cfg.mode = QuantMode::Tq;
        cfg.bits = 5;
        cfg.groupSize = 16;
        cfg.alpha = alphas[i];
        cfg.beta = betas[i];
        ladder.push_back(cfg);
    }
    return ladder;
}

} // namespace bench
} // namespace mrq

#endif // MRQ_BENCH_BENCH_UTIL_HPP
