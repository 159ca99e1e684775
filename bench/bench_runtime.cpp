/**
 * @file
 * Runtime-layer scaling bench: wall time of the hot kernels at pool
 * sizes 1/2/4/8, with a bit-identity check across sizes (the thread
 * pool's determinism contract).  Per-kernel timings land in the
 * trajectory JSON as timing values (`<kernel>_t<threads>_ms`); stdout
 * reports only the deterministic bit-identity outcome.
 *
 * Expected shape: near-linear speedup for matmul and conv up to the
 * physical core count — at least 2x at 4 threads on a >= 4-core host.
 * On fewer cores the extra pool sizes measure dispatch overhead only;
 * the bit-identity check is meaningful regardless.
 */

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/fake_quant.hpp"
#include "nn/conv.hpp"
#include "obs/inspect.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace mrq;

Tensor
randomTensor(std::vector<std::size_t> shape, Rng& rng, float scale = 1.0f)
{
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.normal()) * scale;
    return t;
}

/** Best-of-3 wall time in milliseconds. */
template <typename Fn>
double
bestOf3(Fn&& fn)
{
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep)
        best = std::min(best, mrq::bench::wallTimeMs(fn));
    return best;
}

bool
bitIdentical(const Tensor& a, const Tensor& b)
{
    if (!a.sameShape(b))
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

} // namespace

MRQ_BENCH(runtime_scaling, "Runtime layer",
          "kernel wall time vs thread-pool size")
{
    Rng rng(123);
    const Tensor a = randomTensor({256, 512}, rng);
    const Tensor b = randomTensor({512, 256}, rng);
    const Tensor w = randomTensor({512, 1152}, rng, 0.3f);
    const Tensor x = randomTensor({8, 16, 32, 32}, rng);
    SubModelConfig tq;
    tq.mode = QuantMode::Tq;
    tq.bits = 5;
    tq.groupSize = 16;
    tq.alpha = 14;
    tq.beta = 3;
    Rng conv_rng(5);
    Conv2d conv(16, 32, 3, 1, 1, conv_rng);

    struct Workload
    {
        const char* name;
        std::function<Tensor()> run;
    };
    const std::vector<Workload> workloads = {
        {"matmul_256x512x256", [&] { return matmul(a, b); }},
        {"fake_quant_w_512x1152",
         [&] { return fakeQuantWeights(w, 1.0f, tq); }},
        {"im2col_8x16x32x32", [&] { return im2col(x, 3, 1, 1); }},
        {"conv2d_fwd_8x16x32x32", [&] { return conv.forward(x); }},
    };

    const std::vector<std::size_t> pool_sizes = {1, 2, 4, 8};
    bool identical = true;

    ctx.printf("  %-24s pool sizes", "kernel");
    for (std::size_t t : pool_sizes)
        ctx.printf(" T=%zu", t);
    ctx.printf(" (timings in BENCH json)\n");

    for (const Workload& wl : workloads) {
        ThreadPool::instance().resize(1);
        const Tensor reference = wl.run();

        ctx.printf("  %-24s", wl.name);
        for (std::size_t threads : pool_sizes) {
            ThreadPool::instance().resize(threads);
            const bool same = bitIdentical(wl.run(), reference);
            identical = identical && same;
            const double ms = bestOf3([&] { wl.run(); });
            ctx.timingValue(std::string(wl.name) + "_t" +
                                std::to_string(threads) + "_ms",
                            ms);
            ctx.printf(" %s", same ? "ok" : "DIFF");
        }
        ctx.printf("\n");
    }

    ThreadPool::instance().resize(1);
    ctx.printf("\nbit-identity across pool sizes: %s\n",
               identical ? "REPRODUCED" : "FAILED (investigate)");
    ctx.require(identical, "bit-identity across pool sizes");
    ctx.row("expected speedup @ T=4", 2.0,
            ">= 2x on a >= 4-core host (overhead-only below)");
}

MRQ_BENCH(runtime_span_overhead, "Obs layer",
          "TraceSpan open/close cost: disabled / aggregate / timeline")
{
    // Hot-path cost of one interned span at the three tracing states.
    // Wall-clock only (timingValue), so the trajectory gate ignores
    // this case's numbers and only its presence matters.
    constexpr int kSpans = 100000;
    const auto spin = [] {
        for (int i = 0; i < kSpans; ++i) {
            MRQ_TRACE_SPAN("bench.span_overhead");
        }
    };

    const bool prev_trace = obs::setTraceEnabled(false);
    const double off_ms = bestOf3(spin);
    obs::setTraceEnabled(true);
    const double agg_ms = bestOf3(spin);
    const bool prev_export = obs::setTraceExportEnabled(true);
    const double timeline_ms = bestOf3(spin);
    obs::setTraceExportEnabled(prev_export);
    obs::setTraceEnabled(prev_trace);
    // Drop the millions of identical events this case just buffered so
    // a real timeline (MRQ_TRACE=1 with MRQ_RUN_DIR) is not flooded
    // by them.
    obs::resetTraceBuffers();

    const double scale = 1e6 / kSpans; // ms per batch -> ns per span.
    ctx.timingValue("span_disabled_ns", off_ms * scale);
    ctx.timingValue("span_aggregate_ns", agg_ms * scale);
    ctx.timingValue("span_timeline_ns", timeline_ms * scale);
    ctx.printf("  per-span cost: disabled %.1fns, aggregate %.1fns, "
               "timeline %.1fns\n",
               off_ms * scale, agg_ms * scale, timeline_ms * scale);
}

MRQ_BENCH(inspector_overhead, "Obs layer",
          "QuantInspector cost: disabled / every step / sampled at 50")
{
    // 50 train-shaped steps, each projecting one TQ weight matrix and
    // one activation tensor, at the three inspector states.  Timings
    // are wall-clock only; the record counts are deterministic and
    // gate the sampling contract (every=1 records 50x what every=50
    // does).
    Rng rng(77);
    const Tensor w = randomTensor({128, 512}, rng, 0.3f);
    const Tensor x = randomTensor({64, 512}, rng);
    SubModelConfig tq;
    tq.mode = QuantMode::Tq;
    tq.bits = 5;
    tq.groupSize = 16;
    tq.alpha = 14;
    tq.beta = 3;

    obs::QuantInspector& inspector = obs::QuantInspector::instance();
    const int kSteps = ctx.quick() ? 10 : 50;
    const auto train_like = [&] {
        for (int s = 0; s < kSteps; ++s) {
            inspector.beginStep(s);
            fakeQuantWeights(w, 1.0f, tq);
            fakeQuantData(x, 4.0f, tq);
            inspector.endStep();
        }
    };

    const bool prev_enabled = inspector.setEnabled(false);
    const std::int64_t prev_every = inspector.setEvery(1);
    inspector.reset();
    const double off_ms = bestOf3(train_like);

    inspector.setEnabled(true);
    inspector.reset();
    train_like();
    const double every1_records =
        static_cast<double>(inspector.recordCount());
    inspector.reset();
    const double every1_ms = bestOf3(train_like);

    inspector.setEvery(50);
    inspector.reset();
    train_like();
    const double sampled_records =
        static_cast<double>(inspector.recordCount());
    inspector.reset();
    const double sampled_ms = bestOf3(train_like);

    inspector.setEnabled(prev_enabled);
    inspector.setEvery(prev_every);
    inspector.reset();

    ctx.timingValue("inspect_disabled_ms", off_ms);
    ctx.timingValue("inspect_every1_ms", every1_ms);
    ctx.timingValue("inspect_sampled50_ms", sampled_ms);
    ctx.value("inspect_every1_records", every1_records);
    ctx.value("inspect_sampled50_records", sampled_records);
    ctx.printf("  %d steps: disabled %.2fms, every=1 %.2fms, "
               "every=50 %.2fms (records %d vs %d)\n",
               kSteps, off_ms, every1_ms, sampled_ms,
               static_cast<int>(every1_records),
               static_cast<int>(sampled_records));
}
