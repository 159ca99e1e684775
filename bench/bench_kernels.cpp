/**
 * @file
 * Micro-kernel substrate bench: wall time of the dispatched kernels
 * per ISA variant (generic / AVX2 / AVX-512 when compiled in), with a
 * bit-identity check pinning the determinism contract.  Timings land
 * in BENCH_kernels.json as `<kernel>_<isa>_ms` plus per-ISA speedups
 * over generic (`speedup_<isa>_<kernel>`); stdout reports only the
 * deterministic identity outcome and table shape.
 *
 * Expected shape: AVX2 well above 1x for the GEMM tile (dotRows) and
 * the term-projection lattice kernels on any AVX2 host; AVX-512 at or
 * above AVX2.  Absolute numbers are host-dependent and gated only by
 * the timing tolerance.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/fake_quant.hpp"
#include "kernels/kernels.hpp"
#include "obs/heap_profiler.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace mrq;
using kernels::Isa;

Tensor
randomTensor(std::vector<std::size_t> shape, Rng& rng, float scale = 1.0f)
{
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.normal()) * scale;
    return t;
}

/** Best-of-5 wall time in milliseconds. */
template <typename Fn>
double
bestOf(Fn&& fn, int reps = 5)
{
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep)
        best = std::min(best, mrq::bench::wallTimeMs(fn));
    return best;
}

bool
bitIdentical(const Tensor& a, const Tensor& b)
{
    return a.sameShape(b) &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

} // namespace

MRQ_BENCH(kernels_isa, "Kernel substrate",
          "micro-kernel wall time per ISA variant")
{
    Rng rng(321);
    const bool quick = ctx.quick();

    // GEMM tile: matmulTransB is a pure dotRows loop.
    const std::size_t mm = quick ? 128 : 256;
    const Tensor a = randomTensor({mm, 2 * mm}, rng);
    const Tensor b = randomTensor({mm, 2 * mm}, rng);

    // Term projection: lattice quantize + group project + dequantize.
    const Tensor w =
        randomTensor({quick ? 256u : 512u, 1152u}, rng, 0.3f);
    SubModelConfig tq;
    tq.mode = QuantMode::Tq;
    tq.bits = 5;
    tq.groupSize = 16;
    tq.alpha = 14;
    tq.beta = 3;

    // LSTM gate pass: one big batch row set.
    const std::size_t hidden = quick ? 256 : 650;
    const std::size_t gate_rows = 64;
    const Tensor z = randomTensor({gate_rows, 4 * hidden}, rng);
    const Tensor c_prev = randomTensor({gate_rows, hidden}, rng);

    // Hw-sim term-pair accumulate: synthetic pair stream.
    const std::size_t pairs = quick ? (1u << 16) : (1u << 18);
    std::vector<std::int16_t> p_exps(pairs);
    std::vector<std::int8_t> p_signs(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
        p_exps[i] = static_cast<std::int16_t>(rng.next() % 40);
        p_signs[i] = (rng.next() & 1) != 0 ? 1 : -1;
    }

    struct Workload
    {
        const char* name;
        std::function<Tensor()> run;
    };
    SubModelConfig uq = tq;
    uq.mode = QuantMode::Uq;

    const std::vector<Workload> workloads = {
        {"gemm_tile", [&] { return matmulTransB(a, b); }},
        // The dispatched quantize/dequantize kernels on their own (Uq
        // round-trip) ...
        {"term_projection",
         [&] { return fakeQuantWeights(w, 1.0f, uq); }},
        // ... and the full TQ weight projection, whose group-term
        // selection is ISA-invariant integer code (expect ~1x).
        {"tq_weight_projection",
         [&] { return fakeQuantWeights(w, 1.0f, tq); }},
        {"lstm_gates",
         [&] {
             const kernels::KernelTable& kt = kernels::kernels();
             Tensor gates({gate_rows, 4 * hidden});
             Tensor c({gate_rows, hidden});
             Tensor h({gate_rows, hidden});
             for (std::size_t i = 0; i < gate_rows; ++i)
                 kt.lstmGates(z.data() + i * 4 * hidden,
                              c_prev.data() + i * hidden,
                              gates.data() + i * 4 * hidden,
                              c.data() + i * hidden,
                              h.data() + i * hidden, hidden);
             return h;
         }},
        {"term_pair_accumulate",
         [&] {
             const kernels::KernelTable& kt = kernels::kernels();
             Tensor out({1});
             out[0] = static_cast<float>(
                 kt.termPairAccumulate(p_exps.data(), p_signs.data(),
                                       pairs, 0) %
                 65536);
             return out;
         }},
    };

    std::vector<Isa> isas = {Isa::Generic};
    if (kernels::kernelTableFor(Isa::Avx2) != nullptr)
        isas.push_back(Isa::Avx2);
    if (kernels::kernelTableFor(Isa::Avx512) != nullptr)
        isas.push_back(Isa::Avx512);

    const Isa saved = kernels::activeIsa();
    bool identical = true;

    ctx.printf("  %-22s", "kernel");
    for (Isa isa : isas)
        ctx.printf(" %9s", kernels::isaName(isa));
    ctx.printf("  (ms in BENCH json)\n");

    for (const Workload& wl : workloads) {
        kernels::setActiveIsa(Isa::Generic);
        const Tensor reference = wl.run();
        const std::string base(wl.name);

        double generic_ms = 0.0;
        ctx.printf("  %-22s", wl.name);
        for (Isa isa : isas) {
            kernels::setActiveIsa(isa);
            const bool same = bitIdentical(wl.run(), reference);
            identical = identical && same;
            const double ms = bestOf([&] { wl.run(); });
            if (isa == Isa::Generic)
                generic_ms = ms;
            ctx.timingValue(base + "_" +
                                std::string(kernels::isaName(isa)) + "_ms",
                            ms);
            if (isa != Isa::Generic && ms > 0.0)
                ctx.timingValue("speedup_" +
                                    std::string(kernels::isaName(isa)) +
                                    "_" + base,
                                generic_ms / ms);
            ctx.printf(" %9s", same ? "ok" : "DIFF");
        }
        ctx.printf("\n");
    }

    kernels::setActiveIsa(saved);
    // The variant count is host-dependent (CPU support), so it stays
    // out of the exact-gated "values" map.
    ctx.printf("  %zu ISA variant(s) available\n", isas.size());
    ctx.require(identical, "isa_variants_bit_identical");
}

MRQ_BENCH(kernels_alloc_guard, "Kernel substrate",
          "micro-kernel bodies are allocation-free (obs::AllocGuard)")
{
    // Every dispatched kernel operates on caller-owned buffers, so a
    // timed body over preallocated storage must never touch the heap.
    // Run each family under an enforcing guard and gate on zero
    // violations; under sanitizer builds (no interposition) the guard
    // is inert and the case passes vacuously.
    Rng rng(321);
    const std::size_t n = ctx.quick() ? (1u << 14) : (1u << 16);
    const std::size_t hidden = ctx.quick() ? 128 : 256;

    Tensor x = randomTensor({n}, rng);
    Tensor y = randomTensor({n}, rng);
    std::vector<std::int32_t> q(n);
    std::vector<float> dq(n);
    const Tensor z = randomTensor({4 * hidden}, rng);
    const Tensor c_prev = randomTensor({hidden}, rng);
    Tensor gates({4 * hidden});
    Tensor c_next({hidden});
    Tensor h_next({hidden});
    std::vector<std::int16_t> p_exps(n);
    std::vector<std::int8_t> p_signs(n);
    for (std::size_t i = 0; i < n; ++i) {
        p_exps[i] = static_cast<std::int16_t>(rng.next() % 40);
        p_signs[i] = (rng.next() & 1) != 0 ? 1 : -1;
    }
    std::vector<std::int64_t> buckets(40, 7);
    const kernels::LatticeParams lat =
        kernels::makeLatticeParams(5, 0.05f, true);
    // One sparse GEMM row: every other row of an [64, n / 64] B.
    const std::size_t gemm_k = 64;
    const std::size_t gemm_n = n / gemm_k;
    std::vector<std::uint32_t> nz_idx;
    std::vector<float> nz_val;
    for (std::size_t t = 0; t < gemm_k; t += 2) {
        nz_idx.push_back(static_cast<std::uint32_t>(t));
        nz_val.push_back(x[t]);
    }
    float dots[4] = {};

    const kernels::KernelTable& kt = kernels::kernels();
    volatile float f_sink = 0.0f;
    volatile std::int64_t i_sink = 0;
    const auto sweep = [&] {
        kt.dotRows(x.data(), y.data(), 4, n / 4, dots,
                   kernels::RowOut::Store);
        f_sink = f_sink + dots[0];
        kt.sparseRowGemm(nz_idx.data(), nz_val.data(), nz_idx.size(),
                         x.data(), gemm_n, y.data(), gemm_n);
        kt.axpy(0.5f, x.data(), y.data(), n);
        kt.addRowInPlace(y.data(), x.data(), n);
        kt.addScalarInPlace(y.data(), 0.25f, n);
        kt.latticeQuantize(x.data(), q.data(), n, lat);
        kt.latticeDequant(q.data(), dq.data(), n, lat.scale);
        kt.latticeRoundTrip(x.data(), dq.data(), n, lat);
        kt.lstmGates(z.data(), c_prev.data(), gates.data(),
                     c_next.data(), h_next.data(), hidden);
        i_sink = i_sink + kt.termPairAccumulate(p_exps.data(),
                                                p_signs.data(), n, 0);
        i_sink = i_sink + kt.weightedBucketSum(buckets.data(),
                                               buckets.size());
    };

    sweep(); // warm caches (and any lazy counter registration)
    const obs::AllocGuardMode prev_mode =
        obs::setAllocGuardMode(obs::AllocGuardMode::On);
    const std::int64_t before = obs::allocGuardViolationTotal();
    double guarded_ms = 0.0;
    {
        obs::AllocGuard guard("bench.kernels_body");
        guarded_ms = bestOf(sweep);
        // Reporting is exercised by the obs tests; here the count is
        // the gate.
        guard.dismiss();
    }
    const std::int64_t violations =
        obs::allocGuardViolationTotal() - before;
    obs::setAllocGuardMode(prev_mode);

    ctx.timingValue("guarded_sweep_ms", guarded_ms);
    ctx.value("guard_enforced",
              obs::heapInterpositionActive() ? 1.0 : 0.0);
    ctx.printf("  guarded kernel sweep: %.3fms, %lld violation(s)%s\n",
               guarded_ms, static_cast<long long>(violations),
               obs::heapInterpositionActive()
                   ? ""
                   : " (interposition absent: vacuous)");
    ctx.require(violations == 0,
                "kernel micro-bench bodies allocation-free");
}
