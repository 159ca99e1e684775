/**
 * @file
 * Generic (scalar) kernel variant, the dispatch glue, and the
 * ISA-invariant term-projection helpers.
 *
 * The scalar kernels are the reference implementation of the
 * determinism contract (kernels.hpp): 16 virtual accumulator lanes
 * for reductions, explicit std::fma for every multiply-add, and the
 * pinned rounding constructions from kernel_scalar.hpp.  The SIMD
 * variants must match them bit for bit — see tests/kernels/.
 */

#include "kernels/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "common/logging.hpp"
#include "kernels/kernel_scalar.hpp"

namespace mrq {
namespace kernels {

namespace {

/** Column tile of the scalar sparse row GEMM (stack accumulators). */
constexpr std::size_t kGenericTile = 64;

void
sparseRowGemmGeneric(const std::uint32_t* idx, const float* val,
                     std::size_t nnz, const float* b, std::size_t ldb,
                     float* c, std::size_t n)
{
    for (std::size_t j0 = 0; j0 < n; j0 += kGenericTile) {
        const std::size_t w = n - j0 < kGenericTile ? n - j0 : kGenericTile;
        float acc[kGenericTile] = {};
        for (std::size_t t = 0; t < nnz; ++t) {
            const float* row = b + idx[t] * ldb + j0;
            for (std::size_t j = 0; j < w; ++j)
                acc[j] = fmadd(val[t], row[j], acc[j]);
        }
        std::copy(acc, acc + w, c + j0);
    }
}

void
dotRowsGeneric(const float* a, const float* b, std::size_t rows,
               std::size_t k, float* c, RowOut out)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const float* br = b + r * k;
        float lanes[kDotLanes] = {};
        for (std::size_t i = 0; i < k; ++i)
            lanes[i % kDotLanes] =
                fmadd(a[i], br[i], lanes[i % kDotLanes]);
        // Fixed binary tree: lane l absorbs lane l + half, half halving.
        for (std::size_t half = kDotLanes / 2; half > 0; half /= 2)
            for (std::size_t l = 0; l < half; ++l)
                lanes[l] += lanes[l + half];
        c[r] = out == RowOut::InpSum ? c[r] + lanes[0] : lanes[0];
    }
}

void
axpyGeneric(float a, const float* x, float* y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] = fmadd(a, x[i], y[i]);
}

void
addRowInPlaceGeneric(float* y, const float* row, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += row[i];
}

void
addScalarInPlaceGeneric(float* y, float v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += v;
}

void
latticeQuantizeGeneric(const float* x, std::int32_t* q, std::size_t n,
                       LatticeParams p)
{
    for (std::size_t i = 0; i < n; ++i)
        q[i] = latticeQuantizeOne(x[i], p);
}

void
latticeDequantGeneric(const std::int32_t* q, float* out, std::size_t n,
                      float scale)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = latticeDequantOne(q[i], scale);
}

void
latticeRoundTripGeneric(const float* x, float* out, std::size_t n,
                        LatticeParams p)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = latticeDequantOne(latticeQuantizeOne(x[i], p), p.scale);
}

void
lstmGatesGeneric(const float* z, const float* c_prev, float* gates,
                 float* c_next, float* h_next, std::size_t hidden)
{
    const float* zi = z;
    const float* zf = z + hidden;
    const float* zg = z + 2 * hidden;
    const float* zo = z + 3 * hidden;
    float* gi = gates;
    float* gf = gates + hidden;
    float* gg = gates + 2 * hidden;
    float* go = gates + 3 * hidden;
    // Pass 1: activations — scalar libm in every ISA variant.
    for (std::size_t j = 0; j < hidden; ++j) {
        gi[j] = sigmoidScalar(zi[j]);
        gf[j] = sigmoidScalar(zf[j]);
        gg[j] = std::tanh(zg[j]);
        go[j] = sigmoidScalar(zo[j]);
    }
    // Pass 2: cell state, one fma per element (vectorized in SIMD).
    for (std::size_t j = 0; j < hidden; ++j)
        c_next[j] = fmadd(gf[j], c_prev[j], gi[j] * gg[j]);
    // Pass 3: tanh(c) — scalar libm again.
    for (std::size_t j = 0; j < hidden; ++j)
        h_next[j] = std::tanh(c_next[j]);
    // Pass 4: gate the hidden state (vectorized in SIMD).
    for (std::size_t j = 0; j < hidden; ++j)
        h_next[j] *= go[j];
}

std::int64_t
termPairAccumulateGeneric(const std::int16_t* exps,
                          const std::int8_t* signs, std::size_t n,
                          std::int64_t y_in)
{
    std::int64_t acc = y_in;
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t mag = std::int64_t{1} << exps[i];
        acc += signs[i] >= 0 ? mag : -mag;
    }
    return acc;
}

std::int64_t
weightedBucketSumGeneric(const std::int64_t* buckets, std::size_t n)
{
    std::int64_t acc = 0;
    for (std::size_t e = 0; e < n; ++e)
        acc += buckets[e] * (std::int64_t{1} << e);
    return acc;
}

const KernelTable&
genericTable()
{
    static const KernelTable table = {
        Isa::Generic,
        sparseRowGemmGeneric,
        dotRowsGeneric,
        axpyGeneric,
        addRowInPlaceGeneric,
        addScalarInPlaceGeneric,
        latticeQuantizeGeneric,
        latticeDequantGeneric,
        latticeRoundTripGeneric,
        lstmGatesGeneric,
        termPairAccumulateGeneric,
        weightedBucketSumGeneric,
    };
    return table;
}

} // namespace

const KernelTable*
kernelTableFor(Isa isa)
{
    if (!isaAvailable(isa))
        return nullptr;
    switch (isa) {
      case Isa::Generic:
        return &genericTable();
      case Isa::Avx2:
        return detail::avx2Table();
      case Isa::Avx512:
        return detail::avx512Table();
    }
    return nullptr;
}

const KernelTable&
kernels()
{
    const KernelTable* table = kernelTableFor(activeIsa());
    return table != nullptr ? *table : genericTable();
}

LatticeParams
makeLatticeParams(int bits, float scale, bool is_signed)
{
    // qmax must stay below the kernels' pre-round clamp (2^22) so the
    // clamp can never alter a level the int clamp would keep.
    invariant(bits >= 1 && bits <= 22,
              "makeLatticeParams: bits out of kernel range");
    const std::int32_t qmax = (std::int32_t{1} << bits) - 1;
    LatticeParams p;
    p.scale = scale;
    p.lo = is_signed ? -qmax : 0;
    p.hi = qmax;
    return p;
}

TermMasks
termMasks(std::int64_t value, TermEncoding encoding)
{
    TermMasks m;
    visitTerms(value, encoding, [&](std::int8_t exp, std::int8_t sign) {
        invariant(exp < 63, "termMasks: term beyond the mask width");
        (sign > 0 ? m.pos : m.neg) |= std::uint64_t{1} << exp;
    });
    return m;
}

TqValueResult
tqValueKeepTop(std::int64_t value, std::size_t beta,
               TermEncoding encoding)
{
    const TermMasks m = termMasks(value, encoding);
    std::uint64_t keep = m.pos | m.neg;
    const auto total = static_cast<std::size_t>(std::popcount(keep));
    TqValueResult r;
    r.kept = total < beta ? total : beta;
    // The top `kept` terms are the mask without its lowest
    // total - kept bits.
    for (std::size_t k = total - r.kept; k > 0; --k)
        keep &= keep - 1;
    r.value = static_cast<std::int64_t>(m.pos & keep) -
              static_cast<std::int64_t>(m.neg & keep);
    return r;
}

TqValueTable::TqValueTable(LatticeParams lattice, std::size_t beta,
                           TermEncoding encoding)
    : lo_(lattice.lo),
      levels_(static_cast<std::size_t>(lattice.hi - lattice.lo) + 1)
{
    if (!fits())
        return;
    for (std::size_t i = 0; i < levels_; ++i) {
        const TqValueResult r = tqValueKeepTop(
            lo_ + static_cast<std::int32_t>(i), beta, encoding);
        value_[i] = static_cast<std::int32_t>(r.value);
        kept_[i] = static_cast<std::uint8_t>(r.kept);
    }
}

TermMaskTable::TermMaskTable(LatticeParams lattice, TermEncoding encoding)
    : lo_(lattice.lo),
      levels_(static_cast<std::size_t>(lattice.hi - lattice.lo) + 1),
      encoding_(encoding),
      // A value below 2^w has no term above exponent w in any
      // encoding: NAF and Booth carry at most one place past the
      // binary length.
      top_(std::bit_width(static_cast<std::uint32_t>(
          std::max(std::abs(lattice.lo), std::abs(lattice.hi)))))
{
    if (!fits())
        return;
    for (std::size_t i = 0; i < levels_; ++i)
        masks_[i] = termMasks(lo_ + static_cast<std::int32_t>(i), encoding);
}

TqGroupStats
tqGroupProject(const std::int32_t* q, std::size_t len, std::size_t budget,
               const TermMaskTable& masks, std::int32_t* out)
{
    // Exponent histogram across the group.  Selecting by exponent
    // buckets reproduces termQuantizeGroup's stable sort exactly: the
    // flatten order is member-major and no member holds two terms at
    // one exponent, so within a bucket member order is the stable tie
    // order.
    const int top = masks.topExponent();
    std::uint32_t counts[64] = {};
    for (std::size_t i = 0; i < len; ++i) {
        const TermMasks m = masks.masks(q[i]);
        const std::uint64_t terms = m.pos | m.neg;
        for (int e = 0; e <= top; ++e)
            counts[e] += static_cast<std::uint32_t>((terms >> e) & 1u);
    }
    std::size_t total = 0;
    for (int e = 0; e <= top; ++e)
        total += counts[e];
    TqGroupStats stats;
    stats.total = total;
    stats.kept = total < budget ? total : budget;

    if (total <= budget) {
        // Everything kept: the projection is the identity.
        for (std::size_t i = 0; i < len; ++i)
            out[i] = q[i];
        return stats;
    }

    // Cut: walking exponents downward, full buckets are kept until one
    // no longer fits; there the first at_cut members (in member order)
    // keep their term.  total > budget guarantees the walk stops at
    // some bucket.
    int cut = top;
    std::size_t at_cut = budget;
    for (; counts[cut] <= at_cut; --cut)
        at_cut -= counts[cut];

    // Rebuild each member from its terms above the cut, plus its term
    // at the cut while the allowance lasts.
    const std::uint64_t cut_bit = std::uint64_t{1} << cut;
    const std::uint64_t above = ~std::uint64_t{0} << cut << 1;
    for (std::size_t i = 0; i < len; ++i) {
        const TermMasks m = masks.masks(q[i]);
        std::int64_t v = static_cast<std::int64_t>(m.pos & above) -
                         static_cast<std::int64_t>(m.neg & above);
        if (at_cut > 0 && ((m.pos | m.neg) & cut_bit) != 0) {
            const auto term = static_cast<std::int64_t>(cut_bit);
            v += (m.pos & cut_bit) != 0 ? term : -term;
            --at_cut;
        }
        out[i] = static_cast<std::int32_t>(v);
    }
    return stats;
}

} // namespace kernels
} // namespace mrq
