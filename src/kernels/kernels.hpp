/**
 * @file
 * Blocked micro-kernels behind the runtime ISA dispatch table.
 *
 * Every floating-point hot loop in the library (dense matmul tiles,
 * conv inner loops, LSTM gate pointwise math, the UQ lattice
 * projection) and the hw-sim term-pair integer reductions route
 * through the function pointers in KernelTable.  Three variants of
 * the table exist in one binary — generic scalar, AVX2 and AVX-512,
 * compiled with per-file ISA flags (src/CMakeLists.txt) — and
 * kernels() returns the one matching the active ISA (isa.hpp).
 *
 * Determinism contract
 * --------------------
 * Switching ISA must never change an output bit, at any MRQ_THREADS.
 * Each kernel therefore pins its floating-point semantics:
 *
 *  - Every dotRows() dot reduces through kDotLanes virtual
 *    accumulator lanes (blocking.hpp): element i lands in lane
 *    i % kDotLanes via one fused multiply-add, and the lanes collapse
 *    in a fixed binary tree (lane l absorbs lane l + 8, then l + 4,
 *    l + 2, l + 1).  The generic build keeps 16 scalar accumulators
 *    and runs the identical tree.
 *  - sparseRowGemm() computes each output element as one fma chain
 *    over the row's nonzero list in list order, starting from +0 —
 *    the chain that one axpy per nonzero runs on a zeroed row — and
 *    stores it.  Register tiling only changes which elements share a
 *    pass, never an element's chain.
 *  - dotRows() finishes every dot before it touches c: RowOut::Store
 *    writes the sum, RowOut::InpSum adds it to c once (c + sum), the
 *    exact value of `c += fresh_dot`.  c never seeds a chain.
 *  - Elementwise kernels (axpy, addRowInPlace, addScalarInPlace,
 *    lstmGates) have one FP operation per element, so only the
 *    operation itself needs pinning: multiplies and adds are IEEE
 *    single-precision, and every a*b+c is an explicit fma (the SIMD
 *    variants use vfmadd, the generic build std::fma — never the
 *    compiler's choice under -ffp-contract).
 *  - The lattice kernels replicate UniformQuantizer's
 *    round-half-away-from-zero exactly (see kernel_scalar.hpp for
 *    the tie-fix construction shared with the SIMD variants).
 *  - Transcendentals (sigmoid/tanh in lstmGates) always call scalar
 *    libm, in every variant; only the surrounding fma/mul passes are
 *    vectorized.
 *  - Integer kernels (termPairAccumulate, weightedBucketSum) are
 *    associative, so any evaluation order is exact.
 */

#ifndef MRQ_KERNELS_KERNELS_HPP
#define MRQ_KERNELS_KERNELS_HPP

#include <cstddef>
#include <cstdint>

#include "core/term_quant.hpp"
#include "kernels/blocking.hpp"
#include "kernels/isa.hpp"

namespace mrq {
namespace kernels {

/**
 * Uniform-lattice mapping parameters (mirrors UniformQuantizer).
 * Kernels clamp the scaled input to +-2^22 before rounding so every
 * intermediate is exactly representable in float; makeLatticeParams
 * checks that the lattice itself fits under that bound.
 */
struct LatticeParams
{
    float scale = 1.0f;   ///< Real step between lattice levels.
    std::int32_t lo = 0;  ///< Smallest level (-qmax or 0).
    std::int32_t hi = 0;  ///< Largest level (qmax).
};

/** Result of a single-value top-beta term projection. */
struct TqValueResult
{
    std::int64_t value = 0; ///< Sum of the kept terms.
    std::size_t kept = 0;   ///< Terms kept (<= beta).
};

/** Per-group accounting from tqGroupProject. */
struct TqGroupStats
{
    std::size_t kept = 0;  ///< Terms kept (min(budget, total)).
    std::size_t total = 0; ///< Terms before truncation.
};

/**
 * Output mode of dotRows, after the AT_CLEAR_OUTPUT / AT_INP_SUM
 * output attributes of the exemplar conv kernels (SNIPPETS.md).
 */
enum class RowOut
{
    Store,  ///< c[j] = sum
    InpSum, ///< c[j] = c[j] + sum: the finished sum added once
};

/**
 * One ISA variant of every micro-kernel.  All function pointers are
 * non-null in a table returned by kernels() / kernelTableFor().
 */
struct KernelTable
{
    /** The ISA this table's code was compiled for. */
    Isa isa = Isa::Generic;

    /**
     * One output row of a GEMM with a sparse A row:
     * c[j] = sum_t val[t] * b[idx[t] * ldb + j] for j < n.  @p idx /
     * @p val list the row's nonzeros in ascending index order;
     * accumulators stay in registers across the whole list and c is
     * written once per register tile.
     */
    void (*sparseRowGemm)(const std::uint32_t* idx, const float* val,
                          std::size_t nnz, const float* b,
                          std::size_t ldb, float* c, std::size_t n);

    /**
     * 16-lane tree dots of one A row with @p rows consecutive B rows:
     * c[r] (= or +=, per @p out) sum_i a[i] * b[r * k + i].  Up to
     * four B rows share each A load; the one-row case is the plain
     * dot product.
     */
    void (*dotRows)(const float* a, const float* b, std::size_t rows,
                    std::size_t k, float* c, RowOut out);

    /** y[i] = fma(a, x[i], y[i]) — the depthwise-conv tap update. */
    void (*axpy)(float a, const float* x, float* y, std::size_t n);

    /** y[i] += row[i] (bias rows, elementwise tensor adds). */
    void (*addRowInPlace)(float* y, const float* row, std::size_t n);

    /** y[i] += v (per-channel conv bias). */
    void (*addScalarInPlace)(float* y, float v, std::size_t n);

    /** q[i] = clamp(lround(x[i] / scale), lo, hi). */
    void (*latticeQuantize)(const float* x, std::int32_t* q,
                            std::size_t n, LatticeParams p);

    /** out[i] = float(q[i]) * scale. */
    void (*latticeDequant)(const std::int32_t* q, float* out,
                           std::size_t n, float scale);

    /** out[i] = float(clamp(lround(x[i] / scale), lo, hi)) * scale. */
    void (*latticeRoundTrip)(const float* x, float* out, std::size_t n,
                             LatticeParams p);

    /**
     * LSTM gate pointwise pass for one batch row.  @p z and @p gates
     * are length 4 * hidden in [input | forget | cell | output]
     * block layout; @p c_prev, @p c_next, @p h_next are length
     * hidden.  Computes gates = activations(z),
     * c_next = fma(g_f, c_prev, g_i * g_g),
     * h_next = g_o * tanh(c_next).
     */
    void (*lstmGates)(const float* z, const float* c_prev, float* gates,
                      float* c_next, float* h_next, std::size_t hidden);

    /**
     * Hw-sim term-pair accumulate: y_in + sum_i signs[i] * 2^exps[i]
     * (exact in int64 while the sum fits; 0 <= exps[i] < 63).
     */
    std::int64_t (*termPairAccumulate)(const std::int16_t* exps,
                                       const std::int8_t* signs,
                                       std::size_t n, std::int64_t y_in);

    /** Laconic bucket reduction: sum_e buckets[e] * 2^e. */
    std::int64_t (*weightedBucketSum)(const std::int64_t* buckets,
                                      std::size_t n);
};

namespace detail {

/** ISA variant tables; nullptr when the compiler could not build the
 *  variant (defined in kernels_avx2.cpp / kernels_avx512.cpp). */
const KernelTable* avx2Table();
const KernelTable* avx512Table();

} // namespace detail

/** The table for the active ISA (isa.hpp); resolved per call so
 *  setActiveIsa() in tests takes effect immediately. */
const KernelTable& kernels();

/** Table for a specific ISA, or nullptr when that variant is not
 *  compiled in or the CPU lacks it (parity tests and benches). */
const KernelTable* kernelTableFor(Isa isa);

/** Build LatticeParams from quantizer fields; checks qmax <= 2^22 so
 *  the kernels' pre-round clamp can never bite a legal level. */
LatticeParams makeLatticeParams(int bits, float scale, bool is_signed);

/**
 * A value's terms as exponent bit masks: bit e of pos (neg) is set
 * when the encoding has a +2^e (-2^e) term.  No encoding puts two
 * terms at one exponent, so the masks are disjoint and the value is
 * pos - neg; keeping a subset of the terms is masking both.
 */
struct TermMasks
{
    std::uint64_t pos = 0;
    std::uint64_t neg = 0;
};

/** The term masks of @p value under @p encoding, from one
 *  visitTerms walk (every exponent must stay below 63). */
TermMasks termMasks(std::int64_t value, TermEncoding encoding);

/**
 * Top-beta term projection of a single lattice value — the streaming
 * equivalent of termQuantizeValue + termCount, without the
 * per-element vector allocations: the value's term masks minus their
 * lowest total - beta bits.  ISA-invariant integer code (not
 * dispatched).
 */
TqValueResult tqValueKeepTop(std::int64_t value, std::size_t beta,
                             TermEncoding encoding);

/**
 * termMasks of every level of a lattice, for the group projection.
 * Fixed capacity, so it lives on the stack: kCapacity covers every
 * 8-bit lattice, signed or unsigned.  A wider lattice is not
 * tabulated (fits() is false) and masks() walks the element's terms
 * once instead.
 */
class TermMaskTable
{
  public:
    static constexpr std::size_t kCapacity = 512;

    TermMaskTable(LatticeParams lattice, TermEncoding encoding);

    /** Levels of the lattice (hi - lo + 1). */
    std::size_t levels() const { return levels_; }

    /** True when the lattice was tabulated. */
    bool fits() const { return levels_ <= kCapacity; }

    /** An exponent no level of the lattice has a term above. */
    int topExponent() const { return top_; }

    /** The masks of @p level (lo <= level <= hi). */
    TermMasks
    masks(std::int32_t level) const
    {
        return fits() ? masks_[static_cast<std::size_t>(level - lo_)]
                      : termMasks(level, encoding_);
    }

  private:
    std::int32_t lo_;
    std::size_t levels_;
    TermEncoding encoding_;
    int top_;
    TermMasks masks_[kCapacity];
};

/**
 * tqValueKeepTop of every level of a lattice, for per-element lookup
 * in the data projection (whose result depends only on the level,
 * beta and the encoding).  Fixed capacity, so it lives on the stack:
 * kCapacity covers every 8-bit lattice, signed or unsigned.  Wider
 * lattices are not tabulated (fits() is false) and keep the
 * per-element call.
 */
class TqValueTable
{
  public:
    static constexpr std::size_t kCapacity = 512;

    TqValueTable(LatticeParams lattice, std::size_t beta,
                 TermEncoding encoding);

    /** Levels of the lattice (hi - lo + 1). */
    std::size_t levels() const { return levels_; }

    /** True when the lattice was tabulated. */
    bool fits() const { return levels_ <= kCapacity; }

    /** The projection of @p level (lo <= level <= hi; fits()). */
    TqValueResult
    lookup(std::int32_t level) const
    {
        const auto i = static_cast<std::size_t>(level - lo_);
        return {value_[i], kept_[i]};
    }

  private:
    std::int32_t lo_;
    std::size_t levels_;
    std::int32_t value_[kCapacity];
    std::uint8_t kept_[kCapacity];
};

/**
 * Group term projection of the lattice levels @p q: the streaming
 * equivalent of termQuantizeGroup restricted to what the
 * fake-quantizer needs (the quantized values and the kept/total
 * counts, not the kept-term list).  Selects the same multiset of
 * terms as the stable sort — all terms above a cut exponent, then
 * member-order terms at the cut until the budget runs out; within one
 * member an exponent appears at most once in every encoding, so
 * member order is term order.  Works on @p masks' term masks of each
 * member: exponents are counted with mask tests over the lattice's
 * exponent range, and a member keeps (pos & above) - (neg & above)
 * plus its term at the cut while the cut's allowance lasts.  Writes
 * the projected values to @p out (may alias @p q).  ISA-invariant
 * integer code (not dispatched).
 */
TqGroupStats tqGroupProject(const std::int32_t* q, std::size_t len,
                            std::size_t budget, const TermMaskTable& masks,
                            std::int32_t* out);

} // namespace kernels
} // namespace mrq

#endif // MRQ_KERNELS_KERNELS_HPP
