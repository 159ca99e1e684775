/**
 * @file
 * AVX-512F kernel variant.
 *
 * Compiled with -mavx512f via per-source flags (src/CMakeLists.txt
 * defines MRQ_KERNELS_HAVE_AVX512 when the compiler accepts it).  The
 * 16 virtual dot lanes are one zmm accumulator; tails use zero-masked
 * loads (exact no-ops on the accumulator, as in the AVX2 variant) and
 * the reduction packs four rows' lanes side by side so each step of
 * the generic tree is one add for all four.  The lattice rounding
 * restates the kernel_scalar.hpp construction with vroundscale.
 */

#include "kernels/kernels.hpp"

#ifdef MRQ_KERNELS_HAVE_AVX512

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "kernels/kernel_scalar.hpp"

namespace mrq {
namespace kernels {

namespace {

/** Mask selecting the first k of 16 lanes (0 < k <= 16). */
inline __mmask16
tailMask16(std::size_t k)
{
    return static_cast<__mmask16>((1u << k) - 1u);
}

/** Widest sparseRowGemm register tile, in zmm accumulators (the
 *  conv row of 12x12 outputs, 144 floats, fits one tile). */
constexpr std::size_t kSparseTileVecs = 12;

/** One register tile of sparseRowGemm: V zmm accumulators, the last
 *  one masked to @p last lanes, run over the whole nonzero list. */
template <std::size_t V>
void
sparseTile(const std::uint32_t* idx, const float* val, std::size_t nnz,
           const float* b, std::size_t ldb, float* c, __mmask16 last)
{
    __m512 acc[V];
    for (std::size_t v = 0; v < V; ++v)
        acc[v] = _mm512_setzero_ps();
    for (std::size_t t = 0; t < nnz; ++t) {
        const __m512 w = _mm512_set1_ps(val[t]);
        const float* row = b + idx[t] * ldb;
        for (std::size_t v = 0; v + 1 < V; ++v)
            acc[v] = _mm512_fmadd_ps(w, _mm512_loadu_ps(row + 16 * v),
                                     acc[v]);
        acc[V - 1] = _mm512_fmadd_ps(
            w, _mm512_maskz_loadu_ps(last, row + 16 * (V - 1)),
            acc[V - 1]);
    }
    for (std::size_t v = 0; v + 1 < V; ++v)
        _mm512_storeu_ps(c + 16 * v, acc[v]);
    _mm512_mask_storeu_ps(c + 16 * (V - 1), last, acc[V - 1]);
}

template <std::size_t... V>
void
sparseTileDispatch(std::size_t vecs, std::index_sequence<V...>,
                   const std::uint32_t* idx, const float* val,
                   std::size_t nnz, const float* b, std::size_t ldb,
                   float* c, __mmask16 last)
{
    ((vecs == V + 1 ? sparseTile<V + 1>(idx, val, nnz, b, ldb, c, last)
                    : void()),
     ...);
}

void
sparseRowGemmAvx512(const std::uint32_t* idx, const float* val,
                    std::size_t nnz, const float* b, std::size_t ldb,
                    float* c, std::size_t n)
{
    // Split the row into equal tiles of at most kSparseTileVecs
    // vectors, so no pass runs a lone short vector.
    const std::size_t vecs = ceilDiv(n, std::size_t{16});
    const std::size_t tiles = ceilDiv(vecs, kSparseTileVecs);
    std::size_t j = 0;
    for (std::size_t tile = 0; tile < tiles; ++tile) {
        const std::size_t tv = ceilDiv(vecs - j / 16, tiles - tile);
        const std::size_t width = std::min(n - j, 16 * tv);
        sparseTileDispatch(
            tv, std::make_index_sequence<kSparseTileVecs>{}, idx, val, nnz,
            b + j, ldb, c + j, tailMask16(width - 16 * (tv - 1)));
        j += width;
    }
}

/**
 * The fixed 16-lane tree of four accumulators at once: lane l absorbs
 * l+8, then l+4, l+2, l+1, exactly as in the generic tree, with the
 * four rows packed side by side so one zmm add serves all of them.
 * Writes the four sums to s[0..3].
 */
inline void
reduceLanes16x4(__m512 a0, __m512 a1, __m512 a2, __m512 a3, float* s)
{
    // l += l+8: [lo8(a0) lo8(a1)] + [hi8(a0) hi8(a1)], same for a2/a3.
    const __m512 p01 = _mm512_add_ps(_mm512_shuffle_f32x4(a0, a1, 0x44),
                                     _mm512_shuffle_f32x4(a0, a1, 0xEE));
    const __m512 p23 = _mm512_add_ps(_mm512_shuffle_f32x4(a2, a3, 0x44),
                                     _mm512_shuffle_f32x4(a2, a3, 0xEE));
    // l += l+4: one 128-bit block per row.
    const __m512 s4 = _mm512_add_ps(_mm512_shuffle_f32x4(p01, p23, 0x88),
                                    _mm512_shuffle_f32x4(p01, p23, 0xDD));
    // l += l+2, then l += l+1, inside each block.
    const __m512 s2 =
        _mm512_add_ps(s4, _mm512_shuffle_ps(s4, s4, _MM_SHUFFLE(3, 2, 3, 2)));
    const __m512 s1 =
        _mm512_add_ps(s2, _mm512_shuffle_ps(s2, s2, _MM_SHUFFLE(1, 1, 1, 1)));
    _mm_storeu_ps(s, _mm512_castps512_ps128(
                         _mm512_maskz_compress_ps(0x1111, s1)));
}

/** One dotRows pass: R <= 4 B rows share every A load. */
template <std::size_t R>
void
dotPass(const float* a, const float* b, std::size_t k, float* c,
        RowOut out)
{
    __m512 acc[4];
    for (std::size_t r = 0; r < 4; ++r)
        acc[r] = _mm512_setzero_ps();
    std::size_t i = 0;
    const std::size_t full = k - k % kDotLanes;
    for (; i < full; i += kDotLanes) {
        const __m512 av = _mm512_loadu_ps(a + i);
        for (std::size_t r = 0; r < R; ++r)
            acc[r] = _mm512_fmadd_ps(av, _mm512_loadu_ps(b + r * k + i),
                                     acc[r]);
    }
    if (i < k) {
        const __mmask16 m = tailMask16(k - i);
        const __m512 av = _mm512_maskz_loadu_ps(m, a + i);
        for (std::size_t r = 0; r < R; ++r)
            acc[r] = _mm512_fmadd_ps(
                av, _mm512_maskz_loadu_ps(m, b + r * k + i), acc[r]);
    }
    float sums[4];
    reduceLanes16x4(acc[0], acc[1], acc[2], acc[3], sums);
    for (std::size_t r = 0; r < R; ++r)
        c[r] = out == RowOut::InpSum ? c[r] + sums[r] : sums[r];
}

void
dotRowsAvx512(const float* a, const float* b, std::size_t rows,
              std::size_t k, float* c, RowOut out)
{
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4)
        dotPass<4>(a, b + r * k, k, c + r, out);
    switch (rows - r) {
      case 3:
        dotPass<3>(a, b + r * k, k, c + r, out);
        break;
      case 2:
        dotPass<2>(a, b + r * k, k, c + r, out);
        break;
      case 1:
        dotPass<1>(a, b + r * k, k, c + r, out);
        break;
      default:
        break;
    }
}

void
axpyAvx512(float a, const float* x, float* y, std::size_t n)
{
    const __m512 av = _mm512_set1_ps(a);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512 r = _mm512_fmadd_ps(av, _mm512_loadu_ps(x + i),
                                         _mm512_loadu_ps(y + i));
        _mm512_storeu_ps(y + i, r);
    }
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        const __m512 r =
            _mm512_fmadd_ps(av, _mm512_maskz_loadu_ps(m, x + i),
                            _mm512_maskz_loadu_ps(m, y + i));
        _mm512_mask_storeu_ps(y + i, m, r);
    }
}

void
addRowInPlaceAvx512(float* y, const float* row, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(y + i,
                         _mm512_add_ps(_mm512_loadu_ps(y + i),
                                       _mm512_loadu_ps(row + i)));
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        const __m512 r =
            _mm512_add_ps(_mm512_maskz_loadu_ps(m, y + i),
                          _mm512_maskz_loadu_ps(m, row + i));
        _mm512_mask_storeu_ps(y + i, m, r);
    }
}

void
addScalarInPlaceAvx512(float* y, float v, std::size_t n)
{
    const __m512 vv = _mm512_set1_ps(v);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(y + i,
                         _mm512_add_ps(_mm512_loadu_ps(y + i), vv));
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        _mm512_mask_storeu_ps(
            y + i, m,
            _mm512_add_ps(_mm512_maskz_loadu_ps(m, y + i), vv));
    }
}

/** The pinned quantize pipeline on 16 lanes (kernel_scalar.hpp). */
inline __m512i
latticeQuantize16(__m512 x, const LatticeParams& p)
{
    const __m512 v0 = _mm512_div_ps(x, _mm512_set1_ps(p.scale));
    const __m512 v1 = _mm512_min_ps(v0, _mm512_set1_ps(kRoundClamp));
    const __m512 v = _mm512_max_ps(v1, _mm512_set1_ps(-kRoundClamp));
    const __m512 t = _mm512_roundscale_ps(
        v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m512 f = _mm512_sub_ps(v, t);
    const __mmask16 tie =
        _mm512_cmp_ps_mask(f, _mm512_set1_ps(0.5f), _CMP_EQ_OQ) |
        _mm512_cmp_ps_mask(f, _mm512_set1_ps(-0.5f), _CMP_EQ_OQ);
    const __m512 away = _mm512_add_ps(t, _mm512_add_ps(f, f));
    const __m512 near = _mm512_roundscale_ps(
        v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m512 r = _mm512_mask_blend_ps(tie, near, away);
    __m512i q = _mm512_cvttps_epi32(r); // exact: r is integral
    q = _mm512_min_epi32(q, _mm512_set1_epi32(p.hi));
    q = _mm512_max_epi32(q, _mm512_set1_epi32(p.lo));
    return q;
}

void
latticeQuantizeAvx512(const float* x, std::int32_t* q, std::size_t n,
                      LatticeParams p)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_si512(q + i,
                            latticeQuantize16(_mm512_loadu_ps(x + i), p));
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        _mm512_mask_storeu_epi32(
            q + i, m,
            latticeQuantize16(_mm512_maskz_loadu_ps(m, x + i), p));
    }
}

void
latticeDequantAvx512(const std::int32_t* q, float* out, std::size_t n,
                     float scale)
{
    const __m512 sv = _mm512_set1_ps(scale);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512 v =
            _mm512_cvtepi32_ps(_mm512_loadu_si512(q + i));
        _mm512_storeu_ps(out + i, _mm512_mul_ps(v, sv));
    }
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        const __m512 v = _mm512_cvtepi32_ps(
            _mm512_maskz_loadu_epi32(m, q + i));
        _mm512_mask_storeu_ps(out + i, m, _mm512_mul_ps(v, sv));
    }
}

void
latticeRoundTripAvx512(const float* x, float* out, std::size_t n,
                       LatticeParams p)
{
    const __m512 sv = _mm512_set1_ps(p.scale);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512i q = latticeQuantize16(_mm512_loadu_ps(x + i), p);
        _mm512_storeu_ps(out + i,
                         _mm512_mul_ps(_mm512_cvtepi32_ps(q), sv));
    }
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        const __m512i q =
            latticeQuantize16(_mm512_maskz_loadu_ps(m, x + i), p);
        _mm512_mask_storeu_ps(out + i, m,
                              _mm512_mul_ps(_mm512_cvtepi32_ps(q), sv));
    }
}

void
lstmGatesAvx512(const float* z, const float* c_prev, float* gates,
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
    // Pass 1: activations stay scalar libm (identical in every ISA).
    for (std::size_t j = 0; j < hidden; ++j) {
        gi[j] = sigmoidScalar(zi[j]);
        gf[j] = sigmoidScalar(zf[j]);
        gg[j] = std::tanh(zg[j]);
        go[j] = sigmoidScalar(zo[j]);
    }
    // Pass 2: c_next = fma(gf, c_prev, gi * gg), vectorized.
    std::size_t j = 0;
    for (; j + 16 <= hidden; j += 16) {
        const __m512 prod = _mm512_mul_ps(_mm512_loadu_ps(gi + j),
                                          _mm512_loadu_ps(gg + j));
        const __m512 c = _mm512_fmadd_ps(_mm512_loadu_ps(gf + j),
                                         _mm512_loadu_ps(c_prev + j),
                                         prod);
        _mm512_storeu_ps(c_next + j, c);
    }
    for (; j < hidden; ++j)
        c_next[j] = fmadd(gf[j], c_prev[j], gi[j] * gg[j]);
    // Pass 3: scalar tanh(c).
    for (j = 0; j < hidden; ++j)
        h_next[j] = std::tanh(c_next[j]);
    // Pass 4: h_next *= go, vectorized.
    for (j = 0; j + 16 <= hidden; j += 16)
        _mm512_storeu_ps(h_next + j,
                         _mm512_mul_ps(_mm512_loadu_ps(h_next + j),
                                       _mm512_loadu_ps(go + j)));
    for (; j < hidden; ++j)
        h_next[j] *= go[j];
}

std::int64_t
termPairAccumulateAvx512(const std::int16_t* exps,
                         const std::int8_t* signs, std::size_t n,
                         std::int64_t y_in)
{
    __m512i acc = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i zero = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m128i e16;
        std::memcpy(&e16, exps + i, 16);
        const __m512i e64 = _mm512_cvtepi16_epi64(e16);
        const __m512i mag = _mm512_sllv_epi64(one, e64);
        std::uint64_t s_bits = 0;
        std::memcpy(&s_bits, signs + i, 8);
        const __m512i s64 = _mm512_cvtepi8_epi64(
            _mm_cvtsi64_si128(static_cast<long long>(s_bits)));
        const __mmask8 is_neg = _mm512_cmpgt_epi64_mask(zero, s64);
        acc = _mm512_add_epi64(
            acc, _mm512_mask_sub_epi64(mag, is_neg, zero, mag));
    }
    std::int64_t total = y_in + _mm512_reduce_add_epi64(acc);
    for (; i < n; ++i) {
        const std::int64_t mag = std::int64_t{1} << exps[i];
        total += signs[i] >= 0 ? mag : -mag;
    }
    return total;
}

std::int64_t
weightedBucketSumAvx512(const std::int64_t* buckets, std::size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t e = 0;
    for (; e + 8 <= n; e += 8) {
        const __m512i b = _mm512_loadu_si512(buckets + e);
        const __m512i sh = _mm512_set_epi64(
            static_cast<long long>(e + 7), static_cast<long long>(e + 6),
            static_cast<long long>(e + 5), static_cast<long long>(e + 4),
            static_cast<long long>(e + 3), static_cast<long long>(e + 2),
            static_cast<long long>(e + 1), static_cast<long long>(e));
        acc = _mm512_add_epi64(acc, _mm512_sllv_epi64(b, sh));
    }
    std::int64_t total = _mm512_reduce_add_epi64(acc);
    for (; e < n; ++e)
        total += buckets[e] * (std::int64_t{1} << e);
    return total;
}

} // namespace

namespace detail {

const KernelTable*
avx512Table()
{
    static const KernelTable table = {
        Isa::Avx512,
        sparseRowGemmAvx512,
        dotRowsAvx512,
        axpyAvx512,
        addRowInPlaceAvx512,
        addScalarInPlaceAvx512,
        latticeQuantizeAvx512,
        latticeDequantAvx512,
        latticeRoundTripAvx512,
        lstmGatesAvx512,
        termPairAccumulateAvx512,
        weightedBucketSumAvx512,
    };
    return &table;
}

} // namespace detail

} // namespace kernels
} // namespace mrq

#else // !MRQ_KERNELS_HAVE_AVX512

namespace mrq {
namespace kernels {
namespace detail {

const KernelTable*
avx512Table()
{
    return nullptr;
}

} // namespace detail
} // namespace kernels
} // namespace mrq

#endif // MRQ_KERNELS_HAVE_AVX512
