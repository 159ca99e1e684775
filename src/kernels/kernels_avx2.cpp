/**
 * @file
 * AVX2 + FMA kernel variant.
 *
 * Compiled with -mavx2 -mfma via per-source flags (src/CMakeLists.txt
 * defines MRQ_KERNELS_HAVE_AVX2 when the compiler accepts them);
 * without compiler support the TU degrades to a nullptr table and the
 * dispatcher never offers this ISA.
 *
 * Every kernel restates the generic construction lane for lane
 * (kernel_scalar.hpp): the 16 virtual dot lanes map to two ymm
 * accumulators, tails use fault-suppressing vmaskmov loads whose
 * zeroed lanes are exact no-ops (fma(0, 0, acc) == acc — the
 * accumulators provably never hold -0), and the lattice rounding uses
 * the same trunc / tie-blend / nearest sequence.  Bit-identity with
 * the generic table is enforced by tests/kernels/.
 */

#include "kernels/kernels.hpp"

#ifdef MRQ_KERNELS_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "kernels/kernel_scalar.hpp"

namespace mrq {
namespace kernels {

namespace {

/** Lane mask selecting the first k of 8 lanes (1 <= k <= 8). */
inline __m256i
tailMask8(std::size_t k)
{
    alignas(32) static const std::int32_t source[16] = {
        -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(source + 8 - k));
}

/** Widest sparseRowGemm register tile, in ymm accumulators (leaves
 *  the broadcast and load temporaries their own registers). */
constexpr std::size_t kSparseTileVecs = 12;

/** One register tile of sparseRowGemm: V ymm accumulators, the last
 *  one masked by @p last, run over the whole nonzero list. */
template <std::size_t V>
void
sparseTile(const std::uint32_t* idx, const float* val, std::size_t nnz,
           const float* b, std::size_t ldb, float* c, __m256i last)
{
    __m256 acc[V];
    for (std::size_t v = 0; v < V; ++v)
        acc[v] = _mm256_setzero_ps();
    for (std::size_t t = 0; t < nnz; ++t) {
        const __m256 w = _mm256_set1_ps(val[t]);
        const float* row = b + idx[t] * ldb;
        for (std::size_t v = 0; v + 1 < V; ++v)
            acc[v] = _mm256_fmadd_ps(w, _mm256_loadu_ps(row + 8 * v),
                                     acc[v]);
        acc[V - 1] = _mm256_fmadd_ps(
            w, _mm256_maskload_ps(row + 8 * (V - 1), last), acc[V - 1]);
    }
    for (std::size_t v = 0; v + 1 < V; ++v)
        _mm256_storeu_ps(c + 8 * v, acc[v]);
    _mm256_maskstore_ps(c + 8 * (V - 1), last, acc[V - 1]);
}

template <std::size_t... V>
void
sparseTileDispatch(std::size_t vecs, std::index_sequence<V...>,
                   const std::uint32_t* idx, const float* val,
                   std::size_t nnz, const float* b, std::size_t ldb,
                   float* c, __m256i last)
{
    ((vecs == V + 1 ? sparseTile<V + 1>(idx, val, nnz, b, ldb, c, last)
                    : void()),
     ...);
}

void
sparseRowGemmAvx2(const std::uint32_t* idx, const float* val,
                  std::size_t nnz, const float* b, std::size_t ldb,
                  float* c, std::size_t n)
{
    // Split the row into equal tiles of at most kSparseTileVecs
    // vectors, so no pass runs a lone short vector.
    const std::size_t vecs = ceilDiv(n, std::size_t{8});
    const std::size_t tiles = ceilDiv(vecs, kSparseTileVecs);
    std::size_t j = 0;
    for (std::size_t tile = 0; tile < tiles; ++tile) {
        const std::size_t tv = ceilDiv(vecs - j / 8, tiles - tile);
        const std::size_t width = std::min(n - j, 8 * tv);
        sparseTileDispatch(
            tv, std::make_index_sequence<kSparseTileVecs>{}, idx, val, nnz,
            b + j, ldb, c + j, tailMask8(width - 8 * (tv - 1)));
        j += width;
    }
}

/**
 * The fixed 16-lane tree of four rows at once (two ymm halves each):
 * lane l absorbs l+8, then l+4, l+2, l+1, exactly as in the generic
 * tree, with rows packed side by side so one add serves two or four
 * of them.  Writes the four sums to s[0..3].
 */
inline void
reduceLanes16x4(const __m256* lo, const __m256* hi, float* s)
{
    // l += l+8.
    const __m256 s8_0 = _mm256_add_ps(lo[0], hi[0]);
    const __m256 s8_1 = _mm256_add_ps(lo[1], hi[1]);
    const __m256 s8_2 = _mm256_add_ps(lo[2], hi[2]);
    const __m256 s8_3 = _mm256_add_ps(lo[3], hi[3]);
    // l += l+4: one 128-bit half per row, [row0 | row1], [row2 | row3].
    const __m256 s4_01 =
        _mm256_add_ps(_mm256_permute2f128_ps(s8_0, s8_1, 0x20),
                      _mm256_permute2f128_ps(s8_0, s8_1, 0x31));
    const __m256 s4_23 =
        _mm256_add_ps(_mm256_permute2f128_ps(s8_2, s8_3, 0x20),
                      _mm256_permute2f128_ps(s8_2, s8_3, 0x31));
    // l += l+2: halves hold [row0 l0 l1, row2 l0 l1 | row1 .., row3 ..].
    const __m256 s2 = _mm256_add_ps(
        _mm256_shuffle_ps(s4_01, s4_23, _MM_SHUFFLE(1, 0, 1, 0)),
        _mm256_shuffle_ps(s4_01, s4_23, _MM_SHUFFLE(3, 2, 3, 2)));
    // l += l+1: lanes 0, 1, 4, 5 hold rows 0, 2, 1, 3.
    const __m256 s1 = _mm256_add_ps(
        _mm256_shuffle_ps(s2, s2, _MM_SHUFFLE(2, 0, 2, 0)),
        _mm256_shuffle_ps(s2, s2, _MM_SHUFFLE(3, 1, 3, 1)));
    const __m256 rows = _mm256_permutevar8x32_ps(
        s1, _mm256_setr_epi32(0, 4, 1, 5, 0, 4, 1, 5));
    _mm_storeu_ps(s, _mm256_castps256_ps128(rows));
}

/** One dotRows pass: R <= 4 B rows share every A load; each row keeps
 *  its 16 virtual lanes in two ymm accumulators (lanes 0..7, 8..15). */
template <std::size_t R>
void
dotPass(const float* a, const float* b, std::size_t k, float* c,
        RowOut out)
{
    __m256 lo[4];
    __m256 hi[4];
    for (std::size_t r = 0; r < 4; ++r) {
        lo[r] = _mm256_setzero_ps();
        hi[r] = _mm256_setzero_ps();
    }
    std::size_t i = 0;
    const std::size_t full = k - k % kDotLanes;
    for (; i < full; i += kDotLanes) {
        const __m256 a_lo = _mm256_loadu_ps(a + i);
        const __m256 a_hi = _mm256_loadu_ps(a + i + 8);
        for (std::size_t r = 0; r < R; ++r) {
            lo[r] = _mm256_fmadd_ps(a_lo, _mm256_loadu_ps(b + r * k + i),
                                    lo[r]);
            hi[r] = _mm256_fmadd_ps(
                a_hi, _mm256_loadu_ps(b + r * k + i + 8), hi[r]);
        }
    }
    const std::size_t rem = k - i;
    if (rem != 0) {
        const __m256i m_lo = tailMask8(rem < 8 ? rem : 8);
        const __m256 a_lo = _mm256_maskload_ps(a + i, m_lo);
        for (std::size_t r = 0; r < R; ++r)
            lo[r] = _mm256_fmadd_ps(
                a_lo, _mm256_maskload_ps(b + r * k + i, m_lo), lo[r]);
        if (rem > 8) {
            const __m256i m_hi = tailMask8(rem - 8);
            const __m256 a_hi = _mm256_maskload_ps(a + i + 8, m_hi);
            for (std::size_t r = 0; r < R; ++r)
                hi[r] = _mm256_fmadd_ps(
                    a_hi, _mm256_maskload_ps(b + r * k + i + 8, m_hi),
                    hi[r]);
        }
    }
    float sums[4];
    reduceLanes16x4(lo, hi, sums);
    for (std::size_t r = 0; r < R; ++r)
        c[r] = out == RowOut::InpSum ? c[r] + sums[r] : sums[r];
}

void
dotRowsAvx2(const float* a, const float* b, std::size_t rows,
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
axpyAvx2(float a, const float* x, float* y, std::size_t n)
{
    const __m256 av = _mm256_set1_ps(a);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 r = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i),
                                         _mm256_loadu_ps(y + i));
        _mm256_storeu_ps(y + i, r);
    }
    if (i < n) {
        const __m256i m = tailMask8(n - i);
        const __m256 r = _mm256_fmadd_ps(av, _mm256_maskload_ps(x + i, m),
                                         _mm256_maskload_ps(y + i, m));
        _mm256_maskstore_ps(y + i, m, r);
    }
}

void
addRowInPlaceAvx2(float* y, const float* row, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(y + i,
                         _mm256_add_ps(_mm256_loadu_ps(y + i),
                                       _mm256_loadu_ps(row + i)));
    }
    if (i < n) {
        const __m256i m = tailMask8(n - i);
        const __m256 r = _mm256_add_ps(_mm256_maskload_ps(y + i, m),
                                       _mm256_maskload_ps(row + i, m));
        _mm256_maskstore_ps(y + i, m, r);
    }
}

void
addScalarInPlaceAvx2(float* y, float v, std::size_t n)
{
    const __m256 vv = _mm256_set1_ps(v);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(y + i,
                         _mm256_add_ps(_mm256_loadu_ps(y + i), vv));
    if (i < n) {
        const __m256i m = tailMask8(n - i);
        _mm256_maskstore_ps(
            y + i, m, _mm256_add_ps(_mm256_maskload_ps(y + i, m), vv));
    }
}

/** The pinned quantize pipeline on 8 lanes: divide, clamp to the
 *  round range, round half away from zero, convert, int clamp. */
inline __m256i
latticeQuantize8(__m256 x, const LatticeParams& p)
{
    const __m256 v0 = _mm256_div_ps(x, _mm256_set1_ps(p.scale));
    // minPs / maxPs operand order matches kernel_scalar.hpp.
    const __m256 v1 = _mm256_min_ps(v0, _mm256_set1_ps(kRoundClamp));
    const __m256 v = _mm256_max_ps(v1, _mm256_set1_ps(-kRoundClamp));
    const __m256 t =
        _mm256_round_ps(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 f = _mm256_sub_ps(v, t);
    const __m256 tie = _mm256_or_ps(
        _mm256_cmp_ps(f, _mm256_set1_ps(0.5f), _CMP_EQ_OQ),
        _mm256_cmp_ps(f, _mm256_set1_ps(-0.5f), _CMP_EQ_OQ));
    const __m256 away = _mm256_add_ps(t, _mm256_add_ps(f, f));
    const __m256 near = _mm256_round_ps(
        v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256 r = _mm256_blendv_ps(near, away, tie);
    __m256i q = _mm256_cvttps_epi32(r); // exact: r is integral
    q = _mm256_min_epi32(q, _mm256_set1_epi32(p.hi));
    q = _mm256_max_epi32(q, _mm256_set1_epi32(p.lo));
    return q;
}

void
latticeQuantizeAvx2(const float* x, std::int32_t* q, std::size_t n,
                    LatticeParams p)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i),
                            latticeQuantize8(_mm256_loadu_ps(x + i), p));
    if (i < n) {
        const __m256i m = tailMask8(n - i);
        _mm256_maskstore_epi32(
            q + i, m, latticeQuantize8(_mm256_maskload_ps(x + i, m), p));
    }
}

void
latticeDequantAvx2(const std::int32_t* q, float* out, std::size_t n,
                   float scale)
{
    const __m256 sv = _mm256_set1_ps(scale);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_cvtepi32_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(q + i)));
        _mm256_storeu_ps(out + i, _mm256_mul_ps(v, sv));
    }
    if (i < n) {
        const __m256i m = tailMask8(n - i);
        const __m256 v =
            _mm256_cvtepi32_ps(_mm256_maskload_epi32(q + i, m));
        _mm256_maskstore_ps(out + i, m, _mm256_mul_ps(v, sv));
    }
}

void
latticeRoundTripAvx2(const float* x, float* out, std::size_t n,
                     LatticeParams p)
{
    const __m256 sv = _mm256_set1_ps(p.scale);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i q = latticeQuantize8(_mm256_loadu_ps(x + i), p);
        _mm256_storeu_ps(out + i,
                         _mm256_mul_ps(_mm256_cvtepi32_ps(q), sv));
    }
    if (i < n) {
        const __m256i m = tailMask8(n - i);
        const __m256i q =
            latticeQuantize8(_mm256_maskload_ps(x + i, m), p);
        _mm256_maskstore_ps(out + i, m,
                            _mm256_mul_ps(_mm256_cvtepi32_ps(q), sv));
    }
}

void
lstmGatesAvx2(const float* z, const float* c_prev, float* gates,
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
    for (; j + 8 <= hidden; j += 8) {
        const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(gi + j),
                                          _mm256_loadu_ps(gg + j));
        const __m256 c = _mm256_fmadd_ps(_mm256_loadu_ps(gf + j),
                                         _mm256_loadu_ps(c_prev + j),
                                         prod);
        _mm256_storeu_ps(c_next + j, c);
    }
    for (; j < hidden; ++j)
        c_next[j] = fmadd(gf[j], c_prev[j], gi[j] * gg[j]);
    // Pass 3: scalar tanh(c).
    for (j = 0; j < hidden; ++j)
        h_next[j] = std::tanh(c_next[j]);
    // Pass 4: h_next *= go, vectorized.
    for (j = 0; j + 8 <= hidden; j += 8)
        _mm256_storeu_ps(h_next + j,
                         _mm256_mul_ps(_mm256_loadu_ps(h_next + j),
                                       _mm256_loadu_ps(go + j)));
    for (; j < hidden; ++j)
        h_next[j] *= go[j];
}

std::int64_t
termPairAccumulateAvx2(const std::int16_t* exps, const std::int8_t* signs,
                       std::size_t n, std::int64_t y_in)
{
    __m256i acc = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i zero = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        std::uint64_t e_bits = 0;
        std::memcpy(&e_bits, exps + i, 8);
        const __m256i e64 =
            _mm256_cvtepi16_epi64(_mm_cvtsi64_si128(
                static_cast<long long>(e_bits)));
        const __m256i mag = _mm256_sllv_epi64(one, e64);
        std::uint32_t s_bits = 0;
        std::memcpy(&s_bits, signs + i, 4);
        const __m256i s64 = _mm256_cvtepi8_epi64(
            _mm_cvtsi32_si128(static_cast<int>(s_bits)));
        const __m256i neg = _mm256_sub_epi64(zero, mag);
        const __m256i is_neg = _mm256_cmpgt_epi64(zero, s64);
        acc = _mm256_add_epi64(acc,
                               _mm256_blendv_epi8(mag, neg, is_neg));
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    std::int64_t total = y_in + lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i) {
        const std::int64_t mag = std::int64_t{1} << exps[i];
        total += signs[i] >= 0 ? mag : -mag;
    }
    return total;
}

std::int64_t
weightedBucketSumAvx2(const std::int64_t* buckets, std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t e = 0;
    for (; e + 4 <= n; e += 4) {
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(buckets + e));
        const __m256i sh = _mm256_set_epi64x(
            static_cast<long long>(e + 3), static_cast<long long>(e + 2),
            static_cast<long long>(e + 1), static_cast<long long>(e));
        acc = _mm256_add_epi64(acc, _mm256_sllv_epi64(b, sh));
    }
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    std::int64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; e < n; ++e)
        total += buckets[e] * (std::int64_t{1} << e);
    return total;
}

} // namespace

namespace detail {

const KernelTable*
avx2Table()
{
    static const KernelTable table = {
        Isa::Avx2,
        sparseRowGemmAvx2,
        dotRowsAvx2,
        axpyAvx2,
        addRowInPlaceAvx2,
        addScalarInPlaceAvx2,
        latticeQuantizeAvx2,
        latticeDequantAvx2,
        latticeRoundTripAvx2,
        lstmGatesAvx2,
        termPairAccumulateAvx2,
        weightedBucketSumAvx2,
    };
    return &table;
}

} // namespace detail

} // namespace kernels
} // namespace mrq

#else // !MRQ_KERNELS_HAVE_AVX2

namespace mrq {
namespace kernels {
namespace detail {

const KernelTable*
avx2Table()
{
    return nullptr;
}

} // namespace detail
} // namespace kernels
} // namespace mrq

#endif // MRQ_KERNELS_HAVE_AVX2
