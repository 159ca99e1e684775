/**
 * @file
 * Row-tile GEMM parity: sparseRowGemm and dotRows on every compiled
 * ISA must reproduce, byte for byte, the arithmetic of a scalar
 * reference — one fma per nonzero weight into a zeroed row (the
 * axpy-per-nonzero GEMM) and the 16-lane tree dot, the latter in both
 * output modes.  Conv2d's copy-free forward and backward are pinned the same
 * way against a reference of the per-image lowering (column copies,
 * axpy GEMM, per-image dots folded in image order), and im2col /
 * col2im against bounds-checked scalar loops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/blocking.hpp"
#include "kernels/kernels.hpp"
#include "nn/conv.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace mrq {
namespace {

using kernels::Isa;
using kernels::KernelTable;
using kernels::RowOut;

std::vector<Isa>
compiledIsas()
{
    std::vector<Isa> isas = {Isa::Generic};
    if (kernels::kernelTableFor(Isa::Avx2) != nullptr)
        isas.push_back(Isa::Avx2);
    if (kernels::kernelTableFor(Isa::Avx512) != nullptr)
        isas.push_back(Isa::Avx512);
    return isas;
}

bool
bitEqual(const float* a, const float* b, std::size_t n)
{
    return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool
bitEqual(const Tensor& a, const Tensor& b)
{
    return a.sameShape(b) && bitEqual(a.data(), b.data(), a.size());
}

/** Scalar reference of the axpy GEMM row: a zeroed row, one fma
 *  per nonzero weight in ascending k. */
void
refSparseRow(const float* a, std::size_t k, const float* b, std::size_t ldb,
             float* c, std::size_t n)
{
    std::fill(c, c + n, 0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
        if (a[kk] == 0.0f)
            continue;
        for (std::size_t j = 0; j < n; ++j)
            c[j] = std::fma(a[kk], b[kk * ldb + j], c[j]);
    }
}

/** Scalar reference of the 16-lane tree dot. */
float
refDot(const float* a, const float* b, std::size_t k)
{
    float lanes[kernels::kDotLanes] = {};
    for (std::size_t i = 0; i < k; ++i)
        lanes[i % kernels::kDotLanes] =
            std::fma(a[i], b[i], lanes[i % kernels::kDotLanes]);
    for (std::size_t half = kernels::kDotLanes / 2; half > 0; half /= 2)
        for (std::size_t l = 0; l < half; ++l)
            lanes[l] += lanes[l + half];
    return lanes[0];
}

std::vector<float>
randomFloats(std::size_t n, Rng& rng)
{
    std::vector<float> v(n);
    for (float& x : v)
        x = static_cast<float>(rng.normal());
    return v;
}

class ParityGemm : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = kernels::activeIsa(); }
    void TearDown() override { kernels::setActiveIsa(saved_); }

  private:
    Isa saved_ = Isa::Generic;
};

TEST_F(ParityGemm, SparseRowGemmMatchesAxpyReference)
{
    Rng rng(201);
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t k : {0u, 1u, 3u, 16u, 37u, 100u, 300u}) {
        for (std::size_t n = 1; n <= 70; ++n) {
            const std::size_t ldb = n + 3; // B rows wider than C
            // Half the weights zero, including -0.0; row 0 is all
            // zero (its output must be +0, not a stale or -0 value).
            std::vector<float> a = randomFloats(2 * k, rng);
            for (std::size_t i = 0; i < a.size(); ++i) {
                if (i < k || i % 2 == 0)
                    a[i] = (i % 4 == 0) ? -0.0f : 0.0f;
            }
            std::vector<float> b = randomFloats(k * ldb, rng);
            // Zero weights face Inf/NaN and -0 inputs: skipped weights
            // must contribute nothing at all.
            for (std::size_t kk = 0; kk < k; kk += 2) {
                b[kk * ldb] = inf;
                b[kk * ldb + n - 1] = nan;
            }
            for (std::size_t kk = 1; kk < k; kk += 3)
                b[kk * ldb + (kk % n)] = -0.0f;
            SparseRows rows;
            rows.assign(a.data(), 2, k);
            // A stale -0 and random values in C: every element is
            // overwritten.
            std::vector<float> c0 = randomFloats(n, rng);
            c0[0] = -0.0f;

            for (std::size_t r = 0; r < 2; ++r) {
                std::vector<float> want(n);
                refSparseRow(a.data() + r * k, k, b.data(), ldb, want.data(),
                             n);
                for (Isa isa : compiledIsas()) {
                    std::vector<float> got = c0;
                    kernels::kernelTableFor(isa)->sparseRowGemm(
                        rows.idx(r), rows.val(r), rows.nnz(r), b.data(), ldb,
                        got.data(), n);
                    EXPECT_TRUE(bitEqual(want.data(), got.data(), n))
                        << "k=" << k << " n=" << n << " row=" << r
                        << " isa=" << kernels::isaName(isa);
                }
            }
        }
    }
}

TEST_F(ParityGemm, DotRowsMatchesTreeDotReference)
{
    Rng rng(202);
    for (std::size_t k : {0u, 1u, 9u, 15u, 16u, 17u, 36u, 144u, 300u}) {
        for (std::size_t rows = 1; rows <= 70; ++rows) {
            const std::vector<float> a = randomFloats(k, rng);
            std::vector<float> b = randomFloats(rows * k, rng);
            for (std::size_t i = 0; i < b.size(); i += 7)
                b[i] = -0.0f;
            std::vector<float> c0 = randomFloats(rows, rng);
            c0[0] = -0.0f;
            for (RowOut out : {RowOut::Store, RowOut::InpSum}) {
                std::vector<float> want = c0;
                for (std::size_t r = 0; r < rows; ++r) {
                    const float d = refDot(a.data(), b.data() + r * k, k);
                    want[r] = out == RowOut::InpSum ? want[r] + d : d;
                }
                for (Isa isa : compiledIsas()) {
                    std::vector<float> got = c0;
                    kernels::kernelTableFor(isa)->dotRows(
                        a.data(), b.data(), rows, k, got.data(), out);
                    EXPECT_TRUE(bitEqual(want.data(), got.data(), rows))
                        << "k=" << k << " rows=" << rows
                        << " inpsum=" << (out == RowOut::InpSum)
                        << " isa=" << kernels::isaName(isa);
                }
            }
        }
    }
}

TEST_F(ParityGemm, SparseRowsListsNonzerosInAscendingOrder)
{
    // [[0, 2, -0, 3], [1, 0, 0, 0], [0, 0, 0, 0]] and its transpose.
    const std::vector<float> a = {0.0f, 2.0f, -0.0f, 3.0f, 1.0f, 0.0f,
                                  0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    SparseRows rows;
    rows.assign(a.data(), 3, 4);
    ASSERT_EQ(rows.rows(), 3u);
    ASSERT_EQ(rows.nnz(0), 2u);
    EXPECT_EQ(rows.idx(0)[0], 1u);
    EXPECT_EQ(rows.idx(0)[1], 3u);
    EXPECT_EQ(rows.val(0)[1], 3.0f);
    EXPECT_EQ(rows.nnz(1), 1u);
    EXPECT_EQ(rows.nnz(2), 0u);

    // Rows of A^T for A = the [3, 4] matrix above: column j of A.
    rows.assignTransposed(a.data(), 3, 4);
    ASSERT_EQ(rows.rows(), 4u);
    EXPECT_EQ(rows.nnz(0), 1u);
    EXPECT_EQ(rows.idx(0)[0], 1u);
    EXPECT_EQ(rows.nnz(1), 1u);
    EXPECT_EQ(rows.val(1)[0], 2.0f);
    EXPECT_EQ(rows.nnz(2), 0u);
    EXPECT_EQ(rows.nnz(3), 1u);
}

/** Bounds-checked scalar im2col: one element at a time. */
Tensor
refIm2col(const Tensor& x, std::size_t kernel, std::size_t stride,
          std::size_t pad)
{
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    const std::size_t oh = convOutSize(h, kernel, stride, pad);
    const std::size_t ow = convOutSize(w, kernel, stride, pad);
    Tensor cols({n, c * kernel * kernel, oh * ow});
    for (std::size_t img = 0; img < n; ++img)
        for (std::size_t ch = 0; ch < c; ++ch)
            for (std::size_t ky = 0; ky < kernel; ++ky)
                for (std::size_t kx = 0; kx < kernel; ++kx)
                    for (std::size_t oy = 0; oy < oh; ++oy)
                        for (std::size_t ox = 0; ox < ow; ++ox) {
                            const long iy =
                                long(oy * stride + ky) - long(pad);
                            const long ix =
                                long(ox * stride + kx) - long(pad);
                            float v = 0.0f;
                            if (iy >= 0 && iy < static_cast<long>(h) &&
                                ix >= 0 && ix < static_cast<long>(w))
                                v = x(img, ch, static_cast<std::size_t>(iy),
                                      static_cast<std::size_t>(ix));
                            cols(img, (ch * kernel + ky) * kernel + kx,
                                 oy * ow + ox) = v;
                        }
    return cols;
}

/** Bounds-checked scalar col2im: taps added in ascending (ky, kx). */
Tensor
refCol2im(const Tensor& cols, std::size_t c, std::size_t h, std::size_t w,
          std::size_t kernel, std::size_t stride, std::size_t pad)
{
    const std::size_t n = cols.dim(0);
    const std::size_t oh = convOutSize(h, kernel, stride, pad);
    const std::size_t ow = convOutSize(w, kernel, stride, pad);
    Tensor x({n, c, h, w});
    for (std::size_t img = 0; img < n; ++img)
        for (std::size_t ch = 0; ch < c; ++ch)
            for (std::size_t ky = 0; ky < kernel; ++ky)
                for (std::size_t kx = 0; kx < kernel; ++kx)
                    for (std::size_t oy = 0; oy < oh; ++oy)
                        for (std::size_t ox = 0; ox < ow; ++ox) {
                            const long iy =
                                long(oy * stride + ky) - long(pad);
                            const long ix =
                                long(ox * stride + kx) - long(pad);
                            if (iy < 0 || iy >= static_cast<long>(h) ||
                                ix < 0 || ix >= static_cast<long>(w))
                                continue;
                            x(img, ch, static_cast<std::size_t>(iy),
                              static_cast<std::size_t>(ix)) +=
                                cols(img, (ch * kernel + ky) * kernel + kx,
                                     oy * ow + ox);
                        }
    return x;
}

Tensor
randomTensor(std::vector<std::size_t> shape, Rng& rng)
{
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.normal());
    return t;
}

TEST(ParityIm2col, SpanCopiesMatchScalarReference)
{
    Rng rng(203);
    for (std::size_t kernel : {1u, 2u, 3u, 5u})
        for (std::size_t stride : {1u, 2u, 3u})
            for (std::size_t pad : {0u, 1u, 2u}) {
                const std::size_t h = 7, w = 6;
                if (h + 2 * pad < kernel || w + 2 * pad < kernel)
                    continue;
                const Tensor x = randomTensor({2, 3, h, w}, rng);
                const Tensor cols = im2col(x, kernel, stride, pad);
                EXPECT_TRUE(bitEqual(cols, refIm2col(x, kernel, stride, pad)))
                    << "im2col k=" << kernel << " s=" << stride
                    << " p=" << pad;
                const Tensor g = randomTensor(cols.shape(), rng);
                EXPECT_TRUE(bitEqual(col2im(g, 3, h, w, kernel, stride, pad),
                                     refCol2im(g, 3, h, w, kernel, stride,
                                               pad)))
                    << "col2im k=" << kernel << " s=" << stride
                    << " p=" << pad;
            }
}

/** Conv2d outputs under test. */
struct ConvResult
{
    Tensor y;
    Tensor dx;
    Tensor dweight;
    Tensor dbias;
};

/**
 * Reference of the per-image conv lowering: each image's columns
 * copied out, y = Wq * cols by one fma per nonzero weight, dW as each
 * image's 16-lane tree dots folded in image order (a zeroed partial
 * plus the image's dots, added to a zeroed total), dcols by the axpy
 * GEMM on Wq^T, the bias gradient as per-image pixel sums folded in
 * image order, then col2im.  The layer adds its gradients into zeroed
 * parameter gradients, and so does this reference.
 */
ConvResult
refConv(const Tensor& x, const Tensor& wq, const Tensor& bias,
        const Tensor& dy, std::size_t kernel, std::size_t stride,
        std::size_t pad)
{
    const std::size_t n = x.dim(0), in_c = x.dim(1);
    const std::size_t out_c = wq.dim(0), kdim = wq.dim(1);
    const Tensor cols = refIm2col(x, kernel, stride, pad);
    const std::size_t hw = cols.dim(2);
    const std::size_t oh = dy.dim(2), ow = dy.dim(3);

    ConvResult r;
    r.y = Tensor({n, out_c, oh, ow});
    Tensor dw_total({out_c, kdim});
    Tensor db_total({out_c});
    Tensor dcols({n, kdim, hw});
    for (std::size_t img = 0; img < n; ++img) {
        std::vector<float> cols_img(cols.data() + img * kdim * hw,
                                    cols.data() + (img + 1) * kdim * hw);
        std::vector<float> dy_img(dy.data() + img * out_c * hw,
                                  dy.data() + (img + 1) * out_c * hw);
        for (std::size_t o = 0; o < out_c; ++o) {
            float* yrow = r.y.data() + (img * out_c + o) * hw;
            refSparseRow(wq.data() + o * kdim, kdim, cols_img.data(), hw,
                         yrow, hw);
            if (!bias.empty())
                for (std::size_t i = 0; i < hw; ++i)
                    yrow[i] += bias[o];
        }
        for (std::size_t o = 0; o < out_c; ++o) {
            for (std::size_t row = 0; row < kdim; ++row) {
                const float part =
                    0.0f + refDot(dy_img.data() + o * hw,
                                  cols_img.data() + row * hw, hw);
                dw_total[o * kdim + row] += part;
            }
            if (!bias.empty()) {
                float part = 0.0f;
                for (std::size_t i = 0; i < hw; ++i)
                    part += dy_img[o * hw + i];
                db_total[o] += part;
            }
        }
        std::vector<float> wq_col(out_c);
        for (std::size_t row = 0; row < kdim; ++row) {
            for (std::size_t o = 0; o < out_c; ++o)
                wq_col[o] = wq[o * kdim + row];
            refSparseRow(wq_col.data(), out_c, dy_img.data(), hw,
                         dcols.data() + (img * kdim + row) * hw, hw);
        }
    }
    r.dx = refCol2im(dcols, in_c, x.dim(2), x.dim(3), kernel, stride, pad);
    r.dweight = Tensor({out_c, kdim});
    r.dweight += dw_total;
    if (!bias.empty()) {
        r.dbias = Tensor({out_c});
        r.dbias += db_total;
    }
    return r;
}

class ParityConv : public ParityGemm
{
  protected:
    /** One layer configuration on every ISA at 1 and 4 threads. */
    void
    check(std::size_t out_c, std::size_t kernel, std::size_t stride,
          std::size_t pad, std::size_t batch, bool bias, Rng& rng)
    {
        const std::size_t in_c = 3, h = 7, w = 6;
        Rng init(7);
        Conv2d conv(in_c, out_c, kernel, stride, pad, init, bias);
        // Zero about a third of the weights (some -0.0) so the skip
        // path is exercised.
        Tensor& wv = conv.weight().value;
        for (std::size_t i = 0; i < wv.size(); i += 3)
            wv[i] = (i % 2 == 0) ? 0.0f : -0.0f;
        std::vector<Parameter*> params;
        conv.collectParameters(params);
        Tensor bias_value;
        if (bias) {
            Tensor& bv = params[1]->value;
            for (std::size_t c = 0; c < out_c; ++c)
                bv[c] = static_cast<float>(rng.normal());
            bias_value = bv;
        }
        const Tensor x = randomTensor({batch, in_c, h, w}, rng);
        const std::size_t oh = convOutSize(h, kernel, stride, pad);
        const std::size_t ow = convOutSize(w, kernel, stride, pad);
        const Tensor dy = randomTensor({batch, out_c, oh, ow}, rng);
        const ConvResult want =
            refConv(x, wv, bias_value, dy, kernel, stride, pad);

        for (Isa isa : compiledIsas()) {
            kernels::setActiveIsa(isa);
            for (std::size_t threads : {1u, 4u}) {
                ThreadPool::instance().resize(threads);
                for (Parameter* p : params)
                    p->resetGrad();
                const Tensor y = conv.forward(x);
                const Tensor dx = conv.backward(dy);
                const std::string where =
                    "out_c=" + std::to_string(out_c) +
                    " k=" + std::to_string(kernel) +
                    " s=" + std::to_string(stride) +
                    " p=" + std::to_string(pad) +
                    " n=" + std::to_string(batch) +
                    " bias=" + std::to_string(bias) +
                    " isa=" + kernels::isaName(isa) +
                    " threads=" + std::to_string(threads);
                EXPECT_TRUE(bitEqual(y, want.y)) << "y " << where;
                EXPECT_TRUE(bitEqual(dx, want.dx)) << "dx " << where;
                EXPECT_TRUE(bitEqual(params[0]->grad, want.dweight))
                    << "dW " << where;
                if (bias) {
                    EXPECT_TRUE(bitEqual(params[1]->grad, want.dbias))
                        << "db " << where;
                }
            }
        }
    }
};

TEST_F(ParityConv, ForwardAndGradientsMatchPerImageReference)
{
    const std::size_t saved_threads = ThreadPool::instance().threadCount();
    Rng rng(204);
    // 11 output channels with kernel 3 (27 column rows) split dW into
    // a partial channel block and a partial row band.
    for (std::size_t out_c : {5u, 11u})
        for (std::size_t kernel : {1u, 3u})
            for (std::size_t stride : {1u, 2u})
                for (std::size_t pad : {0u, 1u})
                    for (std::size_t batch : {1u, 5u, 33u})
                        for (bool bias : {false, true})
                            check(out_c, kernel, stride, pad, batch, bias,
                                  rng);
    ThreadPool::instance().resize(saved_threads);
}

} // namespace
} // namespace mrq
