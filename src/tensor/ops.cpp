#include "tensor/ops.hpp"

#include <algorithm>

#include "kernels/kernels.hpp"
#include "kernels/roofline.hpp"
#include "runtime/thread_pool.hpp"

namespace mrq {

namespace {

/** Per-thread A-operand lists of the Tensor GEMMs: grow-only, so
 *  steady-state matmul calls allocate only their output. */
SparseRows&
scratchRows()
{
    thread_local SparseRows rows;
    return rows;
}

} // namespace

void
SparseRows::resize(std::size_t m, std::size_t k)
{
    cols_ = k;
    count_.resize(m);
    if (idx_.size() < m * k) {
        idx_.resize(m * k);
        val_.resize(m * k);
    }
}

// Both builders store every entry at the list's end and advance the
// end only past nonzeros: no data-dependent branch, and the slot
// written is always inside the row's k-entry region.

void
SparseRows::assign(const float* a, std::size_t m, std::size_t k)
{
    resize(m, k);
    for (std::size_t i = 0; i < m; ++i) {
        const float* row = a + i * k;
        std::uint32_t* idx = idx_.data() + i * k;
        float* val = val_.data() + i * k;
        std::uint32_t nnz = 0;
        for (std::size_t kk = 0; kk < k; ++kk) {
            idx[nnz] = static_cast<std::uint32_t>(kk);
            val[nnz] = row[kk];
            nnz += row[kk] != 0.0f;
        }
        count_[i] = nnz;
    }
}

void
SparseRows::assignTransposed(const float* b, std::size_t k, std::size_t m)
{
    resize(m, k);
    std::fill(count_.begin(), count_.end(), 0u);
    // Walking B's rows in order appends to every list in ascending k.
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float* row = b + kk * m;
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t slot = i * k + count_[i];
            idx_[slot] = static_cast<std::uint32_t>(kk);
            val_[slot] = row[i];
            count_[i] += row[i] != 0.0f;
        }
    }
}

void
sparseGemm(const SparseRows& a, const float* b, std::size_t n, float* c)
{
    const kernels::KernelTable& kt = kernels::kernels();
    parallelFor(a.rows(), parallelGrain(a.cols() * n),
                [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
            kt.sparseRowGemm(a.idx(i), a.val(i), a.nnz(i), b, n, c + i * n,
                             n);
    });
}

Tensor
matmul(const Tensor& a, const Tensor& b)
{
    require(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 tensors required");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    require(b.dim(0) == k, "matmul: inner dimensions differ: ",
            a.shape(), " x ", b.shape());

    Tensor c({m, n});
    kernels::KernelRegion kr(kernels::KernelId::GemmAxpy,
                             static_cast<std::int64_t>(m * k * n));
    SparseRows& rows = scratchRows();
    rows.assign(a.data(), m, k);
    sparseGemm(rows, b.data(), n, c.data());
    return c;
}

Tensor
matmulTransA(const Tensor& a, const Tensor& b)
{
    require(a.rank() == 2 && b.rank() == 2,
            "matmulTransA: rank-2 tensors required");
    const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
    require(b.dim(0) == k, "matmulTransA: inner dimensions differ");

    Tensor c({m, n});
    kernels::KernelRegion kr(kernels::KernelId::GemmAxpy,
                             static_cast<std::int64_t>(m * k * n));
    SparseRows& rows = scratchRows();
    rows.assignTransposed(a.data(), k, m);
    sparseGemm(rows, b.data(), n, c.data());
    return c;
}

Tensor
matmulTransB(const Tensor& a, const Tensor& b)
{
    require(a.rank() == 2 && b.rank() == 2,
            "matmulTransB: rank-2 tensors required");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    require(b.dim(1) == k, "matmulTransB: inner dimensions differ");

    Tensor c({m, n});
    const float* pa = a.data();
    const float* pb = b.data();
    float* pc = c.data();
    // Each output element is one 16-lane tree dot, so the value is the
    // same at any thread count and any MRQ_ISA.
    const kernels::KernelTable& kt = kernels::kernels();
    kernels::KernelRegion kr(kernels::KernelId::GemmDot,
                             static_cast<std::int64_t>(m * k * n));
    parallelFor(m, parallelGrain(k * n), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
            kt.dotRows(pa + i * k, pb, n, k, pc + i * n,
                       kernels::RowOut::Store);
    });
    return c;
}

Tensor
transpose2d(const Tensor& a)
{
    require(a.rank() == 2, "transpose2d: rank-2 tensor required");
    const std::size_t m = a.dim(0), n = a.dim(1);
    Tensor t({n, m});
    parallelFor(m, parallelGrain(n), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
            for (std::size_t j = 0; j < n; ++j)
                t(j, i) = a(i, j);
    });
    return t;
}

namespace {

/** Output positions [lo, hi) of one conv tap whose input coordinate
 *  o * stride + tap - pad lies inside [0, in). */
struct ValidSpan
{
    std::size_t lo = 0;
    std::size_t hi = 0;
};

ValidSpan
validSpan(std::size_t out, std::size_t in, std::size_t tap,
          std::size_t stride, std::size_t pad)
{
    ValidSpan s;
    // First o with o * stride + tap >= pad, first o past the input.
    s.lo = tap >= pad ? 0 : (pad - tap + stride - 1) / stride;
    const std::size_t end = in + pad;
    s.hi = end <= tap ? 0 : (end - tap + stride - 1) / stride;
    s.hi = std::min(s.hi, out);
    s.lo = std::min(s.lo, s.hi);
    return s;
}

/**
 * One conv tap's valid rectangle in a plane's column band: for row
 * r < rows, band element out0 + r * ow + i pairs with input element
 * in0 + r * stride * w + i * stride, for i < len.  Padding positions
 * are outside every rectangle.
 */
struct TapSpan
{
    std::size_t rows, in0, out0, len;
};

/** The valid rectangles of every tap, in ascending (ky, kx) order;
 *  the same for every (image, channel) plane. */
std::vector<TapSpan>
tapSpans(std::size_t h, std::size_t w, std::size_t kernel,
         std::size_t stride, std::size_t pad, std::size_t oh,
         std::size_t ow)
{
    std::vector<TapSpan> spans;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
        const ValidSpan ys = validSpan(oh, h, ky, stride, pad);
        for (std::size_t kx = 0; kx < kernel; ++kx) {
            const ValidSpan xs = validSpan(ow, w, kx, stride, pad);
            if (xs.lo == xs.hi || ys.lo == ys.hi)
                continue;
            spans.push_back(
                {ys.hi - ys.lo,
                 (ys.lo * stride + ky - pad) * w + xs.lo * stride + kx - pad,
                 (ky * kernel + kx) * oh * ow + ys.lo * ow + xs.lo,
                 xs.hi - xs.lo});
        }
    }
    return spans;
}

} // namespace

Tensor
im2col(const Tensor& input, std::size_t kernel, std::size_t stride,
       std::size_t pad)
{
    require(input.rank() == 4, "im2col: NCHW input required");
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    const std::size_t oh = convOutSize(h, kernel, stride, pad);
    const std::size_t ow = convOutSize(w, kernel, stride, pad);

    Tensor cols({n, c * kernel * kernel, oh * ow});
    const std::vector<TapSpan> spans =
        tapSpans(h, w, kernel, stride, pad, oh, ow);
    const float* src = input.data();
    float* dst = cols.data();
    // Each (image, channel) pair fills a disjoint band of rows.  The
    // columns start zeroed, so only the valid spans are copied.
    const std::size_t per_pair = kernel * kernel * oh * ow;
    parallelFor(n * c, parallelGrain(per_pair),
                [&](std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p) {
            const float* plane = src + p * h * w;
            float* band = dst + p * per_pair;
            for (const TapSpan& t : spans)
                for (std::size_t r = 0; r < t.rows; ++r) {
                    const float* in = plane + t.in0 + r * stride * w;
                    float* out = band + t.out0 + r * ow;
                    for (std::size_t i = 0; i < t.len; ++i)
                        out[i] = in[i * stride];
                }
        }
    });
    return cols;
}

Tensor
col2im(const Tensor& cols, std::size_t c, std::size_t h, std::size_t w,
       std::size_t kernel, std::size_t stride, std::size_t pad)
{
    require(cols.rank() == 3, "col2im: rank-3 columns required");
    const std::size_t n = cols.dim(0);
    const std::size_t oh = convOutSize(h, kernel, stride, pad);
    const std::size_t ow = convOutSize(w, kernel, stride, pad);
    require(cols.dim(1) == c * kernel * kernel &&
            cols.dim(2) == oh * ow, "col2im: column shape mismatch");

    Tensor img({n, c, h, w});
    const std::vector<TapSpan> spans =
        tapSpans(h, w, kernel, stride, pad, oh, ow);
    const float* src = cols.data();
    float* dst = img.data();
    // Scatter-adds from one (image, channel) pair land only in that
    // pair's plane, so pairs are independent; every pixel receives its
    // taps in ascending (ky, kx) order.
    const std::size_t per_pair = kernel * kernel * oh * ow;
    parallelFor(n * c, parallelGrain(per_pair),
                [&](std::size_t p0, std::size_t p1) {
        for (std::size_t p = p0; p < p1; ++p) {
            const float* band = src + p * per_pair;
            float* plane = dst + p * h * w;
            for (const TapSpan& t : spans)
                for (std::size_t r = 0; r < t.rows; ++r) {
                    float* out = plane + t.in0 + r * stride * w;
                    const float* in = band + t.out0 + r * ow;
                    for (std::size_t i = 0; i < t.len; ++i)
                        out[i * stride] += in[i];
                }
        }
    });
    return img;
}

} // namespace mrq
