/**
 * @file
 * Dense linear-algebra kernels used by the NN layers.
 *
 * All kernels run on the shared runtime thread pool (see
 * src/runtime/thread_pool.hpp): work is chunked over independent
 * output rows or (image, channel) planes with thread-count-independent
 * chunk boundaries, so results are bit-identical at any MRQ_THREADS
 * setting.  im2col / col2im implement the standard convolution
 * lowering used by the Conv2d layer.
 */

#ifndef MRQ_TENSOR_OPS_HPP
#define MRQ_TENSOR_OPS_HPP

#include <cstdint>
#include <vector>

#include "kernels/kernels.hpp"
#include "tensor/tensor.hpp"

namespace mrq {

/**
 * The nonzero (index, value) lists of the rows of an [m, k] matrix A,
 * in ascending index order: the A operand of
 * kernels::sparseRowGemm.  Row i's list starts at offset i * k.  An
 * instance keeps its storage across assign() calls, so a caller that
 * owns one stops allocating once it has grown to the largest shape.
 */
class SparseRows
{
  public:
    /** Lists of the rows of the row-major [m, k] matrix @p a. */
    void assign(const float* a, std::size_t m, std::size_t k);

    /** Lists of the rows of A = B^T, for the row-major [k, m] @p b. */
    void assignTransposed(const float* b, std::size_t k, std::size_t m);

    std::size_t rows() const { return count_.size(); }
    std::size_t cols() const { return cols_; }

    /** Row i's list: nnz(i) indices at idx(i), values at val(i). */
    const std::uint32_t* idx(std::size_t i) const
    {
        return idx_.data() + i * cols_;
    }
    const float* val(std::size_t i) const
    {
        return val_.data() + i * cols_;
    }
    std::size_t nnz(std::size_t i) const { return count_[i]; }

  private:
    void resize(std::size_t m, std::size_t k);

    std::size_t cols_ = 0;
    std::vector<std::uint32_t> count_;
    std::vector<std::uint32_t> idx_;
    std::vector<float> val_;
};

/**
 * C [m, n] = A * B for the listed rows of A [m, k] and the row-major
 * B [k, n], one sparseRowGemm per output row, parallel over rows.
 * Each element is the ascending-k fma chain over A's nonzeros from
 * +0; zero entries of A are skipped, so a zero weight facing Inf/NaN
 * in B contributes nothing.
 */
void sparseGemm(const SparseRows& a, const float* b, std::size_t n,
                float* c);

/**
 * Matrix product C = A * B.
 *
 * @param a Shape [m, k].
 * @param b Shape [k, n].
 * @return Shape [m, n].
 */
Tensor matmul(const Tensor& a, const Tensor& b);

/** Matrix product C = A^T * B where A is [k, m] and B is [k, n]. */
Tensor matmulTransA(const Tensor& a, const Tensor& b);

/** Matrix product C = A * B^T where A is [m, k] and B is [n, k]. */
Tensor matmulTransB(const Tensor& a, const Tensor& b);

/** 2-D transpose of an [m, n] matrix. */
Tensor transpose2d(const Tensor& a);

/**
 * Lower an NCHW input into convolution columns.
 *
 * @param input  Shape [n, c, h, w].
 * @param kernel Kernel size (square).
 * @param stride Stride (same both axes).
 * @param pad    Zero padding (same all sides).
 * @return Shape [n, c*kernel*kernel, out_h*out_w].
 */
Tensor im2col(const Tensor& input, std::size_t kernel, std::size_t stride,
              std::size_t pad);

/**
 * Inverse of im2col: scatter-add columns back into an NCHW gradient.
 *
 * @param cols Shape [n, c*kernel*kernel, out_h*out_w].
 * @param c,h,w Original spatial geometry.
 */
Tensor col2im(const Tensor& cols, std::size_t c, std::size_t h,
              std::size_t w, std::size_t kernel, std::size_t stride,
              std::size_t pad);

/** Output spatial size for a conv/pool sweep. */
inline std::size_t
convOutSize(std::size_t in, std::size_t kernel, std::size_t stride,
            std::size_t pad)
{
    require(in + 2 * pad >= kernel, "convOutSize: kernel larger than input");
    return (in + 2 * pad - kernel) / stride + 1;
}

} // namespace mrq

#endif // MRQ_TENSOR_OPS_HPP
