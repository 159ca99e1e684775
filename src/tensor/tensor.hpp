/**
 * @file
 * A small dense float tensor used throughout the library.
 *
 * Tensors are row-major, contiguous, value-semantic (copies copy the
 * buffer).  They are deliberately minimal: the NN layers in src/nn own
 * all the interesting math; this class only manages shape and storage
 * plus a handful of elementwise helpers.
 */

#ifndef MRQ_TENSOR_TENSOR_HPP
#define MRQ_TENSOR_TENSOR_HPP

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/logging.hpp"

namespace mrq {

/** Dense row-major float tensor with up to rank-4 convenience indexing. */
class Tensor
{
  public:
    /** Empty (rank-0, zero-element) tensor. */
    Tensor() = default;

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(std::vector<std::size_t> shape);

    /** Tensor of the given shape filled with @p fill. */
    Tensor(std::vector<std::size_t> shape, float fill);

    /** Tensor wrapping a copy of the provided flat data. */
    Tensor(std::vector<std::size_t> shape, std::vector<float> data);

    /** @return The shape vector. */
    const std::vector<std::size_t>& shape() const { return shape_; }

    /** @return The number of axes. */
    std::size_t rank() const { return shape_.size(); }

    /** @return The size of axis @p axis. */
    std::size_t
    dim(std::size_t axis) const
    {
        require(axis < shape_.size(), "Tensor::dim axis ", axis,
                " out of range for rank ", shape_.size());
        return shape_[axis];
    }

    /** @return Total number of elements. */
    std::size_t size() const { return data_.size(); }

    /** @return True when the tensor holds no elements. */
    bool empty() const { return data_.empty(); }

    /** Flat element access. */
    float& operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /** Checked flat element access. */
    float&
    at(std::size_t i)
    {
        require(i < data_.size(), "Tensor::at index ", i, " out of range ",
                data_.size());
        return data_[i];
    }

    /** Rank-2 access (row, col). */
    float&
    operator()(std::size_t i, std::size_t j)
    {
        return data_[i * shape_[1] + j];
    }
    float
    operator()(std::size_t i, std::size_t j) const
    {
        return data_[i * shape_[1] + j];
    }

    /** Rank-3 access. */
    float&
    operator()(std::size_t i, std::size_t j, std::size_t k)
    {
        return data_[(i * shape_[1] + j) * shape_[2] + k];
    }
    float
    operator()(std::size_t i, std::size_t j, std::size_t k) const
    {
        return data_[(i * shape_[1] + j) * shape_[2] + k];
    }

    /** Rank-4 access (e.g. NCHW). */
    float&
    operator()(std::size_t i, std::size_t j, std::size_t k, std::size_t l)
    {
        return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
    }
    float
    operator()(std::size_t i, std::size_t j, std::size_t k,
               std::size_t l) const
    {
        return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
    }

    /** Raw storage access. */
    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }

    /** Underlying flat vector (mainly for tests). */
    const std::vector<float>& flat() const { return data_; }

    /** Set every element to @p value. */
    void fill(float value);

    /** Set every element to zero. */
    void zero() { fill(0.0f); }

    /**
     * Reinterpret the buffer with a new shape of identical element count.
     * @return A tensor sharing no storage (copy) with the new shape.
     */
    Tensor reshaped(std::vector<std::size_t> new_shape) const;

    /** In-place reshape; element count must match. */
    void reshape(std::vector<std::size_t> new_shape);

    /** Elementwise in-place operations. */
    Tensor& operator+=(const Tensor& rhs);
    Tensor& operator-=(const Tensor& rhs);
    Tensor& operator*=(float s);

    /** Elementwise binary operators (shape-checked). */
    Tensor operator+(const Tensor& rhs) const;
    Tensor operator-(const Tensor& rhs) const;
    Tensor operator*(float s) const;

    /** Sum of all elements. */
    double sum() const;

    /** Maximum absolute element (0 for empty tensors). */
    float maxAbs() const;

    /** @return True when both shapes match exactly. */
    bool sameShape(const Tensor& other) const { return shape_ == other.shape_; }

  private:
    static std::size_t numel(const std::vector<std::size_t>& shape);

    std::vector<std::size_t> shape_;
    std::vector<float> data_;
};

} // namespace mrq

#endif // MRQ_TENSOR_TENSOR_HPP
