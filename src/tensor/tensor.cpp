#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "kernels/kernels.hpp"
#include "kernels/roofline.hpp"
#include "runtime/thread_pool.hpp"

namespace mrq {

namespace {

/** Elementwise loops below this size are not worth dispatching. */
constexpr std::size_t kParallelThreshold = 1u << 14;

/** Fixed elementwise grain (thread-count independent). */
constexpr std::size_t kElementGrain = 1u << 14;

} // namespace

std::size_t
Tensor::numel(const std::vector<std::size_t>& shape)
{
    std::size_t n = 1;
    for (std::size_t d : shape)
        n *= d;
    return shape.empty() ? 0 : n;
}

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(numel(shape_), 0.0f)
{
}

Tensor::Tensor(std::vector<std::size_t> shape, float fill)
    : shape_(std::move(shape)), data_(numel(shape_), fill)
{
}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    require(data_.size() == numel(shape_),
            "Tensor: data size ", data_.size(), " does not match shape ",
            shape_);
}

void
Tensor::fill(float value)
{
    if (data_.size() < kParallelThreshold) {
        std::fill(data_.begin(), data_.end(), value);
        return;
    }
    float* p = data_.data();
    parallelFor(data_.size(), kElementGrain,
                [&](std::size_t b, std::size_t e) {
        std::fill(p + b, p + e, value);
    });
}

Tensor
Tensor::reshaped(std::vector<std::size_t> new_shape) const
{
    require(numel(new_shape) == data_.size(),
            "Tensor::reshaped: element count mismatch");
    return Tensor(std::move(new_shape), data_);
}

void
Tensor::reshape(std::vector<std::size_t> new_shape)
{
    require(numel(new_shape) == data_.size(),
            "Tensor::reshape: element count mismatch");
    shape_ = std::move(new_shape);
}

Tensor&
Tensor::operator+=(const Tensor& rhs)
{
    require(sameShape(rhs), "Tensor::operator+= shape mismatch: ", shape_,
            " vs ", rhs.shape_);
    const kernels::KernelTable& kt = kernels::kernels();
    kernels::KernelRegion kr(kernels::KernelId::AddRow,
                             static_cast<std::int64_t>(data_.size()));
    if (data_.size() < kParallelThreshold) {
        kt.addRowInPlace(data_.data(), rhs.data_.data(), data_.size());
        return *this;
    }
    parallelFor(data_.size(), kElementGrain,
                [&](std::size_t b, std::size_t e) {
        kt.addRowInPlace(data_.data() + b, rhs.data_.data() + b, e - b);
    });
    return *this;
}

Tensor&
Tensor::operator-=(const Tensor& rhs)
{
    require(sameShape(rhs), "Tensor::operator-= shape mismatch: ", shape_,
            " vs ", rhs.shape_);
    if (data_.size() < kParallelThreshold) {
        for (std::size_t i = 0; i < data_.size(); ++i)
            data_[i] -= rhs.data_[i];
        return *this;
    }
    parallelFor(data_.size(), kElementGrain,
                [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            data_[i] -= rhs.data_[i];
    });
    return *this;
}

Tensor&
Tensor::operator*=(float s)
{
    if (data_.size() < kParallelThreshold) {
        for (float& v : data_)
            v *= s;
        return *this;
    }
    parallelFor(data_.size(), kElementGrain,
                [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            data_[i] *= s;
    });
    return *this;
}

Tensor
Tensor::operator+(const Tensor& rhs) const
{
    Tensor out = *this;
    out += rhs;
    return out;
}

Tensor
Tensor::operator-(const Tensor& rhs) const
{
    Tensor out = *this;
    out -= rhs;
    return out;
}

Tensor
Tensor::operator*(float s) const
{
    Tensor out = *this;
    out *= s;
    return out;
}

double
Tensor::sum() const
{
    if (data_.size() < kParallelThreshold)
        return std::accumulate(data_.begin(), data_.end(), 0.0);
    // Chunked double accumulation combined in chunk order: the chunk
    // boundaries are fixed, so the value is thread-count independent.
    return parallelReduce(
        data_.size(), kElementGrain, 0.0,
        [&](std::size_t b, std::size_t e) {
            return std::accumulate(data_.begin() + b, data_.begin() + e,
                                   0.0);
        },
        [](double acc, double part) { return acc + part; });
}

float
Tensor::maxAbs() const
{
    if (data_.size() < kParallelThreshold) {
        float m = 0.0f;
        for (float v : data_)
            m = std::max(m, std::fabs(v));
        return m;
    }
    return parallelReduce(
        data_.size(), kElementGrain, 0.0f,
        [&](std::size_t b, std::size_t e) {
            float m = 0.0f;
            for (std::size_t i = b; i < e; ++i)
                m = std::max(m, std::fabs(data_[i]));
            return m;
        },
        [](float acc, float part) { return std::max(acc, part); });
}

} // namespace mrq
