#include "nn/batchnorm.hpp"

#include <cmath>

#include "runtime/thread_pool.hpp"

namespace mrq {

BatchNorm2d::BatchNorm2d(std::size_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps)
{
    gamma_.value = Tensor({channels}, 1.0f);
    gamma_.decay = false;
    gamma_.resetGrad();
    beta_.value = Tensor({channels});
    beta_.decay = false;
    beta_.resetGrad();
    runningMean_.value = Tensor({channels});
    runningMean_.decay = false;
    runningMean_.trainable = false;
    runningMean_.resetGrad();
    runningVar_.value = Tensor({channels}, 1.0f);
    runningVar_.decay = false;
    runningVar_.trainable = false;
    runningVar_.resetGrad();
}

Tensor
BatchNorm2d::forward(const Tensor& x)
{
    require(x.rank() == 4 && x.dim(1) == channels_,
            "BatchNorm2d::forward: expected [N, ", channels_,
            ", H, W], got ", x.shape());
    const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    const std::size_t count = n * h * w;
    require(count > 0, "BatchNorm2d: empty batch");

    Tensor y(x.shape());
    cachedXhat_ = Tensor(x.shape());
    cachedInvStd_.assign(channels_, 0.0f);
    cachedCount_ = count;

    // Channels are fully independent (statistics, running-stat
    // updates, and output planes), and the per-channel accumulation
    // order over the batch is unchanged, so this parallel loop is
    // bit-identical to the serial one.
    parallelFor(channels_, parallelGrain(count * 8),
                [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
        float mean, var;
        if (training_) {
            double sum = 0.0, sumsq = 0.0;
            for (std::size_t img = 0; img < n; ++img)
                for (std::size_t i = 0; i < h; ++i)
                    for (std::size_t j = 0; j < w; ++j) {
                        const float v = x(img, c, i, j);
                        sum += v;
                        sumsq += static_cast<double>(v) * v;
                    }
            mean = static_cast<float>(sum / count);
            var = static_cast<float>(sumsq / count) - mean * mean;
            if (var < 0.0f)
                var = 0.0f;
            runningMean_.value[c] = (1.0f - momentum_) *
                                        runningMean_.value[c] +
                                    momentum_ * mean;
            runningVar_.value[c] = (1.0f - momentum_) *
                                       runningVar_.value[c] +
                                   momentum_ * var;
        } else {
            mean = runningMean_.value[c];
            var = runningVar_.value[c];
        }
        const float inv_std = 1.0f / std::sqrt(var + eps_);
        cachedInvStd_[c] = inv_std;
        const float g = gamma_.value[c];
        const float b = beta_.value[c];
        for (std::size_t img = 0; img < n; ++img)
            for (std::size_t i = 0; i < h; ++i)
                for (std::size_t j = 0; j < w; ++j) {
                    const float xhat = (x(img, c, i, j) - mean) * inv_std;
                    cachedXhat_(img, c, i, j) = xhat;
                    y(img, c, i, j) = g * xhat + b;
                }
    }
    });
    return y;
}

Tensor
BatchNorm2d::backward(const Tensor& dy)
{
    require(!cachedXhat_.empty(), "BatchNorm2d::backward before forward");
    require(dy.sameShape(cachedXhat_),
            "BatchNorm2d::backward: gradient shape mismatch");
    const std::size_t n = dy.dim(0), h = dy.dim(2), w = dy.dim(3);
    const float count = static_cast<float>(cachedCount_);

    Tensor dx(dy.shape());
    parallelFor(channels_, parallelGrain(cachedCount_ * 8),
                [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
        double sum_dy = 0.0, sum_dy_xhat = 0.0;
        for (std::size_t img = 0; img < n; ++img)
            for (std::size_t i = 0; i < h; ++i)
                for (std::size_t j = 0; j < w; ++j) {
                    const float g = dy(img, c, i, j);
                    sum_dy += g;
                    sum_dy_xhat += g * cachedXhat_(img, c, i, j);
                }
        gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
        beta_.grad[c] += static_cast<float>(sum_dy);

        if (!training_) {
            // Eval-mode backward (used by gradient checks): xhat uses
            // fixed statistics, so dx is a plain affine chain.
            const float k = gamma_.value[c] * cachedInvStd_[c];
            for (std::size_t img = 0; img < n; ++img)
                for (std::size_t i = 0; i < h; ++i)
                    for (std::size_t j = 0; j < w; ++j)
                        dx(img, c, i, j) = dy(img, c, i, j) * k;
            continue;
        }

        const float k = gamma_.value[c] * cachedInvStd_[c] / count;
        const float mean_dy = static_cast<float>(sum_dy);
        const float mean_dy_xhat = static_cast<float>(sum_dy_xhat);
        for (std::size_t img = 0; img < n; ++img)
            for (std::size_t i = 0; i < h; ++i)
                for (std::size_t j = 0; j < w; ++j) {
                    const float xhat = cachedXhat_(img, c, i, j);
                    dx(img, c, i, j) =
                        k * (count * dy(img, c, i, j) - mean_dy -
                             xhat * mean_dy_xhat);
                }
    }
    });
    return dx;
}

void
BatchNorm2d::collectParameters(std::vector<Parameter*>& out)
{
    out.push_back(&gamma_);
    out.push_back(&beta_);
    out.push_back(&runningMean_);
    out.push_back(&runningVar_);
}

} // namespace mrq
