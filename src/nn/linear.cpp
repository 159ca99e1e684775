#include "nn/linear.hpp"

#include "kernels/kernels.hpp"
#include "kernels/roofline.hpp"
#include "nn/init.hpp"
#include "tensor/ops.hpp"

namespace mrq {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               bool bias)
    : inFeatures_(in_features), outFeatures_(out_features), hasBias_(bias)
{
    weight_.value = Tensor({out_features, in_features});
    kaimingNormal(weight_.value, in_features, rng);
    weight_.resetGrad();
    quantizer_.initClip(weight_.value);
    if (hasBias_) {
        bias_.value = Tensor({out_features});
        bias_.decay = false;
        bias_.resetGrad();
    }
}

Tensor
Linear::forward(const Tensor& x)
{
    require(x.rank() == 2 && x.dim(1) == inFeatures_,
            "Linear::forward: expected [batch, ", inFeatures_, "], got ",
            x.shape());
    cachedInput_ = x;
    cachedWq_ = quantizer_.project(weight_);
    quantizer_.addMacs(x.dim(0) * outFeatures_ * inFeatures_);
    Tensor y = matmulTransB(x, cachedWq_);
    if (hasBias_) {
        const std::size_t n = y.dim(0);
        const kernels::KernelTable& kt = kernels::kernels();
        kernels::KernelRegion kr(
            kernels::KernelId::AddRow,
            static_cast<std::int64_t>(n * outFeatures_));
        for (std::size_t i = 0; i < n; ++i)
            kt.addRowInPlace(y.data() + i * outFeatures_,
                             bias_.value.data(), outFeatures_);
    }
    return y;
}

Tensor
Linear::backward(const Tensor& dy)
{
    require(dy.rank() == 2 && dy.dim(1) == outFeatures_,
            "Linear::backward: gradient shape mismatch");
    require(!cachedInput_.empty(), "Linear::backward before forward");

    // dW = dy^T x (gradient w.r.t. the projected weights).
    Tensor dw = matmulTransA(dy, cachedInput_);
    dw = quantizer_.backward(weight_.value, dw);
    if (!weight_.grad.sameShape(weight_.value))
        weight_.resetGrad();
    weight_.grad += dw;

    if (hasBias_) {
        const std::size_t n = dy.dim(0);
        const kernels::KernelTable& kt = kernels::kernels();
        kernels::KernelRegion kr(
            kernels::KernelId::AddRow,
            static_cast<std::int64_t>(n * outFeatures_));
        for (std::size_t i = 0; i < n; ++i)
            kt.addRowInPlace(bias_.grad.data(),
                             dy.data() + i * outFeatures_, outFeatures_);
    }

    // dx = dy Wq.
    return matmul(dy, cachedWq_);
}

void
Linear::collectParameters(std::vector<Parameter*>& out)
{
    out.push_back(&weight_);
    if (hasBias_)
        out.push_back(&bias_);
    out.push_back(&quantizer_.clipParam());
}

void
Linear::setQuantContext(QuantContext* ctx)
{
    quantizer_.setContext(ctx);
}

} // namespace mrq
