#include "nn/lstm.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.hpp"
#include "kernels/roofline.hpp"
#include "nn/init.hpp"
#include "tensor/ops.hpp"

namespace mrq {

Lstm::Lstm(std::size_t input_size, std::size_t hidden_size, Rng& rng)
    : input_(input_size), hidden_(hidden_size)
{
    wx_.value = Tensor({4 * hidden_, input_});
    wh_.value = Tensor({4 * hidden_, hidden_});
    xavierUniform(wx_.value, input_, hidden_, rng);
    xavierUniform(wh_.value, hidden_, hidden_, rng);
    wx_.resetGrad();
    wh_.resetGrad();
    quantX_.initClip(wx_.value);
    quantH_.initClip(wh_.value);

    bias_.value = Tensor({4 * hidden_});
    bias_.decay = false;
    // Forget-gate bias of 1 for stable early training.
    for (std::size_t i = hidden_; i < 2 * hidden_; ++i)
        bias_.value[i] = 1.0f;
    bias_.resetGrad();
}

Tensor
Lstm::forward(const Tensor& x)
{
    require(x.rank() == 3 && x.dim(2) == input_,
            "Lstm::forward: expected [T, N, ", input_, "], got ",
            x.shape());
    const std::size_t t_len = x.dim(0), n = x.dim(1);

    cachedInput_ = x;
    cachedWxq_ = quantX_.project(wx_);
    cachedWhq_ = quantH_.project(wh_);
    quantX_.addMacs(t_len * n * 4 * hidden_ * input_);
    quantH_.addMacs(t_len * n * 4 * hidden_ * hidden_);

    hs_.assign(t_len + 1, Tensor({n, hidden_}));
    cs_.assign(t_len + 1, Tensor({n, hidden_}));
    gates_.assign(t_len, Tensor({n, 4 * hidden_}));

    Tensor y({t_len, n, hidden_});
    for (std::size_t t = 0; t < t_len; ++t) {
        // x_t as [N, input].
        Tensor xt({n, input_});
        std::copy(x.data() + t * n * input_,
                  x.data() + (t + 1) * n * input_, xt.data());

        Tensor z = matmulTransB(xt, cachedWxq_);      // [N, 4H]
        z += matmulTransB(hs_[t], cachedWhq_);
        const kernels::KernelTable& kt = kernels::kernels();
        {
            kernels::KernelRegion kr(
                kernels::KernelId::AddRow,
                static_cast<std::int64_t>(n * 4 * hidden_));
            for (std::size_t i = 0; i < n; ++i)
                kt.addRowInPlace(z.data() + i * 4 * hidden_,
                                 bias_.value.data(), 4 * hidden_);
        }

        // The gate pointwise pass runs row by row through the kernel
        // substrate: activations are scalar libm in every ISA
        // variant, the cell-state update is one pinned fma per
        // element (kernels.hpp).
        Tensor& gate = gates_[t];
        Tensor& h_next = hs_[t + 1];
        Tensor& c_next = cs_[t + 1];
        kernels::KernelRegion kr(kernels::KernelId::LstmGates,
                                 static_cast<std::int64_t>(n * hidden_));
        for (std::size_t i = 0; i < n; ++i)
            kt.lstmGates(z.data() + i * 4 * hidden_,
                         cs_[t].data() + i * hidden_,
                         gate.data() + i * 4 * hidden_,
                         c_next.data() + i * hidden_,
                         h_next.data() + i * hidden_, hidden_);
        std::copy(h_next.data(), h_next.data() + h_next.size(),
                  y.data() + t * n * hidden_);
    }
    return y;
}

Tensor
Lstm::backward(const Tensor& dy)
{
    require(!cachedInput_.empty(), "Lstm::backward before forward");
    const std::size_t t_len = cachedInput_.dim(0);
    const std::size_t n = cachedInput_.dim(1);
    require(dy.rank() == 3 && dy.dim(0) == t_len && dy.dim(1) == n &&
                dy.dim(2) == hidden_,
            "Lstm::backward: gradient shape mismatch");

    Tensor dwx({4 * hidden_, input_});
    Tensor dwh({4 * hidden_, hidden_});
    Tensor dx(cachedInput_.shape());
    Tensor dh({n, hidden_});
    Tensor dc({n, hidden_});

    for (std::size_t t = t_len; t-- > 0;) {
        // Add the output gradient flowing into h_t.
        kernels::kernels().addRowInPlace(
            dh.data(), dy.data() + t * n * hidden_, n * hidden_);

        const Tensor& gate = gates_[t];
        Tensor dz({n, 4 * hidden_});
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < hidden_; ++j) {
                const float gi = gate(i, j);
                const float gf = gate(i, hidden_ + j);
                const float gg = gate(i, 2 * hidden_ + j);
                const float go = gate(i, 3 * hidden_ + j);
                const float c = cs_[t + 1](i, j);
                const float tc = std::tanh(c);

                const float dh_ij = dh(i, j);
                const float dc_total =
                    dc(i, j) + dh_ij * go * (1.0f - tc * tc);

                dz(i, j) = dc_total * gg * gi * (1.0f - gi);
                dz(i, hidden_ + j) =
                    dc_total * cs_[t](i, j) * gf * (1.0f - gf);
                dz(i, 2 * hidden_ + j) =
                    dc_total * gi * (1.0f - gg * gg);
                dz(i, 3 * hidden_ + j) =
                    dh_ij * tc * go * (1.0f - go);

                dc(i, j) = dc_total * gf;
            }
        }

        // dwx += dz^T x_t and dwh += dz^T h_t: the two matmulTransA
        // products share one build of dz^T's lists.
        dzT_.assignTransposed(dz.data(), n, 4 * hidden_);
        const auto add_dzt_times = [&](const float* b, std::size_t cols,
                                       Tensor& acc) {
            Tensor g({4 * hidden_, cols});
            kernels::KernelRegion kr(
                kernels::KernelId::GemmAxpy,
                static_cast<std::int64_t>(4 * hidden_ * n * cols));
            sparseGemm(dzT_, b, cols, g.data());
            acc += g;
        };
        add_dzt_times(cachedInput_.data() + t * n * input_, input_, dwx);
        add_dzt_times(hs_[t].data(), hidden_, dwh);
        const kernels::KernelTable& kt = kernels::kernels();
        {
            kernels::KernelRegion kr(
                kernels::KernelId::AddRow,
                static_cast<std::int64_t>(n * 4 * hidden_));
            for (std::size_t i = 0; i < n; ++i)
                kt.addRowInPlace(bias_.grad.data(),
                                 dz.data() + i * 4 * hidden_,
                                 4 * hidden_);
        }

        Tensor dxt = matmul(dz, cachedWxq_); // [N, input]
        std::copy(dxt.data(), dxt.data() + dxt.size(),
                  dx.data() + t * n * input_);
        dh = matmul(dz, cachedWhq_); // gradient into h_{t-1}
    }

    Tensor dwx_m = quantX_.backward(wx_.value, dwx);
    Tensor dwh_m = quantH_.backward(wh_.value, dwh);
    wx_.grad += dwx_m;
    wh_.grad += dwh_m;
    return dx;
}

void
Lstm::collectParameters(std::vector<Parameter*>& out)
{
    out.push_back(&wx_);
    out.push_back(&wh_);
    out.push_back(&bias_);
    out.push_back(&quantX_.clipParam());
    out.push_back(&quantH_.clipParam());
}

void
Lstm::setQuantContext(QuantContext* ctx)
{
    quantX_.setContext(ctx);
    quantH_.setContext(ctx);
}

} // namespace mrq
