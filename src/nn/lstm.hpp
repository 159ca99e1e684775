/**
 * @file
 * Single-layer LSTM with full backpropagation through time.
 *
 * Gate weights go through the shared WeightQuantizer (one projection
 * per forward, reused across timesteps), matching how Algorithm 1
 * treats recurrent layers: the lattice projection happens on the
 * master weights once per minibatch forward.
 */

#ifndef MRQ_NN_LSTM_HPP
#define MRQ_NN_LSTM_HPP

#include "common/rng.hpp"
#include "nn/module.hpp"
#include "nn/weight_quantizer.hpp"
#include "tensor/ops.hpp"

namespace mrq {

/** LSTM over [T, N, input] sequences producing [T, N, hidden]. */
class Lstm : public Module
{
  public:
    Lstm(std::size_t input_size, std::size_t hidden_size, Rng& rng);

    /** @param x [T, N, input]; hidden/cell state start at zero. */
    Tensor forward(const Tensor& x) override;
    Tensor backward(const Tensor& dy) override;
    void collectParameters(std::vector<Parameter*>& out) override;
    void setQuantContext(QuantContext* ctx) override;

    void
    calibrateWeightClips() override
    {
        quantX_.initClip(wx_.value);
        quantH_.initClip(wh_.value);
    }

    std::size_t hiddenSize() const { return hidden_; }

    Parameter& weightInput() { return wx_; }
    Parameter& weightHidden() { return wh_; }

  private:
    std::size_t input_, hidden_;

    Parameter wx_{"lstm.wx"}; ///< [4H, input], gate order i,f,g,o.
    Parameter wh_{"lstm.wh"}; ///< [4H, hidden]
    Parameter bias_{"lstm.bias"}; ///< [4H]
    WeightQuantizer quantX_{"lstm.clip_wx"};
    WeightQuantizer quantH_{"lstm.clip_wh"};

    // Forward caches (per timestep).
    Tensor cachedInput_;
    Tensor cachedWxq_, cachedWhq_;
    std::vector<Tensor> hs_;    ///< h_t, t = 0..T (h_0 zero).
    std::vector<Tensor> cs_;    ///< c_t.
    std::vector<Tensor> gates_; ///< [N, 4H] post-nonlinearity per step.

    /** dz^T's nonzero lists, rebuilt per backward timestep and shared
     *  by the dwx and dwh products. */
    SparseRows dzT_;
};

} // namespace mrq

#endif // MRQ_NN_LSTM_HPP
