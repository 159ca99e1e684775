#include "models/tiny_yolo.hpp"

#include <algorithm>
#include <cmath>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"

namespace mrq {

namespace {

float
sigmoid(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

} // namespace

TinyYolo::TinyYolo(Rng& rng)
{
    net_ = std::make_unique<Sequential>();
    net_->emplace<PactQuant>(1.0f);
    net_->emplace<Conv2d>(3, 8, 3, 1, 1, rng);
    net_->emplace<BatchNorm2d>(8);
    net_->emplace<PactQuant>();
    net_->emplace<Conv2d>(8, 16, 3, 2, 1, rng);
    net_->emplace<BatchNorm2d>(16);
    net_->emplace<PactQuant>();
    net_->emplace<Conv2d>(16, 24, 3, 2, 1, rng);
    net_->emplace<BatchNorm2d>(24);
    net_->emplace<PactQuant>();
    net_->emplace<Conv2d>(24, 32, 3, 2, 1, rng);
    net_->emplace<BatchNorm2d>(32);
    net_->emplace<PactQuant>();
    net_->emplace<Conv2d>(32, 5 + kClasses, 1, 1, 0, rng, true);
}

Tensor
TinyYolo::forward(const Tensor& x)
{
    Tensor y = net_->forward(x);
    require(y.dim(2) == kGrid && y.dim(3) == kGrid,
            "TinyYolo: unexpected grid size ", y.shape());
    return y;
}

Tensor
TinyYolo::backward(const Tensor& dy)
{
    return net_->backward(dy);
}

void
TinyYolo::collectParameters(std::vector<Parameter*>& out)
{
    net_->collectParameters(out);
}

void
TinyYolo::setTraining(bool training)
{
    Module::setTraining(training);
    net_->setTraining(training);
}

void
TinyYolo::setQuantContext(QuantContext* ctx)
{
    net_->setQuantContext(ctx);
}

float
yoloLoss(const Tensor& preds,
         const std::vector<std::vector<DetBox>>& truth, Tensor* dpreds)
{
    constexpr std::size_t S = TinyYolo::kGrid;
    constexpr std::size_t C = TinyYolo::kClasses;
    require(preds.rank() == 4 && preds.dim(1) == 5 + C &&
                preds.dim(2) == S && preds.dim(3) == S,
            "yoloLoss: prediction shape mismatch");
    const std::size_t n = preds.dim(0);
    require(truth.size() == n, "yoloLoss: batch size mismatch");

    constexpr float lambda_coord = 5.0f;
    constexpr float lambda_obj = 1.0f;
    constexpr float lambda_noobj = 0.5f;
    constexpr float lambda_cls = 1.0f;

    if (dpreds)
        *dpreds = Tensor(preds.shape());

    double loss = 0.0;
    const float inv_n = 1.0f / static_cast<float>(n * S * S);

    // Cell assignment: the cell containing each box center owns it.
    for (std::size_t img = 0; img < n; ++img) {
        // box index owning each cell, or -1.
        int owner[S][S];
        for (auto& row : owner)
            std::fill(row, row + S, -1);
        for (std::size_t b = 0; b < truth[img].size(); ++b) {
            const DetBox& box = truth[img][b];
            auto gx = static_cast<std::size_t>(box.cx * S);
            auto gy = static_cast<std::size_t>(box.cy * S);
            gx = std::min(gx, S - 1);
            gy = std::min(gy, S - 1);
            owner[gy][gx] = static_cast<int>(b);
        }

        for (std::size_t gy = 0; gy < S; ++gy) {
            for (std::size_t gx = 0; gx < S; ++gx) {
                const float z_obj = preds(img, 0, gy, gx);
                const float p_obj = sigmoid(z_obj);
                const int b = owner[gy][gx];
                if (b < 0) {
                    // No-object cell: push objectness down.
                    loss += lambda_noobj * inv_n *
                            (-std::log(std::max(1.0f - p_obj, 1e-7f)));
                    if (dpreds)
                        (*dpreds)(img, 0, gy, gx) +=
                            lambda_noobj * inv_n * p_obj;
                    continue;
                }
                const DetBox& box =
                    truth[img][static_cast<std::size_t>(b)];

                // Objectness up.
                loss += lambda_obj * inv_n *
                        (-std::log(std::max(p_obj, 1e-7f)));
                if (dpreds)
                    (*dpreds)(img, 0, gy, gx) +=
                        lambda_obj * inv_n * (p_obj - 1.0f);

                // Box regression on sigmoid-squashed coordinates.
                const float targets[4] = {
                    box.cx * S - static_cast<float>(gx), // in-cell x
                    box.cy * S - static_cast<float>(gy), // in-cell y
                    box.w,
                    box.h,
                };
                for (std::size_t k = 0; k < 4; ++k) {
                    const float z = preds(img, 1 + k, gy, gx);
                    const float p = sigmoid(z);
                    const float d = p - targets[k];
                    loss += lambda_coord * inv_n * d * d;
                    if (dpreds)
                        (*dpreds)(img, 1 + k, gy, gx) +=
                            lambda_coord * inv_n * 2.0f * d * p *
                            (1.0f - p);
                }

                // Per-class BCE.
                for (std::size_t c = 0; c < C; ++c) {
                    const float z = preds(img, 5 + c, gy, gx);
                    const float p = sigmoid(z);
                    const float y =
                        static_cast<std::size_t>(box.classId) == c
                            ? 1.0f
                            : 0.0f;
                    loss += lambda_cls * inv_n *
                            (-(y * std::log(std::max(p, 1e-7f)) +
                               (1.0f - y) *
                                   std::log(std::max(1.0f - p, 1e-7f))));
                    if (dpreds)
                        (*dpreds)(img, 5 + c, gy, gx) +=
                            lambda_cls * inv_n * (p - y);
                }
            }
        }
    }
    return static_cast<float>(loss);
}

std::vector<std::vector<DetBox>>
decodeYolo(const Tensor& preds, float conf_threshold, float nms_iou)
{
    constexpr std::size_t S = TinyYolo::kGrid;
    constexpr std::size_t C = TinyYolo::kClasses;
    require(preds.rank() == 4 && preds.dim(1) == 5 + C,
            "decodeYolo: prediction shape mismatch");
    const std::size_t n = preds.dim(0);

    std::vector<std::vector<DetBox>> out(n);
    for (std::size_t img = 0; img < n; ++img) {
        std::vector<DetBox> candidates;
        for (std::size_t gy = 0; gy < S; ++gy) {
            for (std::size_t gx = 0; gx < S; ++gx) {
                const float obj = sigmoid(preds(img, 0, gy, gx));
                // Best class for this cell.
                std::size_t best_c = 0;
                float best_p = -1.0f;
                for (std::size_t c = 0; c < C; ++c) {
                    const float p = sigmoid(preds(img, 5 + c, gy, gx));
                    if (p > best_p) {
                        best_p = p;
                        best_c = c;
                    }
                }
                const float conf = obj * best_p;
                if (conf < conf_threshold)
                    continue;
                DetBox box;
                box.classId = static_cast<int>(best_c);
                box.confidence = conf;
                box.cx = (static_cast<float>(gx) +
                          sigmoid(preds(img, 1, gy, gx))) /
                         static_cast<float>(S);
                box.cy = (static_cast<float>(gy) +
                          sigmoid(preds(img, 2, gy, gx))) /
                         static_cast<float>(S);
                box.w = sigmoid(preds(img, 3, gy, gx));
                box.h = sigmoid(preds(img, 4, gy, gx));
                candidates.push_back(box);
            }
        }
        // Greedy per-class NMS.
        std::sort(candidates.begin(), candidates.end(),
                  [](const DetBox& a, const DetBox& b) {
                      return a.confidence > b.confidence;
                  });
        for (const DetBox& cand : candidates) {
            bool keep = true;
            for (const DetBox& kept : out[img]) {
                if (kept.classId == cand.classId &&
                    boxIou(kept, cand) > nms_iou) {
                    keep = false;
                    break;
                }
            }
            if (keep)
                out[img].push_back(cand);
        }
    }
    return out;
}

} // namespace mrq
