/**
 * @file
 * Tests for the model zoo: builders, residual blocks, the LSTM LM,
 * and the TinyYolo detector (loss gradients, decoding, NMS).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "models/blocks.hpp"
#include "models/classifiers.hpp"
#include "models/lstm_lm.hpp"
#include "models/tiny_yolo.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/optim.hpp"
#include "tensor/ops.hpp"

#include "../nn/gradcheck.hpp"

namespace mrq {
namespace {

using testing::checkModuleGradients;
using testing::randomTensor;

TEST(Classifiers, BuildersProduceLogits)
{
    Rng rng(1);
    for (const char* name :
         {"resnet-tiny", "resnet-mid", "mobilenet-tiny"}) {
        auto model = buildClassifier(name, rng, 10);
        Tensor x({2, 3, 16, 16}, 0.5f);
        Tensor y = model->forward(x);
        EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 10})) << name;
    }
    EXPECT_THROW(buildClassifier("nope", rng, 10), FatalError);
}

TEST(Classifiers, BackwardProducesInputGradient)
{
    Rng rng(2);
    auto model = buildResNetTiny(rng, 5);
    Tensor x = randomTensor({2, 3, 12, 12}, rng, 0.3f);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::fabs(x[i]);
    Tensor y = model->forward(x);
    Tensor dy(y.shape(), 1.0f);
    Tensor dx = model->backward(dy);
    EXPECT_TRUE(dx.sameShape(x));
}

TEST(Classifiers, ParameterCountsAreReasonable)
{
    Rng rng(3);
    auto tiny = buildResNetTiny(rng, 10);
    std::size_t scalars = 0;
    for (Parameter* p : tiny->parameters())
        scalars += p->value.size();
    // Scaled-down stand-in: tens of thousands of parameters.
    EXPECT_GT(scalars, 5000u);
    EXPECT_LT(scalars, 200000u);
}

TEST(Blocks, BasicBlockIdentityShapePreserved)
{
    Rng rng(4);
    BasicBlock block(8, 8, 1, rng);
    Tensor y = block.forward(Tensor({2, 8, 6, 6}, 0.1f));
    EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 8, 6, 6}));
}

TEST(Blocks, BasicBlockDownsamples)
{
    Rng rng(5);
    BasicBlock block(8, 16, 2, rng);
    Tensor y = block.forward(Tensor({1, 8, 8, 8}, 0.1f));
    EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 16, 4, 4}));
}

TEST(Blocks, BasicBlockGradCheckEval)
{
    // Gradient-check in eval mode (BatchNorm uses fixed statistics,
    // making the function smooth in its inputs).
    Rng rng(6);
    BasicBlock block(4, 4, 1, rng);
    for (int i = 0; i < 3; ++i)
        block.forward(randomTensor({4, 4, 5, 5}, rng, 0.5f));
    block.setTraining(false);
    Tensor x = randomTensor({2, 4, 5, 5}, rng, 0.3f);
    // Small eps keeps finite differences off the PACT/ReLU kinks the
    // block's activations introduce.
    checkModuleGradients(block, x, 31, 5e-4f, 3e-2, 25);
}

TEST(Blocks, BottleneckGradCheckEval)
{
    Rng rng(7);
    BottleneckBlock block(4, 2, 8, 1, rng);
    for (int i = 0; i < 3; ++i)
        block.forward(randomTensor({4, 4, 4, 4}, rng, 0.5f));
    block.setTraining(false);
    checkModuleGradients(block, randomTensor({2, 4, 4, 4}, rng, 0.3f),
                         32, 5e-4f, 3e-2, 25);
}

TEST(Blocks, InvertedResidualSkipOnlyWhenShapesMatch)
{
    Rng rng(8);
    InvertedResidual with_skip(8, 8, 1, 2, rng);
    InvertedResidual no_skip(8, 16, 2, 2, rng);
    Tensor x({1, 8, 6, 6}, 0.2f);
    EXPECT_EQ(with_skip.forward(x).shape(),
              (std::vector<std::size_t>{1, 8, 6, 6}));
    EXPECT_EQ(no_skip.forward(x).shape(),
              (std::vector<std::size_t>{1, 16, 3, 3}));
}

TEST(Blocks, InvertedResidualGradCheckEval)
{
    Rng rng(9);
    InvertedResidual block(4, 4, 1, 2, rng);
    for (int i = 0; i < 3; ++i)
        block.forward(randomTensor({4, 4, 4, 4}, rng, 0.5f));
    block.setTraining(false);
    checkModuleGradients(block, randomTensor({2, 4, 4, 4}, rng, 0.3f),
                         33, 5e-4f, 3e-2, 25);
}

TEST(LstmLmModel, ForwardShape)
{
    Rng rng(10);
    LstmLm model(32, 8, 12, 0.0f, rng);
    Tensor tokens({5, 3});
    Tensor logits = model.forward(tokens);
    EXPECT_EQ(logits.shape(), (std::vector<std::size_t>{15, 32}));
}

TEST(LstmLmModel, TrainsOnRepetitiveStream)
{
    // A deterministic cycle (0, 1, 2, 3, 0, 1, ...) is perfectly
    // predictable: perplexity must fall toward 1.
    Rng rng(11);
    LstmLm model(4, 8, 16, 0.0f, rng);
    std::vector<Parameter*> params = model.parameters();
    Sgd opt(params, 0.3f, 0.9f, 0.0f);
    opt.setGradClip(1.0f);

    std::vector<int> stream(400);
    for (std::size_t i = 0; i < stream.size(); ++i)
        stream[i] = static_cast<int>(i % 4);

    for (int epoch = 0; epoch < 150; ++epoch) {
        Tensor x({16, 1});
        std::vector<int> targets(16);
        const std::size_t start = (epoch * 16) % 300;
        for (std::size_t t = 0; t < 16; ++t) {
            x(t, 0) = static_cast<float>(stream[start + t]);
            targets[t] = stream[start + t + 1];
        }
        opt.zeroGrad();
        Tensor logits = model.forward(x);
        Tensor dlogits;
        softmaxCrossEntropy(logits, targets, &dlogits);
        model.backward(dlogits);
        opt.step();
    }
    const double ppl = lmPerplexity(model, stream, 16, 2);
    EXPECT_LT(ppl, 2.0); // far below the uniform 4.0
}

TEST(LstmLmModel, PerplexityAtLeastOne)
{
    Rng rng(12);
    LstmLm model(8, 4, 8, 0.0f, rng);
    std::vector<int> stream(300);
    Rng data_rng(13);
    for (auto& t : stream)
        t = static_cast<int>(data_rng.uniformInt(8));
    EXPECT_GE(lmPerplexity(model, stream, 8, 2), 1.0);
}

TEST(TinyYoloModel, ForwardGrid)
{
    Rng rng(14);
    TinyYolo model(rng);
    Tensor y = model.forward(Tensor({2, 3, 32, 32}, 0.2f));
    EXPECT_EQ(y.shape(),
              (std::vector<std::size_t>{2, 5 + TinyYolo::kClasses, 4, 4}));
}

TEST(TinyYoloModel, RejectsWrongInputSize)
{
    Rng rng(15);
    TinyYolo model(rng);
    EXPECT_THROW(model.forward(Tensor({1, 3, 64, 64}, 0.1f)),
                 FatalError);
}

TEST(YoloLoss, GradientMatchesNumeric)
{
    Rng rng(16);
    Tensor preds({1, 5 + TinyYolo::kClasses, 4, 4});
    for (std::size_t i = 0; i < preds.size(); ++i)
        preds[i] = static_cast<float>(rng.normal()) * 0.5f;
    std::vector<std::vector<DetBox>> truth{
        {{1, 0.3f, 0.6f, 0.25f, 0.25f, 1.0f},
         {3, 0.8f, 0.2f, 0.2f, 0.2f, 1.0f}}};

    Tensor dpreds;
    yoloLoss(preds, truth, &dpreds);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < preds.size(); i += 7) {
        Tensor up = preds, down = preds;
        up[i] += eps;
        down[i] -= eps;
        const double num =
            (yoloLoss(up, truth) - yoloLoss(down, truth)) / (2.0 * eps);
        EXPECT_NEAR(dpreds[i], num, 2e-4) << "coordinate " << i;
    }
}

TEST(YoloLoss, PerfectPredictionHasSmallLoss)
{
    // Construct predictions whose sigmoids match the target exactly
    // and whose objectness/class logits are saturated correctly.
    std::vector<std::vector<DetBox>> truth{
        {{0, 0.375f, 0.375f, 0.5f, 0.5f, 1.0f}}};
    Tensor preds({1, 5 + TinyYolo::kClasses, 4, 4}, -10.0f);
    // Box center 0.375 -> cell (1,1), offset 0.5 -> logit 0.
    preds(0, 0, 1, 1) = 10.0f;                       // objectness
    preds(0, 1, 1, 1) = 0.0f;                        // tx: sigmoid=0.5
    preds(0, 2, 1, 1) = 0.0f;                        // ty
    preds(0, 3, 1, 1) = 0.0f;                        // tw: sigmoid=0.5
    preds(0, 4, 1, 1) = 0.0f;                        // th
    preds(0, 5, 1, 1) = 10.0f;                       // class 0
    // All other cells keep strongly negative objectness.
    const float loss = yoloLoss(preds, truth);
    EXPECT_LT(loss, 0.01f);
}

TEST(DecodeYolo, RecoversPlantedBox)
{
    Tensor preds({1, 5 + TinyYolo::kClasses, 4, 4}, -10.0f);
    preds(0, 0, 2, 1) = 10.0f; // cell (y=2, x=1)
    preds(0, 1, 2, 1) = 0.0f;
    preds(0, 2, 2, 1) = 0.0f;
    preds(0, 3, 2, 1) = 0.0f;
    preds(0, 4, 2, 1) = 0.0f;
    preds(0, 5 + 2, 2, 1) = 10.0f; // class 2
    const auto boxes = decodeYolo(preds, 0.3f);
    ASSERT_EQ(boxes[0].size(), 1u);
    const DetBox& box = boxes[0][0];
    EXPECT_EQ(box.classId, 2);
    EXPECT_NEAR(box.cx, (1 + 0.5f) / 4.0f, 1e-5f);
    EXPECT_NEAR(box.cy, (2 + 0.5f) / 4.0f, 1e-5f);
    EXPECT_NEAR(box.w, 0.5f, 1e-5f);
}

TEST(DecodeYolo, ThresholdSuppressesWeakCells)
{
    Tensor preds({1, 5 + TinyYolo::kClasses, 4, 4}, 0.0f);
    // All sigmoids are 0.5: confidence 0.25 < 0.3 threshold.
    const auto boxes = decodeYolo(preds, 0.3f);
    EXPECT_TRUE(boxes[0].empty());
}

TEST(DecodeYolo, NmsDropsOverlappingSameClass)
{
    Tensor preds({1, 5 + TinyYolo::kClasses, 4, 4}, -10.0f);
    // Two adjacent cells predicting nearly the same large box.
    for (std::size_t gx : {1u, 2u}) {
        preds(0, 0, 1, gx) = 5.0f;
        preds(0, 1, 1, gx) = gx == 1 ? 4.0f : -4.0f; // centers converge
        preds(0, 2, 1, gx) = 0.0f;
        preds(0, 3, 1, gx) = 2.0f; // wide boxes
        preds(0, 4, 1, gx) = 2.0f;
        preds(0, 5, 1, gx) = 6.0f;
    }
    const auto boxes = decodeYolo(preds, 0.3f, 0.5f);
    EXPECT_EQ(boxes[0].size(), 1u);
}

/** Shape checks format the offending shape only when they fail, and
 *  the message still names it. */
TEST(ShapeChecks, FailuresNameTheOffendingShape)
{
    const auto message = [](const std::function<void()>& fn) {
        try {
            fn();
        } catch (const FatalError& e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    const auto names = [&](const std::function<void()>& fn,
                           const std::string& text) {
        const std::string msg = message(fn);
        EXPECT_NE(msg.find(text), std::string::npos)
            << "'" << msg << "' lacks '" << text << "'";
    };
    Rng rng(16);
    names([] { matmul(Tensor({2, 3}), Tensor({4, 5})); },
          "inner dimensions differ: [2, 3] x [4, 5]");
    Tensor a({2, 3});
    names([&] { a += Tensor({3, 2}); }, "shape mismatch: [2, 3] vs [3, 2]");
    names([&] { a -= Tensor({6}); }, "shape mismatch: [2, 3] vs [6]");
    names([] { Tensor({2, 2}, std::vector<float>(3)); },
          "data size 3 does not match shape [2, 2]");
    Conv2d conv(3, 4, 3, 1, 1, rng);
    names([&] { conv.forward(Tensor({1, 2, 5, 5})); },
          "expected [N, 3, H, W], got [1, 2, 5, 5]");
    BatchNorm2d bn(4);
    names([&] { bn.forward(Tensor({1, 3, 2, 2})); },
          "expected [N, 4, H, W], got [1, 3, 2, 2]");
    Linear lin(5, 2, rng);
    names([&] { lin.forward(Tensor({2, 6})); },
          "expected [batch, 5], got [2, 6]");
    Lstm lstm(4, 3, rng);
    names([&] { lstm.forward(Tensor({2, 1, 5})); },
          "expected [T, N, 4], got [2, 1, 5]");
    TinyYolo yolo(rng);
    names([&] { yolo.forward(Tensor({1, 3, 64, 64}, 0.1f)); },
          "unexpected grid size [1, " +
              std::to_string(5 + TinyYolo::kClasses) + ", 8, 8]");
}

} // namespace
} // namespace mrq
