/**
 * @file
 * Tests for the Algorithm-1 trainer mechanics and small end-to-end
 * training integration runs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "core/multires_trainer.hpp"
#include "data/synth_detect.hpp"
#include "data/synth_images.hpp"
#include "data/synth_text.hpp"
#include "models/classifiers.hpp"
#include "models/lstm_lm.hpp"
#include "models/tiny_yolo.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "obs/inspect.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "train/pipelines.hpp"

namespace mrq {
namespace {

SubModelLadder
smallLadder()
{
    return makeTqLadder(4, 20, 4, 3, 2, 5, 16);
}

TEST(MakeTqLadder, ProducesAscendingBudgets)
{
    const auto ladder = makeTqLadder(7, 20, 2, 3, 2, 5, 16);
    ASSERT_EQ(ladder.size(), 7u);
    EXPECT_EQ(ladder.front().alpha, 8u);
    EXPECT_EQ(ladder.back().alpha, 20u);
    for (std::size_t i = 1; i < ladder.size(); ++i)
        EXPECT_GT(ladder[i].alpha, ladder[i - 1].alpha);
    // Lower half uses the smaller beta.
    EXPECT_EQ(ladder.front().beta, 2u);
    EXPECT_EQ(ladder.back().beta, 3u);
}

TEST(MakeTqLadder, RejectsUnderflow)
{
    EXPECT_THROW(makeTqLadder(10, 8, 2, 3, 2, 5, 16), FatalError);
}

TEST(MakeUqLadder, CoversBitRange)
{
    const auto ladder = makeUqLadder(5, 2, 16);
    ASSERT_EQ(ladder.size(), 4u);
    EXPECT_EQ(ladder.front().bits, 2);
    EXPECT_EQ(ladder.back().bits, 5);
    for (const auto& cfg : ladder)
        EXPECT_EQ(cfg.mode, QuantMode::Uq);
}

TEST(SubModelConfig, NamesAndGamma)
{
    SubModelConfig tq;
    tq.alpha = 12;
    tq.beta = 2;
    EXPECT_EQ(tq.name(), "a12b2");
    EXPECT_EQ(tq.gamma(), 24u);
    SubModelConfig uq;
    uq.mode = QuantMode::Uq;
    uq.bits = 4;
    EXPECT_EQ(uq.name(), "uq4");
    SubModelConfig fp;
    fp.mode = QuantMode::None;
    EXPECT_EQ(fp.name(), "fp32");
}

TEST(MultiResTrainer, TeacherIsAlwaysLargestBudget)
{
    Rng rng(1);
    Linear model(4, 2, rng);
    MultiResTrainer trainer(model, smallLadder(), TrainerOptions{});
    EXPECT_EQ(trainer.teacherConfig().alpha, 20u);
}

TEST(MultiResTrainer, StudentDrawExcludesTeacher)
{
    Rng rng(2);
    Linear model(4, 2, rng);
    TrainerOptions opts;
    opts.lr = 0.0f; // only inspect the draw, no movement
    MultiResTrainer trainer(model, smallLadder(), opts);

    Tensor x({2, 4}, 0.1f);
    const std::vector<int> labels{0, 1};
    HardLossFn hard = [&labels](const Tensor& out, Tensor* dout) {
        return softmaxCrossEntropy(out, labels, dout);
    };
    SoftLossFn soft = [](const Tensor& s, const Tensor& t, Tensor* ds) {
        return distillationLoss(s, t, 2.0f, ds);
    };
    for (int i = 0; i < 50; ++i) {
        const auto stats = trainer.trainIteration(x, hard, soft);
        EXPECT_LT(stats.studentIndex, smallLadder().size() - 1);
    }
}

TEST(MultiResTrainer, SingleIterationReducesLoss)
{
    Rng rng(3);
    Linear model(8, 2, rng);
    SubModelConfig fp;
    fp.mode = QuantMode::None;
    TrainerOptions opts;
    opts.lr = 0.1f;
    opts.weightDecay = 0.0f;
    MultiResTrainer trainer(model, {fp}, opts);

    Rng data_rng(4);
    Tensor x({16, 8});
    std::vector<int> labels(16);
    for (std::size_t i = 0; i < 16; ++i) {
        labels[i] = static_cast<int>(i % 2);
        for (std::size_t j = 0; j < 8; ++j)
            x(i, j) = static_cast<float>(data_rng.normal()) +
                      (labels[i] ? 1.0f : -1.0f);
    }
    HardLossFn hard = [&labels](const Tensor& out, Tensor* dout) {
        return softmaxCrossEntropy(out, labels, dout);
    };
    float first = 0.0f, last = 0.0f;
    for (int i = 0; i < 50; ++i) {
        const float loss = trainer.trainIterationSingle(x, hard, fp);
        if (i == 0)
            first = loss;
        last = loss;
    }
    EXPECT_LT(last, first * 0.5f);
}

TEST(MultiResTrainer, InferAtRunsEvalMode)
{
    Rng rng(5);
    Linear model(4, 2, rng);
    MultiResTrainer trainer(model, smallLadder(), TrainerOptions{});
    Tensor x({1, 4}, 0.2f);
    Tensor a = trainer.inferAt(x, smallLadder().front());
    Tensor b = trainer.inferAt(x, smallLadder().front());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(MultiResTrainer, QuantizedOutputsDifferAcrossBudgets)
{
    Rng rng(6);
    Linear model(32, 4, rng);
    MultiResTrainer trainer(model, smallLadder(), TrainerOptions{});
    Tensor x({1, 32});
    Rng data_rng(7);
    for (std::size_t i = 0; i < 32; ++i)
        x[i] = static_cast<float>(data_rng.uniform());
    Tensor lo = trainer.inferAt(x, smallLadder().front());
    Tensor hi = trainer.inferAt(x, smallLadder().back());
    double diff = 0.0;
    for (std::size_t i = 0; i < lo.size(); ++i)
        diff += std::fabs(lo[i] - hi[i]);
    EXPECT_GT(diff, 1e-6);
}

TEST(MultiResTrainer, RejectsEmptyLadder)
{
    Rng rng(8);
    Linear model(4, 2, rng);
    EXPECT_THROW(MultiResTrainer(model, {}, TrainerOptions{}),
                 FatalError);
}

// ---------------------------------------------------------------------
// Small end-to-end integration runs (kept tiny; tens of seconds).
// ---------------------------------------------------------------------

TEST(Integration, ClassifierMultiResLearnsAllSubModels)
{
    SynthImages data(400, 150, 21, 12, 4); // 12x12, 4 classes
    Rng rng(9);
    auto model = buildResNetTiny(rng, 4);
    PipelineOptions opts;
    opts.fpEpochs = 4;
    opts.mrEpochs = 3;
    opts.batchSize = 40;
    opts.seed = 22;
    const auto ladder = makeTqLadder(3, 20, 5, 3, 2, 5, 16);
    const auto result = runClassifierMultiRes(*model, data, ladder, opts);

    ASSERT_EQ(result.subModels.size(), 3u);
    EXPECT_GT(result.fp32Metric, 0.7);
    for (const auto& sub : result.subModels) {
        EXPECT_GT(sub.metric, 0.5) << sub.config.name();
        EXPECT_GT(sub.termPairs, 0u);
    }
    // Term pairs grow with budget.
    EXPECT_LT(result.subModels.front().termPairs,
              result.subModels.back().termPairs);
    // Both phases ran and were timed.  (The paper's Table 1 puts a
    // multi-res epoch at roughly twice an FP epoch, but the SIMD
    // lattice/term-projection kernels shrink the projection overhead
    // below timing noise at this model size, so a wall-clock ratio is
    // no longer a stable assertion.)
    EXPECT_GT(result.mrEpochSeconds, 0.0);
    EXPECT_GT(result.fpEpochSeconds, 0.0);
}

TEST(Integration, PostTrainingIsWorseAtAggressiveBudgets)
{
    SynthImages data(400, 150, 31, 12, 4);
    const auto ladder = makeTqLadder(3, 20, 5, 3, 2, 5, 16);
    PipelineOptions opts;
    opts.fpEpochs = 4;
    opts.mrEpochs = 3;
    opts.batchSize = 40;
    opts.seed = 23;

    Rng rng_a(10);
    auto model_mr = buildResNetTiny(rng_a, 4);
    const auto mr = runClassifierMultiRes(*model_mr, data, ladder, opts);

    Rng rng_b(10);
    auto model_pt = buildResNetTiny(rng_b, 4);
    const auto pt =
        runClassifierPostTraining(*model_pt, data, ladder, opts);

    // At the most aggressive budget, Algorithm 1 must beat
    // post-training TQ (Sec. 6.3).
    EXPECT_GT(mr.subModels.front().metric,
              pt.subModels.front().metric - 1e-9);
}

// ---------------------------------------------------------------------
// One tiny multi-resolution run per task family (well under a second
// each).  Classifier, LM and detection share one driver, so each must
// be deterministic at any pool size and record the same series set.
// ---------------------------------------------------------------------

/** Datasets for the tiny runs, built once per test. */
struct TinyData
{
    SynthImages images{120, 40, 3, 8, 4, 0.3};
    SynthText text{16, 1200, 300, 5};
    SynthDetect scenes{40, 10, 3};
};

const char* const kFamilies[] = {"classifier", "lm", "yolo"};

PipelineOptions
tinyOptions()
{
    PipelineOptions opts;
    opts.fpEpochs = 1;
    opts.mrEpochs = 1;
    opts.batchSize = 20;
    opts.bptt = 8;
    opts.seed = 5;
    return opts;
}

/** Two rungs, so the one student rung is always drawn; detection
 *  runs on an 8-bit lattice, as in examples/object_detection. */
SubModelLadder
familyRungs(std::size_t f)
{
    return f == 2 ? makeTqLadder(2, 38, 10, 5, 4, 8, 16)
                  : makeTqLadder(2, 20, 8, 3, 2, 5, 16);
}

/** Tiny multi-resolution run of family @p f (index into kFamilies). */
PipelineResult
runFamily(std::size_t f, const TinyData& data)
{
    Rng rng(f + 1);
    if (f == 0) {
        auto model = buildResNetTiny(rng, data.images.numClasses());
        return runClassifierMultiRes(*model, data.images, familyRungs(f),
                                     tinyOptions());
    }
    if (f == 1) {
        LstmLm model(data.text.vocab(), 8, 16, 0.1f, rng);
        return runLmMultiRes(model, data.text, familyRungs(f),
                             tinyOptions());
    }
    TinyYolo model(rng);
    return runYoloMultiRes(model, data.scenes, familyRungs(f),
                           tinyOptions());
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

TEST(Integration, PipelinesAreThreadCountInvariant)
{
    const TinyData data;
    ThreadPool& pool = ThreadPool::instance();
    const std::size_t saved_threads = pool.threadCount();
    for (std::size_t f = 0; f < 3; ++f) {
        pool.resize(1);
        const PipelineResult a = runFamily(f, data);
        pool.resize(4);
        const PipelineResult b = runFamily(f, data);
        EXPECT_EQ(bits(a.fp32Metric), bits(b.fp32Metric)) << kFamilies[f];
        ASSERT_EQ(a.subModels.size(), 2u) << kFamilies[f];
        ASSERT_EQ(b.subModels.size(), 2u) << kFamilies[f];
        for (std::size_t i = 0; i < a.subModels.size(); ++i) {
            const SubModelResult& ra = a.subModels[i];
            const SubModelResult& rb = b.subModels[i];
            const std::string where =
                std::string(kFamilies[f]) + " " + ra.config.name();
            EXPECT_EQ(ra.config.name(), rb.config.name()) << where;
            EXPECT_EQ(bits(ra.metric), bits(rb.metric)) << where;
            EXPECT_EQ(ra.termPairs, rb.termPairs) << where;
            EXPECT_GT(ra.termPairs, 0u) << where;
        }
    }
    pool.resize(saved_threads);

    // The single-config wrappers evaluate exactly their one config.
    const SubModelConfig lm_cfg = familyRungs(1).front();
    Rng rng_l(2);
    LstmLm lm(data.text.vocab(), 8, 16, 0.1f, rng_l);
    const PipelineResult lm_single =
        runLmSingle(lm, data.text, lm_cfg, tinyOptions());
    ASSERT_EQ(lm_single.subModels.size(), 1u);
    EXPECT_EQ(lm_single.subModels.front().config.name(), lm_cfg.name());

    const SubModelConfig yolo_cfg = familyRungs(2).front();
    Rng rng_y(3);
    TinyYolo yolo(rng_y);
    const PipelineResult yolo_single =
        runYoloSingle(yolo, data.scenes, yolo_cfg, tinyOptions());
    ASSERT_EQ(yolo_single.subModels.size(), 1u);
    EXPECT_EQ(yolo_single.subModels.front().config.name(),
              yolo_cfg.name());
}

TEST(Integration, MultiResPipelinesRecordOneSeriesSet)
{
    const TinyData data;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    const bool prev = obs::setMetricsEnabled(true);
    for (std::size_t f = 0; f < 3; ++f) {
        reg.reset();
        runFamily(f, data);
        std::set<std::string> recorded;
        for (const auto& point : reg.snapshot().series)
            recorded.insert(point.name);
        const std::set<std::string> expected = {
            "train.fp.loss", "train.tune.loss", "train.tune.teacher_loss",
            "train.eval.metric",
            "train.tune.loss." + familyRungs(f).front().name()};
        EXPECT_EQ(recorded, expected) << kFamilies[f];
    }
    obs::setMetricsEnabled(prev);
    reg.reset();
}

TEST(Integration, RungAgreementScoresTheEvaluationLogits)
{
    const SynthImages images(120, 80, 3, 8, 4, 0.3);
    const SubModelLadder ladder = makeTqLadder(3, 20, 5, 3, 2, 5, 16);
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    obs::QuantInspector& inspector = obs::QuantInspector::instance();
    const bool prev_metrics = obs::setMetricsEnabled(true);
    std::map<std::string, std::int64_t> counters[2];
    std::string records;
    for (int on = 0; on < 2; ++on) {
        const bool prev_inspect = inspector.setEnabled(on == 1);
        reg.reset();
        Rng rng(1);
        auto model = buildResNetTiny(rng, images.numClasses());
        runClassifierMultiRes(*model, images, ladder, tinyOptions());
        for (const auto& c : reg.snapshot().counters)
            counters[on][c.name] = c.value;
        if (on == 1)
            records = inspector.renderJsonl();
        inspector.reset();
        inspector.setEnabled(prev_inspect);
    }
    obs::setMetricsEnabled(prev_metrics);
    reg.reset();

    // Watching the evaluation runs no forward of its own.
    EXPECT_FALSE(counters[0].empty());
    EXPECT_EQ(counters[0], counters[1]);

    // One eval record per rung pair, each over every test image.
    const std::string n =
        "\"n\": " + std::to_string(images.testImages().dim(0)) + "}";
    std::istringstream lines(records);
    std::string line;
    std::size_t pairs = 0;
    while (std::getline(lines, line)) {
        if (line.find("\"kind\": \"rung_agree\"") == std::string::npos ||
            line.find("\"phase\": \"eval\"") == std::string::npos)
            continue;
        ++pairs;
        EXPECT_NE(line.find(n), std::string::npos) << line;
    }
    EXPECT_EQ(pairs, ladder.size() * (ladder.size() - 1) / 2);
}

} // namespace
} // namespace mrq
