#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/fake_quant.hpp"
#include "core/multires_trainer.hpp"
#include "data/batcher.hpp"
#include "data/synth_images.hpp"
#include "data/synth_text.hpp"
#include "models/blocks.hpp"
#include "models/classifiers.hpp"
#include "models/lstm_lm.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"

namespace perfbench {

using mrq::Module;
using mrq::Parameter;
using mrq::SubModelConfig;
using mrq::SubModelLadder;
using mrq::Tensor;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Fig. 19: (8,2) (10,2) (12,2) (14,2) (14,3) (16,3) (18,3) (20,3). */
SubModelLadder
figure19Ladder()
{
    const std::size_t alphas[8] = {8, 10, 12, 14, 14, 16, 18, 20};
    const std::size_t betas[8] = {2, 2, 2, 2, 3, 3, 3, 3};
    SubModelLadder ladder;
    for (int i = 0; i < 8; ++i) {
        SubModelConfig cfg;
        cfg.mode = mrq::QuantMode::Tq;
        cfg.bits = 5;
        cfg.groupSize = 16;
        cfg.alpha = alphas[i];
        cfg.beta = betas[i];
        ladder.push_back(cfg);
    }
    return ladder;
}

// The dataset and the initial weights are the task and the stored
// model, the same for every seed; the seed draws what the loop feeds
// them (batches, student rungs, requests), so a metric's seed-to-seed
// spread measures the system rather than how hard one generated task
// happened to be.
constexpr std::uint64_t kDataSeed = 42;
constexpr std::uint64_t kInitSeed = 1;

// Distillation settings of the library's pipelines (PipelineOptions).
constexpr float kDistillWeight = 0.3f;
constexpr float kDistillTemperature = 2.0f;

bool
finite(const Tensor& t)
{
    for (std::size_t i = 0; i < t.size(); ++i)
        if (!std::isfinite(t[i]))
            return false;
    return true;
}

/** Span names of one Sequential child kind. */
struct KindNames
{
    const char* fwd;
    const char* bwd;
};

KindNames
childKind(Module* m)
{
    if (dynamic_cast<mrq::PactQuant*>(m) != nullptr)
        return {"nn.pact.fwd", "nn.pact.bwd"};
    if (dynamic_cast<mrq::Conv2d*>(m) != nullptr ||
        dynamic_cast<mrq::DepthwiseConv2d*>(m) != nullptr)
        return {"nn.conv.fwd", "nn.conv.bwd"};
    if (dynamic_cast<mrq::BatchNorm2d*>(m) != nullptr)
        return {"nn.bn.fwd", "nn.bn.bwd"};
    if (dynamic_cast<mrq::BasicBlock*>(m) != nullptr ||
        dynamic_cast<mrq::BottleneckBlock*>(m) != nullptr ||
        dynamic_cast<mrq::InvertedResidual*>(m) != nullptr)
        return {"nn.block.fwd", "nn.block.bwd"};
    if (dynamic_cast<mrq::GlobalAvgPool*>(m) != nullptr ||
        dynamic_cast<mrq::MaxPool2d*>(m) != nullptr)
        return {"nn.pool.fwd", "nn.pool.bwd"};
    if (dynamic_cast<mrq::Linear*>(m) != nullptr)
        return {"nn.linear.fwd", "nn.linear.bwd"};
    return {"nn.other.fwd", "nn.other.bwd"};
}

} // namespace

/**
 * Pass-through Module handed to MultiResTrainer in the traced run.
 * It reads the active rung from its QuantContext and, with a recorder
 * attached, records the forward/backward pass and (for a Sequential)
 * every child call, walking child(i) exactly as Sequential does.
 */
class TracedModule : public Module
{
  public:
    TracedModule(Module& inner, SubModelLadder ladder)
        : inner_(inner), seq_(dynamic_cast<mrq::Sequential*>(&inner)),
          ladder_(std::move(ladder))
    {
        if (seq_ != nullptr)
            for (std::size_t i = 0; i < seq_->size(); ++i)
                kinds_.push_back(childKind(seq_->child(i)));
    }

    void setRecorder(SpanRecorder* rec) { rec_ = rec; }

    Tensor
    forward(const Tensor& x) override
    {
        if (rec_ == nullptr)
            return inner_.forward(x);
        rung_ = activeRung();
        ScopedSpan span(rec_, isTeacher() ? "nn.fwd.teacher" : "nn.fwd.student",
                        rung_);
        if (seq_ == nullptr)
            return inner_.forward(x);
        Tensor cur = x;
        for (std::size_t i = 0; i < seq_->size(); ++i) {
            ScopedSpan child(rec_, kinds_[i].fwd, rung_);
            cur = seq_->child(i)->forward(cur);
        }
        return cur;
    }

    Tensor
    backward(const Tensor& dy) override
    {
        if (rec_ == nullptr)
            return inner_.backward(dy);
        ScopedSpan span(rec_, isTeacher() ? "nn.bwd.teacher" : "nn.bwd.student",
                        rung_);
        if (seq_ == nullptr)
            return inner_.backward(dy);
        Tensor cur = dy;
        for (std::size_t i = seq_->size(); i-- > 0;) {
            ScopedSpan child(rec_, kinds_[i].bwd, rung_);
            cur = seq_->child(i)->backward(cur);
        }
        return cur;
    }

    void
    collectParameters(std::vector<Parameter*>& out) override
    {
        inner_.collectParameters(out);
    }

    void
    setTraining(bool training) override
    {
        Module::setTraining(training);
        inner_.setTraining(training);
    }

    void
    setQuantContext(mrq::QuantContext* ctx) override
    {
        ctx_ = ctx;
        inner_.setQuantContext(ctx);
    }

    void calibrateWeightClips() override { inner_.calibrateWeightClips(); }

  private:
    std::int32_t
    activeRung() const
    {
        if (ctx_ == nullptr)
            return -1;
        for (std::size_t i = 0; i < ladder_.size(); ++i)
            if (ladder_[i] == ctx_->config)
                return static_cast<std::int32_t>(i);
        return -1;
    }

    bool
    isTeacher() const
    {
        return rung_ == static_cast<std::int32_t>(ladder_.size()) - 1;
    }

    Module& inner_;
    mrq::Sequential* seq_;
    SubModelLadder ladder_;
    std::vector<KindNames> kinds_;
    mrq::QuantContext* ctx_ = nullptr;
    SpanRecorder* rec_ = nullptr;
    std::int32_t rung_ = -1; ///< Rung of the last forward.
};

namespace {

/** Fills the next batch's input and integer targets. */
using BatchFn = std::function<void(Tensor* input, std::vector<int>* targets)>;

/** Algorithm-1 training: teacher + uniform student + distillation. */
class TrainWorkload : public Workload
{
  public:
    TrainWorkload(const WorkloadSpec& spec, std::uint64_t seed, bool traced,
                  std::unique_ptr<Module> model, BatchFn next, float grad_clip)
        : Workload(spec), model_(std::move(model)), next_(std::move(next))
    {
        mrq::TrainerOptions opts;
        opts.lr = 0.05f;
        opts.distillWeight = kDistillWeight;
        opts.seed = seed;
        trainer_ = std::make_unique<mrq::MultiResTrainer>(
            adoptModel(*model_, traced), spec_.ladder, opts);
        trainer_->optimizer().setGradClip(grad_clip);
        hard_ = [this](const Tensor& out, Tensor* dout) {
            ScopedSpan span(rec_, "nn.loss");
            return mrq::softmaxCrossEntropy(out, targets_, dout);
        };
        soft_ = [this](const Tensor& s, const Tensor& t, Tensor* ds) {
            ScopedSpan span(rec_, "nn.loss");
            return mrq::distillationLoss(s, t, kDistillTemperature, ds);
        };
        for (std::size_t i = 0; i < spec_.warmupOps; ++i)
            runOp();
    }

    OpResult
    runOp() override
    {
        if (rec_ != nullptr)
            rec_->setOp(trajectory_.size());
        ScopedSpan op(rec_, "step");
        {
            ScopedSpan span(rec_, "data.batch");
            next_(&input_, &targets_);
        }
        mrq::MultiResTrainer::IterStats st;
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan span(rec_, "trainer.iteration");
            st = trainer_->trainIteration(input_, hard_, soft_);
        }
        OpResult r;
        r.ms = msSince(t0);
        r.rung = static_cast<std::int32_t>(st.studentIndex);
        r.teacherLoss = st.teacherLoss;
        r.studentLoss = st.studentLoss;
        r.ok = std::isfinite(st.teacherLoss) && std::isfinite(st.studentLoss);
        trajectory_.push_back(st.teacherLoss);
        return r;
    }

    /** The loop checked every measured step's losses; these are the
     *  warm-up steps'. */
    std::size_t
    verify(std::string* log) override
    {
        std::size_t failures = 0;
        for (std::size_t i = 0; i < spec_.warmupOps; ++i)
            if (!std::isfinite(trajectory_[i])) {
                ++failures;
                *log += "non-finite teacher loss at warm-up step " +
                        std::to_string(i) + "\n";
            }
        return failures;
    }

  private:
    std::unique_ptr<Module> model_;
    std::unique_ptr<mrq::MultiResTrainer> trainer_;
    BatchFn next_;
    mrq::HardLossFn hard_;
    mrq::SoftLossFn soft_;
    Tensor input_;
    std::vector<int> targets_;
};

std::unique_ptr<Workload>
makeCnnTrain(const WorkloadSpec& spec, std::uint64_t seed, bool traced)
{
    auto data = std::make_shared<mrq::SynthImages>(
        spec.trainImages, spec.testImages, kDataSeed, spec.imageSize,
        spec.classes, /*noise=*/0.35);
    auto batcher =
        std::make_shared<mrq::Batcher>(spec.trainImages, spec.batch, seed);
    mrq::Rng rng(kInitSeed);
    BatchFn next = [data, batcher](Tensor* input, std::vector<int>* targets) {
        const std::vector<std::size_t> idx = batcher->next();
        *input = data->gatherImages(idx);
        *targets = data->gatherLabels(idx);
    };
    return std::make_unique<TrainWorkload>(
        spec, seed, traced, mrq::buildResNetTiny(rng, spec.classes),
        std::move(next), /*grad_clip=*/5.0f);
}

std::unique_ptr<Workload>
makeLstmTrain(const WorkloadSpec& spec, std::uint64_t seed, bool traced)
{
    auto data = std::make_shared<mrq::SynthText>(
        spec.vocab, spec.trainTokens, /*valid_tokens=*/spec.bptt + 1,
        kDataSeed);
    mrq::Rng rng(kInitSeed);
    auto model = std::make_unique<mrq::LstmLm>(
        data->vocab(), spec.embed, spec.hidden, /*dropout=*/0.2f, rng);
    // A [bptt, batch] window over `batch` parallel columns of the
    // training stream, as the library's LM pipeline cuts them, at a
    // start drawn from the seed.
    const std::size_t col_len = (data->train().size() - 1) / spec.batch;
    auto starts = std::make_shared<mrq::Rng>(seed);
    BatchFn next = [data, starts, col_len, spec](Tensor* input,
                                                 std::vector<int>* targets) {
        const std::vector<int>& stream = data->train();
        const std::size_t start = starts->uniformInt(col_len - spec.bptt);
        *input = Tensor({spec.bptt, spec.batch});
        targets->resize(spec.bptt * spec.batch);
        for (std::size_t t = 0; t < spec.bptt; ++t)
            for (std::size_t b = 0; b < spec.batch; ++b) {
                const std::size_t pos = b * col_len + start + t;
                (*input)(t, b) = static_cast<float>(stream[pos]);
                (*targets)[t * spec.batch + b] = stream[pos + 1];
            }
    };
    return std::make_unique<TrainWorkload>(spec, seed, traced,
                                           std::move(model), std::move(next),
                                           /*grad_clip=*/1.0f);
}

/**
 * Dynamic resolution selection from one stored model: each request is
 * a batch of test images at a rung drawn uniformly from the ladder.
 */
class InferWorkload : public Workload
{
  public:
    InferWorkload(const WorkloadSpec& spec, std::uint64_t seed, bool traced)
        : Workload(spec),
          data_(spec.trainImages, spec.testImages, kDataSeed,
                spec.imageSize, spec.classes, /*noise=*/0.35),
          requests_(seed), perRung_(spec.ladder.size(), 0)
    {
        mrq::Rng rng(kInitSeed);
        model_ = mrq::buildResNetTiny(rng, spec_.classes);
        trainer_ = std::make_unique<mrq::MultiResTrainer>(
            adoptModel(*model_, traced), spec_.ladder, mrq::TrainerOptions{});

        // Batch-norm running statistics from the calibration images.
        const std::size_t calib = 50;
        for (std::size_t base = 0; base + calib <= spec_.trainImages;
             base += calib) {
            std::vector<std::size_t> idx(calib);
            for (std::size_t i = 0; i < calib; ++i)
                idx[i] = base + i;
            trainer_->calibrate(data_.gatherImages(idx),
                                spec_.ladder.back());
        }

        // First inference at every rung fills one projection per rung
        // and layer; distinct rungs must give distinct logits.
        std::vector<std::size_t> probe_idx(spec_.batch);
        for (std::size_t i = 0; i < spec_.batch; ++i)
            probe_idx[i] = i;
        const Tensor probe = data_.gatherImages(probe_idx);
        std::vector<Tensor> outs;
        for (const SubModelConfig& cfg : spec_.ladder)
            outs.push_back(trainer_->inferAt(probe, cfg));
        for (std::size_t i = 0; i < outs.size(); ++i)
            for (std::size_t j = i + 1; j < outs.size(); ++j)
                if (std::memcmp(outs[i].data(), outs[j].data(),
                                outs[i].size() * sizeof(float)) == 0)
                    setupFailures_.push_back(
                        "rungs " + spec_.ladder[i].name() + " and " +
                        spec_.ladder[j].name() + " give identical logits");
        samples_.reserve(kSamplesPerRung * spec_.ladder.size());
        labels_.reserve(spec_.batch);
        idx_.reserve(spec_.batch);
    }

    OpResult
    runOp() override
    {
        if (rec_ != nullptr)
            rec_->setOp(trajectory_.size());
        ScopedSpan op(rec_, "request");
        const std::size_t rung = requests_.uniformInt(spec_.ladder.size());
        {
            ScopedSpan span(rec_, "data.batch");
            idx_.resize(spec_.batch);
            for (std::size_t& i : idx_)
                i = requests_.uniformInt(spec_.testImages);
            input_ = gather(idx_, &labels_);
        }
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan span(rec_, "trainer.infer_at");
            lastOutput_ = trainer_->inferAt(input_, spec_.ladder[rung]);
        }
        OpResult r;
        r.ms = msSince(t0);
        r.rung = static_cast<std::int32_t>(rung);
        r.teacherLoss = mrq::softmaxCrossEntropy(lastOutput_, labels_);
        r.ok = std::isfinite(r.teacherLoss) && finite(lastOutput_);
        trajectory_.push_back(r.teacherLoss);
        if (perRung_[rung] < kSamplesPerRung) {
            ++perRung_[rung];
            samples_.push_back({idx_, rung, lastOutput_});
        }
        return r;
    }

    /**
     * Recompute the sampled requests after bumping every Parameter
     * version, which empties every projection cache; the cold logits
     * must equal the served ones bit for bit.
     */
    std::size_t
    verify(std::string* log) override
    {
        std::size_t failures = setupFailures_.size();
        for (const std::string& f : setupFailures_)
            *log += f + "\n";
        for (Parameter* p : model_->parameters())
            p->bumpVersion();
        std::vector<bool> rung_seen(spec_.ladder.size(), false);
        const std::uint64_t calls0 = mrq::fakeQuantWeightsCallCount();
        std::vector<int> labels;
        for (const Sample& s : samples_) {
            rung_seen[s.rung] = true;
            const Tensor cold =
                trainer_->inferAt(gather(s.idx, &labels), spec_.ladder[s.rung]);
            if (cold.size() != s.logits.size() ||
                std::memcmp(cold.data(), s.logits.data(),
                            cold.size() * sizeof(float)) != 0) {
                ++failures;
                *log += "cold-cache logits differ at rung " +
                        spec_.ladder[s.rung].name() + "\n";
            }
        }
        const std::size_t rungs = static_cast<std::size_t>(
            std::count(rung_seen.begin(), rung_seen.end(), true));
        const std::uint64_t calls = mrq::fakeQuantWeightsCallCount() - calls0;
        if (calls != rungs * weightLayers()) {
            ++failures;
            *log += "cold recomputation made " + std::to_string(calls) +
                    " projections, expected " +
                    std::to_string(rungs * weightLayers()) + "\n";
        }
        if (rungs != spec_.ladder.size()) {
            ++failures;
            *log += "only " + std::to_string(rungs) + " rungs were sampled\n";
        }
        return failures;
    }

  private:
    static constexpr std::size_t kSamplesPerRung = 3;

    struct Sample
    {
        std::vector<std::size_t> idx;
        std::size_t rung;
        Tensor logits;
    };

    /** Copy the test images at @p idx and their labels. */
    Tensor
    gather(const std::vector<std::size_t>& idx, std::vector<int>* labels) const
    {
        const Tensor& images = data_.testImages();
        const std::size_t plane = images.size() / images.dim(0);
        Tensor out({idx.size(), 3, spec_.imageSize, spec_.imageSize});
        labels->resize(idx.size());
        for (std::size_t i = 0; i < idx.size(); ++i) {
            std::copy(images.data() + idx[i] * plane,
                      images.data() + (idx[i] + 1) * plane,
                      out.data() + i * plane);
            (*labels)[i] = data_.testLabels()[idx[i]];
        }
        return out;
    }

    mrq::SynthImages data_;
    std::unique_ptr<mrq::Sequential> model_;
    std::unique_ptr<mrq::MultiResTrainer> trainer_;
    mrq::Rng requests_;
    std::vector<std::size_t> perRung_;
    std::vector<Sample> samples_;
    std::vector<std::string> setupFailures_;
    std::vector<std::size_t> idx_;
    std::vector<int> labels_;
    Tensor input_;
};

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {"cnn_train", "lstm_train",
                                                   "cnn_infer"};
    return names;
}

WorkloadSpec
workloadSpec(const std::string& name)
{
    WorkloadSpec s;
    s.name = name;
    if (name == "cnn_train") {
        s.kind = Kind::CnnTrain;
        s.ladder = figure19Ladder();
        s.batch = 50;
        s.trainImages = 1200;
        s.testImages = 50;
        s.warmupOps = 2;
        // Longer horizons drive the loss towards zero, where its
        // seed-to-seed ratio is noise.
        s.lossHorizon = 30;
        s.lossWindow = 15;
    } else if (name == "lstm_train") {
        s.kind = Kind::LstmTrain;
        s.ladder = mrq::makeTqLadder(8, 22, 2, 3, 2, 5, 16);
        s.batch = 8;
        s.trainTokens = 16000;
        s.warmupOps = 2;
        s.lossHorizon = 1000;
        s.lossWindow = 100;
    } else if (name == "cnn_infer") {
        s.kind = Kind::CnnInfer;
        s.ladder = figure19Ladder();
        s.batch = 8;
        s.trainImages = 200;
        s.testImages = 400;
        s.lossHorizon = 1000;
        s.lossWindow = 100;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    // Training reports its student rungs (the teacher runs every step);
    // inference reports the lowest rung against the teacher.
    s.loRung = 0;
    s.hiRung = s.ladder.size() - (s.kind == Kind::CnnInfer ? 1 : 2);
    return s;
}

Workload::Workload(WorkloadSpec spec) : spec_(std::move(spec)) {}

Workload::~Workload() = default;

void
Workload::setRecorder(SpanRecorder* rec)
{
    if (!traced_)
        return;
    rec_ = rec;
    traced_->setRecorder(rec);
}

Module&
Workload::adoptModel(Module& model, bool traced)
{
    model.calibrateWeightClips();
    // Quantized layers register (weight, clip) in the same order:
    // Conv2d/Linear push weight, [bias], clip; Lstm pushes wx, wh,
    // bias, clip_wx, clip_wh.
    std::vector<const Parameter*> weights;
    std::vector<const Parameter*> clips;
    for (const Parameter* p : model.parameters()) {
        if (p->name.find(".clip_w") != std::string::npos)
            clips.push_back(p);
        else if (p->name == "conv.weight" || p->name == "dwconv.weight" ||
                 p->name == "linear.weight" || p->name == "lstm.wx" ||
                 p->name == "lstm.wh")
            weights.push_back(p);
    }
    if (weights.size() != clips.size())
        throw std::logic_error("weights and clips do not pair up");
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights_.push_back({weights[i], clips[i]});
    if (traced)
        traced_ = std::make_unique<TracedModule>(model, spec_.ladder);
    return traced_ ? static_cast<Module&>(*traced_) : model;
}

double
Workload::projectAllMs(std::size_t rung) const
{
    const SubModelConfig& cfg = spec_.ladder.at(rung);
    const Clock::time_point t0 = Clock::now();
    for (const WeightClip& wc : weights_) {
        // WeightQuantizer::clip(): the clip parameter floored at 1e-4.
        const float clip = std::max(wc.clip->value[0], 1e-4f);
        const Tensor projected = mrq::fakeQuantWeights(wc.weight->value, clip, cfg);
        if (projected.size() != wc.weight->value.size())
            throw std::logic_error("projection changed the weight shape");
    }
    return msSince(t0);
}

std::unique_ptr<Workload>
makeWorkload(const WorkloadSpec& spec, std::uint64_t seed, bool traced)
{
    switch (spec.kind) {
    case Kind::CnnTrain:
        return makeCnnTrain(spec, seed, traced);
    case Kind::LstmTrain:
        return makeLstmTrain(spec, seed, traced);
    case Kind::CnnInfer:
        return std::make_unique<InferWorkload>(spec, seed, traced);
    }
    throw std::invalid_argument("unknown workload kind");
}

} // namespace perfbench
