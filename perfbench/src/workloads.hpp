/**
 * @file
 * The benchmark's three workloads, driven through the library's public
 * API: MultiResTrainer, Module, fakeQuantWeights and Sgd.
 *
 * Each workload is a closed loop from one caller: runOp() gathers the
 * next batch or request from the seeded inputs and makes one library
 * call (a trainIteration or an inferAt).  Construction is the set-up
 * the benchmark times: build the dataset and model and warm every
 * path the loop takes.
 *
 * A workload built with @p traced = true wraps its model in a
 * pass-through Module that, once a SpanRecorder is attached, records
 * a span around every call into each layer.  With no recorder
 * attached, or built untraced, the same operations run unobserved.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/quant_config.hpp"
#include "nn/module.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Kind
{
    CnnTrain,
    LstmTrain,
    CnnInfer,
};

/** Seed-independent shape of a workload. */
struct WorkloadSpec
{
    std::string name;
    Kind kind = Kind::CnnTrain;
    mrq::SubModelLadder ladder;
    std::size_t batch = 0; ///< Images per step/request; LM columns.

    // Image workloads (SynthImages + resnet-tiny).
    std::size_t imageSize = 12;
    std::size_t classes = 16;
    std::size_t trainImages = 0;
    std::size_t testImages = 0;

    // LSTM language model (SynthText + LstmLm).
    std::size_t vocab = 32;
    std::size_t embed = 24;
    std::size_t hidden = 48;
    std::size_t bptt = 16;
    std::size_t trainTokens = 0;

    /** Untimed operations run in set-up. */
    std::size_t warmupOps = 0;
    /** loss_final averages the losses of operations
     *  [lossHorizon - lossWindow, lossHorizon) of the run. */
    std::size_t lossHorizon = 0;
    std::size_t lossWindow = 0;

    /** Rungs whose latency is reported as rung_lo / rung_hi. */
    std::size_t loRung = 0;
    std::size_t hiRung = 0;
};

/** Names accepted by workloadSpec(), in report order. */
const std::vector<std::string>& workloadNames();

/** @throws std::invalid_argument for an unknown name. */
WorkloadSpec workloadSpec(const std::string& name);

class TracedModule;

/** Outcome of one operation. */
struct OpResult
{
    double ms = 0.0;          ///< Latency of the library call alone.
    std::int32_t rung = -1;   ///< Student rung (training) or request rung.
    float teacherLoss = 0.0f; ///< Teacher loss, or request cross-entropy.
    float studentLoss = 0.0f; ///< Student loss (training only).
    bool ok = true;           ///< Every loss and output finite.
};

class Workload
{
  public:
    virtual ~Workload();

    /** One closed-loop operation. */
    virtual OpResult runOp() = 0;

    /**
     * Output checks once the loop has ended.  Returns the number of
     * failed checks and appends a line per failure to @p log.
     */
    virtual std::size_t verify(std::string* log) = 0;

    /** Attach (or detach with nullptr) the span recorder.  A workload
     *  built untraced ignores it. */
    void setRecorder(SpanRecorder* rec);

    /** Output of the last operation (inference logits; empty for
     *  training). */
    const mrq::Tensor& lastOutput() const { return lastOutput_; }

    /** Teacher loss (or request cross-entropy) of every operation
     *  since construction, warm-up included. */
    const std::vector<double>& trajectory() const { return trajectory_; }

    /** Weight layers, i.e. (weight, clip) pairs the quantizers project. */
    std::size_t weightLayers() const { return weights_.size(); }

    /** Wall ms of one direct fakeQuantWeights sweep over every weight
     *  layer at ladder rung @p rung. */
    double projectAllMs(std::size_t rung) const;

    const WorkloadSpec& spec() const { return spec_; }

  protected:
    explicit Workload(WorkloadSpec spec);

    /**
     * Calibrate @p model's weight clips, find its quantized weights,
     * and return the module to hand to MultiResTrainer: @p model
     * itself, or a pass-through wrapper around it when @p traced.
     */
    mrq::Module& adoptModel(mrq::Module& model, bool traced);

    WorkloadSpec spec_;
    std::vector<double> trajectory_;
    mrq::Tensor lastOutput_;
    SpanRecorder* rec_ = nullptr; ///< Null unless traced and attached.

  private:
    struct WeightClip
    {
        const mrq::Parameter* weight;
        const mrq::Parameter* clip;
    };
    std::vector<WeightClip> weights_;
    std::unique_ptr<TracedModule> traced_;
};

/** Build (set up and warm) a workload for @p seed. */
std::unique_ptr<Workload> makeWorkload(const WorkloadSpec& spec,
                                       std::uint64_t seed, bool traced);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
