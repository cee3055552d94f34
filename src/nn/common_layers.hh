/**
 * @file
 * Parameter-light layers: ReLU, MaxPool2d, GlobalAvgPool, Flatten,
 * residual Add, channel Concat, and the EMA-statistics Norm2d.
 *
 * None of these layers keeps per-pass state: backward re-derives
 * masks/argmaxes/shapes from the recorded forward inputs, so any number
 * of samples may be in flight through one layer object concurrently
 * (see the Layer contract).
 */

#ifndef PTOLEMY_NN_COMMON_LAYERS_HH
#define PTOLEMY_NN_COMMON_LAYERS_HH

#include <vector>

#include "nn/layer.hh"

namespace ptolemy::nn
{

/** Element-wise rectifier. */
class ReLU : public Layer
{
  public:
    explicit ReLU(std::string name) : Layer(std::move(name)) {}

    LayerKind kind() const override { return LayerKind::ReLU; }
    Shape outputShape(const std::vector<Shape> &ins) const override;
    void forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                     bool train) const override;
    void backwardInto(const std::vector<const Tensor *> &ins,
                      const Tensor &grad_out,
                      const std::vector<GradSink> &sinks,
                      std::vector<float> *const *param_grads) override;
};

/** Non-overlapping max pooling with square window. */
class MaxPool2d : public Layer
{
  public:
    MaxPool2d(std::string name, int k) : Layer(std::move(name)), kSize(k) {}

    LayerKind kind() const override { return LayerKind::MaxPool; }
    Shape outputShape(const std::vector<Shape> &ins) const override;
    void forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                     bool train) const override;
    void backwardInto(const std::vector<const Tensor *> &ins,
                      const Tensor &grad_out,
                      const std::vector<GradSink> &sinks,
                      std::vector<float> *const *param_grads) override;
    void backmapImportant(
        const std::vector<const Tensor *> &ins, const Tensor &out,
        std::span<const std::size_t> out_idx,
        std::vector<std::vector<std::size_t>> &per_input) const override;

    int kernel() const { return kSize; }

  private:
    int kSize;
};

/** Global average pool: (C,H,W) -> flat (C). */
class GlobalAvgPool : public Layer
{
  public:
    explicit GlobalAvgPool(std::string name) : Layer(std::move(name)) {}

    LayerKind kind() const override { return LayerKind::GlobalAvgPool; }
    Shape outputShape(const std::vector<Shape> &ins) const override;
    void forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                     bool train) const override;
    void backwardInto(const std::vector<const Tensor *> &ins,
                      const Tensor &grad_out,
                      const std::vector<GradSink> &sinks,
                      std::vector<float> *const *param_grads) override;
    void backmapImportant(
        const std::vector<const Tensor *> &ins, const Tensor &out,
        std::span<const std::size_t> out_idx,
        std::vector<std::vector<std::size_t>> &per_input) const override;
};

/** Reshape (C,H,W) -> flat (C*H*W). Values are unchanged. */
class Flatten : public Layer
{
  public:
    explicit Flatten(std::string name) : Layer(std::move(name)) {}

    LayerKind kind() const override { return LayerKind::Flatten; }
    Shape outputShape(const std::vector<Shape> &ins) const override;
    void forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                     bool train) const override;
    void backwardInto(const std::vector<const Tensor *> &ins,
                      const Tensor &grad_out,
                      const std::vector<GradSink> &sinks,
                      std::vector<float> *const *param_grads) override;
};

/** Element-wise sum of two same-shaped tensors (residual connection). */
class Add : public Layer
{
  public:
    explicit Add(std::string name) : Layer(std::move(name)) {}

    LayerKind kind() const override { return LayerKind::Add; }
    int numInputs() const override { return 2; }
    Shape outputShape(const std::vector<Shape> &ins) const override;
    void forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                     bool train) const override;
    void backwardInto(const std::vector<const Tensor *> &ins,
                      const Tensor &grad_out,
                      const std::vector<GradSink> &sinks,
                      std::vector<float> *const *param_grads) override;
    void backmapImportant(
        const std::vector<const Tensor *> &ins, const Tensor &out,
        std::span<const std::size_t> out_idx,
        std::vector<std::vector<std::size_t>> &per_input) const override;
};

/** Channel-dimension concatenation of two maps with equal H and W. */
class Concat : public Layer
{
  public:
    explicit Concat(std::string name) : Layer(std::move(name)) {}

    LayerKind kind() const override { return LayerKind::Concat; }
    int numInputs() const override { return 2; }
    Shape outputShape(const std::vector<Shape> &ins) const override;
    void forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                     bool train) const override;
    void backwardInto(const std::vector<const Tensor *> &ins,
                      const Tensor &grad_out,
                      const std::vector<GradSink> &sinks,
                      std::vector<float> *const *param_grads) override;
    void backmapImportant(
        const std::vector<const Tensor *> &ins, const Tensor &out,
        std::span<const std::size_t> out_idx,
        std::vector<std::vector<std::size_t>> &per_input) const override;
};

/**
 * Parameter-free residual shortcut for strided stages (ResNet "option A"):
 * spatially subsample by 2 and zero-pad the channel dimension to 2C.
 * Keeps ResNet-18's weighted-layer count at exactly 18.
 */
class DownsamplePad : public Layer
{
  public:
    explicit DownsamplePad(std::string name) : Layer(std::move(name)) {}

    LayerKind kind() const override { return LayerKind::Downsample; }
    Shape outputShape(const std::vector<Shape> &ins) const override;
    void forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                     bool train) const override;
    void backwardInto(const std::vector<const Tensor *> &ins,
                      const Tensor &grad_out,
                      const std::vector<GradSink> &sinks,
                      std::vector<float> *const *param_grads) override;
    void backmapImportant(
        const std::vector<const Tensor *> &ins, const Tensor &out,
        std::span<const std::size_t> out_idx,
        std::vector<std::vector<std::size_t>> &per_input) const override;
};

/**
 * Per-channel normalization with EMA running statistics.
 *
 * y = gamma * (x - mu_run) / sqrt(var_run + eps) + beta.
 *
 * Training uses *deferred* statistics updates: forward normalizes with
 * the running stats as of the start of the mini-batch, each sample's
 * per-channel moments are collected via collectTrainState, and the
 * trainer folds them into the EMA in a fixed sample order at the batch
 * boundary (applyTrainState). The stats are then treated as constants
 * in backward (streaming/"frozen" batch-norm), which is stable with
 * our per-sample gradient computation, keeps the backward pass simple,
 * and — unlike the old update-during-forward scheme — is bit-identical
 * no matter how many threads execute the batch. The running stats are
 * serialized as layer state.
 */
class Norm2d : public Layer
{
  public:
    Norm2d(std::string name, int channels, float momentum = 0.05f,
           float eps = 1e-5f);

    LayerKind kind() const override { return LayerKind::Norm; }
    Shape outputShape(const std::vector<Shape> &ins) const override;
    void forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                     bool train) const override;
    void backwardInto(const std::vector<const Tensor *> &ins,
                      const Tensor &grad_out,
                      const std::vector<GradSink> &sinks,
                      std::vector<float> *const *param_grads) override;
    std::vector<Param> params() override;
    std::vector<Param> state() override;
    std::size_t trainStateSize() const override;
    void collectTrainState(const std::vector<const Tensor *> &ins,
                           float *dst) const override;
    void applyTrainState(const float *src) override;

  private:
    int chans;
    float mom, epsilon;
    util::AlignedF32 gamma, beta, runMean, runVar;
    std::vector<float> gradGamma, gradBeta;
};

} // namespace ptolemy::nn

#endif // PTOLEMY_NN_COMMON_LAYERS_HH
