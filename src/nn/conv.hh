/**
 * @file
 * 2-D convolution layer (NCHW, square kernel, zero padding).
 */

#ifndef PTOLEMY_NN_CONV_HH
#define PTOLEMY_NN_CONV_HH

#include <span>
#include <vector>

#include "nn/gemm.hh"
#include "nn/layer.hh"

namespace ptolemy::nn
{

/**
 * Standard 2-D convolution with bias.
 *
 * Weight layout: [outC][inC][k][k]; bias: [outC]. The layer always
 * holds W^T packed into the blocked panels the forward consumes
 * (convForwardPacked): packed in the constructor and repacked by
 * weightsChanged, which every weight writer calls. The forward only
 * reads the panels, so any number of threads can run it at once.
 */
class Conv2d : public Layer
{
  public:
    /**
     * @param name layer name (unique within a network).
     * @param in_c input channels.
     * @param out_c output channels.
     * @param k square kernel size.
     * @param stride stride in both dimensions.
     * @param pad zero padding on each border.
     */
    Conv2d(std::string name, int in_c, int out_c, int k, int stride = 1,
           int pad = 1);

    LayerKind kind() const override { return LayerKind::Conv; }
    Shape outputShape(const std::vector<Shape> &ins) const override;
    void forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                     bool train) const override;
    void backwardInto(const std::vector<const Tensor *> &ins,
                      const Tensor &grad_out,
                      const std::vector<GradSink> &sinks,
                      std::vector<float> *const *param_grads) override;
    std::vector<Param> params() override;
    bool weighted() const override { return true; }
    /** Interior neurons gather through @p rf_offsets when given (see
     *  receptiveFieldOffsets); border neurons, and every neuron when
     *  the table is null, take the clipped (ic, ky, kx) loop. */
    void partialSums(const Tensor &input, std::size_t out_index,
                     PsumRow &out,
                     const std::uint32_t *rf_offsets = nullptr) const override;
    /** {(ic*ih + ky)*iw + kx} over (ic, ky, kx) in row order. */
    std::vector<std::uint32_t>
    receptiveFieldOffsets(const Shape &in) const override;
    std::size_t receptiveFieldSize() const override;

    /** Repack W^T [inC*k*k x outC] from the current weights. */
    void weightsChanged() override;

    /**
     * Scalar reference forward, a direct 6-deep loop (equivalence
     * oracle for tests and the perf-smoke baseline). Resizes @p out.
     */
    void forwardNaive(const Tensor &in, Tensor &out) const;
    /**
     * Scalar reference backward (oracle for the GEMM backward):
     * @p grad_in is resized and zeroed, then receives dL/d(in);
     * @p grad_w / @p grad_b, when non-null, accumulate (+=) the
     * parameter gradients.
     */
    void backwardNaive(const Tensor &in, const Tensor &grad_out,
                       Tensor &grad_in, std::vector<float> *grad_w,
                       std::vector<float> *grad_b) const;

    int inChannels() const { return inC; }
    int outChannels() const { return outC; }
    int kernel() const { return kSize; }
    int strideOf() const { return strd; }
    int padOf() const { return padding; }

    const util::AlignedF32 &weights() const { return weight; }
    /**
     * Replace the weights ([outC][inC][k][k], weights().size() floats;
     * std::invalid_argument otherwise) and repack the panels.
     */
    void setWeights(std::span<const float> w);
    /** Bias is read live by the forward (never packed), so it may be
     *  written in place. */
    util::AlignedF32 &biases() { return bias; }

  private:
    /** Output shape for one input shape, allocation-free. */
    Shape outShapeFor(const Shape &in) const;
    /** GEMM backward: grad_W via an NT product over im2col, grad_in
     *  via the implicit-GEMM convBackwardInput. Null @p grad_w /
     *  @p grad_b skip the dW product and its im2col; a null
     *  @p sink.grad skips the input gradient. */
    void backwardGemm(const Tensor &in, const Tensor &grad_out,
                      const GradSink &sink, std::vector<float> *grad_w,
                      std::vector<float> *grad_b);

    float
    wAt(int oc, int ic, int ky, int kx) const
    {
        return weight[((static_cast<std::size_t>(oc) * inC + ic) * kSize +
                       ky) * kSize + kx];
    }

    int inC, outC, kSize, strd, padding;
    util::AlignedF32 weight, bias;
    std::vector<float> gradWeight, gradBias;
    PackedB packedWt; ///< W^T panels of weight (see weightsChanged)
};

} // namespace ptolemy::nn

#endif // PTOLEMY_NN_CONV_HH
