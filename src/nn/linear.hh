/**
 * @file
 * Fully-connected layer.
 */

#ifndef PTOLEMY_NN_LINEAR_HH
#define PTOLEMY_NN_LINEAR_HH

#include <vector>

#include "nn/layer.hh"
#include "util/aligned.hh"

namespace ptolemy::nn
{

/**
 * Dense layer y = W x + b over flat vectors. Weight layout: [out][in].
 */
class Linear : public Layer
{
  public:
    Linear(std::string name, int in_n, int out_n);

    LayerKind kind() const override { return LayerKind::Linear; }
    Shape outputShape(const std::vector<Shape> &ins) const override;
    void forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                     bool train) const override;
    void backwardInto(const std::vector<const Tensor *> &ins,
                      const Tensor &grad_out,
                      const std::vector<GradSink> &sinks,
                      std::vector<float> *const *param_grads) override;
    std::vector<Param> params() override;
    bool weighted() const override { return true; }
    void partialSums(const Tensor &input, std::size_t out_index,
                     PsumRow &out,
                     const std::uint32_t *rf_offsets = nullptr) const override;
    std::size_t receptiveFieldSize() const override;

    /**
     * Copy the weight matrix into a 64-byte-aligned buffer the serving
     * gemv streams from. The values are identical, so every SIMD mode
     * is trivially bit-identical; the win is aligned vector loads and a
     * cache-line-aligned stream. See Layer::prepackWeights for the
     * ownership contract.
     */
    void prepackWeights() const override;
    void invalidatePackedWeights() override
    {
        util::AlignedF32().swap(packedW);
    }

    int inFeatures() const { return inN; }
    int outFeatures() const { return outN; }
    /** Direct access for initializers and tests. Non-const access
     *  invalidates the packed weight cache (the values may change). */
    std::vector<float> &
    weights()
    {
        invalidatePackedWeights();
        return weight;
    }
    std::vector<float> &
    biases()
    {
        // Bias is read live (never packed), but dropping the cache
        // keeps the staleness story uniform.
        invalidatePackedWeights();
        return bias;
    }

  private:
    /** Serving weight pointer: aligned copy when fresh, else live. */
    const float *servingWeights() const;

    int inN, outN;
    std::vector<float> weight, bias;
    std::vector<float> gradWeight, gradBias;
    /** Aligned serving-time copy of weight; mutable const-cache filled
     *  by prepackWeights (owner phase only — see Layer contract). */
    mutable util::AlignedF32 packedW;
};

} // namespace ptolemy::nn

#endif // PTOLEMY_NN_LINEAR_HH
