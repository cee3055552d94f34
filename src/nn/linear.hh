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
 * The forward's gemv streams the 64-byte-aligned weight storage in
 * place; nothing is derived from it, so writers need no repack.
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

    int inFeatures() const { return inN; }
    int outFeatures() const { return outN; }
    /** Direct access for initializers and tests (read live by the
     *  forward, so in-place writes need no weightsChanged). */
    util::AlignedF32 &weights() { return weight; }
    util::AlignedF32 &biases() { return bias; }

  private:
    int inN, outN;
    util::AlignedF32 weight, bias;
    std::vector<float> gradWeight, gradBias;
};

} // namespace ptolemy::nn

#endif // PTOLEMY_NN_LINEAR_HH
