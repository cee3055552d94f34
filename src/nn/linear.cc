#include "linear.hh"

#include <cassert>
#include <numeric>

#include "nn/gemm.hh"
#include "nn/psum_kernels.hh"

namespace ptolemy::nn
{

Linear::Linear(std::string name, int in_n, int out_n)
    : Layer(std::move(name)), inN(in_n), outN(out_n),
      weight(static_cast<std::size_t>(in_n) * out_n, 0.0f), bias(out_n, 0.0f),
      gradWeight(weight.size(), 0.0f), gradBias(out_n, 0.0f)
{
}

Shape
Linear::outputShape(const std::vector<Shape> &ins) const
{
    requireShape(ins.size() == 1 &&
                     ins[0].numel() == static_cast<std::size_t>(inN),
                 "input size differs from in_features");
    return flatShape(outN);
}

void
Linear::forwardInto(const std::vector<const Tensor *> &ins, Tensor &out,
                    bool train) const
{
    (void)train;
    const Tensor &in = *ins[0];
    assert(static_cast<int>(in.size()) == inN);
    out.resize(flatShape(outN));
    sgemvBias(outN, inN, weight.data(), in.data(), bias.data(),
              out.data());
}

void
Linear::backwardInto(const std::vector<const Tensor *> &ins,
                     const Tensor &grad_out,
                     const std::vector<GradSink> &sinks,
                     std::vector<float> *const *param_grads)
{
    const Tensor &in = *ins[0];
    if (Tensor *grad_in = sinks[0].grad) {
        if (!sinks[0].accumulate)
            grad_in->resize(in.shape());
        // grad_in = W^T * grad_out; the kernel skips zero gradient rows
        // just like the fused scalar loop did, and its accumulate flag
        // directly implements the sink's overwrite/accumulate contract.
        sgemvT(outN, inN, weight.data(), grad_out.data(), grad_in->data(),
               sinks[0].accumulate);
    }
    if (param_grads == skipParamGrads())
        return; // input-gradient-only backward
    auto &grad_w = param_grads ? *param_grads[0] : gradWeight;
    auto &grad_b = param_grads ? *param_grads[1] : gradBias;
    for (int o = 0; o < outN; ++o) {
        const float g = grad_out[o];
        if (g == 0.0f)
            continue;
        grad_b[o] += g;
        float *gwrow = &grad_w[static_cast<std::size_t>(o) * inN];
        for (int i = 0; i < inN; ++i)
            gwrow[i] += g * in[i];
    }
}

std::vector<Param>
Linear::params()
{
    return {{&weight, &gradWeight}, {&bias, &gradBias}};
}

void
Linear::partialSums(const Tensor &input, std::size_t out_index, PsumRow &out,
                    const std::uint32_t *rf_offsets) const
{
    (void)rf_offsets;
    const std::size_t n = static_cast<std::size_t>(inN);
    const float *wrow = &weight[out_index * n];
    out.resize(n);
    std::iota(out.index.begin(), out.index.end(), 0u);
#ifdef PTOLEMY_HAVE_AVX2
    if (avx2Active()) {
        detail::avx2Products(wrow, input.data(), n, out.value.data());
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i)
        out.value[i] = wrow[i] * input[i];
}

std::size_t
Linear::receptiveFieldSize() const
{
    return static_cast<std::size_t>(inN);
}

} // namespace ptolemy::nn
