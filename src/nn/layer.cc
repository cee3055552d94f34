#include "layer.hh"

namespace ptolemy::nn
{

std::vector<float> *const *
skipParamGrads()
{
    // Unique address compared against by layers with parameters; the
    // pointed-to slot is never read.
    static std::vector<float> *const sentinel[1] = {nullptr};
    return sentinel;
}

const char *
layerKindName(LayerKind k)
{
    switch (k) {
      case LayerKind::Conv: return "conv";
      case LayerKind::Linear: return "linear";
      case LayerKind::ReLU: return "relu";
      case LayerKind::MaxPool: return "maxpool";
      case LayerKind::GlobalAvgPool: return "gavgpool";
      case LayerKind::Flatten: return "flatten";
      case LayerKind::Add: return "add";
      case LayerKind::Concat: return "concat";
      case LayerKind::Norm: return "norm";
      case LayerKind::Downsample: return "downsample";
    }
    return "?";
}

Tensor
Layer::forward(const std::vector<const Tensor *> &ins, bool train)
{
    Tensor out;
    forwardInto(ins, out, train);
    if (train) {
        // Single-sample streaming semantics: fold the deferred state
        // update right away. Batched training defers this to the batch
        // boundary instead (Network::applyTrainState).
        const std::size_t n = trainStateSize();
        if (n > 0) {
            std::vector<float> st(n);
            collectTrainState(ins, st.data());
            applyTrainState(st.data());
        }
    }
    return out;
}

std::vector<Tensor>
Layer::backward(const std::vector<const Tensor *> &ins,
                const Tensor &grad_out)
{
    std::vector<Tensor> grads(static_cast<std::size_t>(numInputs()));
    std::vector<GradSink> sinks;
    sinks.reserve(grads.size());
    for (auto &g : grads)
        sinks.push_back({&g, /*accumulate=*/false});
    backwardInto(ins, grad_out, sinks, /*param_grads=*/nullptr);
    return grads;
}

void
Layer::backmapImportant(const std::vector<const Tensor *> &ins,
                        const Tensor &out,
                        const std::vector<std::size_t> &out_idx,
                        std::vector<std::vector<std::size_t>> &per_input) const
{
    // Default: element-wise unary layer; importance maps through
    // identically (covers ReLU, Norm, Flatten).
    (void)ins;
    (void)out;
    clearSlots(per_input, 1);
    per_input[0].assign(out_idx.begin(), out_idx.end());
}

void
Layer::clearSlots(std::vector<std::vector<std::size_t>> &per_input,
                  std::size_t n)
{
    if (per_input.size() < n)
        per_input.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        per_input[i].clear();
}

} // namespace ptolemy::nn
