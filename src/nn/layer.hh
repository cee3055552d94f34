/**
 * @file
 * Layer interface for the NN substrate.
 *
 * Every layer implements forward and backward (the attack suite needs
 * gradients with respect to the input, and training needs gradients with
 * respect to the weights). Weighted layers (conv, linear) additionally
 * expose their per-output partial sums so the Ptolemy path extractor can
 * rank/threshold them exactly as the hardware would (paper Fig. 3).
 *
 * Contract: layers are **stateless across passes**. forwardInto writes
 * no layer state, and backwardInto re-derives everything it needs from
 * the recorded forward tensors the caller passes back in. That is what
 * lets several samples be in flight through one layer object at once —
 * batched inference and data-parallel training both fan out over the
 * shared layer graph. The only mutable per-layer buffers are the
 * parameter gradients, and backwardInto can redirect those to
 * caller-owned clones (one set per training lane) so even gradient
 * accumulation is race-free and deterministic.
 *
 * Train-time state updates (Norm2d's EMA running statistics) are
 * likewise not applied inside forward: they are *deferred* — derived
 * per sample via collectTrainState and folded in later, in a fixed
 * sample order, via applyTrainState — so training results are
 * bit-identical no matter how many threads ran the batch.
 */

#ifndef PTOLEMY_NN_LAYER_HH
#define PTOLEMY_NN_LAYER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/tensor.hh"
#include "util/aligned.hh"

namespace ptolemy::nn
{

/** Layer taxonomy; the compiler and hw model key their costs off this. */
enum class LayerKind
{
    Conv,
    Linear,
    ReLU,
    MaxPool,
    GlobalAvgPool,
    Flatten,
    Add,
    Concat,
    Norm,
    Downsample,
};

/** Human-readable kind name (for dumps and error messages). */
const char *layerKindName(LayerKind k);

/**
 * A mutable view of one parameter (or state buffer) and its gradient.
 * Values are stored 64-byte aligned, so the kernels stream them in
 * place with aligned vector loads; gradients are plain scratch. A
 * caller that writes through @p value must call Layer::weightsChanged
 * (or Network::weightsChanged) before the next forward.
 */
struct Param
{
    util::AlignedF32 *value = nullptr;
    std::vector<float> *grad = nullptr; ///< null for non-trainable state
};

/**
 * The partial-sum row of one output neuron: value[i] = input[index[i]]
 * * w, the terms the MAC array generates (paper Fig. 3). Two flat
 * arrays rather than {index, value} structs so row construction is
 * plain vector stores and selection sweeps read only the values.
 *
 * Invariant: rows are emitted in strictly ascending input-index order
 * (Conv2d walks (ic, ky, kx), Linear walks i). Ranked-prefix selection
 * relies on it: "first position holding the maximum" is then exactly
 * the lower-input-index tie-break of the extraction total order.
 * Indices are 32-bit on purpose: no layer input comes near 2^32
 * elements.
 */
struct PsumRow
{
    std::vector<float> value;
    std::vector<std::uint32_t> index;

    std::size_t size() const { return value.size(); }
    bool empty() const { return value.empty(); }
    void
    resize(std::size_t n)
    {
        value.resize(n);
        index.resize(n);
    }
    void
    clear()
    {
        value.clear();
        index.clear();
    }
    void
    push(std::uint32_t i, float v)
    {
        index.push_back(i);
        value.push_back(v);
    }
};

/**
 * Destination for one input-slot gradient during backwardInto. The
 * tensor is caller-owned (Network keeps them in a reusable arena), so
 * a warmed-up backward pass performs no heap allocation. When
 * @p accumulate is false the layer resizes the tensor and overwrites
 * it; when true the tensor already holds another consumer's gradient
 * of the same shape and the layer adds element-wise. A null @p grad
 * means nothing consumes this input's gradient (Network::
 * backwardParams): layers with parameters still compute those and skip
 * the input gradient, and multi-input layers skip that slot. Network
 * never calls a parameterless layer whose every sink is null.
 */
struct GradSink
{
    Tensor *grad = nullptr;
    bool accumulate = false;
};

/**
 * Sentinel accepted as backwardInto's @p param_grads: compute no
 * parameter gradients at all. Layers with parameters skip the dW/db
 * arithmetic outright (for conv that drops the NT product and the
 * im2col that only feeds it); the input gradients they produce are
 * bit-identical to a full backward's. The batched attack
 * engine rides this: attacks consume dLoss/dInput only, and the legacy
 * sample-serial path wasted the parameter-gradient work every
 * iteration. Compare by address; never dereference.
 */
std::vector<float> *const *skipParamGrads();

/**
 * Abstract NN layer.
 */
class Layer
{
  public:
    explicit Layer(std::string layer_name) : layerName(std::move(layer_name))
    {}
    virtual ~Layer() = default;

    Layer(const Layer &) = delete;
    Layer &operator=(const Layer &) = delete;

    const std::string &name() const { return layerName; }
    virtual LayerKind kind() const = 0;

    /** Number of input tensors this layer consumes (1 except Add/Concat). */
    virtual int numInputs() const { return 1; }

    /** Output shape given input shapes (for graph construction checks). */
    virtual Shape outputShape(const std::vector<Shape> &ins) const = 0;

    /**
     * Run the layer, writing the result into @p out (resized as needed;
     * a warmed-up @p out buffer makes the call allocation-free for the
     * overriding layers). Const and state-free: it performs no writes
     * to layer state whatsoever, so concurrent samples through one
     * layer object never race, and a fully `const Network` can serve
     * inference (the immutability guarantee core::DetectorModel is
     * built on).
     *
     * @param ins borrowed input tensors, one per declared input.
     * @param out output tensor, resized to the layer's output shape.
     * @param train true during training. Layers with running statistics
     *        do NOT fold them in here (see collectTrainState); today no
     *        layer's output depends on the flag, but it is kept so
     *        future train-only behaviors (dropout) have a seam.
     */
    virtual void forwardInto(const std::vector<const Tensor *> &ins,
                             Tensor &out, bool train) const = 0;

    /**
     * Convenience wrapper around forwardInto() that allocates the output.
     * When @p train is set, any deferred train-state update (Norm2d's
     * running statistics) is folded in immediately — the single-sample
     * streaming behavior tests and one-off callers expect. Non-const
     * because of that fold; inference-only callers on a const layer use
     * forwardInto directly.
     */
    Tensor forward(const std::vector<const Tensor *> &ins, bool train);

    /**
     * Back-propagate into caller-owned gradient tensors.
     *
     * @param ins the recorded forward inputs of the pass being
     *        differentiated (a Network passes the Record tensors back
     *        in). Layers re-derive any forward state they need from
     *        these — ReLU masks, pool argmaxes, normalized values —
     *        instead of stashing it, so backward passes for different
     *        samples can run concurrently against one layer object.
     * @param grad_out gradient of the loss w.r.t. this layer's output.
     * @param sinks one destination per declared input, in input order;
     *        see GradSink for the overwrite/accumulate contract.
     * @param param_grads destinations for the parameter gradients, one
     *        per params() entry in the same order, accumulated (+=).
     *        Pass nullptr to accumulate into the layer's own grad
     *        buffers (the serial default); a data-parallel trainer
     *        passes per-lane clones instead; skipParamGrads() elides
     *        the parameter-gradient computation entirely (the attack
     *        engine's input-gradient-only backward).
     */
    virtual void backwardInto(const std::vector<const Tensor *> &ins,
                              const Tensor &grad_out,
                              const std::vector<GradSink> &sinks,
                              std::vector<float> *const *param_grads) = 0;

    /**
     * Allocating convenience wrapper around backwardInto() (tests and
     * one-off callers; hot loops go through Network's gradient arena).
     * Parameter gradients accumulate into the layer's own buffers.
     * @param ins the forward inputs of the pass being differentiated.
     * @return gradient w.r.t. each input, in input order.
     */
    std::vector<Tensor> backward(const std::vector<const Tensor *> &ins,
                                 const Tensor &grad_out);

    /** Trainable parameters (empty by default). */
    virtual std::vector<Param> params() { return {}; }

    /** Non-trainable state saved with the model (e.g. Norm running stats). */
    virtual std::vector<Param> state() { return {}; }

    /**
     * Floats of deferred train-state this layer derives per training
     * sample (0 for layers without running statistics). Norm2d reports
     * 2*C: per-channel mean and variance of the sample.
     */
    virtual std::size_t trainStateSize() const { return 0; }

    /**
     * Derive one training sample's deferred state update from its
     * recorded forward inputs into @p dst (trainStateSize() floats).
     * Pure — writes no layer state — so it can run on any thread.
     */
    virtual void
    collectTrainState(const std::vector<const Tensor *> &ins, float *dst) const
    {
        (void)ins;
        (void)dst;
    }

    /**
     * Fold one sample's deferred update (as produced by
     * collectTrainState) into the layer's running state. Callers invoke
     * this serially, in a fixed sample order, which is what makes
     * data-parallel training bit-identical across thread counts.
     */
    virtual void applyTrainState(const float *src) { (void)src; }

    /**
     * Rebuild whatever this layer derives from its parameter values
     * (Conv2d's packed W^T panels). Every writer of the values calls it
     * once it is done — the trainer after each SGD step, Network::load,
     * Conv2d::setWeights — single-threaded, before the next forward, so
     * a forward only ever reads derived state that matches the values.
     * Default: nothing derived, no-op.
     */
    virtual void weightsChanged() {}

    /** True for layers that own weights and define partial sums. */
    virtual bool weighted() const { return false; }

    /**
     * Partial-sum row of output neuron @p out_index given recorded input
     * @p input: the terms input[i] * w that the MAC array generates, in
     * ascending input-index order (see PsumRow). Only meaningful when
     * weighted(). Bias is excluded: it is not attributable to any input
     * neuron (consistent with paper Fig. 3, which ranks input-element
     * contributions only).
     *
     * @param rf_offsets optional receptive-field offset table from
     *        receptiveFieldOffsets() for @p input's shape; layers that
     *        publish one build interior rows by gathering through it.
     *        Null is always valid (same row, built without the table).
     */
    virtual void
    partialSums(const Tensor &input, std::size_t out_index, PsumRow &out,
                const std::uint32_t *rf_offsets = nullptr) const
    {
        (void)input;
        (void)out_index;
        (void)rf_offsets;
        out.clear();
    }

    /**
     * Flat input offsets of one interior receptive field relative to
     * its top-left tap, for inputs of shape @p in, in row order. Empty
     * for layers whose rows need no table (Linear, non-weighted).
     * Computed once per extractor and read-only afterwards.
     */
    virtual std::vector<std::uint32_t>
    receptiveFieldOffsets(const Shape &in) const
    {
        (void)in;
        return {};
    }

    /** Receptive-field size (partial sums per output neuron), 0 if not
     *  weighted. For conv this is inC*k*k (interior); edges may be less. */
    virtual std::size_t receptiveFieldSize() const { return 0; }

    /**
     * Map important output elements back to important input elements for
     * layers that merely reshape/route values (ReLU, pool, add, concat...).
     * Weighted layers do not use this; the extractor thresholds their
     * partial sums instead.
     *
     * @param ins recorded inputs of the forward pass being analyzed.
     * @param out recorded output of that pass.
     * @param out_idx sorted important output flat indices.
     * @param per_input slot i is filled with the important flat indices
     *        of input i. It holds at least one slot per input after the
     *        call; slots past the layer's inputs are left as they are,
     *        so one buffer reused across nodes keeps every slot's
     *        storage (see clearSlots).
     */
    virtual void backmapImportant(
        const std::vector<const Tensor *> &ins, const Tensor &out,
        const std::vector<std::size_t> &out_idx,
        std::vector<std::vector<std::size_t>> &per_input) const;

  protected:
    /** Empty the first @p n slots of @p per_input, adding the missing
     *  ones; later slots keep their contents and storage. */
    static void clearSlots(std::vector<std::vector<std::size_t>> &per_input,
                           std::size_t n);

  private:
    std::string layerName;
};

} // namespace ptolemy::nn

#endif // PTOLEMY_NN_LAYER_HH
