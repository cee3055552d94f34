/**
 * @file
 * DAG of layers with activation recording.
 *
 * The network is the substrate both for inference/training and for the
 * Ptolemy detector: a forward pass records every node's output tensor
 * (the "feature maps" the paper's extractor walks), and the node graph
 * exposes which nodes are weighted so the extractor can follow the data
 * graph backward through residual adds, concats and pools.
 *
 * Layers are stateless across passes (see Layer), so a Record is all
 * the context a pass carries: any recorded pass — including one from
 * forwardBatch — can be differentiated later by handing the Record to
 * backward(). Per-slot GradArena scratch plus caller-owned parameter-
 * gradient clones make forward+backward safe to run concurrently for
 * different samples against one network, which is what the
 * data-parallel trainer rides on.
 */

#ifndef PTOLEMY_NN_NETWORK_HH
#define PTOLEMY_NN_NETWORK_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.hh"
#include "nn/tensor.hh"

namespace ptolemy
{
class ThreadPool;
}

namespace ptolemy::nn
{

/**
 * Feed-forward DAG. Nodes must be added in topological order; input id -1
 * denotes the network input. The last added node is the output (logits).
 */
class Network
{
  public:
    /** One graph node: a layer plus the node ids feeding it. */
    struct Node
    {
        std::unique_ptr<Layer> layer;
        std::vector<int> inputs; ///< node ids; -1 = network input
        Shape outShape;
    };

    /** Recorded activations of one forward pass. */
    struct Record
    {
        Tensor input;
        std::vector<Tensor> outputs; ///< per node, in node order

        /** Network output (logits) — last node's output. */
        const Tensor &logits() const { return outputs.back(); }

        /** Predicted class. */
        std::size_t predictedClass() const { return logits().argmax(); }
    };

    /**
     * Per-slot forward/backward scratch: input-pointer views for the
     * node walk plus the gradient arena (per-node output gradients,
     * seeded flags, sink/seed scratch). One arena per concurrent pass;
     * every buffer is reused across calls, so a warmed-up
     * forward+backward loop performs no heap allocation. The trainer
     * keeps one per ThreadPool slot.
     */
    struct GradArena
    {
        std::vector<const Tensor *> ins;  ///< forward/backward input views
        std::vector<Tensor> gradAt;       ///< per node output gradient
        std::vector<std::uint8_t> seeded; ///< gradAt[i] valid this pass
        Tensor gradInput;
        bool gradInputSeeded = false;
        std::vector<GradSink> sinks;      ///< per-node sink scratch
        std::vector<std::pair<int, Tensor>> seeds; ///< backward() scratch
        std::vector<std::vector<float> *> pgradPtrs; ///< per-param dests
    };

    Network(std::string name, Shape input_shape)
        : netName(std::move(name)), inShape(input_shape)
    {}

    const std::string &name() const { return netName; }
    const Shape &inputShape() const { return inShape; }

    /**
     * Append a layer.
     * @param layer the layer (ownership transfers).
     * @param inputs feeding node ids; empty means "previous node"
     *        (or the network input for the first node).
     * @return the new node's id.
     */
    int add(std::unique_ptr<Layer> layer, std::vector<int> inputs = {});

    int numNodes() const { return static_cast<int>(nodes.size()); }
    const Node &node(int id) const { return nodes[id]; }
    Layer &layerAt(int id) { return *nodes[id].layer; }
    const Layer &layerAt(int id) const { return *nodes[id].layer; }

    /** Shape a node consumes/produces. */
    Shape nodeInputShape(int id, int input_slot = 0) const;
    const Shape &nodeOutputShape(int id) const { return nodes[id].outShape; }

    /** Node ids of weighted (conv/linear) layers, topological order. */
    const std::vector<int> &weightedNodes() const { return weightedIds; }

    /** Node ids that consume node @p id's output (or the input for -1). */
    std::vector<int> consumersOf(int id) const;

    /** Run the network, recording every node's output. */
    Record forward(const Tensor &x, bool train = false);

    /**
     * Run the network into a caller-owned Record. Re-using the same
     * Record across calls makes the steady-state forward pass
     * allocation-free: every node output and the recorded input are
     * written into the buffers of the previous pass. With train=true,
     * deferred layer-state updates (Norm running statistics) are
     * folded in immediately — the single-sample streaming semantics a
     * hand-rolled training loop expects. Every forward entry point
     * throws std::invalid_argument, in every build, when x's shape
     * differs from inputShape().
     */
    void forwardInto(const Tensor &x, Record &rec, bool train = false);

    /**
     * forwardInto with caller-owned node-input scratch: several threads
     * may run this concurrently against one network, each with its own
     * Record and GradArena (the member-scratch overload above is for
     * single-stream callers only). This overload NEVER touches layer
     * state — with train=true the caller owns the deferred stat fold
     * (collectTrainState per sample, applyTrainState in sample order at
     * the batch boundary), which is how the trainer keeps parallel
     * training deterministic. Const: legal on a shared, frozen network.
     */
    void forwardInto(const Tensor &x, Record &rec, bool train,
                     GradArena &slot) const;

    /**
     * Const inference entry point: run the network (train=false),
     * recording every node's output, without touching any member
     * scratch. Any number of threads may call this concurrently on one
     * frozen network, each with its own Record — the thread-safety
     * contract core::DetectorModel/DetectorSession serve on. The
     * node-input views live in thread-local scratch, so a warmed-up
     * loop performs no heap allocation and the results are
     * bit-identical to forwardInto(x, rec, false).
     */
    void inferInto(const Tensor &x, Record &rec) const;

    /** Argmax class of a const inference pass; @p rec is this caller's
     *  reusable record scratch. */
    std::size_t inferPredict(const Tensor &x, Record &rec) const
    {
        inferInto(x, rec);
        return rec.predictedClass();
    }

    /**
     * Run a batch of inputs, one Record per sample, optionally fanned
     * out over a thread pool. Records from a batch are full records:
     * any of them may be handed to backward() afterwards.
     *
     * @param xs batch inputs.
     * @param recs resized to xs.size(); per-sample records (buffers are
     *        reused across calls, so a persistent vector makes repeated
     *        batches allocation-free).
     * @param pool optional pool; samples are independent, so any
     *        interleaving is equivalent to the serial loop.
     */
    void forwardBatch(const std::vector<Tensor> &xs,
                      std::vector<Record> &recs,
                      ThreadPool *pool = nullptr) const;

    /**
     * As forwardBatch, but over borrowed tensors (no copies into a
     * contiguous vector): the batched attack engine and the
     * evaluation filter pass feed candidate views straight from their
     * owners. Worker-side scratch is thread-local, so a warmed-up
     * batch loop performs no heap allocation.
     */
    void forwardBatch(std::span<const Tensor *const> xs,
                      std::vector<Record> &recs,
                      ThreadPool *pool = nullptr) const;

    /**
     * Back-propagate from the logits of a recorded pass.
     * @param rec the record produced by the matching forward pass on
     *        this network; throws std::logic_error if it does not cover
     *        every node.
     * @param grad_logits dLoss/dLogits.
     * @return dLoss/dInput, borrowed from the network's gradient arena;
     *         valid until the next backward on this network. A warmed-up
     *         forward/backward loop performs no heap allocation.
     */
    const Tensor &backward(const Record &rec, const Tensor &grad_logits);

    /**
     * Parameter gradients of one recorded pass, with caller-owned
     * scratch and destinations so several samples can back-propagate
     * concurrently on one network (the trainer's per-sample step).
     * Accumulates (+=) into @p param_grads (flatParams() order, sized
     * like each parameter) and computes no gradient that no parameter
     * gradient depends on: a layer fed by the network input — or by a
     * node with no parameter at or above it — gets a null sink and
     * skips its input gradient (for a conv first layer, the whole
     * transposed convolution). Every parameter gradient is
     * bit-identical to a full backward's.
     * @param slot this pass's scratch arena.
     */
    void backwardParams(const Record &rec, const Tensor &grad_logits,
                        GradArena &slot,
                        std::vector<std::vector<float>> &param_grads);

    /**
     * As backward(), but with caller-owned scratch (@p slot; the
     * returned tensor is borrowed from it) and computing the input
     * gradient ONLY: parameter gradients are neither computed nor
     * written anywhere — weighted layers skip the dW/db arithmetic
     * outright (for conv, the NT product and its im2col), and the
     * returned input gradient is bit-identical to the full backward's.
     * This is the batched attack engine's fast path: attacks consume
     * dLoss/dInput and nothing else.
     */
    const Tensor &backwardInputOnly(const Record &rec,
                                    const Tensor &grad_logits,
                                    GradArena &slot);

    /**
     * Back-propagate from gradients seeded at arbitrary nodes (used by the
     * adaptive attack, whose loss is defined on intermediate activations).
     * @param seeds (node id, dLoss/dNodeOutput) pairs.
     * @return dLoss/dInput.
     */
    const Tensor &backwardMulti(
        const Record &rec, const std::vector<std::pair<int, Tensor>> &seeds);

    /** Input-gradient-only variant of backwardMulti (see
     *  backwardInputOnly). */
    const Tensor &backwardMultiInputOnly(
        const Record &rec, const std::vector<std::pair<int, Tensor>> &seeds,
        GradArena &slot);

    /** Argmax class of a plain forward pass. */
    std::size_t predict(const Tensor &x);

    /** All trainable parameters in node order (fresh vector). */
    std::vector<Param> params();

    /**
     * Cached flat parameter list (same order as params()); the
     * canonical index space for per-lane gradient clones. The pointers
     * are stable, and repeated calls allocate nothing.
     */
    const std::vector<Param> &flatParams();

    /** Size @p bufs as parameter-gradient clones: one zeroed vector per
     *  flatParams() entry. */
    void allocParamGrads(std::vector<std::vector<float>> &bufs);

    /** Zero every parameter gradient. */
    void zeroGrads();

    /** Total trainable parameter count. */
    std::size_t numParams();

    /** Total floats of deferred train-state per sample (see Layer). */
    std::size_t trainStateSize();

    /**
     * Derive one training sample's deferred state updates (Norm running
     * statistics) from its record into @p dst (trainStateSize() floats,
     * node order). Pure — safe from any thread.
     */
    void collectTrainState(const Record &rec, float *dst);

    /** Fold one sample's deferred updates into the layers. Call
     *  serially, in a fixed sample order, for determinism. */
    void applyTrainState(const float *src);

    /**
     * Rebuild every layer's derived weight state (Layer::weightsChanged)
     * after writing parameter values through params()/flatParams().
     * Single-threaded, before the next forward; load() and the trainer
     * call it themselves.
     */
    void weightsChanged();

    /**
     * Architecture signature used to validate weight caches: layer names,
     * kinds and parameter sizes.
     */
    std::string signature() const;

    /** Serialize parameters + state to @p path. @return success. */
    bool save(const std::string &path);

    /**
     * Load parameters + state. All or nothing: a signature or buffer
     * count mismatch, or a short or corrupt buffer, returns false with
     * every value unchanged.
     */
    bool load(const std::string &path);

  private:
    /** Every parameter and state value buffer in file order: per
     *  node, params() then state(). */
    std::vector<util::AlignedF32 *> valueBuffers();

    /** Build the cached parameter index (flat list + per-node spans). */
    void ensureParamIndex();

    /** Which gradients a backward walk produces. */
    enum class Pass
    {
        Full,       ///< input and parameter gradients
        InputOnly,  ///< dL/d(input) only (skipParamGrads)
        ParamsOnly, ///< parameter gradients only (null sinks)
    };

    /** Seed @p slot with dL/dLogits at the output node. */
    void seedLogits(GradArena &slot, const Tensor &grad_logits) const;

    /** Shared walk behind every backward entry point; the input
     *  gradient lands in @p slot.gradInput unless ParamsOnly. */
    void backwardWalk(const Record &rec,
                      const std::vector<std::pair<int, Tensor>> &seeds,
                      GradArena &slot,
                      std::vector<std::vector<float>> *param_grads, Pass pass);

    std::string netName;
    Shape inShape;
    std::vector<Node> nodes;
    std::vector<int> weightedIds;
    GradArena arena; ///< member scratch for the single-stream entry points
    std::vector<float> trainStateScratch; ///< single-stream stat folds
    // Cached parameter index: flat params, per-node offset into it, and
    // per-node deferred-train-state offsets. Rebuilt if nodes are added.
    std::vector<Param> flatParamCache;
    std::vector<std::size_t> nodeParamOffset; ///< per node, into flat list
    std::vector<std::size_t> nodeStateOffset; ///< per node, into state blob
    /** Per node: it or a node upstream of it has parameters, i.e. some
     *  parameter gradient depends on its output gradient. */
    std::vector<std::uint8_t> feedsParams;
    std::size_t stateFloats = 0;
    std::size_t paramIndexNodes = static_cast<std::size_t>(-1);
};

} // namespace ptolemy::nn

#endif // PTOLEMY_NN_NETWORK_HH
