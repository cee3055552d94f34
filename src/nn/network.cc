#include "network.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/serialize.hh"
#include "util/thread_pool.hh"

namespace ptolemy::nn
{

namespace
{

/** The conv and fc kernels trust the layers' declared shapes, so a
 *  mis-shaped input would read past its tensor: refuse it in every
 *  build, before any layer runs. */
void
requireInputShape(const Tensor &x, const Shape &expected, const char *who)
{
    if (x.shape() != expected)
        throw std::invalid_argument(std::string(who) +
                                    ": input shape differs from the "
                                    "network's");
}

} // namespace

int
Network::add(std::unique_ptr<Layer> layer, std::vector<int> inputs)
{
    const int id = static_cast<int>(nodes.size());
    if (inputs.empty())
        inputs.push_back(id - 1); // previous node; -1 == network input
    if (static_cast<int>(inputs.size()) != layer->numInputs())
        throw std::invalid_argument("Network::add: layer '" + layer->name() +
                                    "' takes " +
                                    std::to_string(layer->numInputs()) +
                                    " inputs");
    std::vector<Shape> in_shapes;
    for (int in_id : inputs) {
        if (in_id < -1 || in_id >= id) // topological order
            throw std::invalid_argument("Network::add: layer '" +
                                        layer->name() +
                                        "' reads a node not added before it");
        in_shapes.push_back(in_id < 0 ? inShape : nodes[in_id].outShape);
    }
    Node n;
    n.outShape = layer->outputShape(in_shapes);
    if (layer->weighted())
        weightedIds.push_back(id);
    n.layer = std::move(layer);
    n.inputs = std::move(inputs);
    nodes.push_back(std::move(n));
    return id;
}

Shape
Network::nodeInputShape(int id, int input_slot) const
{
    const int in_id = nodes[id].inputs[input_slot];
    return in_id < 0 ? inShape : nodes[in_id].outShape;
}

std::vector<int>
Network::consumersOf(int id) const
{
    std::vector<int> out;
    for (int n = 0; n < numNodes(); ++n)
        for (int in_id : nodes[n].inputs)
            if (in_id == id)
                out.push_back(n);
    return out;
}

Network::Record
Network::forward(const Tensor &x, bool train)
{
    Record rec;
    forwardInto(x, rec, train);
    return rec;
}

void
Network::forwardInto(const Tensor &x, Record &rec, bool train)
{
    forwardInto(x, rec, train, arena);
    // Single-stream training semantics: fold any deferred layer-state
    // update (Norm running stats) right away, like the pre-refactor
    // streaming behavior. Batched training uses the slot overload and
    // defers the fold to the batch boundary instead.
    if (train && trainStateSize() > 0) {
        trainStateScratch.resize(trainStateSize());
        collectTrainState(rec, trainStateScratch.data());
        applyTrainState(trainStateScratch.data());
    }
}

void
Network::forwardInto(const Tensor &x, Record &rec, bool train,
                     GradArena &slot) const
{
    requireInputShape(x, inShape, "Network::forwardInto");
    rec.input = x; // copy-assign reuses the record's buffer
    rec.outputs.resize(nodes.size());
    for (std::size_t id = 0; id < nodes.size(); ++id) {
        const auto &n = nodes[id];
        slot.ins.clear();
        for (int in_id : n.inputs)
            slot.ins.push_back(in_id < 0 ? &rec.input
                                         : &rec.outputs[in_id]);
        n.layer->forwardInto(slot.ins, rec.outputs[id], train);
    }
}

void
Network::inferInto(const Tensor &x, Record &rec) const
{
    requireInputShape(x, inShape, "Network::inferInto");
    // Layers are state-free in forward, so concurrent inferences
    // through the shared layer objects do not race. The input views are
    // thread-local so a warmed-up loop allocates nothing.
    thread_local std::vector<const Tensor *> ins;
    rec.input = x; // copy-assign reuses the record's buffer
    rec.outputs.resize(nodes.size());
    for (std::size_t id = 0; id < nodes.size(); ++id) {
        const auto &n = nodes[id];
        ins.clear();
        for (int in_id : n.inputs)
            ins.push_back(in_id < 0 ? &rec.input : &rec.outputs[in_id]);
        n.layer->forwardInto(ins, rec.outputs[id], false);
    }
}

void
Network::forwardBatch(const std::vector<Tensor> &xs, std::vector<Record> &recs,
                      ThreadPool *pool) const
{
    // Delegate through borrowed views; per-thread pointer scratch keeps
    // repeated batches allocation-free.
    thread_local std::vector<const Tensor *> ptrs;
    ptrs.clear();
    for (const Tensor &x : xs)
        ptrs.push_back(&x);
    forwardBatch(std::span<const Tensor *const>(ptrs.data(), ptrs.size()),
                 recs, pool);
}

void
Network::forwardBatch(std::span<const Tensor *const> xs,
                      std::vector<Record> &recs, ThreadPool *pool) const
{
    recs.resize(xs.size());
    if (pool && pool->size() > 1 && xs.size() > 1) {
        pool->parallelFor(xs.size(),
                          [&](std::size_t i) { inferInto(*xs[i], recs[i]); });
        return;
    }
    for (std::size_t i = 0; i < xs.size(); ++i)
        inferInto(*xs[i], recs[i]);
}

const Tensor &
Network::backward(const Record &rec, const Tensor &grad_logits)
{
    seedLogits(arena, grad_logits);
    backwardWalk(rec, arena.seeds, arena, /*param_grads=*/nullptr,
                 Pass::Full);
    return arena.gradInput;
}

void
Network::backwardParams(const Record &rec, const Tensor &grad_logits,
                        GradArena &slot,
                        std::vector<std::vector<float>> &param_grads)
{
    seedLogits(slot, grad_logits);
    backwardWalk(rec, slot.seeds, slot, &param_grads, Pass::ParamsOnly);
}

const Tensor &
Network::backwardInputOnly(const Record &rec, const Tensor &grad_logits,
                           GradArena &slot)
{
    seedLogits(slot, grad_logits);
    backwardWalk(rec, slot.seeds, slot, /*param_grads=*/nullptr,
                 Pass::InputOnly);
    return slot.gradInput;
}

const Tensor &
Network::backwardMulti(const Record &rec,
                       const std::vector<std::pair<int, Tensor>> &seeds)
{
    backwardWalk(rec, seeds, arena, /*param_grads=*/nullptr, Pass::Full);
    return arena.gradInput;
}

const Tensor &
Network::backwardMultiInputOnly(
    const Record &rec, const std::vector<std::pair<int, Tensor>> &seeds,
    GradArena &slot)
{
    backwardWalk(rec, seeds, slot, /*param_grads=*/nullptr, Pass::InputOnly);
    return slot.gradInput;
}

void
Network::seedLogits(GradArena &slot, const Tensor &grad_logits) const
{
    slot.seeds.resize(1);
    slot.seeds[0].first = numNodes() - 1;
    slot.seeds[0].second = grad_logits; // copy-assign reuses the buffer
}

void
Network::backwardWalk(const Record &rec,
                      const std::vector<std::pair<int, Tensor>> &seeds,
                      GradArena &slot,
                      std::vector<std::vector<float>> *param_grads,
                      Pass pass)
{
    if (rec.outputs.size() != nodes.size())
        throw std::logic_error(
            "Network::backward: the record does not cover this network's "
            "nodes — pass the Record of a matching forward pass");
    ensureParamIndex();
    if (param_grads) {
        // Per-node destination pointers into the caller's flat buffers;
        // the table mirrors flatParams() order.
        slot.pgradPtrs.resize(flatParamCache.size());
        for (std::size_t i = 0; i < flatParamCache.size(); ++i)
            slot.pgradPtrs[i] = &(*param_grads)[i];
    }
    const bool params_only = pass == Pass::ParamsOnly;

    // Gradients accumulate at each node's *output* (plus the net input)
    // inside the slot arena; seeded flags gate every read so stale
    // tensors from the previous pass are never observed.
    slot.gradAt.resize(nodes.size());
    slot.seeded.assign(nodes.size(), 0);
    slot.gradInputSeeded = false;
    for (const auto &[node_id, grad] : seeds) {
        if (!slot.seeded[node_id]) {
            slot.gradAt[node_id] = grad; // copy-assign reuses the buffer
            slot.seeded[node_id] = 1;
        } else {
            slot.gradAt[node_id] += grad;
        }
    }

    for (int id = numNodes() - 1; id >= 0; --id) {
        if (!slot.seeded[id])
            continue; // node does not reach the loss
        if (params_only && !feedsParams[id])
            continue; // no parameter at or upstream of this node
        auto &n = nodes[id];
        slot.sinks.clear();
        slot.ins.clear();
        for (int in_id : n.inputs) {
            slot.ins.push_back(in_id < 0 ? &rec.input
                                         : &rec.outputs[in_id]);
            GradSink s;
            if (params_only && (in_id < 0 || !feedsParams[in_id])) {
                // Null sink: no parameter gradient depends on dL/d(in).
            } else if (in_id < 0) {
                s.grad = &slot.gradInput;
                s.accumulate = slot.gradInputSeeded;
                slot.gradInputSeeded = true;
            } else {
                s.grad = &slot.gradAt[in_id];
                s.accumulate = slot.seeded[in_id] != 0;
                slot.seeded[in_id] = 1;
            }
            slot.sinks.push_back(s);
        }
        n.layer->backwardInto(
            slot.ins, slot.gradAt[id], slot.sinks,
            pass == Pass::InputOnly
                ? skipParamGrads()
                : (param_grads
                       ? slot.pgradPtrs.data() + nodeParamOffset[id]
                       : nullptr));
    }
    if (!params_only && !slot.gradInputSeeded)
        slot.gradInput.resizeZero(inShape); // loss unreachable from input
}

std::size_t
Network::predict(const Tensor &x)
{
    return forward(x).predictedClass();
}

std::vector<Param>
Network::params()
{
    std::vector<Param> out;
    for (auto &n : nodes)
        for (auto p : n.layer->params())
            out.push_back(p);
    return out;
}

void
Network::ensureParamIndex()
{
    if (paramIndexNodes == nodes.size())
        return;
    flatParamCache.clear();
    nodeParamOffset.assign(nodes.size(), 0);
    nodeStateOffset.assign(nodes.size(), 0);
    feedsParams.assign(nodes.size(), 0);
    stateFloats = 0;
    for (std::size_t id = 0; id < nodes.size(); ++id) {
        nodeParamOffset[id] = flatParamCache.size();
        for (auto p : nodes[id].layer->params())
            flatParamCache.push_back(p);
        feedsParams[id] = flatParamCache.size() > nodeParamOffset[id];
        for (int in_id : nodes[id].inputs)
            if (in_id >= 0 && feedsParams[in_id])
                feedsParams[id] = 1;
        nodeStateOffset[id] = stateFloats;
        stateFloats += nodes[id].layer->trainStateSize();
    }
    paramIndexNodes = nodes.size();
}

const std::vector<Param> &
Network::flatParams()
{
    ensureParamIndex();
    return flatParamCache;
}

void
Network::allocParamGrads(std::vector<std::vector<float>> &bufs)
{
    ensureParamIndex();
    bufs.resize(flatParamCache.size());
    for (std::size_t i = 0; i < flatParamCache.size(); ++i)
        bufs[i].assign(flatParamCache[i].value->size(), 0.0f);
}

void
Network::zeroGrads()
{
    for (auto p : flatParams())
        if (p.grad)
            std::fill(p.grad->begin(), p.grad->end(), 0.0f);
}

std::size_t
Network::numParams()
{
    std::size_t total = 0;
    for (auto p : flatParams())
        total += p.value->size();
    return total;
}

std::size_t
Network::trainStateSize()
{
    ensureParamIndex();
    return stateFloats;
}

void
Network::collectTrainState(const Record &rec, float *dst)
{
    ensureParamIndex();
    for (std::size_t id = 0; id < nodes.size(); ++id) {
        auto &n = nodes[id];
        if (n.layer->trainStateSize() == 0)
            continue;
        // Thread-safe: collectTrainState is pure and the input views
        // come from the caller's record.
        thread_local std::vector<const Tensor *> ins;
        ins.clear();
        for (int in_id : n.inputs)
            ins.push_back(in_id < 0 ? &rec.input : &rec.outputs[in_id]);
        n.layer->collectTrainState(ins, dst + nodeStateOffset[id]);
    }
}

void
Network::applyTrainState(const float *src)
{
    ensureParamIndex();
    for (std::size_t id = 0; id < nodes.size(); ++id)
        if (nodes[id].layer->trainStateSize() > 0)
            nodes[id].layer->applyTrainState(src + nodeStateOffset[id]);
}

void
Network::weightsChanged()
{
    for (auto &n : nodes)
        n.layer->weightsChanged();
}

std::string
Network::signature() const
{
    std::ostringstream oss;
    oss << netName << ":" << inShape.c << "x" << inShape.h << "x"
        << inShape.w;
    for (const auto &n : nodes) {
        oss << "|" << layerKindName(n.layer->kind()) << ":"
            << n.layer->name();
        for (int in_id : n.inputs)
            oss << "," << in_id;
        // Parameter/state sizes distinguish same-named architectures
        // that differ only in arity (e.g. a classifier head with a
        // different class count) — without them, weight caches and
        // detector-model files could load onto the wrong network.
        // params()/state() return mutable views so they are non-const;
        // only the sizes are read here.
        auto &layer = const_cast<Layer &>(*n.layer);
        for (auto p : layer.params())
            oss << ";p" << p.value->size();
        for (auto p : layer.state())
            oss << ";s" << p.value->size();
    }
    return oss.str();
}

std::vector<util::AlignedF32 *>
Network::valueBuffers()
{
    std::vector<util::AlignedF32 *> out;
    for (auto &n : nodes) {
        for (auto p : n.layer->params())
            out.push_back(p.value);
        for (auto p : n.layer->state())
            out.push_back(p.value);
    }
    return out;
}

bool
Network::save(const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    writeString(os, signature());
    const auto bufs = valueBuffers();
    writeU64(os, bufs.size());
    for (const auto *b : bufs)
        writeFloats(os, *b);
    return os.good();
}

bool
Network::load(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::string sig;
    if (!readString(is, sig) || sig != signature())
        return false;
    const auto dst = valueBuffers();
    std::uint64_t n_bufs;
    if (!readU64(is, n_bufs) || n_bufs != dst.size())
        return false;
    // Parse everything before touching the layers, so a truncated or
    // corrupt file leaves the network exactly as it was.
    std::vector<util::AlignedF32> bufs(dst.size());
    for (std::size_t i = 0; i < dst.size(); ++i)
        if (!readFloats(is, bufs[i]) || bufs[i].size() != dst[i]->size())
            return false;
    for (std::size_t i = 0; i < dst.size(); ++i)
        dst[i]->swap(bufs[i]);
    weightsChanged();
    return true;
}

} // namespace ptolemy::nn
