#include "extractor.hh"

#include <algorithm>
#include <cassert>

#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace ptolemy::path
{

namespace
{

/** Append the ranked prefix of ws.row reaching @p target to
 *  ws.selected, by the workspace's selection strategy. */
void
selectPrefix(ExtractionWorkspace &ws, double target, PrefixMass mass)
{
    if (ws.referenceSort)
        referencePrefixSelect(ws.row, target, mass, ws.select, ws.selected);
    else
        prefixSelect(ws.row, target, mass, ws.select, ws.selected);
}

} // namespace

PathExtractor::PathExtractor(const nn::Network &net_ref,
                             ExtractionConfig config)
    : net(&net_ref), cfg(std::move(config)), lay(net_ref, cfg),
      weightedIndexOfNode(net_ref.numNodes(), -1)
{
    const auto &weighted = net->weightedNodes();
    assert(cfg.numLayers() == static_cast<int>(weighted.size()));
    rfOffsets.resize(weighted.size());
    for (int w = 0; w < static_cast<int>(weighted.size()); ++w) {
        weightedIndexOfNode[weighted[w]] = w;
        rfOffsets[w] = net->layerAt(weighted[w]).receptiveFieldOffsets(
            net->nodeInputShape(weighted[w]));
    }
}

BitVector
PathExtractor::extract(const nn::Network::Record &rec,
                       ExtractionTrace *trace) const
{
    ExtractionWorkspace ws;
    return extract(rec, ws, trace);
}

BitVector
PathExtractor::extract(const nn::Network::Record &rec,
                       ExtractionWorkspace &ws, ExtractionTrace *trace) const
{
    BitVector bits;
    extractInto(rec, ws, bits, trace);
    return bits;
}

void
PathExtractor::extractInto(const nn::Network::Record &rec,
                           ExtractionWorkspace &ws, BitVector &bits,
                           ExtractionTrace *trace) const
{
    if (bits.size() != lay.totalBits())
        bits = BitVector(lay.totalBits());
    else
        bits.reset();
    if (trace) {
        trace->direction = cfg.direction;
        trace->layers.clear();
        trace->totalMacs = networkMacs(*net);
    }
    if (cfg.direction == Direction::Backward)
        extractBackward(rec, ws, bits, trace);
    else
        extractForward(rec, ws, bits, trace);
    if (trace)
        trace->pathBits = bits.popcount();
}

void
PathExtractor::extractBatch(const std::vector<nn::Network::Record> &recs,
                            std::vector<BitVector> &out,
                            BatchExtractionWorkspace &bws,
                            ThreadPool *pool) const
{
    out.resize(recs.size());
    const unsigned slots = pool ? pool->size() : 1;
    if (bws.perThread.size() < slots)
        bws.perThread.resize(slots);
    if (pool && pool->size() > 1 && recs.size() > 1) {
        // extractInto only mutates its workspace and output BitVector;
        // the extractor, layout and records are read-only, so distinct
        // (slot workspace, out[i]) pairs make concurrent samples safe.
        pool->parallelForWithTid(
            recs.size(), [&](std::size_t i, unsigned tid) {
                extractInto(recs[i], bws.perThread[tid], out[i]);
            });
        return;
    }
    for (std::size_t i = 0; i < recs.size(); ++i)
        extractInto(recs[i], bws.perThread[0], out[i]);
}

std::vector<BitVector>
PathExtractor::extractBatch(const std::vector<nn::Network::Record> &recs,
                            ThreadPool *pool) const
{
    BatchExtractionWorkspace bws;
    std::vector<BitVector> out;
    extractBatch(recs, out, bws, pool);
    return out;
}

ExtractionTrace
PathExtractor::profileBatch(const std::vector<nn::Network::Record> &recs,
                            std::vector<BitVector> &out,
                            BatchExtractionWorkspace &bws,
                            ThreadPool *pool) const
{
    out.resize(recs.size());
    std::vector<ExtractionTrace> traces(recs.size());
    const unsigned slots = pool ? pool->size() : 1;
    if (bws.perThread.size() < slots)
        bws.perThread.resize(slots);
    if (pool && pool->size() > 1 && recs.size() > 1) {
        // Same safety argument as extractBatch: per-sample traces are
        // indexed by i, so the averaged result is order-independent of
        // pool scheduling.
        pool->parallelForWithTid(
            recs.size(), [&](std::size_t i, unsigned tid) {
                extractInto(recs[i], bws.perThread[tid], out[i],
                            &traces[i]);
            });
    } else {
        for (std::size_t i = 0; i < recs.size(); ++i)
            extractInto(recs[i], bws.perThread[0], out[i], &traces[i]);
    }
    return averageTraces(traces);
}

ExtractionTrace
PathExtractor::profileBatch(const std::vector<nn::Network::Record> &recs,
                            ThreadPool *pool) const
{
    BatchExtractionWorkspace bws;
    std::vector<BitVector> out;
    return profileBatch(recs, out, bws, pool);
}

void
PathExtractor::selectImportantInputs(const nn::Layer &layer,
                                     const nn::Tensor &input,
                                     std::size_t out_idx, float out_val,
                                     const LayerPolicy &policy,
                                     const std::uint32_t *rf_offsets,
                                     ExtractionWorkspace &ws) const
{
    auto &row = ws.row;
    auto &selected = ws.selected;
    selected.clear();
    layer.partialSums(input, out_idx, row, rf_offsets);
    if (row.empty())
        return;

    if (policy.kind == ThresholdKind::Absolute) {
        for (std::size_t i = 0; i < row.size(); ++i)
            if (row.value[i] >= policy.phi)
                selected.push_back(row.index[i]);
        return;
    }

    // Cumulative: rank partial sums, take the minimal prefix whose sum
    // reaches theta * output. A non-positive output has no meaningful
    // coverage target; keep the single largest contributor (minimal set).
    if (out_val <= 0.0f) {
        selected.push_back(rankedFirst(row));
        return;
    }
    selectPrefix(ws, policy.theta * out_val, PrefixMass::Signed);
}

void
PathExtractor::extractBackward(const nn::Network::Record &rec,
                               ExtractionWorkspace &ws, BitVector &bits,
                               ExtractionTrace *trace) const
{
    const int n_nodes = net->numNodes();
    // Important output-element sets per node, deduplicated via flags.
    // The flag arrays persist in the workspace; only the bits dirtied by
    // the previous extraction are cleared, keeping reuse O(path size).
    if (ws.important.size() != static_cast<std::size_t>(n_nodes)) {
        // Workspace last served a different network: start clean so the
        // sparse-clear loop below never indexes stale node ids.
        ws.important.assign(n_nodes, {});
        ws.seen.assign(n_nodes, {});
        ws.touched.clear();
        // Reserve the input-dependent buffers to their bounds, so how
        // far they grow never depends on which inputs this workspace
        // extracts: after its first call it allocates nothing, however
        // a pool spreads requests over workspaces. That holds for
        // networks whose every node has one input; a two-input node
        // (Add, Concat) builds a second backmap slot that the next
        // one-input node drops, so it allocates on each extraction.
        std::size_t max_numel = rec.input.size(), max_row = 0;
        for (int id = 0; id < n_nodes; ++id) {
            ws.important[id].reserve(rec.outputs[id].size());
            max_numel = std::max(max_numel, rec.outputs[id].size());
            max_row = std::max(max_row,
                               net->node(id).layer->receptiveFieldSize());
        }
        ws.touched.reserve(n_nodes);
        ws.selected.reserve(max_row);
        ws.select.block.reserve(max_row);
        ws.perInput.resize(1);
        ws.perInput[0].reserve(max_numel);
    }
    for (int id : ws.touched) {
        for (std::size_t idx : ws.important[id])
            ws.seen[id][idx] = 0;
        ws.important[id].clear();
    }
    ws.touched.clear();

    auto mark = [&](int node_id, std::size_t idx) {
        if (node_id < 0)
            return; // reached the network input
        auto &flags = ws.seen[node_id];
        if (flags.size() != rec.outputs[node_id].size())
            flags.assign(rec.outputs[node_id].size(), 0);
        if (!flags[idx]) {
            if (ws.important[node_id].empty())
                ws.touched.push_back(node_id);
            flags[idx] = 1;
            ws.important[node_id].push_back(idx);
        }
    };

    // Seed: the predicted class neuron of the last layer (paper Sec. III-A).
    mark(n_nodes - 1, rec.predictedClass());

    for (int id = n_nodes - 1; id >= 0; --id) {
        if (ws.important[id].empty())
            continue;
        const auto &node = net->node(id);
        const int w = weightedIndexOfNode[id];

        if (w >= 0) {
            const LayerPolicy &policy = cfg.layers[w];
            if (!policy.extract)
                continue; // early termination: stop below this layer
            const int in_id = node.inputs[0];
            const nn::Tensor &input =
                in_id < 0 ? rec.input : rec.outputs[in_id];
            const auto *seg = lay.segmentForWeighted(w);

            LayerTrace lt;
            lt.weightedIndex = w;
            lt.nodeId = id;
            lt.kind = policy.kind;
            lt.inputFmapSize = input.size();
            lt.outputFmapSize = rec.outputs[id].size();
            lt.rfSize = node.layer->receptiveFieldSize();
            lt.macs = weightedLayerMacs(*net, id);
            lt.importantOut = ws.important[id].size();

            // The table holds for the shape it was built from; any other
            // input takes the table-free rows.
            const std::uint32_t *rf_offsets =
                !rfOffsets[w].empty() &&
                        input.shape() == net->nodeInputShape(id)
                    ? rfOffsets[w].data()
                    : nullptr;
            for (std::size_t o : ws.important[id]) {
                selectImportantInputs(*node.layer, input, o,
                                      rec.outputs[id][o], policy,
                                      rf_offsets, ws);
                lt.psumsConsidered += ws.row.size();
                if (policy.kind == ThresholdKind::Cumulative) {
                    lt.sortedElems += ws.row.size();
                    // Selection shape, in the units of the hardware
                    // sort unit's cost model: one argmax pass per
                    // selected element up to kMaxSelectScanPasses, one
                    // heap pop per element past it. Derived from the
                    // prefix length alone, which every selection
                    // strategy agrees on, so compiler trip counts do
                    // not depend on how software found the prefix.
                    const std::size_t k = ws.selected.size();
                    constexpr auto kPasses =
                        static_cast<std::size_t>(kMaxSelectScanPasses);
                    lt.selectScanPasses += std::min(k, kPasses);
                    if (k > kPasses) {
                        ++lt.heapFallbackNeurons;
                        lt.heapPops += k - kPasses;
                    }
                } else {
                    lt.thresholdCmps += ws.row.size();
                }
                for (std::size_t in_idx : ws.selected) {
                    if (!bits.test(seg->bitOffset + in_idx)) {
                        bits.set(seg->bitOffset + in_idx);
                        ++lt.importantIn;
                    }
                    mark(in_id, in_idx);
                }
            }
            // Absolute variants store one single-bit mask per partial sum
            // during inference (paper Sec. III-C); cumulative variants
            // store the partial sums themselves (costed by the hw model).
            lt.masksWritten =
                policy.kind == ThresholdKind::Absolute ? lt.macs : 0;
            if (trace)
                trace->layers.push_back(lt);
        } else {
            // Route importance through the non-weighted layer.
            auto &ins = ws.insScratch;
            ins.clear();
            for (int in_id : node.inputs)
                ins.push_back(in_id < 0 ? &rec.input
                                        : &rec.outputs[in_id]);
            node.layer->backmapImportant(ins, rec.outputs[id],
                                         ws.important[id], ws.perInput);
            for (std::size_t slot = 0; slot < ws.perInput.size(); ++slot)
                for (std::size_t idx : ws.perInput[slot])
                    mark(node.inputs[slot], idx);
        }
    }
    if (trace)
        std::reverse(trace->layers.begin(), trace->layers.end());
}

void
PathExtractor::extractForward(const nn::Network::Record &rec,
                              ExtractionWorkspace &ws, BitVector &bits,
                              ExtractionTrace *trace) const
{
    const auto &weighted = net->weightedNodes();

    for (int w = 0; w < cfg.numLayers(); ++w) {
        const LayerPolicy &policy = cfg.layers[w];
        if (!policy.extract)
            continue;
        const int id = weighted[w];
        const auto &node = net->node(id);
        const int in_id = node.inputs[0];
        const nn::Tensor &input = in_id < 0 ? rec.input
                                            : rec.outputs[in_id];
        const auto *seg = lay.segmentForWeighted(w);

        LayerTrace lt;
        lt.weightedIndex = w;
        lt.nodeId = id;
        lt.kind = policy.kind;
        lt.inputFmapSize = input.size();
        lt.outputFmapSize = rec.outputs[id].size();
        lt.rfSize = node.layer->receptiveFieldSize();
        lt.macs = weightedLayerMacs(*net, id);
        lt.importantOut = 0; // forward mode is not driven by outputs

        if (policy.kind == ThresholdKind::Absolute) {
            // Threshold the freshly produced feature map; the single-bit
            // masks are generated during inference (paper Sec. III-C).
            lt.thresholdCmps = input.size();
            lt.masksWritten = input.size();
            for (std::size_t i = 0; i < input.size(); ++i) {
                if (input[i] >= policy.phi) {
                    bits.set(seg->bitOffset + i);
                    ++lt.importantIn;
                }
            }
        } else {
            // Forward cumulative (paper Fig. 6, last layer): rank the
            // feature-map elements and keep the minimal prefix covering
            // theta of the total activation mass.
            auto &row = ws.row;
            row.resize(input.size());
            double total = 0.0;
            for (std::size_t i = 0; i < input.size(); ++i) {
                row.index[i] = static_cast<std::uint32_t>(i);
                row.value[i] = input[i];
                total += std::max(0.0f, input[i]);
            }
            lt.sortedElems = input.size();
            ws.selected.clear();
            selectPrefix(ws, policy.theta * total, PrefixMass::ClampAtZero);
            for (std::size_t i : ws.selected)
                bits.set(seg->bitOffset + i);
            lt.importantIn = ws.selected.size();
            // Forward cumulative is costed as one heapified ranking of
            // the whole feature map (one "neuron", importantIn pops);
            // the per-neuron argmax-pass model covers the backward
            // receptive fields only.
            lt.heapFallbackNeurons = 1;
            lt.heapPops = lt.importantIn;
        }
        if (trace)
            trace->layers.push_back(lt);
    }
}

void
calibrateAbsoluteThresholds(nn::Network &net, ExtractionConfig &cfg,
                            const std::vector<nn::Tensor> &samples,
                            double target_fraction)
{
    const auto &weighted = net.weightedNodes();
    std::vector<std::vector<float>> pools(cfg.numLayers());
    Rng rng(0xCA11B8A7Eull);
    nn::PsumRow row;

    // Record the calibration samples in pool-parallel chunks (bounded
    // memory: a Record holds every intermediate feature map); the
    // pooling below keeps the original serial order, so thresholds are
    // identical to the one-at-a-time loop.
    ThreadPool &tp = globalPool();
    const std::size_t chunk = std::max<std::size_t>(8, 4 * tp.size());
    std::vector<nn::Tensor> xsChunk;
    std::vector<nn::Network::Record> recs;
    for (std::size_t base = 0; base < samples.size(); base += chunk) {
        const std::size_t n = std::min(chunk, samples.size() - base);
        xsChunk.assign(
            samples.begin() + static_cast<std::ptrdiff_t>(base),
            samples.begin() + static_cast<std::ptrdiff_t>(base + n));
        net.forwardBatch(xsChunk, recs, &tp);

        for (std::size_t r = 0; r < n; ++r) {
            const auto &rec = recs[r];
            for (int w = 0; w < cfg.numLayers(); ++w) {
                if (!cfg.layers[w].extract ||
                    cfg.layers[w].kind != ThresholdKind::Absolute)
                    continue;
                const int id = weighted[w];
                const auto &node = net.node(id);
                const int in_id = node.inputs[0];
                const nn::Tensor &input = in_id < 0 ? rec.input
                                                    : rec.outputs[in_id];
                if (cfg.direction == Direction::Forward) {
                    for (std::size_t i = 0; i < input.size(); ++i)
                        pools[w].push_back(input[i]);
                } else {
                    // Sample a few output neurons' partial sums.
                    const std::size_t n_out = rec.outputs[id].size();
                    const std::size_t n_probe =
                        std::min<std::size_t>(32, n_out);
                    for (std::size_t p = 0; p < n_probe; ++p) {
                        const std::size_t o = rng.below(n_out);
                        net.layerAt(id).partialSums(input, o, row);
                        pools[w].insert(pools[w].end(), row.value.begin(),
                                        row.value.end());
                    }
                }
            }
        }
    }

    for (int w = 0; w < cfg.numLayers(); ++w) {
        auto &pool = pools[w];
        if (pool.empty())
            continue;
        const std::size_t k = static_cast<std::size_t>(
            (1.0 - target_fraction) * (pool.size() - 1));
        std::nth_element(pool.begin(),
                         pool.begin() + static_cast<std::ptrdiff_t>(k),
                         pool.end());
        cfg.layers[w].phi = pool[k];
    }
}

} // namespace ptolemy::path
