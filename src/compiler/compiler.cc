#include "compiler.hh"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "nn/conv.hh"
#include "nn/linear.hh"

namespace ptolemy::compiler
{

using isa::Instruction;
using isa::InstrMeta;
using isa::Program;

namespace
{

// Register conventions used by generated code:
//   r0/r1  feature-map ping-pong buffers (inference chaining)
//   r2     weight base address
//   r3     loop counter
//   r4     neuron address (findneuron result)
//   r5     layer id
//   r6     receptive-field address (findrf result)
//   r7     receptive-field size (sort length)
//   r8/r9  sorted-sequence buffers (rotated by neuron pipelining)
//   r10    threshold
//   r11    selection result (acum output / extraction cursor)
//   r12    recomputed-psum buffer (csps output)
//   r13    class-path base
//   r14    activation-path base
//   r15    classification result
constexpr int rFmapA = 0, rFmapB = 1, rWeights = 2, rCount = 3,
              rNeuron = 4, rLayer = 5, rRf = 6, rRfSize = 7, rSortA = 8,
              rSortB = 9, rThr = 10, rSel = 11, rPsum = 12, rCPath = 13,
              rAPath = 14, rResult = 15;

std::uint16_t
clampImm(std::size_t v)
{
    return static_cast<std::uint16_t>(std::min<std::size_t>(v, 0xFFFF));
}

constexpr std::size_t kElemBytes = 2;  ///< 16-bit datapath elements
constexpr std::size_t kPsumBytes = 4;  ///< 32-bit accumulator psums

/** Parameter element count of a weighted layer. */
std::size_t
layerParamCount(const nn::Layer &layer)
{
    if (layer.kind() == nn::LayerKind::Conv) {
        const auto &c = static_cast<const nn::Conv2d &>(layer);
        return static_cast<std::size_t>(c.outChannels()) * c.inChannels() *
                   c.kernel() * c.kernel() +
               c.outChannels();
    }
    const auto &l = static_cast<const nn::Linear &>(layer);
    return static_cast<std::size_t>(l.inFeatures()) * l.outFeatures() +
           l.outFeatures();
}

} // namespace

Compiler::Compiler(const nn::Network &net_ref, path::ExtractionConfig config,
                   CompileOptions options)
    : net(&net_ref), cfg(std::move(config)), opts(options)
{
    const auto &weighted = net_ref.weightedNodes();
    if (cfg.numLayers() != static_cast<int>(weighted.size()))
        throw std::invalid_argument(
            "extraction config has " + std::to_string(cfg.numLayers()) +
            " layer policies, network '" + net_ref.name() + "' has " +
            std::to_string(weighted.size()) + " weighted layers");
}

isa::Program
Compiler::inferenceOnly(const nn::Network &net)
{
    Program prog;
    const auto &weighted = net.weightedNodes();
    for (std::size_t w = 0; w < weighted.size(); ++w) {
        const int id = weighted[w];
        InstrMeta m;
        m.layerNode = id;
        m.macs = path::weightedLayerMacs(net, id);
        m.ifmBytes = net.nodeInputShape(id).numel() * kElemBytes;
        m.wBytes = layerParamCount(net.layerAt(id)) * kElemBytes;
        m.ofmBytes = net.nodeOutputShape(id).numel() * kElemBytes;
        const int r_in = w % 2 == 0 ? rFmapA : rFmapB;
        const int r_out = w % 2 == 0 ? rFmapB : rFmapA;
        prog.append(isa::makeInf(r_in, rWeights, r_out), m);
    }
    prog.append(isa::makeHalt());
    return prog;
}

isa::Program
Compiler::compile(const path::ExtractionTrace &trace) const
{
    // Index the trace by weighted-layer index.
    std::map<int, const path::LayerTrace *> by_layer;
    for (const auto &lt : trace.layers)
        by_layer[lt.weightedIndex] = &lt;

    const auto &weighted = net->weightedNodes();
    const int n_w = static_cast<int>(weighted.size());
    Program prog;

    std::size_t total_path_bits = 0;
    for (const auto &lt : trace.layers)
        total_path_bits += lt.inputFmapSize;

    // Inference instruction for weighted layer w. Loop-body samples of a
    // batch program run with the weights already resident on chip (the
    // first sample paid the DMA), which is exactly the amortization
    // detectBatch gets from sharing one DetectorModel.
    auto emit_inf = [&](int w, bool weights_resident) {
        const int id = weighted[w];
        InstrMeta m;
        m.layerNode = id;
        m.macs = path::weightedLayerMacs(*net, id);
        m.ifmBytes = net->nodeInputShape(id).numel() * kElemBytes;
        m.wBytes = weights_resident
            ? 0
            : layerParamCount(net->layerAt(id)) * kElemBytes;
        m.ofmBytes = net->nodeOutputShape(id).numel() * kElemBytes;

        const auto &lp = cfg.layers[w];
        const int r_in = w % 2 == 0 ? rFmapA : rFmapB;
        const int r_out = w % 2 == 0 ? rFmapB : rFmapA;
        const bool extracted = lp.extract && by_layer.count(w);

        if (extracted && lp.kind == path::ThresholdKind::Cumulative &&
            cfg.direction == path::Direction::Backward &&
            !opts.recomputePsums) {
            // Store every partial sum for later extraction.
            m.psumBytes = m.macs * kPsumBytes;
            prog.append(isa::makeInfSp(r_in, rWeights, r_out, rPsum), m);
            return;
        }
        if (extracted && lp.kind == path::ThresholdKind::Absolute) {
            // Single-bit masks generated in the MAC units during
            // inference (Sec. V-B): per partial sum for backward, per
            // output neuron for forward.
            m.maskBits = cfg.direction == path::Direction::Backward
                ? m.macs
                : net->nodeOutputShape(id).numel();
        }
        prog.append(isa::makeInf(r_in, rWeights, r_out), m);
    };

    // Backward extraction block for layer w.
    auto emit_backward_block = [&](int w) {
        const auto &lt = *by_layer.at(w);
        const auto &lp = cfg.layers[w];
        const std::size_t trips = lt.importantOut;
        if (trips == 0)
            return;
        const std::size_t rf_avg =
            std::max<std::size_t>(1, lt.psumsConsidered / trips);
        const std::size_t accum_avg =
            std::max<std::size_t>(1, lt.importantIn / trips);

        prog.append(isa::makeMov(rLayer, clampImm(w)));
        prog.append(isa::makeMov(rRfSize, clampImm(rf_avg)));

        if (lp.kind == path::ThresholdKind::Absolute) {
            // The masks were generated by the MAC units during inference;
            // extraction only streams the mask bits of the important
            // outputs' receptive fields through the bit-parallel mask
            // unit — no sorting, no per-neuron scalar loop.
            prog.append(isa::makeMov(rCount, clampImm(trips)));
            prog.append(isa::makeFindNeuron(rLayer, rCount, rNeuron));
            prog.append(isa::makeFindRf(rNeuron, rRf));
            InstrMeta gm;
            gm.bits = trips * rf_avg;
            prog.append(isa::makeGenMasks(rRf, rSel), gm);
            InstrMeta path_gm;
            path_gm.bits = lt.importantIn;
            prog.append(isa::makeGenMasks(rSel, rAPath), path_gm);
            return;
        }

        // Cumulative: sort + accumulate per important output.
        prog.append(isa::makeMov(
            rThr, clampImm(static_cast<std::size_t>(lp.theta * 1000))));
        InstrMeta csps_m;
        csps_m.macs = rf_avg;
        InstrMeta sort_m;
        sort_m.seqLen = rf_avg;
        // PR 7 ranked-prefix selection semantics: when the profiled
        // trace recorded the selection shape, the sort unit runs
        // successive argmax sweeps (one per selected element, at most
        // kMaxSelectScanPasses) plus the heap-fallback pops for wide
        // prefixes — not a full bitonic sort of the receptive field.
        // Traces without selection data (hand-built workloads) keep the
        // full-sort cost model.
        if (lt.selectScanPasses > 0) {
            sort_m.selectPasses = std::min<std::size_t>(
                static_cast<std::size_t>(path::kMaxSelectScanPasses),
                std::max<std::size_t>(1, lt.selectScanPasses / trips));
            sort_m.heapPops = lt.heapPops / trips;
        }
        InstrMeta acum_m;
        acum_m.accumLen = accum_avg;
        const int r_src = opts.recomputePsums ? rPsum : rRf;

        // Profitability heuristic: software pipelining pays a prologue /
        // epilogue; below ~16 important neurons per layer the overlap it
        // buys cannot amortize that, so fall back to the naive schedule.
        if (opts.neuronPipelining && trips >= 16) {
            // Fig. 7b: software-pipelined schedule — each acum(i) is
            // placed *after* sort(i+1) with rSortA/rSortB rotation, so
            // the accumulate of one neuron overlaps the sort of the
            // next, and the csps/findrf of iteration i+1 overlap the
            // in-flight sort of iteration i.
            auto emit_front = [&](int r_sort) {
                prog.append(isa::makeFindNeuron(rLayer, rCount, rNeuron));
                prog.append(isa::makeFindRf(rNeuron, rRf));
                if (opts.recomputePsums)
                    prog.append(isa::makeCsps(rNeuron, rLayer, rPsum),
                                csps_m);
                prog.append(isa::makeSort(r_src, rRfSize, r_sort), sort_m);
            };
            emit_front(rSortA); // prologue: sort(1)
            const std::size_t rounds = trips > 1 ? (trips - 1 + 1) / 2 : 0;
            if (rounds > 0) {
                prog.append(isa::makeMov(rCount, clampImm(rounds)));
                const std::uint16_t loop =
                    static_cast<std::uint16_t>(prog.size());
                emit_front(rSortB);                       // sort(i+1)
                prog.append(isa::makeAcum(rSortA, rSel, rThr), acum_m);
                emit_front(rSortA);                       // sort(i+2)
                prog.append(isa::makeAcum(rSortB, rSel, rThr), acum_m);
                prog.append(isa::makeDec(rCount));
                prog.append(isa::makeJne(rCount, loop));
            }
            // Epilogue: drain the last in-flight sort.
            prog.append(isa::makeAcum(rSortA, rSel, rThr), acum_m);
        } else {
            // Naive schedule: the next neuron lookup consumes the
            // previous accumulate's cursor (rSel), serializing
            // iterations — this is the dependency the pipelining pass
            // removes.
            prog.append(isa::makeMov(rCount, clampImm(trips)));
            const std::uint16_t loop =
                static_cast<std::uint16_t>(prog.size());
            prog.append(isa::makeFindNeuron(rLayer, rSel, rNeuron));
            prog.append(isa::makeFindRf(rNeuron, rRf));
            if (opts.recomputePsums)
                prog.append(isa::makeCsps(rNeuron, rLayer, rPsum), csps_m);
            prog.append(isa::makeSort(r_src, rRfSize, rSortA), sort_m);
            prog.append(isa::makeAcum(rSortA, rSel, rThr), acum_m);
            prog.append(isa::makeDec(rCount));
            prog.append(isa::makeJne(rCount, loop));
        }
        InstrMeta path_gm;
        path_gm.bits = lt.importantIn;
        prog.append(isa::makeGenMasks(rSel, rAPath), path_gm);
    };

    // Forward extraction block for layer w: "as soon as layer Li
    // finishes inference we determine the important neurons in its
    // output" (Sec. III-C) — so the block depends on inf(w)'s output
    // register, which is exactly the dependency the layer-pipelining
    // pass hides by dispatching inf(w+1) first (Fig. 7a).
    auto emit_forward_block = [&](int w) {
        const auto &lt = *by_layer.at(w);
        const auto &lp = cfg.layers[w];
        const int r_out = w % 2 == 0 ? rFmapB : rFmapA;
        if (lp.kind == path::ThresholdKind::Absolute) {
            InstrMeta gm;
            gm.bits = lt.inputFmapSize;
            prog.append(isa::makeGenMasks(r_out, rAPath), gm);
            return;
        }
        // Forward cumulative (Fig. 6's last layer).
        prog.append(isa::makeMov(rRfSize, clampImm(lt.inputFmapSize)));
        prog.append(isa::makeMov(
            rThr, clampImm(static_cast<std::size_t>(lp.theta * 1000))));
        InstrMeta sort_m;
        sort_m.seqLen = lt.inputFmapSize;
        InstrMeta acum_m;
        acum_m.accumLen = std::max<std::size_t>(1, lt.importantIn);
        prog.append(isa::makeSort(r_out, rRfSize, rSortA), sort_m);
        prog.append(isa::makeAcum(rSortA, rSel, rThr), acum_m);
        InstrMeta gm;
        gm.bits = lt.importantIn;
        prog.append(isa::makeGenMasks(rSel, rAPath), gm);
    };

    // ---------------------------------------------------------- emit ----
    // Batch programs reuse r15 as the outer per-sample countdown, so
    // their cls writes the selection-cursor register instead; single-
    // sample programs keep the historical result register.
    const int r_batch = rResult;
    const int r_cls_dst = opts.batchSize > 1 ? rSel : rResult;

    // One full detection (inference + extraction + classification).
    auto emit_body = [&](bool weights_resident) {
        if (cfg.direction == path::Direction::Backward) {
            for (int w = 0; w < n_w; ++w)
                emit_inf(w, weights_resident);
            // Barrier: extraction is seeded by the predicted class, so
            // it starts only after the last layer's inference completes.
            const int last_out = (n_w - 1) % 2 == 0 ? rFmapB : rFmapA;
            prog.append(isa::makeMovR(rAPath, last_out));
            for (int w = n_w - 1; w >= 0; --w)
                if (cfg.layers[w].extract && by_layer.count(w))
                    emit_backward_block(w);
        } else {
            if (opts.layerPipelining && n_w > 0) {
                // Fig. 7a: inf(j+1) is emitted before the extraction of
                // layer j, overlapping inference with extraction.
                emit_inf(0, weights_resident);
                for (int w = 0; w + 1 < n_w; ++w) {
                    emit_inf(w + 1, weights_resident);
                    if (cfg.layers[w].extract && by_layer.count(w))
                        emit_forward_block(w);
                }
                if (cfg.layers[n_w - 1].extract && by_layer.count(n_w - 1))
                    emit_forward_block(n_w - 1);
            } else {
                for (int w = 0; w < n_w; ++w) {
                    emit_inf(w, weights_resident);
                    if (cfg.layers[w].extract && by_layer.count(w))
                        emit_forward_block(w);
                }
            }
        }
        InstrMeta cls_m;
        cls_m.bits = total_path_bits;
        cls_m.mcuOps = opts.classifierOps;
        prog.append(isa::makeCls(rCPath, rAPath, r_cls_dst), cls_m);
    };

    // Sample 0 pays the weight DMA; the remaining batchSize-1 samples
    // loop over a weights-resident body (the detectBatch amortization).
    emit_body(/*weights_resident=*/false);
    if (opts.batchSize > 1) {
        prog.append(isa::makeMov(r_batch, clampImm(opts.batchSize - 1)));
        const std::uint16_t loop = static_cast<std::uint16_t>(prog.size());
        emit_body(/*weights_resident=*/true);
        prog.append(isa::makeDec(r_batch));
        prog.append(isa::makeJne(r_batch, loop));
    }
    prog.append(isa::makeHalt());
    return prog;
}

DramFootprint
Compiler::dramFootprint(const path::ExtractionTrace &trace) const
{
    DramFootprint fp;
    for (const auto &lt : trace.layers) {
        const auto &lp = cfg.layers[lt.weightedIndex];
        if (lp.kind == path::ThresholdKind::Absolute) {
            fp.maskBits += cfg.direction == path::Direction::Backward
                ? lt.macs
                : lt.inputFmapSize;
        } else if (cfg.direction == path::Direction::Backward) {
            if (opts.recomputePsums)
                fp.recomputePsums += lt.psumsConsidered;
            else
                fp.psumCount += lt.macs;
        }
    }
    return fp;
}

} // namespace ptolemy::compiler
