#include "trace.hh"

#include <algorithm>

#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/network.hh"

namespace ptolemy::path
{

namespace
{

/** The per-sample work counters of a LayerTrace: what averageTraces
 *  sums and divides (the other fields describe the layer itself). */
constexpr std::size_t LayerTrace::*kLayerCounters[] = {
    &LayerTrace::importantOut,     &LayerTrace::psumsConsidered,
    &LayerTrace::sortedElems,      &LayerTrace::thresholdCmps,
    &LayerTrace::masksWritten,     &LayerTrace::importantIn,
    &LayerTrace::selectScanPasses, &LayerTrace::heapFallbackNeurons,
    &LayerTrace::heapPops};

} // namespace

ExtractionTrace
averageTraces(const std::vector<ExtractionTrace> &traces)
{
    ExtractionTrace avg;
    if (traces.empty())
        return avg;
    avg.direction = traces[0].direction;
    avg.totalMacs = traces[0].totalMacs;
    // Merge by weightedIndex, not by position: on a DAG net the set of
    // layers a backward extraction reaches varies per sample. A layer's
    // description comes from the first sample that extracted it; its
    // counters start at zero, so a sample that skipped it adds nothing.
    int n_weighted = 0;
    for (const auto &t : traces)
        for (const auto &lt : t.layers)
            n_weighted = std::max(n_weighted, lt.weightedIndex + 1);
    std::vector<int> slot(static_cast<std::size_t>(n_weighted), -1);
    for (const auto &t : traces) {
        avg.pathBits += t.pathBits;
        for (const auto &lt : t.layers) {
            int &s = slot[static_cast<std::size_t>(lt.weightedIndex)];
            if (s < 0) {
                s = static_cast<int>(avg.layers.size());
                avg.layers.push_back(lt);
                for (auto counter : kLayerCounters)
                    avg.layers.back().*counter = 0;
            }
            auto &dst = avg.layers[static_cast<std::size_t>(s)];
            for (auto counter : kLayerCounters)
                dst.*counter += lt.*counter;
        }
    }
    // Emit the union in layer order (every trace lists its own layers
    // ascending); then the mean over all samples.
    std::sort(avg.layers.begin(), avg.layers.end(),
              [](const LayerTrace &a, const LayerTrace &b) {
                  return a.weightedIndex < b.weightedIndex;
              });
    const std::size_t n = traces.size();
    avg.pathBits /= n;
    for (auto &lt : avg.layers)
        for (auto counter : kLayerCounters)
            lt.*counter /= n;
    return avg;
}

std::size_t
weightedLayerMacs(const nn::Network &net, int node_id)
{
    const nn::Layer &layer = net.layerAt(node_id);
    const nn::Shape out = net.nodeOutputShape(node_id);
    if (layer.kind() == nn::LayerKind::Conv) {
        const auto &conv = static_cast<const nn::Conv2d &>(layer);
        return out.numel() * static_cast<std::size_t>(conv.inChannels()) *
               conv.kernel() * conv.kernel();
    }
    if (layer.kind() == nn::LayerKind::Linear) {
        const auto &lin = static_cast<const nn::Linear &>(layer);
        return static_cast<std::size_t>(lin.inFeatures()) *
               lin.outFeatures();
    }
    return 0;
}

std::size_t
networkMacs(const nn::Network &net)
{
    std::size_t total = 0;
    for (int id : net.weightedNodes())
        total += weightedLayerMacs(net, id);
    return total;
}

} // namespace ptolemy::path
