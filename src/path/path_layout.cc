#include "path_layout.hh"

#include <stdexcept>
#include <string>

#include "nn/network.hh"

namespace ptolemy::path
{

PathLayout::PathLayout(const nn::Network &net, const ExtractionConfig &cfg)
{
    const auto &weighted = net.weightedNodes();
    if (cfg.numLayers() != static_cast<int>(weighted.size()))
        throw std::invalid_argument(
            "extraction config has " + std::to_string(cfg.numLayers()) +
            " layer policies, network '" + net.name() + "' has " +
            std::to_string(weighted.size()) + " weighted layers");
    for (int w = 0; w < cfg.numLayers(); ++w) {
        if (!cfg.layers[w].extract)
            continue;
        Segment s;
        s.weightedIndex = w;
        s.nodeId = weighted[w];
        s.bitOffset = bits;
        s.numBits = net.nodeInputShape(weighted[w]).numel();
        bits += s.numBits;
        segs.push_back(s);
    }
}

const PathLayout::Segment *
PathLayout::segmentForWeighted(int w) const
{
    for (const auto &s : segs)
        if (s.weightedIndex == w)
            return &s;
    return nullptr;
}

} // namespace ptolemy::path
