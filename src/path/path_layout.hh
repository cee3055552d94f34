/**
 * @file
 * Mapping from (weighted layer, input-feature-map element) to bit position.
 *
 * An activation path is "a bitmask where each bit m_{i,j} indicates whether
 * the neuron (input feature map element) at layer i position j is an
 * important neuron" (paper Sec. III-A). The layout assigns each extracted
 * weighted layer a contiguous bit segment sized by its input feature map.
 */

#ifndef PTOLEMY_PATH_PATH_LAYOUT_HH
#define PTOLEMY_PATH_PATH_LAYOUT_HH

#include <cstddef>
#include <vector>

#include "path/extraction_config.hh"

namespace ptolemy::nn
{
class Network;
}

namespace ptolemy::path
{

/**
 * Bit layout of an activation path for a (network, config) pair.
 */
class PathLayout
{
  public:
    /** Segment descriptor for one extracted weighted layer. */
    struct Segment
    {
        int weightedIndex; ///< index into Network::weightedNodes()
        int nodeId;        ///< graph node id of the weighted layer
        std::size_t bitOffset;
        std::size_t numBits; ///< input feature map size of the layer
    };

    PathLayout() = default;

    /** Build the layout for the layers @p cfg extracts from @p net.
     *  std::invalid_argument unless @p cfg has one policy per weighted
     *  layer of @p net. */
    PathLayout(const nn::Network &net, const ExtractionConfig &cfg);

    const std::vector<Segment> &segments() const { return segs; }
    std::size_t totalBits() const { return bits; }

    /** Segment for weighted-layer index @p w, or nullptr if not extracted. */
    const Segment *segmentForWeighted(int w) const;

  private:
    std::vector<Segment> segs;
    std::size_t bits = 0;
};

} // namespace ptolemy::path

#endif // PTOLEMY_PATH_PATH_LAYOUT_HH
