/**
 * @file
 * Operation-count trace of one path extraction.
 *
 * The functional extractor records how much work each layer's extraction
 * performed (partial sums generated, elements sorted, threshold compares,
 * masks written). The Ptolemy compiler uses these counts as loop trip
 * counts and the cycle-level hardware model turns them into latency and
 * energy — mirroring how the paper derives cost from the algorithm's
 * dynamic behaviour (Sec. III-B cost analysis, Sec. VII-C).
 */

#ifndef PTOLEMY_PATH_TRACE_HH
#define PTOLEMY_PATH_TRACE_HH

#include <cstddef>
#include <vector>

#include "path/extraction_config.hh"

namespace ptolemy::nn
{
class Network;
}

namespace ptolemy::path
{

/** Ranked-prefix selection runs this many max/first-equal passes per
 *  neuron before switching to pivot blocks (see path::prefixSelect).
 *  The trace costs a prefix as up to this many argmax passes plus one
 *  heap pop per further element, the hardware sort unit's model, and
 *  the compiler reads the same constant to bound its trip counts. */
inline constexpr int kMaxSelectScanPasses = 32;

/** Per-weighted-layer extraction work counts. */
struct LayerTrace
{
    int weightedIndex = 0;
    int nodeId = 0;
    ThresholdKind kind = ThresholdKind::Cumulative;
    std::size_t inputFmapSize = 0;
    std::size_t outputFmapSize = 0;
    std::size_t rfSize = 0;          ///< nominal receptive-field size
    std::size_t macs = 0;            ///< inference MACs of this layer
    std::size_t importantOut = 0;    ///< important outputs driving extraction
    std::size_t psumsConsidered = 0; ///< partial sums generated/examined
    std::size_t sortedElems = 0;     ///< elements through the sort unit
    std::size_t thresholdCmps = 0;   ///< absolute-threshold comparisons
    std::size_t masksWritten = 0;    ///< single-bit masks stored
    std::size_t importantIn = 0;     ///< path bits set at this layer

    // Ranked-prefix selection shape (cumulative layers), derived from
    // each neuron's prefix length k: min(k, kMaxSelectScanPasses) argmax
    // sweeps of the remaining candidates; neurons whose prefix outgrows
    // the cap count as heap-fallback neurons paying k - cap heapPops.
    std::size_t selectScanPasses = 0;   ///< argmax sweeps across neurons
    std::size_t heapFallbackNeurons = 0; ///< neurons that hit the fallback
    std::size_t heapPops = 0;           ///< fallback heap pops
};

/** Whole-network extraction trace for one input. */
struct ExtractionTrace
{
    Direction direction = Direction::Backward;
    std::vector<LayerTrace> layers;
    std::size_t pathBits = 0;   ///< total popcount of the activation path
    std::size_t totalMacs = 0;  ///< inference MACs of the full network

    /** Sum of a LayerTrace member across layers. */
    template <typename F>
    std::size_t
    sum(F &&get) const
    {
        std::size_t total = 0;
        for (const auto &lt : layers)
            total += get(lt);
        return total;
    }
};

/**
 * Per-layer average of several traces (all from the same network and
 * config), merged by weightedIndex: the result lists the union of the
 * traces' layers in layer order, and a layer a sample did not extract
 * counts as zero work for that sample. The compiler consumes an
 * averaged trace as the profiled workload when generating a program.
 */
ExtractionTrace averageTraces(const std::vector<ExtractionTrace> &traces);

/** Inference MACs of weighted graph node @p node_id. */
std::size_t weightedLayerMacs(const nn::Network &net, int node_id);

/** Inference MACs of the whole network (weighted layers only). */
std::size_t networkMacs(const nn::Network &net);

} // namespace ptolemy::path

#endif // PTOLEMY_PATH_TRACE_HH
