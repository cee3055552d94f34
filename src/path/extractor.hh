/**
 * @file
 * Activation-path extraction (paper Sec. III-A/III-C, Fig. 3).
 *
 * Backward extraction starts from the predicted class neuron in the last
 * layer and walks the data graph toward the input: for every important
 * output neuron of a weighted layer, the partial sums in its receptive
 * field are ranked (cumulative θ) or compared against a constant
 * (absolute φ) to pick the important input neurons; those propagate
 * through non-weighted layers (ReLU, pools, residual adds, concats) via
 * each layer's index back-mapping.
 *
 * Forward extraction thresholds each extracted layer's input feature map
 * as soon as it is produced, which the compiler can overlap with the next
 * layer's inference (paper Sec. IV-B).
 */

#ifndef PTOLEMY_PATH_EXTRACTOR_HH
#define PTOLEMY_PATH_EXTRACTOR_HH

#include <vector>

#include "nn/network.hh"
#include "path/extraction_config.hh"
#include "path/path_layout.hh"
#include "path/prefix_select.hh"
#include "path/trace.hh"
#include "util/bitvector.hh"

namespace ptolemy
{
class ThreadPool;
}

namespace ptolemy::path
{

/**
 * Reusable scratch for PathExtractor. One workspace per extraction
 * loop makes the steady state allocation-free: the per-node importance
 * lists, dedup flags, partial-sum scratch, selection buffers and
 * backmap slots are all sized to their bounds at the first call and
 * reused, and the dedup flags are cleared sparsely (only the flags set
 * by the previous call) instead of reallocated.
 */
struct ExtractionWorkspace
{
    /** Selection strategy for cumulative-threshold layers. When true,
     *  fully sort every partial-sum row, one row at a time (the
     *  reference oracle the functional simulator runs). When false
     *  (default), prefixSelect finds the ranked prefix by
     *  max/first-equal passes and pivot blocks, sorting only what the
     *  prefix reaches; under SimdMode::Avx512 conv rows first go 16 at
     *  a time through selectConvLanes, which runs the same passes one
     *  neuron per lane and hands back the rows it cannot finish. All
     *  rank by value with input-index tie-breaks, so the selected
     *  sequences are identical. */
    bool referenceSort = false;

    /** Per node: its important output indices, in mark order, are
     *  important[id][0, importantCount[id]). The list holds one slot
     *  more than the node's output, so a mark writes its index at the
     *  count without a capacity check, duplicate or not. */
    std::vector<std::vector<std::size_t>> important;
    std::vector<std::size_t> importantCount;
    std::vector<std::vector<std::uint8_t>> seen;     ///< per-node flags
    nn::PsumRow row;                       ///< partial sums of one neuron
    PrefixScratch select;                  ///< ranked-prefix scratch
    ConvLaneScratch lanes;                 ///< conv lane-group scratch
    std::vector<std::size_t> selected;     ///< selected input indices
    std::vector<std::vector<std::size_t>> perInput; ///< backmap results
    std::vector<const nn::Tensor *> insScratch;     ///< backmap input views
};

/**
 * Scratch for extractBatch: one ExtractionWorkspace per pool slot so
 * concurrent extractions never share mutable state. Reuse one instance
 * across batches for an allocation-free steady state.
 */
struct BatchExtractionWorkspace
{
    std::vector<ExtractionWorkspace> perThread;
};

/**
 * Extracts activation paths from recorded forward passes.
 */
class PathExtractor
{
  public:
    /**
     * @param net network the records come from (borrowed; must outlive
     *            the extractor).
     * @param cfg extraction configuration; must describe exactly the
     *            network's weighted layers (std::invalid_argument
     *            otherwise).
     */
    PathExtractor(const nn::Network &net, ExtractionConfig cfg);

    const PathLayout &layout() const { return lay; }
    const ExtractionConfig &config() const { return cfg; }
    const nn::Network &network() const { return *net; }

    /**
     * Extract the activation path for one recorded inference.
     * Convenience form that allocates a fresh workspace per call; loops
     * should prefer the workspace overloads below.
     * @param rec recorded forward pass.
     * @param trace optional op-count trace for the compiler/hardware model.
     */
    BitVector extract(const nn::Network::Record &rec,
                      ExtractionTrace *trace = nullptr) const;

    /** Extract reusing @p ws across calls (no steady-state allocation
     *  besides the returned BitVector). */
    BitVector extract(const nn::Network::Record &rec,
                      ExtractionWorkspace &ws,
                      ExtractionTrace *trace = nullptr) const;

    /**
     * Fully allocation-free steady state: reuse both the workspace and
     * the output BitVector (@p bits is reset and resized on first use).
     */
    void extractInto(const nn::Network::Record &rec, ExtractionWorkspace &ws,
                     BitVector &bits, ExtractionTrace *trace = nullptr) const;

    /**
     * Extract a batch of recorded inferences, optionally fanned out on
     * @p pool (each pool slot works out of its own workspace in
     * @p bws). Output ordering is deterministic — out[i] is always the
     * path of recs[i], bit-identical to a sequential extract() —
     * regardless of pool size or scheduling.
     */
    void extractBatch(const std::vector<nn::Network::Record> &recs,
                      std::vector<BitVector> &out,
                      BatchExtractionWorkspace &bws,
                      ThreadPool *pool = nullptr) const;

    /** Allocating convenience overload of extractBatch. */
    std::vector<BitVector>
    extractBatch(const std::vector<nn::Network::Record> &recs,
                 ThreadPool *pool = nullptr) const;

    /**
     * Batched profiling entry point: extract every record with the same
     * deterministic fan-out as extractBatch while tracing each sample,
     * and return the element-wise averaged trace (the workload the
     * compiler consumes). out[i] is always the path of recs[i] and the
     * averaged trace is bit-identical to tracing the records one at a
     * time in order, at any pool size.
     */
    ExtractionTrace
    profileBatch(const std::vector<nn::Network::Record> &recs,
                 std::vector<BitVector> &out, BatchExtractionWorkspace &bws,
                 ThreadPool *pool = nullptr) const;

    /** Allocating convenience overload of profileBatch (paths dropped). */
    ExtractionTrace
    profileBatch(const std::vector<nn::Network::Record> &recs,
                 ThreadPool *pool = nullptr) const;

  private:
    void extractBackward(const nn::Network::Record &rec,
                         ExtractionWorkspace &ws, BitVector &bits,
                         ExtractionTrace *trace) const;
    void extractForward(const nn::Network::Record &rec,
                        ExtractionWorkspace &ws, BitVector &bits,
                        ExtractionTrace *trace) const;

    /** Pick important inputs of one weighted output neuron into
     *  ws.selected. */
    void selectImportantInputs(const nn::Layer &layer,
                               const nn::Tensor &input, std::size_t out_idx,
                               float out_val, const LayerPolicy &policy,
                               const std::uint32_t *rf_offsets,
                               ExtractionWorkspace &ws) const;

    const nn::Network *net;
    ExtractionConfig cfg;
    PathLayout lay;
    std::vector<int> weightedIndexOfNode; ///< node id -> weighted idx or -1
    /** Per weighted layer: receptive-field offset table for interior
     *  conv rows (empty for Linear). Built once here, read-only after,
     *  so every pool slot shares it. */
    std::vector<std::vector<std::uint32_t>> rfOffsets;
};

/**
 * Calibrate per-layer absolute thresholds phi so that roughly
 * @p target_fraction of the compared values pass, using a handful of
 * training samples. Backward-absolute layers calibrate on partial sums;
 * forward-absolute layers calibrate on input activations.
 *
 * Mirrors the paper's offline profiling step: phi "can be specified at
 * each layer" (Sec. III-C) and must match between the offline and online
 * phases.
 */
void calibrateAbsoluteThresholds(nn::Network &net, ExtractionConfig &cfg,
                                 const std::vector<nn::Tensor> &samples,
                                 double target_fraction);

} // namespace ptolemy::path

#endif // PTOLEMY_PATH_EXTRACTOR_HH
