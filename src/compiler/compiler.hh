/**
 * @file
 * The Ptolemy compiler (paper Sec. IV-B).
 *
 * Lowers a high-level detection configuration (direction + per-layer
 * thresholding + selective extraction) into a Ptolemy ISA program, using
 * the profiled extraction trace for the statically-scheduled loop trip
 * counts. Three optimizations, each independently switchable for
 * ablation:
 *
 *  - Layer-level pipelining (forward extraction only): emit inf(j+1)
 *    before the extraction block of layer j so inference and extraction
 *    of adjacent layers overlap (Fig. 7a).
 *  - Neuron-level pipelining: software-pipeline the sort/acum loop with
 *    register rotation so sort(i+1) overlaps acum(i) (Fig. 7b). Without
 *    it the generated loop chains each iteration through the previous
 *    accumulate result, serializing the units.
 *  - Compute-for-memory recompute: replace infsp (store all partial
 *    sums) with plain inf plus csps instructions that re-compute the
 *    partial sums of important receptive fields at extraction time
 *    (Sec. IV-B "Trading-off Compute for Memory").
 */

#ifndef PTOLEMY_COMPILER_COMPILER_HH
#define PTOLEMY_COMPILER_COMPILER_HH

#include "isa/program.hh"
#include "nn/network.hh"
#include "path/extraction_config.hh"
#include "path/trace.hh"

namespace ptolemy::compiler
{

/** Optimization switches. */
struct CompileOptions
{
    bool layerPipelining = true;
    bool neuronPipelining = true;
    bool recomputePsums = true;
    std::size_t classifierOps = 1200; ///< random-forest MCU ops for cls

    /**
     * Micro-batch dimension: compile one program that detects
     * batchSize samples back-to-back the way
     * DetectorSession::detectBatch serves them. Sample 0 runs with
     * cold weights; the remaining samples execute an outer countdown
     * loop whose inference instructions carry zero weight-DMA bytes
     * (the weights are resident, amortized across the micro-batch), so
     * infsp/csps and both pipelining passes amortize too. batchSize=1
     * emits the historical single-sample program byte-for-byte.
     */
    std::size_t batchSize = 1;
};

/** DRAM footprint of the detection data structures for one inference. */
struct DramFootprint
{
    std::size_t psumCount = 0;      ///< psums stored (infsp path)
    std::size_t maskBits = 0;       ///< single-bit masks stored
    std::size_t recomputePsums = 0; ///< psums buffered under csps
};

/**
 * Program generator for one (network, extraction config) pair.
 */
class Compiler
{
  public:
    /** @throw std::invalid_argument if @p cfg's layer count is not
     *  @p net's weighted-layer count. */
    Compiler(const nn::Network &net, path::ExtractionConfig cfg,
             CompileOptions opts = {});

    /**
     * Compile against the profiled workload @p trace (typically
     * path::averageTraces over a calibration set). The trace must come
     * from the same network and config.
     */
    isa::Program compile(const path::ExtractionTrace &trace) const;

    /** Inference-only program (the normalization baseline). */
    static isa::Program inferenceOnly(const nn::Network &net);

    /** Detection DRAM footprint implied by the config/options. */
    DramFootprint dramFootprint(const path::ExtractionTrace &trace) const;

    const CompileOptions &options() const { return opts; }

  private:
    const nn::Network *net;
    path::ExtractionConfig cfg;
    CompileOptions opts;
};

} // namespace ptolemy::compiler

#endif // PTOLEMY_COMPILER_COMPILER_HH
