/**
 * @file
 * Immutable detector engine: the Ptolemy serving-side model artifact.
 *
 * The detection stack is split production-engine style:
 *
 *  - DetectorModel — everything fitted offline and *frozen*: the
 *    protected (const) network, the extraction configuration, the
 *    per-class canary paths and the fitted random forest. A
 *    DetectorModel performs no writes after construction, so any
 *    number of threads may serve detections from one instance
 *    concurrently, with no locks (see the thread-safety contract on
 *    the class).
 *
 *  - DetectorBuilder — the offline phase (paper Fig. 4 top): profile
 *    class paths over correctly-predicted training samples, fit the
 *    classifier on benign/adversarial feature rows, then release the
 *    finished, immutable DetectorModel.
 *
 *  - DetectorSession (detector_session.hh) — one lightweight,
 *    cheap-to-construct object per client/request stream holding all
 *    mutable hot-path scratch.
 *
 * Persistence: save()/load() serialize the fitted artifacts (config,
 * class paths, forest) keyed by the network's architecture signature,
 * so a profiled detector deploys onto a freshly loaded network without
 * re-profiling.
 */

#ifndef PTOLEMY_CORE_DETECTOR_MODEL_HH
#define PTOLEMY_CORE_DETECTOR_MODEL_HH

#include <istream>
#include <stdexcept>
#include <string>
#include <vector>

#include "classify/random_forest.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"
#include "path/class_path.hh"
#include "path/extractor.hh"

namespace ptolemy::core
{

/**
 * Typed error thrown by DetectorModel::load for every failure mode:
 * unreadable file, bad magic, architecture-signature mismatch,
 * truncation at any byte offset, or corrupt/inconsistent artifact data.
 * Corrupt inputs never crash, read out of bounds, or attempt unbounded
 * allocations — every length field is validated before use. The model
 * under load is left unchanged (strong guarantee), so a failed hot
 * swap keeps serving the old artifacts.
 */
class ModelLoadError : public std::runtime_error
{
  public:
    explicit ModelLoadError(const std::string &what)
        : std::runtime_error("DetectorModel::load: " + what)
    {
    }
};

/** Verdict for one input (one serving response). */
struct Decision
{
    std::size_t predictedClass = 0;
    bool adversarial = false;
    double score = 0.0; ///< forest probability of "adversarial"
    path::SimilarityFeatures features;
};

/**
 * Frozen (network, extraction config, class paths, classifier) bundle.
 *
 * Thread-safety contract: after the offline phase (DetectorBuilder, or
 * load()) completes, a DetectorModel is never written again. Every
 * accessor is const and every serving operation routed through it
 * (DetectorSession::detect/detectBatch) only reads, so one model may
 * back any number of concurrent sessions with no synchronization. The
 * one non-const member, load(), is an owner-phase operation: call it
 * before the model is shared, never while sessions are serving.
 *
 * The network is borrowed and must outlive the model; the model never
 * writes it. It must stay frozen while the model serves (training it
 * would invalidate the profiled class paths anyway).
 */
class DetectorModel
{
  public:
    /**
     * @param net the protected network (borrowed; must outlive this).
     * @param cfg extraction configuration (one policy per weighted layer).
     * @param num_classes classifier output arity.
     * @param forest_cfg random-forest hyper-parameters.
     */
    DetectorModel(const nn::Network &net, path::ExtractionConfig cfg,
                  std::size_t num_classes,
                  classify::ForestConfig forest_cfg = {});

    const nn::Network &network() const { return *net; }
    const path::PathExtractor &extractor() const { return pathExtractor; }
    const path::ClassPathStore &classPaths() const { return store; }
    const classify::RandomForest &forest() const { return rf; }
    const path::ExtractionConfig &config() const
    {
        return pathExtractor.config();
    }
    std::size_t numClasses() const { return store.numClasses(); }

    /** Variant tag, e.g. "BwCu". */
    std::string variantName() const { return config().variantName(); }

    /**
     * The one adversarial cut every Decision is made with — the
     * session, the functional simulator and the fault campaign all
     * route through it. Fail-safe: a non-finite score (a NaN/Inf that
     * propagated up from a poisoned activation) is adversarial, since
     * `score >= cut` alone would wave a NaN through.
     */
    bool isAdversarial(double score) const;

    /**
     * Serialize the fitted artifacts (architecture signature, extraction
     * config, class paths, forest) to @p path. The network weights are
     * not included — they are the training artifact, saved separately
     * via nn::Network::save. @return success.
     */
    bool save(const std::string &path) const;

    /**
     * Load fitted artifacts saved by save(). Throws ModelLoadError —
     * with the model unchanged (strong guarantee) — on every failure:
     * unreadable file, bad magic, borrowed-network signature mismatch,
     * truncation, or corrupt artifact data. Owner-phase only: never
     * call on a model other threads are serving from (hot swap builds
     * a fresh model and publishes it instead; see serve::DetectorServer).
     */
    void load(const std::string &path);

    /** load() from an open stream positioned at the artifact: the same
     *  checks and the same strong guarantee, minus the file open. */
    void load(std::istream &is);

    /** load() variant returning false instead of throwing. */
    bool tryLoad(const std::string &path);

  private:
    friend class DetectorBuilder;

    const nn::Network *net;
    path::PathExtractor pathExtractor;
    path::ClassPathStore store;
    classify::RandomForest rf;
};

/**
 * Offline phase: profiles class paths and fits the classifier, then
 * hands out the finished model. Wraps the paper's offline pipeline
 * (aggregate activation paths of correctly-predicted training samples;
 * fit the random forest on path-similarity features).
 *
 * Single-threaded use only (profiling fans out internally on the
 * process-wide pool, but the builder object itself is one client).
 * Not movable: sessions bind to model() by address, and fitClassifier
 * updates that model in place.
 */
class DetectorBuilder
{
  public:
    DetectorBuilder(const nn::Network &net, path::ExtractionConfig cfg,
                    std::size_t num_classes,
                    classify::ForestConfig forest_cfg = {});

    DetectorBuilder(const DetectorBuilder &) = delete;
    DetectorBuilder &operator=(const DetectorBuilder &) = delete;

    /**
     * Aggregate activation paths of correctly-predicted training
     * samples into class paths (paper: saturates around 100 images per
     * class). Inference + extraction ride the batched pipeline on the
     * process-wide pool; the resulting class paths are bit-identical
     * to the sequential loop at any thread count.
     * @return number of samples aggregated.
     */
    std::size_t profileClassPaths(const nn::Dataset &train,
                                  int max_per_class = 100);

    /**
     * Similarity-feature rows for raw inputs (the fitting-phase feature
     * pipeline): inference and path extraction fan out on the
     * process-wide pool, one workspace per pool slot. rows[i] always
     * corresponds to xs[i] and is bit-identical to the sequential
     * pipeline, independent of thread count.
     */
    void featuresBatch(const std::vector<nn::Tensor> &xs,
                       classify::FeatureMatrix &rows);

    /** Fit the forest on benign (label 0) and adversarial (label 1)
     *  feature rows. */
    void fitClassifier(const classify::FeatureMatrix &benign,
                       const classify::FeatureMatrix &adversarial);

    /** The model being built (valid for the builder's lifetime). */
    const DetectorModel &model() const { return mdl; }

    /** Release the finished model. The builder is consumed. */
    DetectorModel build() && { return std::move(mdl); }

  private:
    DetectorModel mdl;
    // Chunk scratch shared by profiling and featuresBatch.
    std::vector<nn::Tensor> xsScratch;
    std::vector<std::size_t> labelScratch; ///< profiling chunk labels
    std::vector<nn::Network::Record> recScratch;
    std::vector<BitVector> pathScratch;
    path::BatchExtractionWorkspace bws;
};

} // namespace ptolemy::core

#endif // PTOLEMY_CORE_DETECTOR_MODEL_HH
