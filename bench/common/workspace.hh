/**
 * @file
 * Shared bench workspace.
 *
 * Every experiment harness needs trained models, datasets, attack pairs
 * and cost simulations. Training and attack generation are the expensive
 * parts, so both are cached on disk under ./ptolemy_cache (keyed by model
 * architecture signature / attack name); the first bench run pays the
 * cost, later runs load in milliseconds.
 *
 * Model naming maps to the paper's workloads (DESIGN.md substitutions):
 *   alexnet100   — MiniAlexNet,  100 classes (plays AlexNet @ ImageNet)
 *   resnet18c100 — MiniResNet18, 100 classes (plays ResNet18 @ CIFAR-100)
 *   resnet18c10  — MiniResNet18,  10 classes (plays ResNet18 @ CIFAR-10)
 *   vgg16c10 / inceptionc10 / densenetc10 / resnet26c10 — Sec. VII-H zoo.
 */

#ifndef PTOLEMY_BENCH_COMMON_WORKSPACE_HH
#define PTOLEMY_BENCH_COMMON_WORKSPACE_HH

#include <memory>
#include <string>
#include <vector>

#include "attack/attack.hh"
#include "compiler/compiler.hh"
#include "core/detector_model.hh"
#include "core/detector_session.hh"
#include "core/evaluation.hh"
#include "data/synthetic.hh"
#include "hw/config.hh"
#include "hw/report.hh"
#include "nn/network.hh"
#include "path/extraction_config.hh"
#include "path/trace.hh"

namespace ptolemy::bench
{

/** A trained model plus its dataset. */
struct Bundle
{
    std::string name;
    int numClasses = 0;
    data::SplitDataset data;
    nn::Network net{"", nn::Shape{}};
    double cleanAccuracy = 0.0;
};

/** Get (train or load) a bundle by workspace name. Bundles are process-
 *  wide singletons; the reference stays valid for the process lifetime. */
Bundle &getBundle(const std::string &name);

/** Attack clean/adversarial pairs, disk-cached per (bundle, attack). */
std::vector<core::DetectionPair> getPairs(Bundle &b, attack::Attack &atk,
                                          int max_samples,
                                          std::uint64_t seed = 0xE7A1);

/** Calibrate absolute thresholds on a few training samples so roughly
 *  @p fraction of compared values pass (the offline profiling step). */
path::ExtractionConfig calibrated(Bundle &b, path::ExtractionConfig cfg,
                                  double fraction = 0.05);

/** Average extraction trace over a few test inputs. Rides the batched
 *  profiling pipeline (Network::forwardBatch +
 *  PathExtractor::profileBatch), bit-identical to the per-sample walk
 *  at any thread count. */
path::ExtractionTrace profileTrace(Bundle &b,
                                   const path::ExtractionConfig &cfg,
                                   int samples = 5);

/** Compile + simulate one configuration; everything normalized against
 *  an inference-only run on the same hardware. */
struct CostResult
{
    hw::PerfReport detection;
    hw::PerfReport inference;
    double latencyX = 1.0;      ///< detection cycles / inference cycles
    double energyX = 1.0;
    double latencyXNoCls = 1.0; ///< excluding the constant classifier tail
    double energyXNoCls = 1.0;
};

CostResult costOf(Bundle &b, const path::ExtractionConfig &cfg,
                  compiler::CompileOptions opts = {},
                  hw::HwConfig hw_cfg = hw::HwConfig::baseline());

CostResult costOfTrace(Bundle &b, const path::ExtractionConfig &cfg,
                       const path::ExtractionTrace &trace,
                       compiler::CompileOptions opts = {},
                       hw::HwConfig hw_cfg = hw::HwConfig::baseline());

/**
 * Offline phase for one (bundle, config) pair: a DetectorBuilder with
 * class paths already profiled. Serve from it by binding sessions to
 * builder->model(); fitClassifier mutates the model in place, so bound
 * sessions observe the fit. unique_ptr because DetectorBuilder is
 * neither copyable nor movable (its internal session is bound to the
 * model member).
 */
std::unique_ptr<core::DetectorBuilder>
makeBuilder(Bundle &b, path::ExtractionConfig cfg,
            int profile_per_class = 100);

/**
 * Measured per-detection cost split of the optimized software serving
 * path (the detectBatch stages timed through their public seams):
 * the per-sample forward, branchless-workspace path extraction, and
 * the similarity + forest scoring tail. This is the honest software
 * baseline the HW co-design benches normalize against — wall-clock of
 * the engine that actually serves, not a modeled pipeline.
 */
struct SwDetectCost
{
    double forwardUs = 0.0;
    double extractUs = 0.0;
    double scoreUs = 0.0;
    double totalUs() const { return forwardUs + extractUs + scoreUs; }
};

/** Measure the serving cost split for @p cfg on @p b's model. Honors
 *  PTOLEMY_BENCH_MIN_TIME for the per-stage measurement window. */
SwDetectCost measureSwDetectCost(Bundle &b,
                                 const path::ExtractionConfig &cfg,
                                 int profile_per_class = 16);

/** The standard variant set of Sec. VI-B, calibrated for @p b. */
struct VariantSet
{
    path::ExtractionConfig bwCu, bwAb, fwAb, hybrid;
};
VariantSet makeVariants(Bundle &b, double theta = 0.5,
                        double phi_fraction = 0.05);

} // namespace ptolemy::bench

#endif // PTOLEMY_BENCH_COMMON_WORKSPACE_HH
