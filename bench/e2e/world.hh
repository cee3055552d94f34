/**
 * @file
 * Workload definitions and the set-up that turns one into a served
 * detector: synthetic data, a trained network, BIM adversarials, class
 * paths and a fitted forest, plus the request pool the workload sends.
 *
 * The network, its training data, the detector's fitting set and the
 * request pool (held-out benign samples and their BIM adversarials)
 * come from fixed seeds, so every run measures the same detector. The
 * run's --seed decides the order the pool is sent in and the serve
 * arrival schedule.
 */

#ifndef PTOLEMY_BENCH_E2E_WORLD_HH
#define PTOLEMY_BENCH_E2E_WORLD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "core/detector_model.hh"
#include "hw/report.hh"
#include "nn/network.hh"

namespace e2e
{

/** One benchmark workload. */
struct WorkloadSpec
{
    std::string name;
    int imageSize = 32;
    int firstExtracted = 0;   ///< ExtractionConfig::selectFrom argument
    /** Poisson arrival rate through serve::DetectorServer; 0 for the
     *  closed-loop detectBatch caller. */
    double offeredRps = 0.0;
    double learningRate = 0.05;
    ptolemy::nn::Network (*makeNet)() = nullptr;

    bool serve() const { return offeredRps > 0.0; }
};

/** Every workload, in report order. */
const std::vector<WorkloadSpec> &workloads();

/** The workload called @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Wall time of each set-up phase, in seconds. */
struct SetupTimes
{
    double data = 0.0;    ///< synthetic training, fitting and request sets
    double train = 0.0;   ///< SGD epochs
    double attack = 0.0;  ///< BIM on the fitting set and the request pool
    double profile = 0.0; ///< class-path profiling
    double fit = 0.0;     ///< feature rows, forest fit, model build

    double total() const { return data + train + attack + profile + fit; }
};

/** A workload's served detector and the requests it is sent. */
struct World
{
    const WorkloadSpec *spec = nullptr;
    std::unique_ptr<ptolemy::nn::Network> net;
    std::unique_ptr<ptolemy::core::DetectorModel> model;
    std::vector<ptolemy::nn::Tensor> inputs; ///< benign, BIM, benign, ...
    std::vector<int> labels;                 ///< 1 = BIM adversarial
    /** Fixed profiling inputs the compiler's trip counts come from
     *  (the fitting set's benign/BIM pairs), so the compiled program
     *  is a property of the model, like the forest. */
    std::vector<ptolemy::nn::Tensor> calibration;
    SetupTimes times;
    double cleanAccuracy = 0.0; ///< trained net on its fitting set
};

/** Build @p spec's world; @p seed orders the request pool. */
std::unique_ptr<World> buildWorld(const WorkloadSpec &spec,
                                  std::uint64_t seed, bool smoke);

/** Simulated accelerator cost of the world's detection program. */
struct HwCost
{
    ptolemy::hw::PerfReport detection; ///< compiled from the profiled trace
    ptolemy::hw::PerfReport inference; ///< inference-only program
};

/** Profile the calibration inputs (PathExtractor::profileBatch), compile
 *  the detection program and run it on the baseline hardware. */
HwCost simulateHw(const World &w);

} // namespace e2e

#endif // PTOLEMY_BENCH_E2E_WORLD_HH
