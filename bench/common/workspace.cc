#include "workspace.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "hw/simulator.hh"
#include "models/zoo.hh"
#include "nn/init.hh"
#include "nn/trainer.hh"
#include "path/extractor.hh"
#include "util/rng.hh"
#include "util/serialize.hh"
#include "util/thread_pool.hh"

namespace ptolemy::bench
{

namespace fs = std::filesystem;

namespace
{

const char *kCacheDir = "ptolemy_cache";

/** Per-bundle recipe: model factory args + dataset + trainer settings. */
struct Recipe
{
    std::string model;
    int numClasses;
    int trainPerClass;
    int testPerClass;
    int epochs;
    double lr;
    std::uint64_t dataSeed;
    std::uint64_t initSeed;
};

Recipe
recipeFor(const std::string &name)
{
    if (name == "alexnet100")
        return {"alexnet", 100, 40, 10, 6, 0.05, 1001, 11};
    if (name == "resnet18c100")
        return {"resnet18", 100, 30, 8, 6, 0.03, 1002, 12};
    if (name == "resnet18c10")
        return {"resnet18", 10, 120, 30, 5, 0.03, 1003, 13};
    if (name == "alexnet10")
        return {"alexnet", 10, 120, 30, 5, 0.05, 1004, 14};
    if (name == "vgg16c10")
        return {"vgg16", 10, 120, 30, 6, 0.02, 1005, 15};
    if (name == "inceptionc10")
        return {"inception", 10, 120, 30, 5, 0.05, 1006, 16};
    if (name == "densenetc10")
        return {"densenet", 10, 120, 30, 5, 0.05, 1007, 17};
    if (name == "resnet26c10")
        return {"resnet26", 10, 120, 30, 5, 0.03, 1008, 18};
    throw std::invalid_argument("unknown bundle: " + name);
}

std::string
modelCachePath(const std::string &name)
{
    return std::string(kCacheDir) + "/" + name + ".model";
}

} // namespace

Bundle &
getBundle(const std::string &name)
{
    static std::map<std::string, std::unique_ptr<Bundle>> registry;
    auto it = registry.find(name);
    if (it != registry.end())
        return *it->second;

    const Recipe r = recipeFor(name);
    auto b = std::make_unique<Bundle>();
    b->name = name;
    b->numClasses = r.numClasses;

    data::DatasetSpec spec;
    spec.numClasses = r.numClasses;
    spec.trainPerClass = r.trainPerClass;
    spec.testPerClass = r.testPerClass;
    spec.seed = r.dataSeed;
    b->data = data::makeSyntheticDataset(spec);

    b->net = models::makeByName(r.model, r.numClasses);
    fs::create_directories(kCacheDir);
    const std::string path = modelCachePath(name);
    if (!b->net.load(path)) {
        std::printf("[workspace] training %s (%zu samples, %d epochs)...\n",
                    name.c_str(), b->data.train.size(), r.epochs);
        std::fflush(stdout);
        nn::heInit(b->net, r.initSeed);
        nn::TrainConfig tc;
        tc.epochs = r.epochs;
        tc.learningRate = r.lr;
        nn::Trainer trainer(tc);
        trainer.train(b->net, b->data.train);
        b->net.save(path);
    }
    b->cleanAccuracy = nn::Trainer::evaluate(b->net, b->data.test);
    std::printf("[workspace] %s ready: clean accuracy %.3f\n", name.c_str(),
                b->cleanAccuracy);
    std::fflush(stdout);

    auto &ref = *b;
    registry[name] = std::move(b);
    return ref;
}

std::vector<core::DetectionPair>
getPairs(Bundle &b, attack::Attack &atk, int max_samples,
         std::uint64_t seed)
{
    fs::create_directories(kCacheDir);
    const std::string path = std::string(kCacheDir) + "/" + b.name + "_" +
                             atk.name() + "_" +
                             std::to_string(max_samples) + ".pairs";

    auto load = [&]() -> std::vector<core::DetectionPair> {
        std::ifstream is(path, std::ios::binary);
        std::vector<core::DetectionPair> pairs;
        if (!is)
            return pairs;
        std::uint64_t n;
        if (!readU64(is, n))
            return {};
        const nn::Shape shape = b.net.inputShape();
        pairs.resize(n);
        for (auto &p : pairs) {
            std::uint64_t label;
            std::vector<float> clean, adv;
            if (!readU64(is, label) || !readF64(is, p.mse) ||
                !readFloats(is, clean) || !readFloats(is, adv) ||
                clean.size() != shape.numel() ||
                adv.size() != shape.numel())
                return {};
            p.label = label;
            p.clean = nn::Tensor(shape, std::move(clean));
            p.adversarial = nn::Tensor(shape, std::move(adv));
        }
        return pairs;
    };

    auto pairs = load();
    if (!pairs.empty())
        return pairs;

    std::printf("[workspace] attacking %s with %s (%d samples)...\n",
                b.name.c_str(), atk.name().c_str(), max_samples);
    std::fflush(stdout);
    pairs = core::buildAttackPairs(b.net, atk, b.data.test, max_samples,
                                   seed);
    std::ofstream os(path, std::ios::binary);
    if (os) {
        writeU64(os, pairs.size());
        for (const auto &p : pairs) {
            writeU64(os, p.label);
            writeF64(os, p.mse);
            writeFloats(os, p.clean.vec());
            writeFloats(os, p.adversarial.vec());
        }
    }
    return pairs;
}

path::ExtractionConfig
calibrated(Bundle &b, path::ExtractionConfig cfg, double fraction)
{
    std::vector<nn::Tensor> samples;
    const std::size_t stride = std::max<std::size_t>(
        1, b.data.train.size() / 8);
    for (std::size_t i = 0; i < b.data.train.size() && samples.size() < 8;
         i += stride)
        samples.push_back(b.data.train[i].input);
    path::calibrateAbsoluteThresholds(b.net, cfg, samples, fraction);
    return cfg;
}

path::ExtractionTrace
profileTrace(Bundle &b, const path::ExtractionConfig &cfg, int samples)
{
    path::PathExtractor ex(b.net, cfg);
    std::vector<const nn::Tensor *> xs;
    const std::size_t stride =
        std::max<std::size_t>(1, b.data.test.size() / samples);
    for (std::size_t i = 0;
         i < b.data.test.size() &&
         xs.size() < static_cast<std::size_t>(samples);
         i += stride)
        xs.push_back(&b.data.test[i].input);
    std::vector<nn::Network::Record> recs;
    b.net.forwardBatch(std::span<const nn::Tensor *const>(xs.data(),
                                                          xs.size()),
                       recs, &globalPool());
    return ex.profileBatch(recs, &globalPool());
}

CostResult
costOfTrace(Bundle &b, const path::ExtractionConfig &cfg,
            const path::ExtractionTrace &trace,
            compiler::CompileOptions opts, hw::HwConfig hw_cfg)
{
    hw::Simulator sim(hw_cfg);
    CostResult r;
    r.inference =
        sim.run(compiler::Compiler::inferenceOnly(b.net));
    compiler::Compiler comp(b.net, cfg, opts);
    r.detection = sim.run(comp.compile(trace));
    r.latencyX = static_cast<double>(r.detection.cycles) /
                 r.inference.cycles;
    r.energyX = r.detection.energyPj / r.inference.energyPj;

    compiler::CompileOptions no_cls = opts;
    no_cls.classifierOps = 0;
    compiler::Compiler comp2(b.net, cfg, no_cls);
    const auto rep2 = sim.run(comp2.compile(trace));
    r.latencyXNoCls =
        static_cast<double>(rep2.cycles) / r.inference.cycles;
    r.energyXNoCls = rep2.energyPj / r.inference.energyPj;
    return r;
}

CostResult
costOf(Bundle &b, const path::ExtractionConfig &cfg,
       compiler::CompileOptions opts, hw::HwConfig hw_cfg)
{
    return costOfTrace(b, cfg, profileTrace(b, cfg), opts, hw_cfg);
}

std::unique_ptr<core::DetectorBuilder>
makeBuilder(Bundle &b, path::ExtractionConfig cfg, int profile_per_class)
{
    auto bld = std::make_unique<core::DetectorBuilder>(
        b.net, std::move(cfg), static_cast<std::size_t>(b.numClasses));
    bld->profileClassPaths(b.data.train, profile_per_class);
    return bld;
}

namespace
{

double
benchMinTime()
{
    if (const char *s = std::getenv("PTOLEMY_BENCH_MIN_TIME"))
        return std::atof(s);
    return 0.05;
}

template <typename Fn>
double
secsPerCall(Fn &&fn, double min_seconds)
{
    using Clock = std::chrono::steady_clock;
    std::size_t reps = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
        fn();
        ++reps;
        elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < min_seconds);
    return elapsed / static_cast<double>(reps);
}

} // namespace

SwDetectCost
measureSwDetectCost(Bundle &b, const path::ExtractionConfig &cfg,
                    int profile_per_class)
{
    // Fit a real model on the bundle: profiled class paths plus a forest
    // trained on clean-vs-noisy rows, so the score stage pays the same
    // tree walks production scoring does.
    auto bld = makeBuilder(b, cfg, profile_per_class);
    {
        Rng rng(0x5C0FE);
        std::vector<nn::Tensor> clean, noisy;
        const std::size_t stride =
            std::max<std::size_t>(1, b.data.test.size() / 16);
        for (std::size_t i = 0;
             i < b.data.test.size() && clean.size() < 16; i += stride) {
            clean.push_back(b.data.test[i].input);
            nn::Tensor p = clean.back();
            for (std::size_t e = 0; e < p.size(); ++e)
                p[e] += static_cast<float>(rng.uniform(-0.1, 0.1));
            noisy.push_back(std::move(p));
        }
        classify::FeatureMatrix benign, adversarial;
        bld->featuresBatch(clean, benign);
        bld->featuresBatch(noisy, adversarial);
        bld->fitClassifier(benign, adversarial);
    }
    const core::DetectorModel &model = bld->model();

    std::vector<const nn::Tensor *> xs;
    const std::size_t stride =
        std::max<std::size_t>(1, b.data.test.size() / 16);
    for (std::size_t i = 0; i < b.data.test.size() && xs.size() < 16;
         i += stride)
        xs.push_back(&b.data.test[i].input);
    const std::span<const nn::Tensor *const> xspan(xs.data(), xs.size());
    const double min_time = benchMinTime();

    SwDetectCost cost;
    // Stage 1: the per-sample forward detectBatch serves with,
    // amortized per sample.
    std::vector<nn::Network::Record> recs;
    model.network().forwardBatch(xspan, recs); // warm + records
    cost.forwardUs =
        secsPerCall([&] { model.network().forwardBatch(xspan, recs); },
                    min_time) /
        static_cast<double>(xs.size()) * 1e6;

    // Stage 2: path extraction with the default branchless workspace.
    path::ExtractionWorkspace ws;
    BitVector path_bits;
    std::size_t cursor = 0;
    model.extractor().extractInto(recs[0], ws, path_bits); // warm
    cost.extractUs = secsPerCall(
                         [&] {
                             model.extractor().extractInto(recs[cursor], ws,
                                                           path_bits);
                             cursor = (cursor + 1) % recs.size();
                         },
                         min_time) *
                     1e6;

    // Stage 3: similarity features + forest probability.
    path::SimilarityFeatures feats;
    std::vector<double> feat_vec;
    volatile double sink = 0.0;
    cursor = 0;
    cost.scoreUs =
        secsPerCall(
            [&] {
                const std::size_t pred = recs[cursor].predictedClass();
                path::computeSimilarityInto(
                    path_bits, model.classPaths().classPath(pred),
                    model.extractor().layout(), feats);
                feats.toVectorInto(feat_vec);
                sink = model.forest().predictProb(feat_vec);
                cursor = (cursor + 1) % recs.size();
            },
            min_time) *
        1e6;
    (void)sink;
    return cost;
}

VariantSet
makeVariants(Bundle &b, double theta, double phi_fraction)
{
    const int n = static_cast<int>(b.net.weightedNodes().size());
    VariantSet v{
        path::ExtractionConfig::bwCu(n, theta),
        calibrated(b, path::ExtractionConfig::bwAb(n), phi_fraction),
        calibrated(b, path::ExtractionConfig::fwAb(n), phi_fraction),
        calibrated(b, path::ExtractionConfig::hybrid(n, theta),
                   phi_fraction),
    };
    return v;
}

} // namespace ptolemy::bench
