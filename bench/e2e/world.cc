#include "world.hh"

#include <span>
#include <utility>

#include "attack/gradient_attacks.hh"
#include "compiler/compiler.hh"
#include "core/detector_session.hh"
#include "data/synthetic.hh"
#include "hw/simulator.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/init.hh"
#include "nn/linear.hh"
#include "nn/trainer.hh"
#include "path/extractor.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace e2e
{

using namespace ptolemy;

namespace
{

constexpr int kClasses = 10;
constexpr int kEpochs = 3;
constexpr std::uint64_t kDataSeed = 0xE2E5EED;
/** The request pool is fixed too, so that auc, taken over the whole
 *  pool, is a property of the detector and repeats exactly. */
constexpr std::uint64_t kPoolSeed = 0x9E3779B97F4A7C15ull + 0x5EED;
constexpr std::uint64_t kInitSeed = 11;
constexpr int kProfilePerClass = 100;
constexpr std::size_t kHwProfileInputs = 64;

/** 3conv+2fc, 16/32/32 channels: extraction is most of a detection. */
nn::Network
fullNet()
{
    nn::Network net("e2e_full", nn::mapShape(3, 32, 32));
    net.add(std::make_unique<nn::Conv2d>("conv1", 3, 16, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu1"));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 2)); // 16x16
    net.add(std::make_unique<nn::Conv2d>("conv2", 16, 32, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu2"));
    net.add(std::make_unique<nn::MaxPool2d>("pool2", 2)); // 8x8
    net.add(std::make_unique<nn::Conv2d>("conv3", 32, 32, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu3"));
    net.add(std::make_unique<nn::Flatten>("flat"));
    net.add(std::make_unique<nn::Linear>("fc1", 32 * 8 * 8, 64));
    net.add(std::make_unique<nn::ReLU>("relu4"));
    net.add(std::make_unique<nn::Linear>("fc2", 64, kClasses));
    return net;
}

/** 4conv+2fc, 32/32/64/64 channels: forward is most of a detection
 *  once extraction stops after the two fc layers. */
nn::Network
wideNet()
{
    nn::Network net("e2e_wide", nn::mapShape(3, 32, 32));
    net.add(std::make_unique<nn::Conv2d>("conv1", 3, 32, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu1"));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 2)); // 16x16
    net.add(std::make_unique<nn::Conv2d>("conv2", 32, 32, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu2"));
    net.add(std::make_unique<nn::MaxPool2d>("pool2", 2)); // 8x8
    net.add(std::make_unique<nn::Conv2d>("conv3", 32, 64, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu3"));
    net.add(std::make_unique<nn::Conv2d>("conv4", 64, 64, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu4"));
    net.add(std::make_unique<nn::MaxPool2d>("pool3", 2)); // 4x4
    net.add(std::make_unique<nn::Flatten>("flat"));
    net.add(std::make_unique<nn::Linear>("fc1", 64 * 4 * 4, 64));
    net.add(std::make_unique<nn::ReLU>("relu5"));
    net.add(std::make_unique<nn::Linear>("fc2", 64, kClasses));
    return net;
}

/** The serving tier's 2conv+1fc probe on 3x16x16 inputs. */
nn::Network
serveNet()
{
    nn::Network net("e2e_serve", nn::mapShape(3, 16, 16));
    net.add(std::make_unique<nn::Conv2d>("conv1", 3, 8, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu1"));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 2)); // 8x8
    net.add(std::make_unique<nn::Conv2d>("conv2", 8, 12, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu2"));
    net.add(std::make_unique<nn::MaxPool2d>("pool2", 2)); // 4x4
    net.add(std::make_unique<nn::Flatten>("flat"));
    net.add(std::make_unique<nn::Linear>("fc", 12 * 4 * 4, kClasses));
    return net;
}

/** Clean inputs the trained net classifies correctly, and the ones of
 *  them BIM turns into a misclassification. */
struct Pairs
{
    std::vector<nn::Tensor> clean;
    std::vector<nn::Tensor> adversarial;
};

Pairs
attackWithBim(nn::Network &net, const nn::Dataset &candidates)
{
    std::vector<const nn::Tensor *> xs;
    std::vector<std::size_t> labels;
    nn::Network::Record rec;
    for (const auto &s : candidates) {
        if (net.inferPredict(s.input, rec) == s.label) {
            xs.push_back(&s.input);
            labels.push_back(s.label);
        }
    }
    std::vector<attack::AttackResult> results(xs.size());
    attack::Bim bim; // default L-inf budget: eps 0.08, step 0.01, 40 iters
    bim.runBatch(net, xs, labels, results);
    Pairs p;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (!results[i].success)
            continue;
        p.clean.push_back(*xs[i]);
        p.adversarial.push_back(std::move(results[i].adversarial));
    }
    return p;
}

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    // The trainer's default learning rate (0.05) diverges on the 32x32
    // nets within 3 epochs. serve_nominal offers about a quarter of the
    // tier's two-thread capacity: at half of it (20k req/s) queueing
    // amplified every slowdown of the host, and p50 moved by up to 40%
    // between runs.
    static const std::vector<WorkloadSpec> all = {
        {"detect_full", 32, 0, 0.0, 0.01, &fullNet},
        {"detect_early", 32, 4, 0.0, 0.01, &wideNet},
        {"serve_nominal", 16, 0, 10000.0, 0.02, &serveNet},
        {"serve_overload", 16, 0, 50000.0, 0.02, &serveNet},
    };
    return all;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const auto &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::unique_ptr<World>
buildWorld(const WorkloadSpec &spec, std::uint64_t seed, bool smoke)
{
    auto w = std::make_unique<World>();
    w->spec = &spec;

    // Smoke runs keep every stage but shrink the sets, so that a full
    // pass over all workloads and checks stays within seconds.
    const int train_per_class = smoke ? 12 : (spec.serve() ? 40 : 60);
    const int fit_per_class = smoke ? 4 : 12;
    const int pool_candidates = smoke ? 48 : (spec.serve() ? 256 : 160);

    auto t = Clock::now();
    auto lap = [&t](double &phase) {
        const auto now = Clock::now();
        phase = secondsBetween(t, now);
        t = now;
    };

    data::DatasetSpec ds;
    ds.numClasses = kClasses;
    ds.imageSize = spec.imageSize;
    ds.trainPerClass = train_per_class;
    ds.testPerClass = fit_per_class;
    ds.seed = kDataSeed;
    const data::SplitDataset fixed = data::makeSyntheticDataset(ds);
    nn::Dataset requests;
    {
        Rng rng(kPoolSeed);
        for (int i = 0; i < pool_candidates; ++i)
            requests.push_back(data::makeSample(i % kClasses, kClasses,
                                                spec.imageSize,
                                                ds.noiseSigma, rng));
    }
    lap(w->times.data);

    w->net = std::make_unique<nn::Network>(spec.makeNet());
    nn::heInit(*w->net, kInitSeed);
    nn::TrainConfig tc;
    tc.epochs = kEpochs;
    tc.learningRate = spec.learningRate;
    nn::Trainer(tc).train(*w->net, fixed.train);
    lap(w->times.train);

    const Pairs fit = attackWithBim(*w->net, fixed.test);
    const Pairs pool = attackWithBim(*w->net, requests);
    lap(w->times.attack);

    auto cfg = path::ExtractionConfig::bwCu(
        static_cast<int>(w->net->weightedNodes().size()), 0.5);
    cfg.selectFrom(spec.firstExtracted);
    core::DetectorBuilder bld(*w->net, cfg, kClasses);
    bld.profileClassPaths(fixed.train, kProfilePerClass);
    lap(w->times.profile);

    classify::FeatureMatrix benign, adversarial;
    bld.featuresBatch(fit.clean, benign);
    bld.featuresBatch(fit.adversarial, adversarial);
    bld.fitClassifier(benign, adversarial);
    w->model = std::make_unique<core::DetectorModel>(std::move(bld).build());
    lap(w->times.fit);

    w->cleanAccuracy = nn::Trainer::evaluate(*w->net, fixed.test);
    for (std::size_t i = 0; i < fit.clean.size() &&
                            w->calibration.size() < kHwProfileInputs;
         ++i) {
        w->calibration.push_back(fit.clean[i]);
        w->calibration.push_back(fit.adversarial[i]);
    }
    // --seed decides the order in which the pairs are sent.
    std::vector<std::size_t> order(pool.clean.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5EED);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    for (const std::size_t i : order) {
        w->inputs.push_back(pool.clean[i]);
        w->labels.push_back(0);
        w->inputs.push_back(pool.adversarial[i]);
        w->labels.push_back(1);
    }
    return w;
}

HwCost
simulateHw(const World &w)
{
    std::vector<const nn::Tensor *> xs;
    for (const auto &x : w.calibration)
        xs.push_back(&x);
    std::vector<nn::Network::Record> recs;
    w.net->forwardBatch(std::span<const nn::Tensor *const>(xs.data(),
                                                           xs.size()),
                        recs, &globalPool());
    const path::ExtractionTrace trace =
        w.model->extractor().profileBatch(recs, &globalPool());

    const hw::Simulator sim(hw::HwConfig::baseline());
    HwCost c;
    c.detection =
        sim.run(compiler::Compiler(*w.net, w.model->config()).compile(trace));
    c.inference = sim.run(compiler::Compiler::inferenceOnly(*w.net));
    return c;
}

} // namespace e2e
