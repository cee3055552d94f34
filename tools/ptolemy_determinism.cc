/**
 * @file
 * Determinism probes for CI:
 *
 *   ptolemy_determinism <train|attack|detect|telemetry>
 *
 * Every probe trains a small CNN on synthetic data on the process-wide
 * pool and prints one line of FNV-1a hashes, led by the pool width and
 * SIMD mode in effect (`threads=` and `simd=`, so a run shows that the
 * PTOLEMY_NUM_THREADS and PTOLEMY_SIMD it was given took effect).
 * Running a probe under different PTOLEMY_NUM_THREADS values must
 * print the same hashes; CI also pins them per SIMD mode.
 *
 *  - train: hash of every trained parameter and state buffer. The
 *    probe net carries a Norm2d layer, so the data-parallel trainer's
 *    deferred-stat path is exercised.
 *  - attack: hashes of every adversarial (bytes + label + mse) that
 *    core::buildAttackPairs produces. suite_hash covers the five
 *    standard deterministic attacks (BIM, CWL2, DeepFool, FGSM, JSMA);
 *    full_hash adds the randomized ones (PGD and the adaptive
 *    activation-matching attack), whose randomness is keyed by
 *    (seed, sampleIndex). Adversarials depend only on the input, label
 *    and sample index, never on batch composition or thread count.
 *  - detect: hash of every Decision (score bits, predicted class,
 *    verdict, per-layer features) a fitted DetectorModel serves.
 *    batch_hash covers one fused DetectorSession::detectBatch;
 *    full_hash folds in a sequential detect() pass and a
 *    save->load->detectBatch replay over a second model.
 *  - telemetry: canonical hash of every sealed TelemetryHub window
 *    (sketch counters, histogram bins, class tallies) over mixed
 *    traffic served through a telemetry-attached session, plus the
 *    drift self-check: an unshifted window raises no drift event, a
 *    strongly shifted one does, and a threshold proposal is emitted.
 *
 * The attack, detect and telemetry probes share one probe net and one
 * trained world; detect and telemetry share one fitted model.
 *
 * Exit status: 0 on success; 1 on a self-check failure (detect: the
 * save->load round trip; telemetry: the drift checks), which is
 * thread-count independent, so a hash diff alone would not catch it;
 * 2 on a missing or unknown probe name.
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attack/adaptive.hh"
#include "attack/gradient_attacks.hh"
#include "attack/suite.hh"
#include "core/detector_session.hh"
#include "core/evaluation.hh"
#include "data/synthetic.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/init.hh"
#include "nn/linear.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"
#include "telemetry/hub.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace ptolemy;

constexpr std::size_t kNumClasses = 10;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** The probe CNN for 3x16x16 inputs; @p norm adds a Norm2d after
 *  conv1 (the train probe's net). */
nn::Network
makeProbeNet(bool norm)
{
    nn::Network net("probe", nn::mapShape(3, 16, 16));
    net.add(std::make_unique<nn::Conv2d>("conv1", 3, 8, 3, 1, 1));
    if (norm)
        net.add(std::make_unique<nn::Norm2d>("norm1", 8));
    net.add(std::make_unique<nn::ReLU>("relu1"));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 2)); // 8x8
    net.add(std::make_unique<nn::Conv2d>("conv2", 8, 12, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu2"));
    net.add(std::make_unique<nn::MaxPool2d>("pool2", 2)); // 4x4
    net.add(std::make_unique<nn::Flatten>("flat"));
    net.add(std::make_unique<nn::Linear>("fc", 12 * 4 * 4, 10));
    return net;
}

/** Synthetic data and the probe net trained on it. The defaults are
 *  the world the attack, detect and telemetry probes share. */
struct World
{
    data::SplitDataset ds;
    nn::Network net;

    explicit World(bool norm = false, std::size_t test_per_class = 4)
        : net(makeProbeNet(norm))
    {
        data::DatasetSpec spec;
        spec.numClasses = kNumClasses;
        spec.trainPerClass = 20;
        spec.testPerClass = test_per_class;
        spec.seed = 42;
        ds = data::makeSyntheticDataset(spec);
        nn::heInit(net, 7);
        nn::TrainConfig tc;
        tc.epochs = 3;
        tc.learningRate = 0.02;
        nn::Trainer(tc).train(net, ds.train);
    }
};

path::ExtractionConfig
probeConfig(const nn::Network &net)
{
    return path::ExtractionConfig::bwCu(
        static_cast<int>(net.weightedNodes().size()), 0.5);
}

/** Inputs at perturbation level @p amp (0 = clean). */
std::vector<nn::Tensor>
trafficAt(const nn::Dataset &test, double amp, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<nn::Tensor> xs;
    for (const auto &s : test) {
        nn::Tensor x = s.input;
        if (amp > 0.0)
            for (std::size_t e = 0; e < x.size(); ++e)
                x[e] += static_cast<float>(rng.uniform(-amp, amp));
        xs.push_back(std::move(x));
    }
    return xs;
}

/** Offline phase: class paths from the training set, forest fitted on
 *  clean vs noisy test inputs. */
core::DetectorModel
fittedModel(const World &w)
{
    core::DetectorBuilder bld(w.net, probeConfig(w.net), kNumClasses);
    bld.profileClassPaths(w.ds.train, /*max_per_class=*/12);
    classify::FeatureMatrix benign, adversarial;
    bld.featuresBatch(trafficAt(w.ds.test, 0.0, 0), benign);
    bld.featuresBatch(trafficAt(w.ds.test, 0.1, 0x51AB), adversarial);
    bld.fitClassifier(benign, adversarial);
    return std::move(bld).build();
}

int
trainProbe()
{
    World w(/*norm=*/true, /*test_per_class=*/2);
    std::uint64_t h = kFnvBasis;
    for (auto p : w.net.params())
        h = fnv1a(h, p.value->data(), p.value->size() * sizeof(float));
    for (int id = 0; id < w.net.numNodes(); ++id)
        for (auto p : w.net.layerAt(id).state())
            h = fnv1a(h, p.value->data(), p.value->size() * sizeof(float));

    std::printf("threads=%u simd=%s weights_hash=%016llx acc=%.4f\n",
                globalPool().size(), simdModeName(),
                static_cast<unsigned long long>(h),
                nn::Trainer::evaluate(w.net, w.ds.test));
    return 0;
}

int
attackProbe()
{
    World w;
    constexpr int kCap = 12;
    auto hashAttack = [&](std::uint64_t h, attack::Attack &atk) {
        for (const auto &p : core::buildAttackPairs(w.net, atk, w.ds.test,
                                                    kCap, 0xE7A1)) {
            h = fnv1a(h, p.adversarial.data(),
                      p.adversarial.size() * sizeof(float));
            const std::uint64_t label = p.label;
            h = fnv1a(h, &label, sizeof(label));
            h = fnv1a(h, &p.mse, sizeof(p.mse));
        }
        return h;
    };
    std::uint64_t h = kFnvBasis;
    for (const auto &atk : attack::makeStandardAttacks())
        h = hashAttack(h, *atk);
    const std::uint64_t suite_hash = h;

    attack::Pgd pgd;
    h = hashAttack(h, pgd);
    attack::AdaptiveActivationAttack at(2, &w.ds.train, /*num_targets=*/2,
                                        /*iters=*/15, /*lr=*/0.08);
    h = hashAttack(h, at);

    std::printf("threads=%u simd=%s suite_hash=%016llx full_hash=%016llx\n",
                globalPool().size(), simdModeName(),
                static_cast<unsigned long long>(suite_hash),
                static_cast<unsigned long long>(h));
    return 0;
}

std::uint64_t
hashDecisions(std::uint64_t h, const std::vector<core::Decision> &ds)
{
    for (const auto &d : ds) {
        const std::uint64_t pred = d.predictedClass;
        const std::uint8_t adv = d.adversarial ? 1 : 0;
        h = fnv1a(h, &pred, sizeof(pred));
        h = fnv1a(h, &adv, sizeof(adv));
        h = fnv1a(h, &d.score, sizeof(d.score));
        h = fnv1a(h, &d.features.overall, sizeof(d.features.overall));
        if (!d.features.perLayer.empty())
            h = fnv1a(h, d.features.perLayer.data(),
                      d.features.perLayer.size() * sizeof(double));
    }
    return h;
}

int
detectProbe()
{
    const World w;
    const core::DetectorModel model = fittedModel(w);

    // Serving inputs: every test sample plus a perturbed copy.
    Rng rng(0xD37EC7);
    std::vector<nn::Tensor> inputs;
    for (const auto &s : w.ds.test) {
        inputs.push_back(s.input);
        nn::Tensor x = s.input;
        for (std::size_t e = 0; e < x.size(); ++e)
            x[e] += static_cast<float>(rng.uniform(-0.08, 0.08));
        inputs.push_back(std::move(x));
    }

    core::DetectorSession sess(model);
    std::vector<core::Decision> batch;
    sess.detectBatch(inputs, batch); // process-wide pool
    std::uint64_t h = hashDecisions(kFnvBasis, batch);
    const std::uint64_t batch_hash = h;

    // Sequential pass through the same session.
    std::vector<core::Decision> serial;
    for (const auto &x : inputs)
        serial.push_back(sess.detect(x));
    h = hashDecisions(h, serial);

    // Persistence round trip: the loaded model must serve identically.
    const char *path = "ptolemy_determinism.model";
    std::uint64_t roundtrip_ok = 0;
    if (model.save(path)) {
        core::DetectorModel loaded(w.net, probeConfig(w.net), kNumClasses);
        if (loaded.tryLoad(path)) {
            core::DetectorSession ls(loaded);
            std::vector<core::Decision> replayed;
            ls.detectBatch(inputs, replayed);
            h = hashDecisions(h, replayed);
            roundtrip_ok = 1;
        }
    }
    std::remove(path);
    h = fnv1a(h, &roundtrip_ok, sizeof(roundtrip_ok));

    std::printf("threads=%u simd=%s roundtrip=%llu batch_hash=%016llx "
                "full_hash=%016llx\n",
                globalPool().size(), simdModeName(),
                static_cast<unsigned long long>(roundtrip_ok),
                static_cast<unsigned long long>(batch_hash),
                static_cast<unsigned long long>(h));
    if (!roundtrip_ok) {
        std::fprintf(stderr,
                     "FAIL: DetectorModel save->load round trip broke\n");
        return 1;
    }
    return 0;
}

int
telemetryProbe()
{
    const World w;
    const core::DetectorModel model = fittedModel(w);

    telemetry::TelemetryConfig tcfg;
    tcfg.numClasses = kNumClasses;
    tcfg.slots = 8; // fixed (≥ any CI thread count): identical shard
                    // geometry no matter the pool width
    tcfg.windowRecords = 1u << 30; // sealed manually per phase
    core::DetectorSession sess(model);
    telemetry::TelemetryHub hub(tcfg);
    sess.attachTelemetry(&hub);

    std::vector<core::Decision> out;

    // Phase 0 — reference profile from benign traffic (3 passes).
    for (int pass = 0; pass < 3; ++pass)
        sess.detectBatch(trafficAt(w.ds.test, 0.0, 0), out);
    const std::uint64_t refRecords = hub.captureReference();

    // Phase 1 — unshifted window: clean traffic again, must be silent.
    for (int pass = 0; pass < 3; ++pass)
        sess.detectBatch(trafficAt(w.ds.test, 0.0, 0), out);
    hub.sealWindow();
    const std::uint64_t eventsUnshifted = hub.driftEventCount();

    // Phase 2 — shifted window: heavy perturbation pushes scores
    // toward the adversarial mode the forest was fitted on.
    for (int pass = 0; pass < 3; ++pass)
        sess.detectBatch(trafficAt(w.ds.test, 0.5, 0xD37EC7 + pass), out);
    hub.sealWindow();
    const std::uint64_t eventsShifted = hub.driftEventCount();

    telemetry::ThresholdProposal prop{};
    const bool proposed = hub.proposeThreshold(prop, 0.5);

    // Word-wise fold of the two window hashes.
    const std::uint64_t h1 = hub.windowHash(1);
    const std::uint64_t h2 = hub.windowHash(2);
    std::uint64_t folded = 1469598103934665603ull;
    folded ^= h1;
    folded *= kFnvPrime;
    folded ^= h2;
    folded *= kFnvPrime;

    std::printf(
        "threads=%u simd=%s slots=%zu ref_records=%llu "
        "events_unshifted=%llu events_shifted=%llu proposed=%d "
        "proposed_threshold=%.6f window1_hash=%016llx "
        "window2_hash=%016llx full_hash=%016llx\n",
        globalPool().size(), simdModeName(), hub.numSlots(),
        static_cast<unsigned long long>(refRecords),
        static_cast<unsigned long long>(eventsUnshifted),
        static_cast<unsigned long long>(eventsShifted),
        proposed ? 1 : 0, prop.proposedThreshold,
        static_cast<unsigned long long>(h1),
        static_cast<unsigned long long>(h2),
        static_cast<unsigned long long>(folded));

    if (eventsUnshifted != 0) {
        std::fprintf(stderr,
                     "FAIL: unshifted window raised a drift event\n");
        return 1;
    }
    if (eventsShifted == 0) {
        std::fprintf(stderr,
                     "FAIL: shifted window raised no drift event\n");
        return 1;
    }
    if (!proposed) {
        std::fprintf(stderr,
                     "FAIL: no threshold proposal from sealed window\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string probe = argc == 2 ? argv[1] : "";
    if (probe == "train")
        return trainProbe();
    if (probe == "attack")
        return attackProbe();
    if (probe == "detect")
        return detectProbe();
    if (probe == "telemetry")
        return telemetryProbe();
    std::fprintf(stderr, "usage: %s <train|attack|detect|telemetry>\n",
                 argv[0]);
    return 2;
}
