/**
 * @file
 * Detection-determinism probe for CI: trains a small CNN on synthetic
 * data, builds a fitted DetectorModel (class paths + forest), then
 * serves a batch of mixed clean/perturbed inputs through the fused
 * DetectorSession::detectBatch on the process-wide pool and prints an
 * FNV-1a hash of every Decision (score bits, predicted class, verdict,
 * per-layer features). Running it under different PTOLEMY_NUM_THREADS
 * values must print the same hash — the serving API's bit-identity
 * contract (Decisions depend only on the input, never on batch
 * composition, slot scheduling or thread count).
 *
 * Two hashes are printed:
 *  - batch_hash: decisions from one fused detectBatch over the pool.
 *  - full_hash: batch_hash folded with a sequential session.detect
 *    pass and a save->load->detect round trip over a second model, so
 *    the persisted artifacts provably serve bit-identically too.
 *
 * Exit status: 0 on success, 1 if the save->load round trip fails
 * (persistence breakage is thread-count-independent, so the CI hash
 * diff alone would not catch it). The hash comparison happens in CI
 * (hashes of the 1-thread run vs the 2-thread run).
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/detector_model.hh"
#include "core/detector_session.hh"
#include "data/synthetic.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/init.hh"
#include "nn/linear.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace ptolemy;

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

nn::Network
makeProbeNet()
{
    nn::Network net("detect_probe", nn::mapShape(3, 16, 16));
    net.add(std::make_unique<nn::Conv2d>("conv1", 3, 8, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu1"));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 2)); // 8x8
    net.add(std::make_unique<nn::Conv2d>("conv2", 8, 12, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu2"));
    net.add(std::make_unique<nn::MaxPool2d>("pool2", 2)); // 4x4
    net.add(std::make_unique<nn::Flatten>("flat"));
    net.add(std::make_unique<nn::Linear>("fc", 12 * 4 * 4, 10));
    return net;
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

} // namespace

int
main()
{
    data::DatasetSpec spec;
    spec.numClasses = 10;
    spec.trainPerClass = 20;
    spec.testPerClass = 4;
    spec.seed = 42;
    const auto ds = data::makeSyntheticDataset(spec);

    auto net = makeProbeNet();
    nn::heInit(net, 7);
    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.learningRate = 0.02;
    nn::Trainer trainer(tc);
    trainer.train(net, ds.train);

    // Offline phase.
    core::DetectorBuilder bld(
        net,
        path::ExtractionConfig::bwCu(
            static_cast<int>(net.weightedNodes().size()), 0.5),
        spec.numClasses);
    bld.profileClassPaths(ds.train, /*max_per_class=*/12);
    {
        Rng rng(0x51AB);
        std::vector<nn::Tensor> clean, noisy;
        for (const auto &s : ds.test) {
            clean.push_back(s.input);
            nn::Tensor x = s.input;
            for (std::size_t e = 0; e < x.size(); ++e)
                x[e] += static_cast<float>(rng.uniform(-0.1, 0.1));
            noisy.push_back(std::move(x));
        }
        classify::FeatureMatrix benign, adversarial;
        bld.featuresBatch(clean, benign);
        bld.featuresBatch(noisy, adversarial);
        bld.fitClassifier(benign, adversarial);
    }
    const core::DetectorModel model = std::move(bld).build();

    // Serving inputs: every test sample plus a perturbed copy.
    Rng rng(0xD37EC7);
    std::vector<nn::Tensor> inputs;
    for (const auto &s : ds.test) {
        inputs.push_back(s.input);
        nn::Tensor x = s.input;
        for (std::size_t e = 0; e < x.size(); ++e)
            x[e] += static_cast<float>(rng.uniform(-0.08, 0.08));
        inputs.push_back(std::move(x));
    }

    core::DetectorSession sess(model);
    std::vector<core::Decision> batch;
    sess.detectBatch(inputs, batch); // process-wide pool
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = hashDecisions(h, batch);
    const std::uint64_t batch_hash = h;

    // Sequential pass through the same session.
    std::vector<core::Decision> serial;
    for (const auto &x : inputs)
        serial.push_back(sess.detect(x));
    h = hashDecisions(h, serial);

    // Persistence round trip: the loaded model must serve identically.
    const char *path = "detect_determinism.model";
    std::uint64_t roundtrip_ok = 0;
    if (model.save(path)) {
        core::DetectorModel loaded(
            net,
            path::ExtractionConfig::bwCu(
                static_cast<int>(net.weightedNodes().size()), 0.5),
            spec.numClasses);
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

    std::printf("threads=%u roundtrip=%llu batch_hash=%016llx "
                "full_hash=%016llx\n",
                globalPool().size(),
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
