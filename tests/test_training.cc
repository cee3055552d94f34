/**
 * @file
 * End-to-end training tests: the substrate must be able to fit the
 * synthetic data (the whole reproduction depends on trained models whose
 * class paths are meaningful).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "common/test_models.hh"
#include "nn/loss.hh"
#include "util/thread_pool.hh"

namespace ptolemy
{
namespace
{

/** Bit-exact snapshot of every trainable parameter. */
std::vector<std::vector<float>>
paramSnapshot(nn::Network &net)
{
    std::vector<std::vector<float>> out;
    for (auto p : net.params())
        out.emplace_back(p.value->begin(), p.value->end());
    return out;
}

/** Bit-exact snapshot of every non-trainable state buffer. */
std::vector<std::vector<float>>
stateSnapshot(nn::Network &net)
{
    std::vector<std::vector<float>> out;
    for (int id = 0; id < net.numNodes(); ++id)
        for (auto p : net.layerAt(id).state())
            out.emplace_back(p.value->begin(), p.value->end());
    return out;
}

void
expectBitIdentical(const std::vector<std::vector<float>> &a,
                   const std::vector<std::vector<float>> &b,
                   const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].size(), b[i].size()) << what << " buf " << i;
        ASSERT_EQ(0, std::memcmp(a[i].data(), b[i].data(),
                                 a[i].size() * sizeof(float)))
            << what << " buf " << i << " differs";
    }
}

/** Tiny net with a Norm2d layer: exercises the deferred-stat path. */
nn::Network
makeNormNet(int num_classes)
{
    nn::Network net("NormNet", nn::mapShape(3, 16, 16));
    net.add(std::make_unique<nn::Conv2d>("conv1", 3, 6, 3, 1, 1));
    net.add(std::make_unique<nn::Norm2d>("norm1", 6));
    net.add(std::make_unique<nn::ReLU>("relu1"));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 4)); // 4x4
    net.add(std::make_unique<nn::Flatten>("flat"));
    net.add(std::make_unique<nn::Linear>("fc", 6 * 4 * 4, num_classes));
    return net;
}

TEST(Loss, SoftmaxSumsToOne)
{
    nn::Tensor logits(nn::flatShape(4), {1.0f, 2.0f, 3.0f, 4.0f});
    const auto p = nn::softmax(logits);
    double sum = 0.0;
    for (double v : p)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(p[3], p[0]);
}

TEST(Loss, CrossEntropyGradientSignsPushTowardLabel)
{
    nn::Tensor logits(nn::flatShape(3), {0.0f, 0.0f, 0.0f});
    const auto lg = nn::softmaxCrossEntropy(logits, 1);
    EXPECT_NEAR(lg.loss, std::log(3.0), 1e-6);
    EXPECT_LT(lg.grad[1], 0.0f); // increase the true-class logit
    EXPECT_GT(lg.grad[0], 0.0f);
    EXPECT_GT(lg.grad[2], 0.0f);
    float sum = lg.grad[0] + lg.grad[1] + lg.grad[2];
    EXPECT_NEAR(sum, 0.0f, 1e-6);
}

TEST(Training, LossDecreasesAndTestAccuracyIsHigh)
{
    auto &w = testing::world();
    // The shared tiny CNN must clearly learn the 10-class problem.
    EXPECT_GT(w.testAccuracy, 0.85) << "tiny model failed to train";
}

TEST(Training, TrainedModelBeatsChanceOnEveryClass)
{
    auto &w = testing::world();
    std::vector<int> correct(10, 0), total(10, 0);
    for (const auto &s : w.dataset.test) {
        ++total[s.label];
        if (w.net.predict(s.input) == s.label)
            ++correct[s.label];
    }
    for (int c = 0; c < 10; ++c) {
        ASSERT_GT(total[c], 0);
        EXPECT_GT(static_cast<double>(correct[c]) / total[c], 0.4)
            << "class " << c;
    }
}

TEST(Training, EpochStatsImprove)
{
    // Train a fresh copy for two epochs and check the loss trajectory.
    auto net = testing::makeTinyNet(10);
    nn::heInit(net, 21);
    data::DatasetSpec spec;
    spec.trainPerClass = 30;
    spec.testPerClass = 5;
    const auto ds = data::makeSyntheticDataset(spec);
    nn::TrainConfig tc;
    tc.epochs = 2;
    nn::Trainer trainer(tc);
    const auto hist = trainer.train(net, ds.train);
    ASSERT_EQ(hist.size(), 2u);
    EXPECT_LT(hist[1].avgLoss, hist[0].avgLoss);
    EXPECT_GT(hist[1].trainAccuracy, hist[0].trainAccuracy);
}

TEST(Training, EvaluateOnEmptyDatasetIsZero)
{
    auto net = testing::makeTinyNet(10);
    EXPECT_DOUBLE_EQ(nn::Trainer::evaluate(net, {}), 0.0);
}

TEST(Training, TrainOnEmptyDatasetIsANoOp)
{
    auto net = testing::makeTinyNet(10);
    nn::heInit(net, 3);
    const auto before = paramSnapshot(net);
    nn::Trainer trainer;
    const auto hist = trainer.train(net, {});
    EXPECT_TRUE(hist.empty());
    expectBitIdentical(before, paramSnapshot(net), "params");
}

TEST(Training, WeightsBitIdenticalAcrossThreadCounts)
{
    // The data-parallel trainer's determinism contract: gradient lanes
    // and reductions are keyed to sample positions, never to threads,
    // so {1, 2, 8}-thread pools must train to bit-identical weights.
    data::DatasetSpec spec;
    spec.numClasses = 4;
    spec.trainPerClass = 12;
    spec.testPerClass = 1;
    spec.seed = 91;
    const auto ds = data::makeSyntheticDataset(spec);

    std::vector<std::vector<std::vector<float>>> results;
    std::vector<std::vector<nn::EpochStats>> stats;
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        auto net = testing::makeTinyNet(4);
        nn::heInit(net, 5);
        nn::TrainConfig tc;
        tc.epochs = 2;
        tc.batchSize = 8;
        tc.pool = &pool;
        nn::Trainer trainer(tc);
        stats.push_back(trainer.train(net, ds.train));
        results.push_back(paramSnapshot(net));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        expectBitIdentical(results[0], results[i], "trained params");
        ASSERT_EQ(stats[0].size(), stats[i].size());
        for (std::size_t e = 0; e < stats[0].size(); ++e) {
            EXPECT_DOUBLE_EQ(stats[0][e].avgLoss, stats[i][e].avgLoss);
            EXPECT_DOUBLE_EQ(stats[0][e].trainAccuracy,
                             stats[i][e].trainAccuracy);
        }
    }
}

TEST(Training, NormRunningStatsBitIdenticalAcrossThreadCounts)
{
    // Norm2d's deferred EMA updates fold in sample order regardless of
    // which thread computed each sample's moments.
    data::DatasetSpec spec;
    spec.numClasses = 4;
    spec.trainPerClass = 10;
    spec.testPerClass = 1;
    spec.seed = 92;
    const auto ds = data::makeSyntheticDataset(spec);

    std::vector<std::vector<std::vector<float>>> weights, states;
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        auto net = makeNormNet(4);
        nn::heInit(net, 6);
        nn::TrainConfig tc;
        tc.epochs = 2;
        tc.batchSize = 8;
        tc.pool = &pool;
        nn::Trainer trainer(tc);
        trainer.train(net, ds.train);
        weights.push_back(paramSnapshot(net));
        states.push_back(stateSnapshot(net));
    }
    ASSERT_FALSE(states[0].empty()); // the net really has running stats
    for (std::size_t i = 1; i < weights.size(); ++i) {
        expectBitIdentical(weights[0], weights[i], "trained params");
        expectBitIdentical(states[0], states[i], "running stats");
    }
}

TEST(Training, SingleStreamTrainForwardFoldsNormStats)
{
    // A hand-rolled loop using the single-stream Network API must keep
    // the pre-refactor streaming semantics: forwardInto(train=true)
    // folds the Norm running-stat update immediately.
    auto net = makeNormNet(4);
    nn::heInit(net, 8);
    const auto before = stateSnapshot(net);
    ASSERT_FALSE(before.empty());
    nn::Network::Record rec;
    nn::Tensor x(net.inputShape());
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 0.5f + 0.01f * static_cast<float>(i % 7);
    net.forwardInto(x, rec, /*train=*/true);
    const auto after = stateSnapshot(net);
    bool moved = false;
    for (std::size_t b = 0; b < after.size() && !moved; ++b)
        for (std::size_t i = 0; i < after[b].size() && !moved; ++i)
            moved = after[b][i] != before[b][i];
    EXPECT_TRUE(moved) << "train-mode forward left running stats frozen";
}

TEST(Training, NormNetLearns)
{
    // The deferred-stat path must still fit data, and training must
    // actually move the running statistics off their init values.
    data::DatasetSpec spec;
    spec.numClasses = 4;
    spec.trainPerClass = 20;
    spec.testPerClass = 5;
    spec.seed = 93;
    const auto ds = data::makeSyntheticDataset(spec);
    auto net = makeNormNet(4);
    nn::heInit(net, 7);
    const auto state_before = stateSnapshot(net);
    nn::TrainConfig tc;
    tc.epochs = 4;
    nn::Trainer trainer(tc);
    const auto hist = trainer.train(net, ds.train);
    EXPECT_LT(hist.back().avgLoss, hist.front().avgLoss);
    EXPECT_GT(nn::Trainer::evaluate(net, ds.test), 0.5);
    const auto state_after = stateSnapshot(net);
    bool moved = false;
    for (std::size_t b = 0; b < state_after.size() && !moved; ++b)
        for (std::size_t i = 0; i < state_after[b].size() && !moved; ++i)
            moved = state_after[b][i] != state_before[b][i];
    EXPECT_TRUE(moved) << "running stats never updated";
}

} // namespace
} // namespace ptolemy
