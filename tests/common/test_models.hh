/**
 * @file
 * Shared test fixtures: a small trained CNN and dataset, built once per
 * test process. Integration tests (extraction, detector, attacks,
 * baselines) all need a model whose predictions are meaningful; training
 * happens lazily on first use and is reused by every suite.
 */

#ifndef PTOLEMY_TESTS_COMMON_TEST_MODELS_HH
#define PTOLEMY_TESTS_COMMON_TEST_MODELS_HH

#include <memory>
#include <vector>

#include "data/synthetic.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/init.hh"
#include "nn/linear.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"

namespace ptolemy::testing
{

/** Set @p conv's weights to successive @p gen() values, in storage
 *  order, through Conv2d::setWeights (which repacks the panels). */
template <typename Gen>
void
setConvWeights(nn::Conv2d &conv, Gen &&gen)
{
    std::vector<float> w(conv.weights().size());
    for (float &v : w)
        v = gen();
    conv.setWeights(w);
}

/** A small 4-weighted-layer CNN for 3x16x16 inputs. */
inline nn::Network
makeTinyNet(int num_classes)
{
    nn::Network net("TinyNet", nn::mapShape(3, 16, 16));
    net.add(std::make_unique<nn::Conv2d>("conv1", 3, 8, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu1"));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 2)); // 8x8
    net.add(std::make_unique<nn::Conv2d>("conv2", 8, 12, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu2"));
    net.add(std::make_unique<nn::MaxPool2d>("pool2", 2)); // 4x4
    net.add(std::make_unique<nn::Flatten>("flat"));
    net.add(std::make_unique<nn::Linear>("fc1", 12 * 4 * 4, 48));
    net.add(std::make_unique<nn::ReLU>("relu3"));
    net.add(std::make_unique<nn::Linear>("fc2", 48, num_classes));
    return net;
}

/** Trained model + data shared by integration tests. */
struct TrainedWorld
{
    data::SplitDataset dataset;
    nn::Network net;
    double testAccuracy = 0.0;

    TrainedWorld() : net(makeTinyNet(10))
    {
        // Sized so the statistical suites (baselines, detector AUC)
        // test real discrimination rather than chance-level noise: the
        // seed's 60/15-per-class split left DeepFense at AUC ~0.5 with
        // assertions that only held by luck. The longer, lower-LR
        // schedule converges to the same fully-trained model under the
        // AVX2 and scalar kernel numerics (the old 4x0.05 recipe
        // diverged outright in some regimes), and the parallel +
        // SIMD compute core keeps the bigger world's one-time training
        // cost in the old fixture's ballpark.
        data::DatasetSpec spec;
        spec.numClasses = 10;
        spec.trainPerClass = 110;
        spec.testPerClass = 30;
        spec.seed = 42;
        dataset = data::makeSyntheticDataset(spec);
        nn::heInit(net, 7);
        nn::TrainConfig tc;
        tc.epochs = 8;
        tc.learningRate = 0.02;
        nn::Trainer trainer(tc);
        trainer.train(net, dataset.train);
        testAccuracy = nn::Trainer::evaluate(net, dataset.test);
    }
};

/** Lazily-constructed singleton world. */
inline TrainedWorld &
world()
{
    static TrainedWorld w;
    return w;
}

} // namespace ptolemy::testing

#endif // PTOLEMY_TESTS_COMMON_TEST_MODELS_HH
