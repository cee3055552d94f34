/**
 * @file
 * Network graph tests: topology, recording, backward consistency,
 * serialization, and the model zoo's structural invariants.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/test_models.hh"
#include "models/zoo.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/init.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/network.hh"
#include "util/rng.hh"

namespace ptolemy::nn
{
namespace
{

Tensor
randomImage(std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(mapShape(3, 16, 16));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.uniform());
    return t;
}

Network
smallNet()
{
    Network net("small", mapShape(3, 16, 16));
    net.add(std::make_unique<Conv2d>("c1", 3, 4, 3, 1, 1));
    net.add(std::make_unique<ReLU>("r1"));
    net.add(std::make_unique<MaxPool2d>("p1", 2));
    net.add(std::make_unique<Flatten>("f"));
    net.add(std::make_unique<Linear>("fc", 4 * 8 * 8, 5));
    heInit(net, 17);
    return net;
}

TEST(Network, RecordsEveryNodeOutput)
{
    auto net = smallNet();
    auto rec = net.forward(randomImage(1));
    EXPECT_EQ(rec.outputs.size(), 5u);
    EXPECT_EQ(rec.logits().size(), 5u);
    EXPECT_LT(rec.predictedClass(), 5u);
}

TEST(Network, WeightedNodesInTopologicalOrder)
{
    auto net = smallNet();
    const auto &w = net.weightedNodes();
    ASSERT_EQ(w.size(), 2u);
    EXPECT_LT(w[0], w[1]);
    EXPECT_EQ(net.layerAt(w[0]).kind(), LayerKind::Conv);
    EXPECT_EQ(net.layerAt(w[1]).kind(), LayerKind::Linear);
}

TEST(Network, ConsumersOfInputAndNodes)
{
    auto net = smallNet();
    const auto input_consumers = net.consumersOf(-1);
    ASSERT_EQ(input_consumers.size(), 1u);
    EXPECT_EQ(input_consumers[0], 0);
    EXPECT_EQ(net.consumersOf(0), std::vector<int>{1});
}

TEST(Network, BackwardMatchesNumericalLossGradient)
{
    auto net = smallNet();
    const Tensor x = randomImage(2);
    const std::size_t label = 3;

    auto rec = net.forward(x);
    auto lg = softmaxCrossEntropy(rec.logits(), label);
    const Tensor analytic = net.backward(rec, lg.grad);

    // Spot-check a handful of input coordinates numerically.
    const float h = 1e-3f;
    Tensor xp = x;
    for (std::size_t i = 0; i < x.size(); i += 97) {
        xp[i] = x[i] + h;
        auto up = softmaxCrossEntropy(net.forward(xp).logits(), label).loss;
        xp[i] = x[i] - h;
        auto dn = softmaxCrossEntropy(net.forward(xp).logits(), label).loss;
        xp[i] = x[i];
        EXPECT_NEAR(analytic[i], (up - dn) / (2.0 * h), 5e-2)
            << "at " << i;
    }
}

TEST(Network, BackwardMultiWithLogitsSeedMatchesBackward)
{
    auto net = smallNet();
    const Tensor x = randomImage(3);
    auto rec = net.forward(x);
    Tensor seed(rec.logits().shape());
    seed[0] = 1.0f;
    seed[2] = -0.5f;

    const Tensor a = net.backward(rec, seed);
    const Tensor b =
        net.backwardMulti(rec, {{net.numNodes() - 1, seed}});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(Network, SaveLoadRoundtrip)
{
    auto net = smallNet();
    const Tensor x = randomImage(4);
    const auto logits_before = net.forward(x).logits();

    const std::string path = ::testing::TempDir() + "/net_roundtrip.bin";
    ASSERT_TRUE(net.save(path));

    auto net2 = smallNet(); // same arch, different init seed state
    heInit(net2, 999);
    ASSERT_TRUE(net2.load(path));
    const auto logits_after = net2.forward(x).logits();
    for (std::size_t i = 0; i < logits_before.size(); ++i)
        EXPECT_FLOAT_EQ(logits_before[i], logits_after[i]);
    std::remove(path.c_str());
}

TEST(Network, LoadRejectsArchitectureMismatch)
{
    auto net = smallNet();
    const std::string path = ::testing::TempDir() + "/net_mismatch.bin";
    ASSERT_TRUE(net.save(path));
    auto other = models::makeMiniAlexNet(10);
    EXPECT_FALSE(other.load(path));
    std::remove(path.c_str());
}

/** Every parameter and state byte of @p net, in file order. */
std::vector<float>
valueBytes(Network &net)
{
    std::vector<float> out;
    for (int id = 0; id < net.numNodes(); ++id) {
        for (auto p : net.layerAt(id).params())
            out.insert(out.end(), p.value->begin(), p.value->end());
        for (auto p : net.layerAt(id).state())
            out.insert(out.end(), p.value->begin(), p.value->end());
    }
    return out;
}

TEST(Network, LoadIsAllOrNothing)
{
    // A file that fails to parse anywhere — truncated mid-buffer, or
    // declaring the wrong buffer count — must leave every parameter
    // and state value, and hence the forward, exactly as it was.
    auto make = [](std::uint64_t seed) {
        Network net("norm", mapShape(3, 8, 8));
        net.add(std::make_unique<Conv2d>("c1", 3, 4, 3, 1, 1));
        net.add(std::make_unique<Norm2d>("n1", 4));
        net.add(std::make_unique<ReLU>("r1"));
        net.add(std::make_unique<Flatten>("f"));
        net.add(std::make_unique<Linear>("fc", 4 * 8 * 8, 5));
        heInit(net, seed);
        return net;
    };
    auto src = make(3);
    const Tensor x = [] {
        Rng rng(8);
        Tensor t(mapShape(3, 8, 8));
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<float>(rng.uniform());
        return t;
    }();
    // Distinct running statistics, so a leaked state buffer shows.
    for (int i = 0; i < 3; ++i)
        src.forward(x, /*train=*/true);
    const std::string path = ::testing::TempDir() + "/net_partial.bin";
    ASSERT_TRUE(src.save(path));
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is), {});
    }
    const std::size_t nbufs_at = 8 + src.signature().size();
    std::uint64_t nbufs;
    std::memcpy(&nbufs, bytes.data() + nbufs_at, sizeof nbufs);
    ASSERT_EQ(nbufs, 8u); // conv w/b, norm gamma/beta + mean/var, fc w/b

    std::vector<std::string> bad;
    for (std::size_t cut : {nbufs_at + 8 + 4, bytes.size() / 2,
                            bytes.size() - 4, bytes.size() - 1})
        bad.push_back(bytes.substr(0, cut));
    for (std::uint64_t n : {nbufs - 1, nbufs + 1}) {
        bad.push_back(bytes);
        std::memcpy(bad.back().data() + nbufs_at, &n, sizeof n);
    }

    auto dst = make(99);
    const std::vector<float> before = valueBytes(dst);
    const Tensor logits_before = dst.forward(x).logits();
    for (std::size_t b = 0; b < bad.size(); ++b) {
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os.write(bad[b].data(), static_cast<std::streamsize>(
                                        bad[b].size()));
        }
        EXPECT_FALSE(dst.load(path)) << "bad file " << b;
        const std::vector<float> after = valueBytes(dst);
        ASSERT_EQ(before.size(), after.size());
        EXPECT_EQ(0, std::memcmp(before.data(), after.data(),
                                 before.size() * sizeof(float)))
            << "bad file " << b;
        const Tensor logits = dst.forward(x).logits();
        EXPECT_EQ(0, std::memcmp(logits_before.data(), logits.data(),
                                 logits.size() * sizeof(float)))
            << "bad file " << b;
    }
    // The intact file still loads, and takes effect.
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    ASSERT_TRUE(dst.load(path));
    EXPECT_EQ(valueBytes(dst), valueBytes(src));
    std::remove(path.c_str());
}

TEST(Network, MisShapedInputThrows)
{
    // The conv and fc kernels trust the declared shapes, so every
    // forward entry point must refuse a mis-shaped tensor in every build
    // (not only where assert is live) before a layer reads past it.
    Network net = testing::makeTinyNet(10);
    heInit(net, 5);
    Network::Record rec;
    Network::GradArena slot;
    for (const Shape &s : {mapShape(1, 16, 16), mapShape(3, 8, 8),
                           mapShape(3, 16, 17), mapShape(4, 16, 16)}) {
        const Tensor x(s);
        EXPECT_THROW(net.forward(x), std::invalid_argument);
        EXPECT_THROW(net.forwardInto(x, rec, /*train=*/true),
                     std::invalid_argument);
        EXPECT_THROW(net.forwardInto(x, rec, false, slot),
                     std::invalid_argument);
        EXPECT_THROW(net.inferInto(x, rec), std::invalid_argument);
        std::vector<Network::Record> recs;
        EXPECT_THROW(net.forwardBatch(std::vector<Tensor>{x, x}, recs),
                     std::invalid_argument);
    }
    // The right shape still runs, through the same scratch.
    const Tensor x = randomImage(4);
    net.inferInto(x, rec);
    EXPECT_EQ(net.forward(x).logits().size(), 10u);
}

TEST(Network, NumParamsCountsEverything)
{
    Network net("p", mapShape(1, 4, 4));
    net.add(std::make_unique<Conv2d>("c", 1, 2, 3, 1, 1)); // 18 + 2
    net.add(std::make_unique<Flatten>("f"));
    net.add(std::make_unique<Linear>("l", 32, 3)); // 96 + 3
    EXPECT_EQ(net.numParams(), 18u + 2 + 96 + 3);
}

// ------------------------------------------------------------- model zoo --

struct ZooCase
{
    const char *name;
    int expectedWeighted;
};

class ModelZoo : public ::testing::TestWithParam<ZooCase>
{
};

TEST_P(ModelZoo, BuildsAndRuns)
{
    auto net = models::makeByName(GetParam().name, 10);
    heInit(net, 5);
    EXPECT_EQ(static_cast<int>(net.weightedNodes().size()),
              GetParam().expectedWeighted);
    auto rec = net.forward(randomImage(6));
    EXPECT_EQ(rec.logits().size(), 10u);
    // Gradients flow end-to-end.
    auto lg = softmaxCrossEntropy(rec.logits(), 0);
    const Tensor g = net.backward(rec, lg.grad);
    double mag = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i)
        mag += std::abs(g[i]);
    EXPECT_GT(mag, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelZoo,
    ::testing::Values(ZooCase{"alexnet", 8}, ZooCase{"resnet18", 18},
                      ZooCase{"resnet26", 26}, ZooCase{"vgg16", 16},
                      ZooCase{"inception", 6}, ZooCase{"densenet", 7}),
    [](const ::testing::TestParamInfo<ZooCase> &info) {
        return info.param.name;
    });

TEST(ModelZoo, UnknownNameThrows)
{
    EXPECT_THROW(models::makeByName("nope", 10), std::invalid_argument);
}

TEST(Misuse, LinearRejectsInputOfOtherSize)
{
    // A Flatten of 8x8x8 = 512 values into Linear(400, 10) would read
    // 400 of them; Network::add refuses it in every build.
    Network net("fc", mapShape(8, 8, 8));
    net.add(std::make_unique<Flatten>("flat"));
    EXPECT_THROW(net.add(std::make_unique<Linear>("fc1", 400, 10)),
                 std::invalid_argument);
    EXPECT_THROW(net.add(std::make_unique<Linear>("fc1", 513, 10)),
                 std::invalid_argument);
    EXPECT_NO_THROW(net.add(std::make_unique<Linear>("fc1", 512, 10)));
}

TEST(Misuse, MaxPoolRejectsMapNotDivisibleByWindow)
{
    // A 15 x 15 map into a 2 x 2 pool would floor to 7 x 7.
    Network odd("pool", mapShape(4, 15, 15));
    EXPECT_THROW(odd.add(std::make_unique<MaxPool2d>("pool", 2)),
                 std::invalid_argument);
    Network tall("pool", mapShape(4, 16, 15));
    EXPECT_THROW(tall.add(std::make_unique<MaxPool2d>("pool", 2)),
                 std::invalid_argument);
    Network even("pool", mapShape(4, 16, 16));
    EXPECT_NO_THROW(even.add(std::make_unique<MaxPool2d>("pool", 2)));
    Network three("pool", mapShape(4, 15, 15));
    EXPECT_NO_THROW(three.add(std::make_unique<MaxPool2d>("pool", 3)));
}

TEST(Misuse, ConvRejectsInputOfOtherChannelCount)
{
    // A 3-channel input into a 4-channel conv would read past it; a
    // kernel larger than the padded input has no output position.
    Network net("conv", mapShape(3, 8, 8));
    EXPECT_THROW(net.add(std::make_unique<Conv2d>("c", 4, 8, 3, 1, 1)),
                 std::invalid_argument);
    EXPECT_THROW(net.add(std::make_unique<Conv2d>("c", 2, 8, 3, 1, 1)),
                 std::invalid_argument);
    EXPECT_THROW(net.add(std::make_unique<Conv2d>("c", 3, 8, 11, 1, 1)),
                 std::invalid_argument);
    EXPECT_NO_THROW(net.add(std::make_unique<Conv2d>("c", 3, 8, 3, 1, 1)));
}

TEST(Misuse, NetworkAddRejectsMismatchedMergesAndWiring)
{
    // The merge, norm and downsample layers check their input shapes
    // at Network::add too, and so does the wiring itself.
    Network net("dag", mapShape(4, 6, 6));
    const int a = net.add(std::make_unique<Conv2d>("a", 4, 8, 3, 1, 1));
    const int b = net.add(std::make_unique<Conv2d>("b", 8, 8, 3, 2, 1), {a});
    EXPECT_THROW(net.add(std::make_unique<Add>("add"), {a, b}),
                 std::invalid_argument);
    EXPECT_THROW(net.add(std::make_unique<Concat>("cat"), {a, b}),
                 std::invalid_argument);
    EXPECT_THROW(net.add(std::make_unique<Norm2d>("norm", 4), {a}),
                 std::invalid_argument);
    EXPECT_THROW(net.add(std::make_unique<Add>("add"), {a}),
                 std::invalid_argument);
    EXPECT_THROW(net.add(std::make_unique<ReLU>("relu"), {b + 1}),
                 std::invalid_argument);
    EXPECT_THROW(net.add(std::make_unique<ReLU>("relu"), {-2}),
                 std::invalid_argument);
    Network odd("odd", mapShape(4, 5, 5));
    EXPECT_THROW(odd.add(std::make_unique<DownsamplePad>("down")),
                 std::invalid_argument);
    EXPECT_NO_THROW(net.add(std::make_unique<Add>("add"), {a, a}));
}

} // namespace
} // namespace ptolemy::nn
