/**
 * @file
 * Layer forward correctness (including the paper's Fig. 3 worked example)
 * and backward numerical gradient checks.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/test_models.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "util/rng.hh"

namespace ptolemy::nn
{
namespace
{

/** loss = sum(weight_i * out_i); returns analytic dLoss/dInput. */
Tensor
analyticInputGrad(Layer &layer, const Tensor &x, const Tensor &loss_w)
{
    auto out = layer.forward({&x}, false);
    EXPECT_EQ(out.size(), loss_w.size());
    auto grads = layer.backward({&x}, loss_w);
    return grads[0];
}

/** Central-difference dLoss/dInput for the same loss. */
Tensor
numericInputGrad(Layer &layer, const Tensor &x, const Tensor &loss_w,
                 float h = 1e-3f)
{
    Tensor g(x.shape());
    Tensor xp = x;
    for (std::size_t i = 0; i < x.size(); ++i) {
        xp[i] = x[i] + h;
        auto up = layer.forward({&xp}, false);
        xp[i] = x[i] - h;
        auto dn = layer.forward({&xp}, false);
        xp[i] = x[i];
        double lp = 0.0, ln = 0.0;
        for (std::size_t o = 0; o < up.size(); ++o) {
            lp += static_cast<double>(loss_w[o]) * up[o];
            ln += static_cast<double>(loss_w[o]) * dn[o];
        }
        g[i] = static_cast<float>((lp - ln) / (2.0 * h));
    }
    return g;
}

void
expectGradsClose(const Tensor &a, const Tensor &b, float tol = 2e-2f)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], tol) << "at index " << i;
}

Tensor
randomTensor(Shape s, std::uint64_t seed, double scale = 1.0)
{
    Rng rng(seed);
    Tensor t(s);
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.gaussian(0.0, scale));
    return t;
}

// ---------------------------------------------------------------------------

TEST(LinearLayer, ForwardMatchesManualDotProduct)
{
    Linear lin("fc", 3, 2);
    lin.weights() = {1.0f, 2.0f, 3.0f, /*row1*/ -1.0f, 0.5f, 0.0f};
    lin.biases() = {0.5f, -0.5f};
    Tensor x(flatShape(3), {1.0f, 1.0f, 2.0f});
    auto y = lin.forward({&x}, false);
    EXPECT_FLOAT_EQ(y[0], 1.0f + 2.0f + 6.0f + 0.5f);
    EXPECT_FLOAT_EQ(y[1], -1.0f + 0.5f + 0.0f - 0.5f);
}

TEST(LinearLayer, PartialSumsMatchPaperFig3FcExample)
{
    // Paper Fig. 3 (left): inputs produce partial sums
    // 0.1*2.1, 1.0*0.09, 0.4*0.2, 0.3*0.2, 0.2*0.1 summing to 0.46.
    Linear lin("fc", 5, 1);
    lin.weights() = {2.1f, 0.09f, 0.2f, 0.2f, 0.1f};
    lin.biases() = {0.0f};
    Tensor x(flatShape(5), {0.1f, 1.0f, 0.4f, 0.3f, 0.2f});
    auto y = lin.forward({&x}, false);
    EXPECT_NEAR(y[0], 0.46f, 1e-6);

    PsumRow ps;
    lin.partialSums(x, 0, ps);
    ASSERT_EQ(ps.size(), 5u);
    EXPECT_NEAR(ps.value[0], 0.21f, 1e-6);
    EXPECT_NEAR(ps.value[1], 0.09f, 1e-6);
    double total = 0.0;
    for (float v : ps.value)
        total += v;
    EXPECT_NEAR(total, 0.46, 1e-6);
}

TEST(LinearLayer, BackwardNumericalGradient)
{
    Linear lin("fc", 6, 4);
    Rng rng(3);
    for (auto &w : lin.weights())
        w = static_cast<float>(rng.gaussian(0.0, 0.5));
    const Tensor x = randomTensor(flatShape(6), 10);
    const Tensor lw = randomTensor(flatShape(4), 11);
    expectGradsClose(analyticInputGrad(lin, x, lw),
                     numericInputGrad(lin, x, lw));
}

TEST(ConvLayer, ForwardIdentityKernel)
{
    // 1x1 kernel with weight 1 and zero bias must copy the input.
    Conv2d conv("c", 1, 1, 1, 1, 0);
    conv.setWeights(std::vector<float>{1.0f});
    Tensor x = randomTensor(mapShape(1, 4, 4), 5);
    auto y = conv.forward({&x}, false);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(ConvLayer, OutputShapeWithStrideAndPad)
{
    Conv2d conv("c", 3, 8, 3, 2, 1);
    const Shape out = conv.outputShape({mapShape(3, 16, 16)});
    EXPECT_EQ(out.c, 8);
    EXPECT_EQ(out.h, 8);
    EXPECT_EQ(out.w, 8);
}

TEST(ConvLayer, PartialSumsSumToOutputMinusBias)
{
    Conv2d conv("c", 2, 3, 3, 1, 1);
    Rng rng(8);
    testing::setConvWeights(
        conv, [&] { return static_cast<float>(rng.gaussian(0.0, 0.5)); });
    conv.biases() = {0.1f, -0.2f, 0.3f};
    const Tensor x = randomTensor(mapShape(2, 5, 5), 21);
    auto y = conv.forward({&x}, false);

    PsumRow ps;
    for (std::size_t o = 0; o < y.size(); o += 7) {
        conv.partialSums(x, o, ps);
        double total = 0.0;
        for (float v : ps.value)
            total += v;
        const int oc = static_cast<int>(o / (5 * 5));
        EXPECT_NEAR(total, y[o] - conv.biases()[oc], 1e-4);
    }
}

TEST(ConvLayer, ReceptiveFieldSizeInterior)
{
    Conv2d conv("c", 4, 2, 3, 1, 1);
    EXPECT_EQ(conv.receptiveFieldSize(), 4u * 3 * 3);
}

TEST(ConvLayer, BackwardNumericalGradient)
{
    Conv2d conv("c", 2, 3, 3, 1, 1);
    Rng rng(4);
    testing::setConvWeights(
        conv, [&] { return static_cast<float>(rng.gaussian(0.0, 0.5)); });
    const Tensor x = randomTensor(mapShape(2, 4, 4), 12);
    const Tensor lw = randomTensor(mapShape(3, 4, 4), 13);
    expectGradsClose(analyticInputGrad(conv, x, lw),
                     numericInputGrad(conv, x, lw));
}

TEST(ConvLayer, StridedBackwardNumericalGradient)
{
    Conv2d conv("c", 2, 2, 3, 2, 1);
    Rng rng(6);
    testing::setConvWeights(
        conv, [&] { return static_cast<float>(rng.gaussian(0.0, 0.5)); });
    const Tensor x = randomTensor(mapShape(2, 6, 6), 14);
    const Tensor lw = randomTensor(mapShape(2, 3, 3), 15);
    expectGradsClose(analyticInputGrad(conv, x, lw),
                     numericInputGrad(conv, x, lw));
}

TEST(ReLULayer, ForwardAndMaskedBackward)
{
    ReLU relu("r");
    Tensor x(flatShape(4), {-1.0f, 2.0f, 0.0f, 3.0f});
    auto y = relu.forward({&x}, false);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 2.0f);
    EXPECT_FLOAT_EQ(y[3], 3.0f);
    Tensor g(flatShape(4), {1.0f, 1.0f, 1.0f, 1.0f});
    auto gi = relu.backward({&x}, g);
    EXPECT_FLOAT_EQ(gi[0][0], 0.0f);
    EXPECT_FLOAT_EQ(gi[0][1], 1.0f);
    EXPECT_FLOAT_EQ(gi[0][2], 0.0f);
}

TEST(MaxPoolLayer, ForwardPicksWindowMax)
{
    MaxPool2d pool("p", 2);
    Tensor x(mapShape(1, 2, 2), {1.0f, 4.0f, 3.0f, 2.0f});
    auto y = pool.forward({&x}, false);
    ASSERT_EQ(y.size(), 1u);
    EXPECT_FLOAT_EQ(y[0], 4.0f);
}

TEST(MaxPoolLayer, BackwardRoutesToArgmax)
{
    MaxPool2d pool("p", 2);
    Tensor x(mapShape(1, 2, 2), {1.0f, 4.0f, 3.0f, 2.0f});
    pool.forward({&x}, false);
    Tensor g(mapShape(1, 1, 1), {2.5f});
    auto gi = pool.backward({&x}, g);
    EXPECT_FLOAT_EQ(gi[0][1], 2.5f);
    EXPECT_FLOAT_EQ(gi[0][0], 0.0f);
    EXPECT_FLOAT_EQ(gi[0][2], 0.0f);
}

TEST(MaxPoolLayer, BackmapFindsWinner)
{
    MaxPool2d pool("p", 2);
    Tensor x(mapShape(1, 2, 2), {1.0f, 4.0f, 3.0f, 2.0f});
    auto y = pool.forward({&x}, false);
    std::vector<std::vector<std::size_t>> per_input;
    pool.backmapImportant({&x}, y, std::vector<std::size_t>{0}, per_input);
    ASSERT_EQ(per_input.size(), 1u);
    ASSERT_EQ(per_input[0].size(), 1u);
    EXPECT_EQ(per_input[0][0], 1u);
}

TEST(MaxPoolLayer, SentinelFreeWindowsStayInside)
{
    // Windows whose values all sit at or below -1e30, or are all NaN,
    // must neither invent a -1e30 output nor route their gradient and
    // important-input index to element 0 of the tensor: the second
    // window of each row starts at a nonzero flat index.
    MaxPool2d pool("p", 2);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    // Windows: (1) finite below -1e30, max -2e38 at flat index 1;
    // (2) all NaN, first index 2; (3) all -Inf, first index 8;
    // (4) ordinary, max 5 at flat index 15.
    Tensor x(mapShape(1, 4, 4),
             {-3e38f, -2e38f, nan,  nan, //
              -3e38f, -3e38f, nan,  nan, //
              -inf,   -inf,   1.0f, 2.0f, //
              -inf,   -inf,   3.0f, 5.0f});
    auto y = pool.forward({&x}, false);
    ASSERT_EQ(y.size(), 4u);
    EXPECT_EQ(y[0], -2e38f);
    EXPECT_EQ(y[1], -inf); // NaN taps never beat the -Inf start
    EXPECT_EQ(y[2], -inf);
    EXPECT_EQ(y[3], 5.0f);

    Tensor g(mapShape(1, 2, 2), {1.0f, 2.0f, 3.0f, 4.0f});
    auto gi = pool.backward({&x}, g);
    std::vector<float> want(16, 0.0f);
    want[1] = 1.0f;  // argmax of window 1
    want[2] = 2.0f;  // all-NaN window: its own first element
    want[8] = 3.0f;  // all -Inf window: its own first element
    want[15] = 4.0f;
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(gi[0][i], want[i]) << "input " << i;

    std::vector<std::vector<std::size_t>> per_input;
    pool.backmapImportant({&x}, y, std::vector<std::size_t>{0, 1, 2, 3},
                          per_input);
    ASSERT_EQ(per_input.size(), 1u);
    EXPECT_EQ(per_input[0], (std::vector<std::size_t>{1, 2, 8, 15}));
}

TEST(MaxPoolLayer, BranchlessForwardMatchesBranchyOracle)
{
    // The forward's branchless running max must reproduce, bit for bit,
    // the branchy scan it replaced: first maximum in (ky, kx) order,
    // NaN taps skipped, -0.0 vs +0.0 ties resolved to the earlier tap,
    // and odd extents floored.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const auto expectMatchesOracle = [inf](const Tensor &x, int k) {
        MaxPool2d pool("p", k);
        Tensor y;
        pool.forwardInto({&x}, y, false);
        const int oh = x.shape().h / k, ow = x.shape().w / k;
        ASSERT_EQ(y.shape(), mapShape(x.shape().c, oh, ow));
        for (int ch = 0; ch < x.shape().c; ++ch) {
            for (int oy = 0; oy < oh; ++oy) {
                for (int ox = 0; ox < ow; ++ox) {
                    float best = -inf; // the oracle: branchy scan
                    for (int ky = 0; ky < k; ++ky) {
                        for (int kx = 0; kx < k; ++kx) {
                            const float v =
                                x.at(ch, oy * k + ky, ox * k + kx);
                            if (v > best)
                                best = v;
                        }
                    }
                    const float got = y.at(ch, oy, ox);
                    ASSERT_EQ(0, std::memcmp(&got, &best, sizeof(float)))
                        << "c=" << ch << " oy=" << oy << " ox=" << ox
                        << " got " << got << " want " << best;
                }
            }
        }
    };

    // 2x2 windows, taps in scan order, that a `>=` or a NaN-propagating
    // max would resolve differently: signed-zero ties both ways, NaN
    // before and after numbers, all NaN, -Inf with NaN, +Inf with NaN.
    const float crafted[][4] = {
        {0.0f, -1.0f, -1.0f, -0.0f}, {-0.0f, -1.0f, -1.0f, 0.0f},
        {nan, 1.0f, nan, 2.0f},     {nan, nan, nan, nan},
        {-inf, nan, -inf, nan},     {3.0f, nan, 3.0f, -0.0f},
        {-1e30f, -inf, -3e38f, nan}, {inf, nan, inf, 1.0f}};
    const int n_crafted = static_cast<int>(std::size(crafted));
    Tensor tie(mapShape(1, 2, 2 * n_crafted));
    for (int win = 0; win < n_crafted; ++win)
        for (int t = 0; t < 4; ++t)
            tie.at(0, t / 2, 2 * win + t % 2) = crafted[win][t];
    {
        SCOPED_TRACE("crafted windows");
        expectMatchesOracle(tie, 2);
    }

    const float specials[] = {nan, 0.0f, -0.0f, -inf, inf, -1e30f, -3e38f};
    Rng rng(77);
    // {c, h, w, k}
    const int cases[][4] = {{3, 8, 8, 2},  {2, 9, 7, 2}, {4, 5, 11, 2},
                            {2, 12, 12, 4}, {1, 7, 10, 3}, {3, 3, 3, 2}};
    for (const auto &cs : cases) {
        Tensor x(mapShape(cs[0], cs[1], cs[2]));
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double u = rng.uniform();
            x[i] = u < 0.3 ? specials[rng.below(std::size(specials))]
                           : static_cast<float>(rng.uniform()) - 0.5f;
        }
        SCOPED_TRACE("h=" + std::to_string(cs[1]) + " w=" +
                     std::to_string(cs[2]) + " k=" + std::to_string(cs[3]));
        expectMatchesOracle(x, cs[3]);
    }
}

TEST(GlobalAvgPoolLayer, ForwardAveragesChannel)
{
    GlobalAvgPool gap("g");
    Tensor x(mapShape(2, 2, 2),
             {1.0f, 2.0f, 3.0f, 4.0f, 10.0f, 10.0f, 10.0f, 10.0f});
    auto y = gap.forward({&x}, false);
    EXPECT_FLOAT_EQ(y[0], 2.5f);
    EXPECT_FLOAT_EQ(y[1], 10.0f);
}

TEST(GlobalAvgPoolLayer, BackwardSpreadsUniformly)
{
    GlobalAvgPool gap("g");
    Tensor x = randomTensor(mapShape(1, 2, 2), 30);
    gap.forward({&x}, false);
    Tensor g(flatShape(1), {4.0f});
    auto gi = gap.backward({&x}, g);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(gi[0][i], 1.0f);
}

TEST(FlattenLayer, RoundTripValues)
{
    Flatten flat("f");
    Tensor x = randomTensor(mapShape(2, 3, 3), 31);
    auto y = flat.forward({&x}, false);
    EXPECT_TRUE(y.shape().isFlat());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);
    auto gi = flat.backward({&x}, y);
    EXPECT_EQ(gi[0].shape(), x.shape());
}

TEST(AddLayer, ForwardAndBackward)
{
    Add add("a");
    Tensor a(flatShape(3), {1.0f, 2.0f, 3.0f});
    Tensor b(flatShape(3), {0.1f, 0.2f, 0.3f});
    auto y = add.forward({&a, &b}, false);
    EXPECT_FLOAT_EQ(y[2], 3.3f);
    Tensor g(flatShape(3), {1.0f, 1.0f, 1.0f});
    auto gi = add.backward({&a, &b}, g);
    ASSERT_EQ(gi.size(), 2u);
    EXPECT_FLOAT_EQ(gi[0][0], 1.0f);
    EXPECT_FLOAT_EQ(gi[1][0], 1.0f);
}

TEST(ConcatLayer, SplitsImportanceByBranch)
{
    Concat cat("c");
    Tensor a = randomTensor(mapShape(2, 2, 2), 40);
    Tensor b = randomTensor(mapShape(3, 2, 2), 41);
    auto y = cat.forward({&a, &b}, false);
    EXPECT_EQ(y.shape().c, 5);
    std::vector<std::vector<std::size_t>> per_input;
    cat.backmapImportant({&a, &b}, y, std::vector<std::size_t>{0, 7, 8, 19},
                         per_input);
    ASSERT_EQ(per_input.size(), 2u);
    EXPECT_EQ(per_input[0], (std::vector<std::size_t>{0, 7}));
    EXPECT_EQ(per_input[1], (std::vector<std::size_t>{0, 11}));
}

TEST(DownsamplePadLayer, ShapeAndValues)
{
    DownsamplePad ds("d");
    Tensor x = randomTensor(mapShape(2, 4, 4), 50);
    auto y = ds.forward({&x}, false);
    EXPECT_EQ(y.shape().c, 4);
    EXPECT_EQ(y.shape().h, 2);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0), x.at(0, 0, 0));
    EXPECT_FLOAT_EQ(y.at(1, 1, 1), x.at(1, 2, 2));
    EXPECT_FLOAT_EQ(y.at(2, 0, 0), 0.0f); // zero-padded channel
}

TEST(DownsamplePadLayer, BackmapSkipsPaddedChannels)
{
    DownsamplePad ds("d");
    Tensor x = randomTensor(mapShape(1, 4, 4), 51);
    auto y = ds.forward({&x}, false);
    std::vector<std::vector<std::size_t>> per_input;
    // Output idx 0 = (c0, 0, 0) maps to input (0,0,0); idx 4 = padded c1.
    ds.backmapImportant({&x}, y, std::vector<std::size_t>{0, 4}, per_input);
    ASSERT_EQ(per_input[0].size(), 1u);
    EXPECT_EQ(per_input[0][0], 0u);
}

TEST(NormLayer, InferenceIsAffineOfRunningStats)
{
    Norm2d norm("n", 2);
    Tensor x = randomTensor(mapShape(2, 3, 3), 60);
    // Without training the running stats are (0,1): y ~= x.
    auto y = norm.forward({&x}, false);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(y[i], x[i], 1e-4);
}

TEST(NormLayer, TrainingMovesRunningStats)
{
    Norm2d norm("n", 1);
    Tensor x(mapShape(1, 2, 2), {10.0f, 10.0f, 10.0f, 10.0f});
    for (int i = 0; i < 200; ++i)
        norm.forward({&x}, true);
    // Running mean approaches 10, so the normalized output approaches 0.
    auto y = norm.forward({&x}, false);
    EXPECT_NEAR(y[0], 0.0f, 0.2f);
}

TEST(NormLayer, BackwardNumericalGradient)
{
    Norm2d norm("n", 2);
    // Prime the running stats, then check the frozen-stats gradient.
    Tensor warm = randomTensor(mapShape(2, 3, 3), 61);
    for (int i = 0; i < 10; ++i)
        norm.forward({&warm}, true);
    const Tensor x = randomTensor(mapShape(2, 3, 3), 62);
    const Tensor lw = randomTensor(mapShape(2, 3, 3), 63);
    expectGradsClose(analyticInputGrad(norm, x, lw),
                     numericInputGrad(norm, x, lw));
}

} // namespace
} // namespace ptolemy::nn
