/**
 * @file
 * Bit-identity of the backward kernels against the code they replaced,
 * memcmp-exact in every SIMD mode: the implicit-GEMM conv input
 * gradient against the plain-loop oracle (the W^T * dY product in the
 * mode's fold, scattered by col2im; tests/common/conv_oracle.hh),
 * the register-blocked NT product against per-element dots, the
 * branchless ReLU / MaxPool backward against the branchy loops, and
 * Network::backwardParams against a full backward's parameter
 * gradients.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/conv_oracle.hh"
#include "common/simd_modes.hh"
#include "models/zoo.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/gemm.hh"
#include "nn/init.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/network.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace ptolemy::nn
{
namespace
{

using testing::GemmPoolGuard;
using testing::modesToTest;
using testing::SimdModeGuard;

void
fillRandom(float *v, std::size_t n, Rng &rng)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<float>(rng.uniform()) - 0.5f;
}

bool
sameBits(const float *a, const float *b, std::size_t n)
{
    return std::memcmp(a, b, sizeof(float) * n) == 0;
}

struct GradCase
{
    int inC, outC, k, stride, pad, ih, iw;
};

TEST(ConvBackwardInput, BitIdenticalToTnProductPlusCol2im)
{
    SimdModeGuard mode_guard;
    GemmPoolGuard pool_guard;
    ThreadPool pool(2);
    const GradCase cases[] = {
        {1, 7, 3, 1, 1, 9, 11},   {3, 16, 3, 1, 1, 13, 13},
        {5, 9, 5, 1, 2, 7, 10},   {32, 12, 3, 1, 1, 6, 5},
        {3, 8, 1, 1, 0, 5, 7},    {5, 6, 1, 2, 0, 10, 9},
        {3, 10, 3, 2, 1, 11, 13}, {32, 16, 3, 2, 1, 16, 16},
        {1, 5, 5, 2, 2, 9, 7},    {5, 7, 3, 1, 0, 8, 9},
        {32, 64, 3, 1, 1, 8, 8},  {3, 32, 3, 1, 1, 32, 32},
        {2, 3, 5, 1, 2, 1, 1},    {7, 5, 3, 3, 1, 10, 11},
        // Strided and unpadded, so the last input row and column take
        // no tap although their phase has taps: every tap there lies
        // outside dY, and a -0 in an accumulate sink must stay -0.
        {3, 4, 3, 2, 0, 8, 8},    {2, 5, 2, 2, 0, 9, 9},
    };
    Rng rng(41);
    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr), &pool}) {
            gemmPool() = p;
            for (const GradCase &c : cases) {
                const int oh = (c.ih + 2 * c.pad - c.k) / c.stride + 1;
                const int ow = (c.iw + 2 * c.pad - c.k) / c.stride + 1;
                std::vector<float> w(static_cast<std::size_t>(c.outC) *
                                     c.inC * c.k * c.k);
                std::vector<float> dy(static_cast<std::size_t>(c.outC) * oh *
                                      ow);
                fillRandom(w.data(), w.size(), rng);
                fillRandom(dy.data(), dy.size(), rng);
                // Exact zeros of both signs in the operands.
                for (std::size_t i = 0; i < dy.size(); i += 7)
                    dy[i] = (i / 7) % 2 ? -0.0f : 0.0f;
                for (std::size_t i = 3; i < w.size(); i += 11)
                    w[i] = 0.0f;
                const std::size_t n =
                    static_cast<std::size_t>(c.inC) * c.ih * c.iw;
                for (bool accumulate : {false, true}) {
                    std::vector<float> sink(n);
                    fillRandom(sink.data(), n, rng);
                    for (std::size_t i = 0; i < n; i += 3)
                        sink[i] = -0.0f;
                    std::vector<float> want =
                        accumulate ? sink : std::vector<float>(n, 0.0f);
                    testing::oracleConvInputGrad(
                        simdMode(), dy.data(), c.outC, oh, ow, w.data(),
                        c.inC, c.ih, c.iw, c.k, c.stride, c.pad,
                        want.data());
                    // An overwrite sink's old contents must not leak in.
                    std::vector<float> got = sink;
                    convBackwardInput(dy.data(), c.outC, oh, ow, w.data(),
                                      c.inC, c.ih, c.iw, c.k, c.stride,
                                      c.pad, got.data(), accumulate);
                    ASSERT_TRUE(sameBits(got.data(), want.data(), n))
                        << "mode=" << simdModeName()
                        << " pool=" << (p != nullptr)
                        << " acc=" << accumulate << " inC=" << c.inC
                        << " outC=" << c.outC << " k=" << c.k
                        << " s=" << c.stride << " p=" << c.pad << " "
                        << c.ih << "x" << c.iw;
                }
            }
        }
    }
}

TEST(ConvBackwardInput, ConvLayerInputOnlyBackwardUsesIt)
{
    // Through the layer: an input-only backward into an accumulate sink
    // preloaded with -0 equals the oracle bit for bit.
    SimdModeGuard mode_guard;
    Rng rng(42);
    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        Conv2d conv("c", 3, 8, 3, 2, 1);
        std::vector<float> w(conv.weights().size());
        fillRandom(w.data(), w.size(), rng);
        conv.setWeights(w);
        Tensor x(mapShape(3, 9, 10));
        fillRandom(x.data(), x.size(), rng);
        Tensor out;
        conv.forwardInto({&x}, out, false);
        Tensor gout(out.shape());
        fillRandom(gout.data(), gout.size(), rng);
        Tensor sink(x.shape());
        for (std::size_t i = 0; i < sink.size(); ++i)
            sink[i] = i % 2 ? -0.0f : 0.25f;
        std::vector<float> want(sink.vec().begin(), sink.vec().end());
        testing::oracleConvInputGrad(simdMode(), gout.data(), 8,
                                     out.shape().h, out.shape().w,
                                     conv.weights().data(), 3, 9, 10, 3, 2,
                                     1, want.data());
        conv.backwardInto({&x}, gout, {GradSink{&sink, true}},
                          skipParamGrads());
        EXPECT_TRUE(sameBits(sink.data(), want.data(), want.size()))
            << simdModeName();
    }
}

TEST(SgemmNTBlocked, BitIdenticalToPerElementDots)
{
    SimdModeGuard mode_guard;
    GemmPoolGuard pool_guard;
    gemmPool() = nullptr;
    Rng rng(43);
    const int ms[] = {1, 3, 4, 5, 9};
    const int ns[] = {1, 2, 3, 7};
    const int ks[] = {1, 7, 8, 13, 64, 67};
    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (int M : ms)
            for (int N : ns)
                for (int K : ks)
                    for (bool accumulate : {false, true}) {
                        std::vector<float> A(static_cast<std::size_t>(M) * K);
                        std::vector<float> B(static_cast<std::size_t>(N) * K);
                        std::vector<float> C(static_cast<std::size_t>(M) * N);
                        fillRandom(A.data(), A.size(), rng);
                        fillRandom(B.data(), B.size(), rng);
                        fillRandom(C.data(), C.size(), rng);
                        std::vector<float> want = C;
                        for (int i = 0; i < M; ++i)
                            for (int j = 0; j < N; ++j) {
                                const float *a = A.data() + i * K;
                                const float *b = B.data() + j * K;
                                float &dst = want[i * N + j];
                                if (mode != SimdMode::Scalar) {
                                    // A 1x1 product: one lone dot chain.
                                    sgemmNT(1, 1, K, a, b, &dst, accumulate);
                                    continue;
                                }
                                // The scalar reference: sequential s += a*b.
                                float s = 0.0f;
                                for (int k = 0; k < K; ++k)
                                    s += a[k] * b[k];
                                dst = accumulate ? dst + s : s;
                            }
                        sgemmNT(M, N, K, A.data(), B.data(), C.data(),
                                accumulate);
                        ASSERT_TRUE(sameBits(C.data(), want.data(), C.size()))
                            << simdModeName() << " M=" << M << " N=" << N
                            << " K=" << K << " acc=" << accumulate;
                    }
    }
}

/** Activations covering every sign class of the mask. */
std::vector<float>
specialValues(Rng &rng, std::size_t n)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float specials[] = {0.0f,  -0.0f, inf, -inf, nan, -nan,
                              1e-40f, -1e-40f, 1.0f, -1.0f};
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = i % 3 == 0 ? specials[(i / 3) % 10]
                          : static_cast<float>(rng.uniform()) - 0.5f;
    return v;
}

TEST(ReluBackward, BitIdenticalToBranchyLoops)
{
    Rng rng(44);
    ReLU relu("r");
    const Shape shape = mapShape(3, 7, 9);
    Tensor x(shape), g(shape);
    const auto xv = specialValues(rng, x.size());
    std::copy(xv.begin(), xv.end(), x.vec().begin());
    fillRandom(g.data(), g.size(), rng);
    for (std::size_t i = 0; i < g.size(); i += 5)
        g[i] = -0.0f;
    // Overwrite: in > 0 ? g : 0.
    Tensor d;
    relu.backwardInto({&x}, g, {GradSink{&d, false}}, nullptr);
    std::vector<float> want(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        want[i] = x[i] > 0.0f ? g[i] : 0.0f;
    EXPECT_TRUE(sameBits(d.data(), want.data(), want.size()));
    // Accumulate: d += g only where in > 0 (a -0 sink stays -0).
    Tensor acc(shape);
    for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = i % 2 ? -0.0f : static_cast<float>(i) * 0.125f;
    std::vector<float> want_acc(acc.vec().begin(), acc.vec().end());
    for (std::size_t i = 0; i < x.size(); ++i)
        if (x[i] > 0.0f)
            want_acc[i] += g[i];
    relu.backwardInto({&x}, g, {GradSink{&acc, true}}, nullptr);
    EXPECT_TRUE(sameBits(acc.data(), want_acc.data(), want_acc.size()));
}

TEST(MaxPoolBackward, BitIdenticalToBranchyLoops)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Rng rng(45);
    for (int ks : {2, 3}) {
        MaxPool2d pool("p", ks);
        const Shape shape = mapShape(2, 4 * ks, 3 * ks);
        Tensor x(shape);
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(static_cast<int>(rng.uniform() * 4)) -
                   1.0f; // small integers: plenty of ties
        // Windows of all -inf, all NaN, NaN first, ±0 ties.
        const int iw = shape.w;
        for (int t = 0; t < ks * ks; ++t) {
            const int at = (t / ks) * iw + t % ks;
            x[at] = -inf;                       // window (0, 0)
            x[ks + at] = nan;                   // window (0, 1)
            x[2 * ks + at] = t == 0 ? nan : 0.5f; // window (0, 2)
            x[ks * iw + at] = t % 2 ? 0.0f : -0.0f; // window (1, 0)
        }
        Tensor out;
        pool.forwardInto({&x}, out, false);
        Tensor g(out.shape());
        fillRandom(g.data(), g.size(), rng);
        g[0] = -0.0f;
        g[1] = -0.0f;
        const auto oracle = [&](std::vector<float> &d) {
            for (int c = 0; c < out.shape().c; ++c)
                for (int oy = 0; oy < out.shape().h; ++oy)
                    for (int ox = 0; ox < out.shape().w; ++ox) {
                        float best = -inf;
                        std::size_t idx = x.index(c, oy * ks, ox * ks);
                        for (int ky = 0; ky < ks; ++ky)
                            for (int kx = 0; kx < ks; ++kx) {
                                const float v =
                                    x.at(c, oy * ks + ky, ox * ks + kx);
                                if (v > best) {
                                    best = v;
                                    idx = x.index(c, oy * ks + ky,
                                                  ox * ks + kx);
                                }
                            }
                        d[idx] += g.at(c, oy, ox);
                    }
        };
        Tensor d;
        pool.backwardInto({&x}, g, {GradSink{&d, false}}, nullptr);
        std::vector<float> want(x.size(), 0.0f);
        oracle(want);
        EXPECT_TRUE(sameBits(d.data(), want.data(), want.size()))
            << "k=" << ks;
        Tensor acc(shape);
        for (std::size_t i = 0; i < acc.size(); ++i)
            acc[i] = i % 2 ? -0.0f : 0.5f;
        std::vector<float> want_acc(acc.vec().begin(), acc.vec().end());
        oracle(want_acc);
        pool.backwardInto({&x}, g, {GradSink{&acc, true}}, nullptr);
        EXPECT_TRUE(sameBits(acc.data(), want_acc.data(), want_acc.size()))
            << "k=" << ks;
    }
}

Network
convFirstNet()
{
    Network net("conv_first", mapShape(3, 8, 8));
    net.add(std::make_unique<Conv2d>("conv1", 3, 6, 3, 1, 1));
    net.add(std::make_unique<ReLU>("relu1"));
    net.add(std::make_unique<MaxPool2d>("pool1", 2));
    net.add(std::make_unique<Conv2d>("conv2", 6, 8, 3, 2, 1));
    net.add(std::make_unique<ReLU>("relu2"));
    net.add(std::make_unique<Flatten>("flat"));
    net.add(std::make_unique<Linear>("fc", 8 * 2 * 2, 5));
    return net;
}

Network
linearFirstNet()
{
    Network net("linear_first", flatShape(12));
    net.add(std::make_unique<Linear>("fc1", 12, 9));
    net.add(std::make_unique<ReLU>("relu1"));
    net.add(std::make_unique<Linear>("fc2", 9, 4));
    return net;
}

TEST(BackwardParams, ParamGradsBitIdenticalToFullBackward)
{
    SimdModeGuard mode_guard;
    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (int which = 0; which < 3; ++which) {
            Network net = which == 0   ? convFirstNet()
                          : which == 1 ? linearFirstNet()
                                       : models::makeMiniResNet(10, 1);
            heInit(net, 7 + which);
            Rng rng(46 + which);
            Tensor x(net.inputShape());
            fillRandom(x.data(), x.size(), rng);
            Network::Record rec;
            net.forwardInto(x, rec);
            LossGrad lg;
            softmaxCrossEntropyInto(rec.logits(), 1, lg);

            net.zeroGrads();
            net.backward(rec, lg.grad);
            std::vector<std::vector<float>> bufs;
            net.allocParamGrads(bufs);
            Network::GradArena slot;
            net.backwardParams(rec, lg.grad, slot, bufs);
            const auto &params = net.flatParams();
            ASSERT_EQ(bufs.size(), params.size());
            for (std::size_t i = 0; i < params.size(); ++i)
                ASSERT_TRUE(sameBits(bufs[i].data(), params[i].grad->data(),
                                     bufs[i].size()))
                    << net.name() << " param " << i << " " << simdModeName();
            // Nothing fed the network input's gradient.
            EXPECT_EQ(slot.gradInput.size(), 0u) << net.name();
        }
    }
}

} // namespace
} // namespace ptolemy::nn
