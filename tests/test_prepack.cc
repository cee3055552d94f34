/**
 * @file
 * Packed-weight conv forward: the panel packer's layout and alignment,
 * bitwise identity of the implicit-GEMM conv forward against the
 * plain-loop oracle (im2col, the mode's fold, bias) in every SIMD mode, inline-vs-pooled scheduling, and the
 * pack lifecycle — setWeights, the trainer's per-step repack and
 * Network::load all leave panels that match the weights. Everything
 * here asserts EXACT float equality — the packed path's contract is
 * bit-identity, not tolerance.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/conv_oracle.hh"
#include "common/simd_modes.hh"
#include "common/test_models.hh"
#include "core/detector_model.hh"
#include "core/detector_session.hh"
#include "nn/conv.hh"
#include "nn/gemm.hh"
#include "nn/gemm_kernels.hh"
#include "nn/linear.hh"
#include "util/aligned.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace ptolemy::nn
{
namespace
{

void
fillRandom(std::span<float> v, Rng &rng, float scale = 1.0f)
{
    for (auto &x : v)
        x = (static_cast<float>(rng.uniform()) - 0.5f) * scale;
}

/** Random weights (through setWeights), then random biases. */
void
randomizeConv(Conv2d &conv, Rng &rng)
{
    std::vector<float> w(conv.weights().size());
    fillRandom(w, rng);
    conv.setWeights(w);
    fillRandom(conv.biases(), rng);
}

Tensor
randomTensor(Shape s, Rng &rng, float scale = 1.0f)
{
    Tensor t(s);
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = (static_cast<float>(rng.uniform()) - 0.5f) * scale;
    return t;
}

using testing::GemmPoolGuard;
using testing::modesToTest;
using testing::SimdModeGuard;

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/**
 * The explicit conv forward in the current SIMD mode: the plain-loop
 * oracle of tests/common/conv_oracle.hh (im2col, the mode's fold, one
 * bias add). The implicit GEMM must reproduce its bytes.
 */
Tensor
oracleForward(std::span<const float> w, std::span<const float> b,
              int out_c, int k, int stride, int pad, const Tensor &x)
{
    const Shape in = x.shape();
    const std::vector<float> y = testing::oracleConvForward(
        simdMode(), w.data(), b.data(), out_c, x.data(), in.c, in.h, in.w,
        k, stride, pad);
    return Tensor(mapShape(out_c, testing::convOutExtent(in.h, k, stride, pad),
                           testing::convOutExtent(in.w, k, stride, pad)),
                  y);
}

TEST(Prepack, StridedPackMatchesMaterializedTranspose)
{
    // packBMatrixStrided with (k_stride, n_stride) = (1, K) packs a
    // conv weight matrix [N x K] as W^T without materializing the
    // transpose; the panel bytes must equal a row-major pack of the
    // explicitly transposed matrix.
    Rng rng(42);
    const int shapes[][2] = {{1, 1},  {3, 5},   {27, 16}, {27, 37},
                             {64, 8}, {130, 23}, {576, 40}};
    for (const auto &s : shapes) {
        const int K = s[0], N = s[1];
        std::vector<float> W(static_cast<std::size_t>(N) * K); // [N x K]
        fillRandom(W, rng);
        std::vector<float> Wt(static_cast<std::size_t>(K) * N);
        for (int k = 0; k < K; ++k)
            for (int n = 0; n < N; ++n)
                Wt[static_cast<std::size_t>(k) * N + n] =
                    W[static_cast<std::size_t>(n) * K + k];

        PackedB viaStride, viaCopy;
        packBMatrixStrided(W.data(), 1, K, K, N, viaStride);
        packBMatrixStrided(Wt.data(), N, 1, K, N, viaCopy);
        ASSERT_EQ(viaStride.data.size(), viaCopy.data.size());
        ASSERT_EQ(0, std::memcmp(viaStride.data.data(), viaCopy.data.data(),
                                 viaCopy.data.size() * sizeof(float)))
            << "K=" << K << " N=" << N;
    }
}

TEST(Prepack, PackedPanelsAreCacheLineAligned)
{
    // The AVX2 kernels use aligned loads on every 16-wide panel row;
    // the buffer base and each panel start must sit on 64 bytes.
    const int shapes[][2] = {{27, 64}, {576, 40}, {9, 23}, {130, 129}};
    for (const auto &s : shapes) {
        const int K = s[0], N = s[1];
        std::vector<float> B(static_cast<std::size_t>(K) * N, 1.0f);
        PackedB packed;
        packBMatrixStrided(B.data(), N, 1, K, N, packed);

        const auto L = detail::packedBLayout(K, N);
        ASSERT_EQ(packed.data.size(), L.total);
        ASSERT_TRUE(util::isAligned(packed.data.data())) << K << "x" << N;
        for (int blk = 0; blk < L.nFull; ++blk)
            ASSERT_TRUE(util::isAligned(
                packed.data.data() +
                static_cast<std::size_t>(blk) * K * 16));
        if (L.has8)
            ASSERT_TRUE(util::isAligned(packed.data.data() + L.off8));
    }
}

TEST(Prepack, FusedConvForwardBitIdenticalToOracle)
{
    // The end-to-end contract, in every SIMD mode: a Conv2d forward
    // produces the exact bytes of the oracle's im2col, fold and bias
    // add. Geometries cover stride 2, 1x1 kernels, zero padding,
    // channel counts hitting the 16-wide, 8-wide, and scalar-tail weight
    // panels, K values around the scalar fold's grouped-4 remainder and
    // past 128, the conv layers of the end-to-end benchmark's
    // networks, and output widths 4 and 7 whose 6-position strips
    // straddle output rows.
    SimdModeGuard mode_guard;
    GemmPoolGuard pool_guard;
    gemmPool() = nullptr;
    Rng rng(44);

    // {in_c, out_c, k, stride, pad, h, w}
    const int cases[][7] = {
        {3, 16, 3, 1, 1, 8, 8},   {3, 8, 3, 1, 1, 8, 8},
        {3, 23, 3, 1, 1, 9, 7},   {16, 32, 3, 1, 0, 10, 10},
        {4, 40, 3, 2, 1, 9, 9},   {8, 5, 1, 1, 0, 6, 6},
        {2, 17, 5, 2, 2, 12, 12}, {3, 16, 5, 1, 2, 4, 1},
        {3, 64, 3, 1, 1, 32, 32}, {1, 3, 1, 1, 0, 5, 5},
        {2, 9, 1, 1, 0, 5, 5},    {15, 24, 3, 1, 1, 6, 6},
        // detect_full network
        {3, 16, 3, 1, 1, 32, 32}, {16, 32, 3, 1, 1, 16, 16},
        {32, 32, 3, 1, 1, 8, 8},
        // detect_early network
        {3, 32, 3, 1, 1, 32, 32}, {32, 32, 3, 1, 1, 16, 16},
        {32, 64, 3, 1, 1, 8, 8},  {64, 64, 3, 1, 1, 8, 8},
        // serving network
        {3, 8, 3, 1, 1, 16, 16},  {8, 12, 3, 1, 1, 8, 8},
        // strips crossing output rows
        {8, 16, 3, 1, 1, 4, 4},   {5, 24, 3, 1, 1, 6, 4},
        {6, 20, 3, 1, 1, 7, 7},   {4, 32, 3, 2, 1, 13, 13}};
    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (const auto &cs : cases) {
            Conv2d conv("c", cs[0], cs[1], cs[2], cs[3], cs[4]);
            randomizeConv(conv, rng);
            const Tensor x =
                randomTensor(mapShape(cs[0], cs[5], cs[6]), rng);
            const Tensor want =
                oracleForward(conv.weights(), conv.biases(), cs[1], cs[2],
                               cs[3], cs[4], x);

            Tensor out;
            conv.forwardInto({&x}, out, false);
            ASSERT_TRUE(sameBits(out, want))
                << "mode=" << simdModeName() << " in_c=" << cs[0]
                << " out_c=" << cs[1] << " k=" << cs[2] << " s=" << cs[3]
                << " p=" << cs[4] << " h=" << cs[5] << " w=" << cs[6];
        }
    }
}

TEST(Prepack, Avx512TileBitIdenticalToAvx2AndOracle)
{
    // The AVX-512 conv tile runs 12-position strips over each pair of
    // 16-channel panels, a lone 16-wide panel (N / 16 odd) through its
    // one-panel form (the 8-wide and tail panels stay on the AVX2
    // tile). Its bytes must equal the AVX2 implicit GEMM's and the oracle's
    // on: every short last strip (P % 12 = 1..11, alone
    // and after full strips), blocks past the first (P > 96), strips
    // that straddle output rows (widths 1, 3, 5, 7, 9, 17), stride 2,
    // and channel counts with one to five 16-wide panels — a lone panel
    // alone (16, 24) and after one or two pairs (48, 56, 80), pairs
    // alone (32, 64) — with and without an 8-wide one (24, 40, 56).
    if (!avx512Available())
        GTEST_SKIP() << "AVX-512 conv tile not compiled in or not supported";
    SimdModeGuard mode_guard;
    GemmPoolGuard pool_guard;
    gemmPool() = nullptr;
    Rng rng(50);

    // {h, w} at k=3, s=1, p=1 (so oh x ow = h x w), except the stride-2
    // {13, 13} -> 7 x 7.
    const int maps[][2] = {{1, 1}, {1, 2},  {3, 1},  {2, 2},   {1, 5},
                           {2, 3}, {7, 1},  {2, 4},  {3, 3},   {2, 5},
                           {11, 1}, {5, 5}, {7, 7},  {9, 9},   {10, 10},
                           {13, 13}, {11, 17}, {8, 8}, {16, 16}};
    for (int out_c : {16, 24, 32, 40, 48, 56, 64, 80}) {
        for (int in_c : {3, 5}) {
            for (const auto &m : maps) {
                const int stride = (m[0] == 13 && in_c == 5) ? 2 : 1;
                Conv2d conv("c", in_c, out_c, 3, stride, 1);
                randomizeConv(conv, rng);
                const Tensor x = randomTensor(mapShape(in_c, m[0], m[1]), rng);

                simdMode() = SimdMode::Avx2;
                Tensor avx2;
                conv.forwardInto({&x}, avx2, false);
                simdMode() = SimdMode::Avx512;
                Tensor avx512;
                conv.forwardInto({&x}, avx512, false);
                const Tensor want = oracleForward(
                    conv.weights(), conv.biases(), out_c, 3, stride, 1, x);
                ASSERT_TRUE(sameBits(avx512, avx2))
                    << "in_c=" << in_c << " out_c=" << out_c << " s="
                    << stride << " h=" << m[0] << " w=" << m[1];
                ASSERT_TRUE(sameBits(avx512, want))
                    << "in_c=" << in_c << " out_c=" << out_c << " s="
                    << stride << " h=" << m[0] << " w=" << m[1];
            }
        }
    }
}

TEST(Prepack, InlineAndPooledSchedulingBitIdentical)
{
    // The inline-below-cutoff dispatch is scheduling only: a strictly
    // serial run (no pool) and pooled runs across pool sizes {1, 2, 8}
    // must agree to the bit.
    SimdModeGuard mode_guard;
    GemmPoolGuard pool_guard;
    Rng rng(46);

    // 24x24 = 576 positions is 6 blocks of 96 and 2*32*576*72 FLOPs
    // clears the 2 MFLOP cutoff, so the pooled arm genuinely fans out.
    Conv2d conv("c", 8, 32, 3, 1, 1);
    randomizeConv(conv, rng);
    const Tensor x = randomTensor(mapShape(8, 24, 24), rng);

    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        gemmPool() = nullptr;
        Tensor ref;
        conv.forwardInto({&x}, ref, false);

        for (unsigned threads : {1u, 2u, 8u}) {
            ThreadPool pool(threads);
            gemmPool() = &pool;
            Tensor got;
            conv.forwardInto({&x}, got, false);
            ASSERT_TRUE(sameBits(ref, got))
                << "mode=" << simdModeName() << " threads=" << threads;
            gemmPool() = nullptr;
        }
    }
}

TEST(Prepack, SetWeightsRepacksPanel)
{
    // setWeights must repack: the next forward runs on the new values,
    // bit-identical to the oracle on them — a stale panel would
    // silently serve the old model.
    SimdModeGuard mode_guard;
    GemmPoolGuard pool_guard;
    gemmPool() = nullptr;
    Rng rng(48);

    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        Conv2d conv("c", 3, 16, 3, 1, 1);
        randomizeConv(conv, rng);
        const Tensor x = randomTensor(mapShape(3, 8, 8), rng);
        Tensor before;
        conv.forwardInto({&x}, before, false);

        std::vector<float> w(conv.weights().begin(), conv.weights().end());
        for (auto &v : w)
            v += 0.125f;
        conv.setWeights(w);
        Tensor after;
        conv.forwardInto({&x}, after, false);

        ASSERT_TRUE(
            sameBits(after, oracleForward(w, conv.biases(), 16, 3, 1, 1, x)))
            << "mode=" << simdModeName();
        // And the outputs genuinely changed (the panel wasn't stale).
        bool changed = false;
        for (std::size_t i = 0; i < before.size() && !changed; ++i)
            changed = before[i] != after[i];
        ASSERT_TRUE(changed) << "mode=" << simdModeName();
    }
    std::vector<float> short_w(5);
    Conv2d conv("c", 3, 16, 3, 1, 1);
    EXPECT_THROW(conv.setWeights(short_w), std::invalid_argument);
}

/** A detector fitted over @p net with a fixed recipe (small sets). */
core::DetectorModel
fitDetector(const Network &net, const data::SplitDataset &data)
{
    core::DetectorBuilder bld(
        net,
        path::ExtractionConfig::bwCu(
            static_cast<int>(net.weightedNodes().size()), 0.5),
        10);
    bld.profileClassPaths(data.train, 6);
    Rng rng(0x51AB);
    std::vector<Tensor> clean, noisy;
    for (std::size_t i = 0; i < 12; ++i) {
        clean.push_back(data.test[i].input);
        Tensor x = data.test[i].input;
        for (std::size_t e = 0; e < x.size(); ++e)
            x[e] += static_cast<float>(rng.uniform(-0.1, 0.1));
        noisy.push_back(std::move(x));
    }
    classify::FeatureMatrix benign, adversarial;
    bld.featuresBatch(clean, benign);
    bld.featuresBatch(noisy, adversarial);
    bld.fitClassifier(benign, adversarial);
    return std::move(bld).build();
}

TEST(Prepack, TrainedNetworkServesFreshPanels)
{
    // The trainer writes weights through the flat parameter pointers
    // and repacks once per SGD step. After train(), every node of the
    // trained network must match, to the bit, a fresh network handed
    // the same weights through setWeights and through load — the
    // panels it serves from are the ones its final weights pack to.
    // A detector over it must decide exactly as one over the fresh
    // network, fanned out on two pool threads.
    SimdModeGuard mode_guard;
    data::DatasetSpec spec;
    spec.trainPerClass = 6;
    spec.testPerClass = 2;
    spec.seed = 23;
    const data::SplitDataset data = data::makeSyntheticDataset(spec);
    const std::string path = ::testing::TempDir() + "/prepack_trained.bin";

    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        Network trained = testing::makeTinyNet(10);
        heInit(trained, 51);
        TrainConfig tc;
        tc.epochs = 2;
        tc.batchSize = 8;
        Trainer(tc).train(trained, data.train);
        ASSERT_TRUE(trained.save(path));

        Network loaded = testing::makeTinyNet(10);
        ASSERT_TRUE(loaded.load(path));
        Network set = testing::makeTinyNet(10);
        for (int id = 0; id < set.numNodes(); ++id) {
            Layer &dst = set.layerAt(id);
            Layer &src = trained.layerAt(id);
            if (dst.kind() == LayerKind::Conv) {
                auto &c = static_cast<Conv2d &>(src);
                static_cast<Conv2d &>(dst).setWeights(c.weights());
                static_cast<Conv2d &>(dst).biases() = c.biases();
            } else if (dst.kind() == LayerKind::Linear) {
                auto &l = static_cast<Linear &>(src);
                static_cast<Linear &>(dst).weights() = l.weights();
                static_cast<Linear &>(dst).biases() = l.biases();
            }
        }

        for (std::size_t i = 0; i < 4; ++i) {
            Network::Record want_set, want_loaded, got;
            trained.inferInto(data.test[i].input, got);
            set.inferInto(data.test[i].input, want_set);
            loaded.inferInto(data.test[i].input, want_loaded);
            for (std::size_t n = 0; n < got.outputs.size(); ++n) {
                ASSERT_TRUE(sameBits(got.outputs[n], want_set.outputs[n]))
                    << "setWeights mode=" << simdModeName()
                    << " sample=" << i << " node=" << n;
                ASSERT_TRUE(sameBits(got.outputs[n], want_loaded.outputs[n]))
                    << "load mode=" << simdModeName() << " sample=" << i
                    << " node=" << n;
            }
        }

        const core::DetectorModel served = fitDetector(trained, data);
        const core::DetectorModel fresh = fitDetector(loaded, data);
        std::vector<Tensor> xs;
        for (const auto &s : data.test)
            xs.push_back(s.input);
        ThreadPool pool(2);
        std::vector<core::Decision> got, want;
        core::DetectorSession(served).detectBatch(xs, got, &pool);
        core::DetectorSession(fresh).detectBatch(xs, want, &pool);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].predictedClass, want[i].predictedClass)
                << "mode=" << simdModeName() << " sample=" << i;
            EXPECT_EQ(got[i].score, want[i].score)
                << "mode=" << simdModeName() << " sample=" << i;
            EXPECT_EQ(got[i].adversarial, want[i].adversarial)
                << "mode=" << simdModeName() << " sample=" << i;
        }
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace ptolemy::nn
