/**
 * @file
 * Packed-weight conv forward: the panel packer's layout and alignment,
 * bitwise identity of the implicit-GEMM conv forward (persistent and
 * per-call pack) against im2col + sgemm + bias in every SIMD mode,
 * network-level identity of the unpacked and prepacked forwards,
 * inline-vs-pooled scheduling, and weight-mutation invalidation.
 * Everything here asserts EXACT float equality — the packed path's
 * contract is bit-identity, not tolerance.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/simd_modes.hh"
#include "common/test_models.hh"
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
fillRandom(std::vector<float> &v, Rng &rng, float scale = 1.0f)
{
    for (auto &x : v)
        x = (static_cast<float>(rng.uniform()) - 0.5f) * scale;
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
 * The explicit conv forward, composed here from the public kernels:
 * im2col, sgemm with the [outC x K] weight rows, then one bias pass.
 * The implicit GEMM must reproduce its bytes in the current SIMD mode.
 */
Tensor
classicForward(const std::vector<float> &w, const std::vector<float> &b,
               int out_c, int k, int stride, int pad, const Tensor &x)
{
    const int in_c = x.shape().c, ih = x.shape().h, iw = x.shape().w;
    const int oh = (ih + 2 * pad - k) / stride + 1;
    const int ow = (iw + 2 * pad - k) / stride + 1;
    const int ohw = oh * ow;
    util::AlignedF32 col;
    im2col(x.data(), in_c, ih, iw, k, stride, pad, oh, ow, col);
    Tensor out(mapShape(out_c, oh, ow));
    sgemm(out_c, ohw, in_c * k * k, w.data(), col.data(), out.data());
    for (int oc = 0; oc < out_c; ++oc)
        for (int i = 0; i < ohw; ++i)
            out.data()[static_cast<std::size_t>(oc) * ohw + i] += b[oc];
    return out;
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

TEST(Prepack, FusedConvForwardBitIdenticalToClassicPath)
{
    // The end-to-end contract, in every SIMD mode: a Conv2d forward —
    // with the persistent packed panel and with the per-call pack —
    // produces the exact bytes of im2col + sgemm + bias. Geometries
    // cover stride 2, 1x1 kernels, zero padding, channel counts hitting
    // the 16-wide, 8-wide, and scalar-tail weight panels, K values
    // around the scalar fold's grouped-4 remainder and 128-deep
    // blocking, the conv layers of the end-to-end benchmark's
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
            fillRandom(conv.weights(), rng);
            fillRandom(conv.biases(), rng);
            const std::vector<float> w = conv.weights();
            const std::vector<float> b = conv.biases();
            const Tensor x =
                randomTensor(mapShape(cs[0], cs[5], cs[6]), rng);
            const Tensor classic =
                classicForward(w, b, cs[1], cs[2], cs[3], cs[4], x);

            Tensor per_call, persistent;
            conv.forwardInto({&x}, per_call, false);
            conv.prepackWeights();
            conv.forwardInto({&x}, persistent, false);

            ASSERT_TRUE(sameBits(per_call, classic))
                << "per-call pack mode=" << simdModeName()
                << " in_c=" << cs[0] << " out_c=" << cs[1]
                << " k=" << cs[2] << " s=" << cs[3] << " p=" << cs[4]
                << " h=" << cs[5] << " w=" << cs[6];
            ASSERT_TRUE(sameBits(persistent, classic))
                << "persistent pack mode=" << simdModeName()
                << " in_c=" << cs[0] << " out_c=" << cs[1]
                << " k=" << cs[2] << " s=" << cs[3] << " p=" << cs[4]
                << " h=" << cs[5] << " w=" << cs[6];
        }
    }
}

TEST(Prepack, Avx512TileBitIdenticalToAvx2AndClassicPath)
{
    // The AVX-512 conv tile runs 12-position strips over each 16-channel
    // panel (the 8-wide and tail panels stay on the AVX2 tile). Its
    // bytes must equal the AVX2 implicit GEMM's and im2col + sgemm +
    // bias's on: every short last strip (P % 12 = 1..11, alone and
    // after full strips), blocks past the first (P > 96), strips that
    // straddle output rows (widths 1, 3, 5, 7, 9, 17), stride 2, and
    // channel counts with one to four 16-wide panels plus an 8-wide one.
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
    for (int out_c : {16, 24, 32, 40, 64}) {
        for (int in_c : {3, 5}) {
            for (const auto &m : maps) {
                const int stride = (m[0] == 13 && in_c == 5) ? 2 : 1;
                Conv2d conv("c", in_c, out_c, 3, stride, 1);
                fillRandom(conv.weights(), rng);
                fillRandom(conv.biases(), rng);
                const std::vector<float> w = conv.weights();
                const std::vector<float> b = conv.biases();
                conv.prepackWeights();
                const Tensor x = randomTensor(mapShape(in_c, m[0], m[1]), rng);

                simdMode() = SimdMode::Avx2;
                Tensor avx2;
                conv.forwardInto({&x}, avx2, false);
                simdMode() = SimdMode::Avx512;
                Tensor avx512;
                conv.forwardInto({&x}, avx512, false);
                const Tensor classic =
                    classicForward(w, b, out_c, 3, stride, 1, x);
                ASSERT_TRUE(sameBits(avx512, avx2))
                    << "in_c=" << in_c << " out_c=" << out_c << " s="
                    << stride << " h=" << m[0] << " w=" << m[1];
                ASSERT_TRUE(sameBits(avx512, classic))
                    << "in_c=" << in_c << " out_c=" << out_c << " s="
                    << stride << " h=" << m[0] << " w=" << m[1];
            }
        }
    }
}

TEST(Prepack, NetworkForwardBitIdenticalBeforeAndAfterPrepack)
{
    // Training and attacks run a network with no persistent pack;
    // DetectorModel serves it after prepackForServing(). Every node's
    // output must be the same bytes either way, in every SIMD mode.
    SimdModeGuard mode_guard;
    Network net = testing::makeTinyNet(10);
    heInit(net, 49);
    Rng rng(49);
    std::vector<Tensor> xs;
    for (int i = 0; i < 4; ++i)
        xs.push_back(randomTensor(net.inputShape(), rng));

    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        net.invalidatePackedWeights();
        std::vector<Network::Record> unpacked(xs.size()), packed(xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i)
            net.inferInto(xs[i], unpacked[i]);
        net.prepackForServing();
        for (std::size_t i = 0; i < xs.size(); ++i)
            net.inferInto(xs[i], packed[i]);

        for (std::size_t i = 0; i < xs.size(); ++i) {
            ASSERT_EQ(unpacked[i].outputs.size(), packed[i].outputs.size());
            for (std::size_t n = 0; n < packed[i].outputs.size(); ++n)
                ASSERT_TRUE(
                    sameBits(unpacked[i].outputs[n], packed[i].outputs[n]))
                    << "mode=" << simdModeName() << " sample=" << i
                    << " node=" << n;
        }
    }
}

TEST(Prepack, InlineAndPooledSchedulingBitIdentical)
{
    // The inline-below-cutoff dispatch is scheduling only: a strictly
    // serial run (no pool) and pooled runs across pool sizes {1, 2, 8}
    // must agree to the bit, for the persistent and the per-call pack.
    SimdModeGuard mode_guard;
    GemmPoolGuard pool_guard;
    Rng rng(46);

    // 24x24 = 576 positions is 6 blocks of 96 and 2*32*576*72 FLOPs
    // clears the 2 MFLOP cutoff, so the pooled arm genuinely fans out.
    Conv2d conv("c", 8, 32, 3, 1, 1);
    fillRandom(conv.weights(), rng);
    fillRandom(conv.biases(), rng);
    const Tensor x = randomTensor(mapShape(8, 24, 24), rng);

    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (bool persistent : {false, true}) {
            if (persistent)
                conv.prepackWeights();
            else
                conv.invalidatePackedWeights();
            gemmPool() = nullptr;
            Tensor ref;
            conv.forwardInto({&x}, ref, false);

            for (unsigned threads : {1u, 2u, 8u}) {
                ThreadPool pool(threads);
                gemmPool() = &pool;
                Tensor got;
                conv.forwardInto({&x}, got, false);
                ASSERT_TRUE(sameBits(ref, got))
                    << "mode=" << simdModeName()
                    << " persistent=" << persistent
                    << " threads=" << threads;
                gemmPool() = nullptr;
            }
        }
    }
}

TEST(Prepack, LinearPackedWeightsBitIdentical)
{
    // Linear packing is a 64-byte-aligned value copy; the gemv numerics
    // must be frozen — a packed layer and an invalidated one (serving
    // from the live weights) agree exactly, both SIMD modes, odd K
    // remainders.
    SimdModeGuard mode_guard;
    Rng rng(47);

    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (int K : {7, 64, 129}) {
            Linear fc("fc", K, 33);
            fillRandom(fc.weights(), rng);
            fillRandom(fc.biases(), rng);
            fc.prepackWeights();
            const Tensor x = randomTensor(flatShape(K), rng);

            Tensor packed_out, live_out;
            fc.forwardInto({&x}, packed_out, false);
            fc.invalidatePackedWeights();
            fc.forwardInto({&x}, live_out, false);
            ASSERT_TRUE(sameBits(packed_out, live_out))
                << "mode=" << simdModeName() << " K=" << K;
        }
    }
}

TEST(Prepack, WeightMutationInvalidatesPackedPanel)
{
    // weights() hands out mutable storage, so the packed panel must be
    // dropped and the next prepack must pick up the new values — a
    // stale panel would silently serve the old model.
    SimdModeGuard mode_guard;
    GemmPoolGuard pool_guard;
    gemmPool() = nullptr;
    Rng rng(48);

    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        Conv2d conv("c", 3, 16, 3, 1, 1);
        fillRandom(conv.weights(), rng);
        fillRandom(conv.biases(), rng);
        conv.prepackWeights();
        const Tensor x = randomTensor(mapShape(3, 8, 8), rng);
        Tensor before;
        conv.forwardInto({&x}, before, false);

        // Mutate weights; re-pack; the packed forward must track the
        // new values and stay bit-identical to the classic path on them.
        for (auto &w : conv.weights())
            w += 0.125f;
        const std::vector<float> w = conv.weights();
        const std::vector<float> b = conv.biases();
        conv.prepackWeights();
        Tensor after;
        conv.forwardInto({&x}, after, false);

        ASSERT_TRUE(sameBits(after, classicForward(w, b, 16, 3, 1, 1, x)))
            << "mode=" << simdModeName();
        // And the outputs genuinely changed (the panel wasn't stale).
        bool changed = false;
        for (std::size_t i = 0; i < before.size() && !changed; ++i)
            changed = before[i] != after[i];
        ASSERT_TRUE(changed) << "mode=" << simdModeName();
    }
}

} // namespace
} // namespace ptolemy::nn
