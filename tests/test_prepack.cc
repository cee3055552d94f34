/**
 * @file
 * Persistent packed-weight serving path: bitwise identity of
 * sgemmPrepacked vs sgemm, the implicit-GEMM packed conv forward vs
 * the classic im2col path, inline-vs-pooled scheduling, and the
 * 64-byte panel alignment the AVX2 kernels assume.
 * Everything here asserts EXACT float equality — the packed path's
 * contract is bit-identity, not tolerance.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

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

/** RAII guard restoring the process-wide SIMD mode. */
struct SimdModeGuard
{
    SimdMode saved = simdMode();
    ~SimdModeGuard() { simdMode() = saved; }
};

/** RAII guard restoring the gemm pool pointer. */
struct GemmPoolGuard
{
    ThreadPool *saved = gemmPool();
    ~GemmPoolGuard() { gemmPool() = saved; }
};

/** RAII guard restoring the packed-serving-path switch. */
struct PrepackGuard
{
    bool saved = prepackEnabled();
    ~PrepackGuard() { prepackEnabled() = saved; }
};

/** RAII guard restoring the inline-vs-pool task cutoff. */
struct InlineCutoffGuard
{
    int saved = gemmInlineTaskCutoff();
    ~InlineCutoffGuard() { gemmInlineTaskCutoff() = saved; }
};

std::vector<SimdMode>
modesToTest()
{
    std::vector<SimdMode> modes = {SimdMode::Scalar};
    if (avx2Available())
        modes.push_back(SimdMode::Avx2);
    return modes;
}

TEST(Prepack, SgemmPrepackedBitIdenticalToOnTheFly)
{
    // K values cover every remainder of the kernels' K x 4 unroll and
    // the scalar path's 128-deep k-blocking; N values cover 16-wide
    // panels, the 8-wide panel, the scalar tail, and combinations.
    SimdModeGuard mode_guard;
    GemmPoolGuard pool_guard;
    gemmPool() = nullptr;
    Rng rng(41);

    const int ms[] = {1, 5, 6, 7, 33};
    const int ns[] = {1, 5, 8, 15, 16, 23, 37, 40, 129};
    const int ks[] = {1, 2, 3, 4, 7, 9, 64, 130};
    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (int M : ms) {
            for (int N : ns) {
                for (int K : ks) {
                    std::vector<float> A(static_cast<std::size_t>(M) * K);
                    std::vector<float> B(static_cast<std::size_t>(K) * N);
                    fillRandom(A, rng);
                    fillRandom(B, rng);

                    PackedB packed;
                    packBMatrix(B.data(), N, K, N, packed);
                    ASSERT_EQ(packed.K, K);
                    ASSERT_EQ(packed.N, N);

                    const std::size_t cn = static_cast<std::size_t>(M) * N;
                    // Sweep both accumulate modes on every shape.
                    for (bool acc : {false, true}) {
                        std::vector<float> ref(cn, 0.25f), got(cn, 0.25f);
                        sgemm(M, N, K, A.data(), B.data(), ref.data(), acc);
                        sgemmPrepacked(M, A.data(), packed, got.data(), acc);
                        ASSERT_EQ(0, std::memcmp(ref.data(), got.data(),
                                                 cn * sizeof(float)))
                            << "mode=" << simdModeName() << " M=" << M
                            << " N=" << N << " K=" << K << " acc=" << acc;
                    }
                }
            }
        }
    }
}

TEST(Prepack, StridedPackMatchesMaterializedTranspose)
{
    // packBMatrixStrided with (k_stride, n_stride) = (1, K) packs a
    // conv weight matrix [N x K] as W^T without materializing the
    // transpose; the panel bytes must equal packBMatrix on the
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
        packBMatrix(Wt.data(), N, K, N, viaCopy);
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
        packBMatrix(B.data(), N, K, N, packed);

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
    // The end-to-end contract: a Conv2d forward with the persistent
    // packed panel engaged produces the exact bytes of the classic
    // im2col + sgemm + bias path. Geometries cover stride 2, 1x1
    // kernels, zero padding, channel counts hitting the 16-wide,
    // 8-wide, and scalar-tail weight panels, the conv layers of the
    // end-to-end benchmark's networks, and output widths 4 and 7 whose
    // 6-position strips straddle output rows.
    if (!avx2Available())
        GTEST_SKIP() << "fused packed forward is AVX2-only";
    SimdModeGuard mode_guard;
    GemmPoolGuard pool_guard;
    PrepackGuard prepack_guard;
    gemmPool() = nullptr;
    simdMode() = SimdMode::Avx2;
    Rng rng(44);

    // {in_c, out_c, k, stride, pad, h, w}
    const int cases[][7] = {
        {3, 16, 3, 1, 1, 8, 8},   {3, 8, 3, 1, 1, 8, 8},
        {3, 23, 3, 1, 1, 9, 7},   {16, 32, 3, 1, 0, 10, 10},
        {4, 40, 3, 2, 1, 9, 9},   {8, 5, 1, 1, 0, 6, 6},
        {2, 17, 5, 2, 2, 12, 12}, {3, 16, 5, 1, 2, 4, 1},
        {3, 64, 3, 1, 1, 32, 32},
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
    for (const auto &cs : cases) {
        Conv2d conv("c", cs[0], cs[1], cs[2], cs[3], cs[4]);
        fillRandom(conv.weights(), rng);
        fillRandom(conv.biases(), rng);
        conv.prepackWeights();
        const Tensor x = randomTensor(mapShape(cs[0], cs[5], cs[6]), rng);

        Tensor packed_out, classic_out;
        prepackEnabled() = true;
        conv.forwardInto({&x}, packed_out, false);
        prepackEnabled() = false;
        conv.forwardInto({&x}, classic_out, false);

        ASSERT_EQ(packed_out.shape(), classic_out.shape());
        ASSERT_EQ(0, std::memcmp(packed_out.data(), classic_out.data(),
                                 packed_out.size() * sizeof(float)))
            << "in_c=" << cs[0] << " out_c=" << cs[1] << " k=" << cs[2]
            << " s=" << cs[3] << " p=" << cs[4] << " h=" << cs[5]
            << " w=" << cs[6];
    }
}

TEST(Prepack, InlineAndPooledSchedulingBitIdentical)
{
    // The inline-below-cutoff dispatch is scheduling only: forcing the
    // cutoff to extremes (always inline / always pool-eligible) across
    // pool sizes {1, 2, 8} must not move a single bit, for both the
    // prepacked GEMM and the fused conv forward.
    SimdModeGuard mode_guard;
    GemmPoolGuard pool_guard;
    PrepackGuard prepack_guard;
    InlineCutoffGuard cutoff_guard;
    Rng rng(46);

    // Big enough that the FLOP cutoff passes and several row tasks
    // exist, so both dispatch arms genuinely execute.
    const int M = 48, N = 600, K = 128;
    std::vector<float> A(static_cast<std::size_t>(M) * K);
    std::vector<float> B(static_cast<std::size_t>(K) * N);
    fillRandom(A, rng);
    fillRandom(B, rng);
    PackedB packed;
    packBMatrix(B.data(), N, K, N, packed);

    Conv2d conv("c", 8, 32, 3, 1, 1);
    fillRandom(conv.weights(), rng);
    fillRandom(conv.biases(), rng);
    conv.prepackWeights();
    prepackEnabled() = true;
    const Tensor x = randomTensor(mapShape(8, 24, 24), rng);

    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        gemmPool() = nullptr;
        gemmInlineTaskCutoff() = 1 << 20; // force inline everywhere
        std::vector<float> ref(static_cast<std::size_t>(M) * N, 0.0f);
        sgemmPrepacked(M, A.data(), packed, ref.data());
        Tensor conv_ref;
        conv.forwardInto({&x}, conv_ref, false);

        for (unsigned threads : {1u, 2u, 8u}) {
            ThreadPool pool(threads);
            gemmPool() = &pool;
            gemmInlineTaskCutoff() = 0; // pool-eligible at any task count
            std::vector<float> got(ref.size(), -1.0f);
            sgemmPrepacked(M, A.data(), packed, got.data());
            ASSERT_EQ(0, std::memcmp(ref.data(), got.data(),
                                     ref.size() * sizeof(float)))
                << "sgemmPrepacked mode=" << simdModeName()
                << " threads=" << threads;

            Tensor conv_got;
            conv.forwardInto({&x}, conv_got, false);
            ASSERT_EQ(0, std::memcmp(conv_ref.data(), conv_got.data(),
                                     conv_ref.size() * sizeof(float)))
                << "conv mode=" << simdModeName()
                << " threads=" << threads;
            gemmPool() = nullptr;
        }
    }
}

TEST(Prepack, LinearPackedWeightsBitIdentical)
{
    // Linear packing is a 64-byte-aligned value copy; the gemv numerics
    // must be frozen — exact equality with the unpacked weights, both
    // SIMD modes, odd K remainders.
    SimdModeGuard mode_guard;
    PrepackGuard prepack_guard;
    Rng rng(47);

    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (int K : {7, 64, 129}) {
            Linear fc("fc", K, 33);
            fillRandom(fc.weights(), rng);
            fillRandom(fc.biases(), rng);
            fc.prepackWeights();
            const Tensor x = randomTensor(flatShape(K), rng);

            Tensor packed_out, classic_out;
            prepackEnabled() = true;
            fc.forwardInto({&x}, packed_out, false);
            prepackEnabled() = false;
            fc.forwardInto({&x}, classic_out, false);
            ASSERT_EQ(0, std::memcmp(packed_out.data(), classic_out.data(),
                                     classic_out.size() * sizeof(float)))
                << "mode=" << simdModeName() << " K=" << K;
        }
    }
}

TEST(Prepack, WeightMutationInvalidatesPackedPanel)
{
    // weights() hands out mutable storage, so the packed panel must be
    // dropped and the next prepack must pick up the new values — a
    // stale panel would silently serve the old model.
    if (!avx2Available())
        GTEST_SKIP() << "fused packed forward is AVX2-only";
    SimdModeGuard mode_guard;
    GemmPoolGuard pool_guard;
    PrepackGuard prepack_guard;
    gemmPool() = nullptr;
    simdMode() = SimdMode::Avx2;
    prepackEnabled() = true;
    Rng rng(48);

    Conv2d conv("c", 3, 16, 3, 1, 1);
    fillRandom(conv.weights(), rng);
    fillRandom(conv.biases(), rng);
    conv.prepackWeights();
    const Tensor x = randomTensor(mapShape(3, 8, 8), rng);
    Tensor before;
    conv.forwardInto({&x}, before, false);

    // Mutate weights; re-pack; the packed forward must track the new
    // values and stay bit-identical to the classic path on them.
    for (auto &w : conv.weights())
        w += 0.125f;
    conv.prepackWeights();
    Tensor after_packed, after_classic;
    conv.forwardInto({&x}, after_packed, false);
    prepackEnabled() = false;
    conv.forwardInto({&x}, after_classic, false);

    ASSERT_EQ(0, std::memcmp(after_packed.data(), after_classic.data(),
                             after_classic.size() * sizeof(float)));
    // And the outputs genuinely changed (the panel wasn't stale).
    bool changed = false;
    for (std::size_t i = 0; i < before.size() && !changed; ++i)
        changed = before[i] != after_packed[i];
    ASSERT_TRUE(changed);
}

} // namespace
} // namespace ptolemy::nn
