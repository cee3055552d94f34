/**
 * @file
 * GEMM kernel correctness and conv forward/backward vs the scalar
 * reference oracles (Conv2d::forwardNaive / backwardNaive) in every
 * SIMD mode, padded/strided cases and the benchmark's conv shapes
 * swept.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "common/simd_modes.hh"
#include "nn/conv.hh"
#include "nn/gemm.hh"
#include "nn/linear.hh"
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

void
naiveGemmRef(int M, int N, int K, const std::vector<float> &A,
             const std::vector<float> &B, std::vector<float> &C)
{
    C.assign(static_cast<std::size_t>(M) * N, 0.0f);
    for (int i = 0; i < M; ++i)
        for (int k = 0; k < K; ++k)
            for (int j = 0; j < N; ++j)
                C[static_cast<std::size_t>(i) * N + j] +=
                    A[static_cast<std::size_t>(i) * K + k] *
                    B[static_cast<std::size_t>(k) * N + j];
}

TEST(Sgemm, MatchesNaiveTripleLoopAcrossBlockBoundaries)
{
    Rng rng(1);
    // Sizes straddling the kernel's 32/128/256 block boundaries.
    const int sizes[][3] = {
        {1, 1, 1}, {3, 5, 7}, {33, 17, 129}, {64, 300, 140}, {40, 257, 4}};
    for (const auto &s : sizes) {
        const int M = s[0], N = s[1], K = s[2];
        std::vector<float> A(static_cast<std::size_t>(M) * K);
        std::vector<float> B(static_cast<std::size_t>(K) * N);
        fillRandom(A, rng);
        fillRandom(B, rng);
        std::vector<float> C(static_cast<std::size_t>(M) * N, -1.0f);
        std::vector<float> ref;
        sgemm(M, N, K, A.data(), B.data(), C.data());
        naiveGemmRef(M, N, K, A, B, ref);
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_NEAR(C[i], ref[i], 1e-3f)
                << "M=" << M << " N=" << N << " K=" << K << " i=" << i;
    }
}

TEST(Sgemm, TransposedVariantsMatchPlainGemm)
{
    Rng rng(2);
    const int M = 37, N = 65, K = 50;
    std::vector<float> A(static_cast<std::size_t>(M) * K);
    std::vector<float> B(static_cast<std::size_t>(K) * N);
    fillRandom(A, rng);
    fillRandom(B, rng);
    std::vector<float> ref;
    naiveGemmRef(M, N, K, A, B, ref);

    // sgemmNT consumes B stored transposed ([N x K]).
    std::vector<float> Bt(static_cast<std::size_t>(N) * K);
    for (int k = 0; k < K; ++k)
        for (int j = 0; j < N; ++j)
            Bt[static_cast<std::size_t>(j) * K + k] =
                B[static_cast<std::size_t>(k) * N + j];
    std::vector<float> C2(static_cast<std::size_t>(M) * N);
    sgemmNT(M, N, K, A.data(), Bt.data(), C2.data());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_NEAR(C2[i], ref[i], 1e-3f);
}

TEST(Sgemm, AccumulateAddsOntoExistingC)
{
    Rng rng(3);
    const int M = 8, N = 9, K = 10;
    std::vector<float> A(static_cast<std::size_t>(M) * K);
    std::vector<float> B(static_cast<std::size_t>(K) * N);
    fillRandom(A, rng);
    fillRandom(B, rng);
    std::vector<float> ref;
    naiveGemmRef(M, N, K, A, B, ref);
    std::vector<float> C(ref.size(), 2.5f);
    sgemm(M, N, K, A.data(), B.data(), C.data(), /*accumulate=*/true);
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_NEAR(C[i], ref[i] + 2.5f, 1e-3f);
}

/** Shapes swept by the conv oracle tests: {in_c, out_c, k, stride, pad,
 *  h, w}. The 1-wide/1-tall cases cover kernel footprints wider than
 *  the padded image, which the im2col border fast path must clamp; the
 *  rest are the conv layers of the end-to-end benchmark's networks. */
const int kConvCases[][7] = {
    {3, 5, 3, 1, 1, 8, 8},   {3, 5, 3, 1, 0, 8, 10},  {3, 5, 3, 2, 1, 9, 9},
    {3, 5, 1, 1, 0, 6, 6},   {3, 5, 5, 1, 2, 11, 9},  {3, 5, 5, 2, 2, 12, 12},
    {3, 5, 3, 2, 0, 7, 11},  {3, 5, 5, 1, 2, 4, 1},   {3, 5, 5, 1, 2, 1, 6},
    // detect_full network
    {3, 16, 3, 1, 1, 32, 32}, {16, 32, 3, 1, 1, 16, 16},
    {32, 32, 3, 1, 1, 8, 8},
    // detect_early network
    {3, 32, 3, 1, 1, 32, 32}, {32, 32, 3, 1, 1, 16, 16},
    {32, 64, 3, 1, 1, 8, 8},  {64, 64, 3, 1, 1, 8, 8},
    // serving network
    {3, 8, 3, 1, 1, 16, 16},  {8, 12, 3, 1, 1, 8, 8}};

TEST(ConvGemm, ForwardMatchesNaiveAcrossStridesAndPadding)
{
    SimdModeGuard mode_guard;
    Rng rng(4);
    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (const auto &cs : kConvCases) {
            Conv2d conv("c", cs[0], cs[1], cs[2], cs[3], cs[4]);
            randomizeConv(conv, rng);
            const Tensor x = randomTensor(mapShape(cs[0], cs[5], cs[6]), rng);

            Tensor out_gemm, out_naive;
            conv.forwardInto({&x}, out_gemm, false);
            conv.forwardNaive(x, out_naive);

            ASSERT_EQ(out_gemm.shape(), out_naive.shape());
            for (std::size_t i = 0; i < out_gemm.size(); ++i)
                ASSERT_NEAR(out_gemm[i], out_naive[i], 1e-4f)
                    << "mode=" << simdModeName() << " in_c=" << cs[0]
                    << " out_c=" << cs[1] << " k=" << cs[2]
                    << " s=" << cs[3] << " p=" << cs[4] << " i=" << i;
        }
    }
}

TEST(ConvGemm, BackwardMatchesNaiveAcrossStridesAndPadding)
{
    SimdModeGuard mode_guard;
    Rng rng(5);
    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (const auto &cs : kConvCases) {
            // A fresh layer per case, so its own gradient buffers start
            // at zero like the oracle's.
            Conv2d conv("c", cs[0], cs[1], cs[2], cs[3], cs[4]);
            randomizeConv(conv, rng);
            const Tensor x = randomTensor(mapShape(cs[0], cs[5], cs[6]), rng);

            auto out = conv.forward({&x}, false);
            const Tensor gout = randomTensor(out.shape(), rng);
            auto gin_gemm = conv.backward({&x}, gout);

            Tensor gin_naive;
            std::vector<float> gw(conv.weights().size(), 0.0f);
            std::vector<float> gb(conv.biases().size(), 0.0f);
            conv.backwardNaive(x, gout, gin_naive, &gw, &gb);

            ASSERT_EQ(gin_gemm[0].shape(), gin_naive.shape());
            for (std::size_t i = 0; i < gin_naive.size(); ++i)
                ASSERT_NEAR(gin_gemm[0][i], gin_naive[i], 1e-4f)
                    << "grad_in mode=" << simdModeName() << " in_c="
                    << cs[0] << " out_c=" << cs[1] << " k=" << cs[2]
                    << " s=" << cs[3] << " p=" << cs[4];
            const std::vector<float> *oracle[] = {&gw, &gb};
            auto pg = conv.params();
            for (std::size_t b = 0; b < pg.size(); ++b)
                for (std::size_t i = 0; i < pg[b].grad->size(); ++i)
                    ASSERT_NEAR((*pg[b].grad)[i], (*oracle[b])[i], 1e-3f)
                        << "param buf " << b << " mode=" << simdModeName()
                        << " in_c=" << cs[0] << " out_c=" << cs[1]
                        << " k=" << cs[2] << " s=" << cs[3]
                        << " p=" << cs[4];
        }
    }
}

TEST(ConvGemm, PartialSumsStillMatchForwardOutput)
{
    // The extraction path decomposes each output neuron into partial
    // sums; they must sum to the GEMM output minus bias within float
    // noise regardless of the forward implementation.
    Rng rng(6);
    Conv2d conv("c", 2, 3, 3, 1, 1);
    randomizeConv(conv, rng);
    const Tensor x = randomTensor(mapShape(2, 6, 6), rng);
    Tensor out;
    conv.forwardInto({&x}, out, false);

    PsumRow psums;
    for (std::size_t o = 0; o < out.size(); ++o) {
        conv.partialSums(x, o, psums);
        double s = conv.biases()[o / (out.shape().numel() / 3)];
        for (float v : psums.value)
            s += v;
        ASSERT_NEAR(s, out[o], 1e-4);
    }
}

TEST(SgemmSimd, Avx2MatchesScalarAcrossOddRemainders)
{
    if (!avx2Available())
        GTEST_SKIP() << "AVX2 kernels not compiled in or not supported";
    SimdModeGuard guard;
    GemmPoolGuard pool_guard;
    gemmPool() = nullptr; // isolate the kernels from threading
    Rng rng(11);

    // Remainders around the microkernel's 6-row / 16-column / 8-column
    // blocking and a few deeper K values for the FMA accumulators.
    const int ms[] = {1, 2, 5, 6, 7, 12, 17, 33};
    const int ns[] = {1, 7, 8, 15, 16, 17, 24, 40, 257};
    const int ks[] = {1, 3, 9, 64};
    for (int M : ms) {
        for (int N : ns) {
            for (int K : ks) {
                std::vector<float> A(static_cast<std::size_t>(M) * K);
                std::vector<float> B(static_cast<std::size_t>(K) * N);
                std::vector<float> Bt(static_cast<std::size_t>(N) * K);
                fillRandom(A, rng);
                fillRandom(B, rng);
                for (int k = 0; k < K; ++k)
                    for (int j = 0; j < N; ++j)
                        Bt[static_cast<std::size_t>(j) * K + k] =
                            B[static_cast<std::size_t>(k) * N + j];

                const std::size_t cn = static_cast<std::size_t>(M) * N;
                std::vector<float> cs(cn, 0.5f), cv(cn, 0.5f);
                const float tol =
                    1e-4f * (1.0f + static_cast<float>(K) * 0.05f);
                const bool acc = (M + N + K) % 2 == 0; // sweep both modes

                simdMode() = SimdMode::Scalar;
                sgemm(M, N, K, A.data(), B.data(), cs.data(), acc);
                simdMode() = SimdMode::Avx2;
                sgemm(M, N, K, A.data(), B.data(), cv.data(), acc);
                for (std::size_t i = 0; i < cn; ++i)
                    ASSERT_NEAR(cs[i], cv[i], tol)
                        << "sgemm M=" << M << " N=" << N << " K=" << K
                        << " acc=" << acc << " i=" << i;

                std::fill(cs.begin(), cs.end(), 0.5f);
                std::fill(cv.begin(), cv.end(), 0.5f);
                simdMode() = SimdMode::Scalar;
                sgemmNT(M, N, K, A.data(), Bt.data(), cs.data(), acc);
                simdMode() = SimdMode::Avx2;
                sgemmNT(M, N, K, A.data(), Bt.data(), cv.data(), acc);
                for (std::size_t i = 0; i < cn; ++i)
                    ASSERT_NEAR(cs[i], cv[i], tol)
                        << "sgemmNT M=" << M << " N=" << N << " K=" << K;
            }
        }
    }
}

TEST(SgemvBias, Avx2MatchesScalarAcrossOddLengths)
{
    if (!avx2Available())
        GTEST_SKIP() << "AVX2 kernels not compiled in or not supported";
    SimdModeGuard guard;
    Rng rng(13);

    // Lengths around the 8-wide FMA blocking plus FC-layer-like sizes.
    const int ms[] = {1, 2, 7, 10, 48, 64};
    const int ks[] = {1, 5, 8, 9, 16, 23, 192};
    for (int M : ms) {
        for (int K : ks) {
            std::vector<float> A(static_cast<std::size_t>(M) * K);
            std::vector<float> x(static_cast<std::size_t>(K));
            std::vector<float> b(static_cast<std::size_t>(M));
            fillRandom(A, rng);
            fillRandom(x, rng);
            fillRandom(b, rng);
            std::vector<float> ys(M, -7.0f), yv(M, -7.0f);
            const float tol = 1e-5f * (1.0f + static_cast<float>(K));
            simdMode() = SimdMode::Scalar;
            sgemvBias(M, K, A.data(), x.data(), b.data(), ys.data());
            simdMode() = SimdMode::Avx2;
            sgemvBias(M, K, A.data(), x.data(), b.data(), yv.data());
            for (int i = 0; i < M; ++i)
                ASSERT_NEAR(ys[i], yv[i], tol)
                    << "M=" << M << " K=" << K << " i=" << i;
        }
    }
}

TEST(SgemvBias, RowBlocksMatchSingleRowCalls)
{
    // The kernels run several rows at once (AVX2 8, scalar 4), each with
    // its own chain: every row of an M-row call must be the bytes of a
    // lone 1-row call, whatever block or remainder the row lands in.
    SimdModeGuard guard;
    Rng rng(14);
    const int ms[] = {1, 7, 8, 9, 17, 64};
    const int ks[] = {1, 5, 9, 23, 192, 2048};
    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (int M : ms) {
            for (int K : ks) {
                std::vector<float> A(static_cast<std::size_t>(M) * K);
                std::vector<float> x(static_cast<std::size_t>(K));
                std::vector<float> b(static_cast<std::size_t>(M));
                fillRandom(A, rng);
                fillRandom(x, rng);
                fillRandom(b, rng);
                std::vector<float> block(M, -7.0f), rows(M, -7.0f);
                sgemvBias(M, K, A.data(), x.data(), b.data(), block.data());
                for (int i = 0; i < M; ++i)
                    sgemvBias(1, K, A.data() + static_cast<std::size_t>(i) * K,
                              x.data(), b.data() + i, rows.data() + i);
                ASSERT_EQ(0, std::memcmp(block.data(), rows.data(),
                                         sizeof(float) * M))
                    << "mode=" << simdModeName() << " M=" << M
                    << " K=" << K;
            }
        }
    }
}

TEST(SgemmThreads, BitIdenticalAcrossThreadCounts)
{
    // Each C element's accumulation order is independent of the tile
    // partition, so every pool size must give bit-identical results in
    // both kernel families. The product is sized above the parallel
    // cutoff so the pooled path actually engages.
    SimdModeGuard guard;
    GemmPoolGuard pool_guard;
    const int M = 64, N = 300, K = 80;
    Rng rng(12);
    std::vector<float> A(static_cast<std::size_t>(M) * K);
    std::vector<float> B(static_cast<std::size_t>(K) * N);
    std::vector<float> Bt(static_cast<std::size_t>(N) * K);
    fillRandom(A, rng);
    fillRandom(B, rng);
    for (int k = 0; k < K; ++k)
        for (int j = 0; j < N; ++j)
            Bt[static_cast<std::size_t>(j) * K + k] =
                B[static_cast<std::size_t>(k) * N + j];

    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        gemmPool() = nullptr;
        std::vector<float> ref(static_cast<std::size_t>(M) * N);
        std::vector<float> ref_nt(ref.size());
        sgemm(M, N, K, A.data(), B.data(), ref.data());
        sgemmNT(M, N, K, A.data(), Bt.data(), ref_nt.data());

        for (unsigned threads : {1u, 2u, 8u}) {
            ThreadPool pool(threads);
            gemmPool() = &pool;
            std::vector<float> c(ref.size(), -1.0f), c_nt(ref.size(), -1.0f);
            sgemm(M, N, K, A.data(), B.data(), c.data());
            sgemmNT(M, N, K, A.data(), Bt.data(), c_nt.data());
            for (std::size_t i = 0; i < ref.size(); ++i) {
                ASSERT_EQ(c[i], ref[i])
                    << "sgemm mode=" << static_cast<int>(mode)
                    << " threads=" << threads << " i=" << i;
                ASSERT_EQ(c_nt[i], ref_nt[i])
                    << "sgemmNT mode=" << static_cast<int>(mode)
                    << " threads=" << threads << " i=" << i;
            }
            gemmPool() = nullptr;
        }
    }
}

TEST(LinearGemv, ForwardMatchesManualDotProducts)
{
    Rng rng(7);
    Linear lin("fc", 13, 6);
    fillRandom(lin.weights(), rng);
    fillRandom(lin.biases(), rng);
    const Tensor x = randomTensor(flatShape(13), rng);
    auto out = lin.forward({&x}, false);
    for (int o = 0; o < 6; ++o) {
        float acc = lin.biases()[o];
        for (int i = 0; i < 13; ++i)
            acc += lin.weights()[static_cast<std::size_t>(o) * 13 + i] * x[i];
        ASSERT_NEAR(out[o], acc, 1e-5f);
    }
}

} // namespace
} // namespace ptolemy::nn
