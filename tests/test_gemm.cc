/**
 * @file
 * NT product and gemv kernel correctness, and conv forward/backward
 * vs the scalar reference oracles (Conv2d::forwardNaive /
 * backwardNaive) in every SIMD mode, padded/strided cases and the
 * benchmark's conv shapes swept.
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

/** @p B [rows x cols] row-major, transposed to [cols x rows]. */
std::vector<float>
transposed(const std::vector<float> &B, int rows, int cols)
{
    std::vector<float> t(B.size());
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            t[static_cast<std::size_t>(c) * rows + r] =
                B[static_cast<std::size_t>(r) * cols + c];
    return t;
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
    const std::vector<float> Bt = transposed(B, K, N);
    std::vector<float> C2(static_cast<std::size_t>(M) * N);
    sgemmNT(M, N, K, A.data(), Bt.data(), C2.data());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_NEAR(C2[i], ref[i], 1e-3f);
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
    // sgemmNT in each kernel family against the plain triple loop, at
    // remainders around the 4-row x 2-column dot blocking and the
    // 8-wide FMA chunks, overwrite and accumulate.
    if (!avx2Available())
        GTEST_SKIP() << "AVX2 kernels not compiled in or not supported";
    SimdModeGuard guard;
    GemmPoolGuard pool_guard;
    gemmPool() = nullptr; // isolate the kernels from threading
    Rng rng(11);

    const int ms[] = {1, 2, 5, 6, 7, 12, 17, 33};
    const int ns[] = {1, 7, 8, 15, 16, 17, 24, 40, 257};
    const int ks[] = {1, 3, 9, 64};
    for (int M : ms) {
        for (int N : ns) {
            for (int K : ks) {
                std::vector<float> A(static_cast<std::size_t>(M) * K);
                std::vector<float> B(static_cast<std::size_t>(K) * N);
                fillRandom(A, rng);
                fillRandom(B, rng);
                const std::vector<float> Bt = transposed(B, K, N);
                const bool acc = (M + N + K) % 2 == 0; // sweep both modes
                std::vector<float> ref;
                naiveGemmRef(M, N, K, A, B, ref);
                if (acc)
                    for (float &r : ref)
                        r += 0.5f;
                const float tol =
                    1e-4f * (1.0f + static_cast<float>(K) * 0.05f);
                for (SimdMode mode : {SimdMode::Scalar, SimdMode::Avx2}) {
                    simdMode() = mode;
                    std::vector<float> c(ref.size(), 0.5f);
                    sgemmNT(M, N, K, A.data(), Bt.data(), c.data(), acc);
                    for (std::size_t i = 0; i < c.size(); ++i)
                        ASSERT_NEAR(c[i], ref[i], tol)
                            << simdModeName() << " M=" << M << " N=" << N
                            << " K=" << K << " acc=" << acc << " i=" << i;
                }
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
    // sgemmNT splits rows across tasks, and each element's chain is
    // independent of the split, so every pool size must give the serial
    // run's bits in every kernel family; the serial run must match the
    // plain triple loop. The product is sized above the parallel cutoff
    // so the pooled path actually engages.
    SimdModeGuard guard;
    GemmPoolGuard pool_guard;
    const int M = 64, N = 300, K = 80;
    Rng rng(12);
    std::vector<float> A(static_cast<std::size_t>(M) * K);
    std::vector<float> B(static_cast<std::size_t>(K) * N);
    fillRandom(A, rng);
    fillRandom(B, rng);
    const std::vector<float> Bt = transposed(B, K, N);
    std::vector<float> plain;
    naiveGemmRef(M, N, K, A, B, plain);

    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        gemmPool() = nullptr;
        std::vector<float> ref(static_cast<std::size_t>(M) * N);
        sgemmNT(M, N, K, A.data(), Bt.data(), ref.data());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_NEAR(ref[i], plain[i], 1e-3f)
                << "mode=" << simdModeName() << " i=" << i;

        for (unsigned threads : {1u, 2u, 8u}) {
            ThreadPool pool(threads);
            gemmPool() = &pool;
            std::vector<float> c(ref.size(), -1.0f);
            sgemmNT(M, N, K, A.data(), Bt.data(), c.data());
            ASSERT_EQ(0, std::memcmp(c.data(), ref.data(),
                                     sizeof(float) * ref.size()))
                << "mode=" << simdModeName() << " threads=" << threads;
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
