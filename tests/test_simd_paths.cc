/**
 * @file
 * Bit-identity tests for the single-core fast-path kernels: AVX2 vs
 * scalar BitVector popcount family (unaligned ranges, widths that are
 * not lane multiples, degenerate all-zero/all-ones words), AVX2 vs
 * scalar partial-sum construction and ranked-argmax selection.
 * Everything here asserts exact equality: the fast paths are drop-in
 * replacements, not approximations.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/test_models.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/network.hh"
#include "path/extractor.hh"
#include "util/bitvector.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace ptolemy
{
namespace
{

/** RAII guard restoring the process-wide SIMD mode. */
struct SimdModeGuard
{
    SimdMode saved = simdMode();
    ~SimdModeGuard() { simdMode() = saved; }
};

BitVector
randomBits(std::size_t nbits, Rng &rng, double density)
{
    BitVector v(nbits);
    for (std::size_t i = 0; i < nbits; ++i)
        if (rng.uniform() < density)
            v.set(i);
    return v;
}

TEST(BitVectorSimd, Avx2MatchesScalarAcrossWidthsAndDensities)
{
    if (!avx2Available())
        GTEST_SKIP() << "AVX2 kernels not compiled in or not supported";
    SimdModeGuard guard;
    Rng rng(0xB17);

    // Widths straddling the 4-word vector block and the kAvx2MinWords
    // dispatch floor, none a multiple of 256 bits; densities including
    // the all-zero and all-one corner words.
    const std::size_t widths[] = {1, 63, 300, 511, 4096 + 7, 65536 + 17};
    const double densities[] = {0.0, 0.02, 0.5, 1.0};
    for (std::size_t nbits : widths) {
        for (double d : densities) {
            const BitVector a = randomBits(nbits, rng, d);
            const BitVector b = randomBits(nbits, rng, 1.0 - d * 0.5);

            simdMode() = SimdMode::Scalar;
            const std::size_t pop_s = a.popcount();
            const std::size_t and_s = a.andPopcount(b);
            const double jac_s = a.jaccard(b);
            simdMode() = SimdMode::Avx2;
            EXPECT_EQ(a.popcount(), pop_s) << nbits << " d=" << d;
            EXPECT_EQ(a.andPopcount(b), and_s) << nbits << " d=" << d;
            // Exact double equality: both paths divide the same exact
            // intersection/union integers.
            EXPECT_EQ(a.jaccard(b), jac_s) << nbits << " d=" << d;
        }
    }
}

TEST(BitVectorSimd, RangeKernelsMatchScalarOnUnalignedRanges)
{
    if (!avx2Available())
        GTEST_SKIP() << "AVX2 kernels not compiled in or not supported";
    SimdModeGuard guard;
    Rng rng(0xCAFE);
    const std::size_t nbits = 4096 + 300; // interior spans + ragged tail
    const BitVector a = randomBits(nbits, rng, 0.3);
    const BitVector b = randomBits(nbits, rng, 0.6);

    for (int trial = 0; trial < 200; ++trial) {
        // Deliberately word-unaligned endpoints (off-by-one around word
        // and vector-block boundaries included by density of trials).
        const std::size_t lo = rng.below(nbits);
        const std::size_t hi = lo + rng.below(nbits - lo + 1);
        simdMode() = SimdMode::Scalar;
        const std::size_t pop_s = a.popcountRange(lo, hi);
        const std::size_t and_s = a.andPopcountRange(b, lo, hi);
        simdMode() = SimdMode::Avx2;
        EXPECT_EQ(a.popcountRange(lo, hi), pop_s)
            << "[" << lo << ", " << hi << ")";
        EXPECT_EQ(a.andPopcountRange(b, lo, hi), and_s)
            << "[" << lo << ", " << hi << ")";
    }
}

void
expectPartialSumsEqual(const std::vector<nn::PartialSum> &a,
                       const std::vector<nn::PartialSum> &b,
                       const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].inputIndex, b[i].inputIndex) << what << " i=" << i;
        EXPECT_EQ(a[i].value, b[i].value) << what << " i=" << i;
    }
}

TEST(PartialSumsSimd, LinearAndConvRowsMatchScalarBitwise)
{
    if (!avx2Available())
        GTEST_SKIP() << "AVX2 kernels not compiled in or not supported";
    SimdModeGuard guard;
    Rng rng(0x75);

    // Odd fan-in exercises the 8-wide interleave tail.
    nn::Linear fc("fc", 333, 5);
    for (auto &w : fc.weights())
        w = static_cast<float>(rng.uniform(-1.0, 1.0));
    nn::Tensor x(nn::flatShape(333));
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

    // Padded conv: interior neurons take the pointer-walk fast path,
    // border neurons the clamped general path.
    nn::Conv2d conv("c", 4, 3, 3, 1, 1);
    for (auto &w : conv.weights())
        w = static_cast<float>(rng.uniform(-1.0, 1.0));
    nn::Tensor cx(nn::mapShape(4, 7, 7));
    for (std::size_t i = 0; i < cx.size(); ++i)
        cx[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

    std::vector<nn::PartialSum> s, v;
    for (std::size_t o = 0; o < 5; ++o) {
        simdMode() = SimdMode::Scalar;
        fc.partialSums(x, o, s);
        simdMode() = SimdMode::Avx2;
        fc.partialSums(x, o, v);
        expectPartialSumsEqual(s, v, "fc o=" + std::to_string(o));
    }
    for (std::size_t o = 0; o < static_cast<std::size_t>(3 * 7 * 7); ++o) {
        simdMode() = SimdMode::Scalar;
        conv.partialSums(cx, o, s);
        simdMode() = SimdMode::Avx2;
        conv.partialSums(cx, o, v);
        expectPartialSumsEqual(s, v, "conv o=" + std::to_string(o));
    }
}

/** Extraction over the shared trained world: every selection strategy
 *  (reference full sort, scan/heap hybrid, AVX2 argmax) and SIMD mode
 *  must produce the same path bits. theta=0.98 forces prefixes past the
 *  scan-pass cap so the heap fallback is exercised too. */
TEST(ExtractionSimd, PathBitsInvariantAcrossSelectionAndSimdModes)
{
    SimdModeGuard guard;
    auto &w = testing::world();
    const int layers = static_cast<int>(w.net.weightedNodes().size());
    for (double theta : {0.5, 0.98}) {
        path::PathExtractor ex(w.net,
                               path::ExtractionConfig::bwCu(layers, theta));
        nn::Network::Record rec;
        path::ExtractionWorkspace ws;

        std::vector<BitVector> got;
        std::vector<std::string> label;
        std::vector<SimdMode> modes = {SimdMode::Scalar};
        if (avx2Available())
            modes.push_back(SimdMode::Avx2);
        for (SimdMode mode : modes) {
            for (bool reference : {false, true}) {
                simdMode() = mode;
                ws.referenceSort = reference;
                BitVector bits;
                for (int i = 0; i < 6; ++i) {
                    w.net.inferInto(w.dataset.test[i].input, rec);
                    BitVector one;
                    ex.extractInto(rec, ws, one);
                    if (bits.size() == 0)
                        bits = BitVector(one.size());
                    bits |= one;
                }
                got.push_back(std::move(bits));
                label.push_back(std::string(simdModeName()) +
                                (reference ? "+refsort" : "+scan"));
            }
        }
        for (std::size_t i = 1; i < got.size(); ++i) {
            ASSERT_EQ(got[i].size(), got[0].size());
            EXPECT_EQ(got[i].popcount(), got[0].popcount())
                << label[i] << " vs " << label[0] << " theta=" << theta;
            EXPECT_EQ(got[i].andPopcount(got[0]), got[0].popcount())
                << label[i] << " vs " << label[0] << " theta=" << theta;
        }
    }
}

} // namespace
} // namespace ptolemy
