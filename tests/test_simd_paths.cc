/**
 * @file
 * Bit-identity tests for the single-core fast-path kernels: AVX2 vs
 * scalar BitVector popcount family (unaligned ranges, widths that are
 * not lane multiples, degenerate all-zero/all-ones words), AVX2 vs
 * scalar partial-sum row construction, and extraction's path bits and
 * trace counts across selection strategies and SIMD modes.
 * Everything here asserts exact equality: the fast paths are drop-in
 * replacements, not approximations.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/simd_modes.hh"
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

using testing::SimdModeGuard;

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
expectRowsEqual(const nn::PsumRow &a, const nn::PsumRow &b,
                const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.index[i], b.index[i]) << what << " i=" << i;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(a.value[i]),
                  std::bit_cast<std::uint32_t>(b.value[i]))
            << what << " i=" << i;
    }
}

TEST(PartialSumsSimd, LinearAndConvRowsMatchScalarBitwise)
{
    if (!avx2Available())
        GTEST_SKIP() << "AVX2 kernels not compiled in or not supported";
    SimdModeGuard guard;
    Rng rng(0x75);

    // Odd fan-in exercises the 8-wide product tail.
    nn::Linear fc("fc", 333, 5);
    for (auto &w : fc.weights())
        w = static_cast<float>(rng.uniform(-1.0, 1.0));
    nn::Tensor x(nn::flatShape(333));
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

    // Padded conv: interior neurons gather through the offset table
    // (36 taps: four 8-wide gathers and a tail), border neurons take
    // the clipped loop. The reference is the scalar clipped loop with
    // no table at all.
    nn::Conv2d conv("c", 4, 3, 3, 1, 1);
    testing::setConvWeights(
        conv, [&] { return static_cast<float>(rng.uniform(-1.0, 1.0)); });
    nn::Tensor cx(nn::mapShape(4, 7, 7));
    for (std::size_t i = 0; i < cx.size(); ++i)
        cx[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    const auto offsets = conv.receptiveFieldOffsets(cx.shape());
    ASSERT_EQ(offsets.size(), conv.receptiveFieldSize());

    nn::PsumRow s, v;
    for (std::size_t o = 0; o < 5; ++o) {
        simdMode() = SimdMode::Scalar;
        fc.partialSums(x, o, s);
        simdMode() = SimdMode::Avx2;
        fc.partialSums(x, o, v);
        expectRowsEqual(s, v, "fc o=" + std::to_string(o));
    }
    for (std::size_t o = 0; o < static_cast<std::size_t>(3 * 7 * 7); ++o) {
        simdMode() = SimdMode::Scalar;
        conv.partialSums(cx, o, s);
        for (SimdMode mode : {SimdMode::Scalar, SimdMode::Avx2}) {
            simdMode() = mode;
            conv.partialSums(cx, o, v, offsets.data());
            expectRowsEqual(s, v,
                            "conv o=" + std::to_string(o) + " " +
                                simdModeName());
        }
    }
}

/** Extraction over the shared trained world: every selection strategy
 *  (reference full sort, max/pivot prefix selection) and SIMD mode must
 *  produce the same path bits and the same per-layer trace counts for
 *  every sample. This trained world's prefixes stay under the
 *  scan-pass cap even at theta=0.98 (its partial sums are concentrated);
 *  PrefixSelect.WidePrefixesPastTheScanPassCap covers the pivot blocks
 *  at row level. */
TEST(ExtractionSimd, PathBitsInvariantAcrossSelectionAndSimdModes)
{
    SimdModeGuard guard;
    auto &w = testing::world();
    const int layers = static_cast<int>(w.net.weightedNodes().size());
    constexpr int kSamples = 6;
    for (double theta : {0.5, 0.98}) {
        path::PathExtractor ex(w.net,
                               path::ExtractionConfig::bwCu(layers, theta));
        nn::Network::Record rec;
        path::ExtractionWorkspace ws;

        struct Run
        {
            std::string label;
            std::vector<BitVector> bits;
            std::vector<path::ExtractionTrace> traces;
        };
        std::vector<Run> runs;
        std::vector<SimdMode> modes = {SimdMode::Scalar};
        if (avx2Available())
            modes.push_back(SimdMode::Avx2);
        for (SimdMode mode : modes) {
            for (bool reference : {false, true}) {
                simdMode() = mode;
                ws.referenceSort = reference;
                Run run;
                run.label = std::string(simdModeName()) +
                            (reference ? "+refsort" : "+prefix");
                run.bits.resize(kSamples);
                run.traces.resize(kSamples);
                for (int i = 0; i < kSamples; ++i) {
                    w.net.inferInto(w.dataset.test[i].input, rec);
                    ex.extractInto(rec, ws, run.bits[i], &run.traces[i]);
                }
                runs.push_back(std::move(run));
            }
        }
        const Run &ref = runs[0];
        for (std::size_t r = 1; r < runs.size(); ++r) {
            const Run &run = runs[r];
            for (int i = 0; i < kSamples; ++i) {
                const std::string what = run.label + " vs " + ref.label +
                                         " theta=" + std::to_string(theta) +
                                         " sample " + std::to_string(i);
                EXPECT_EQ(run.bits[i], ref.bits[i]) << what;
                const auto &a = run.traces[i].layers;
                const auto &b = ref.traces[i].layers;
                ASSERT_EQ(a.size(), b.size()) << what;
                EXPECT_EQ(run.traces[i].pathBits, ref.traces[i].pathBits)
                    << what;
                for (std::size_t l = 0; l < a.size(); ++l) {
                    const std::string at = what + " layer " +
                                           std::to_string(l);
                    EXPECT_EQ(a[l].importantOut, b[l].importantOut) << at;
                    EXPECT_EQ(a[l].importantIn, b[l].importantIn) << at;
                    EXPECT_EQ(a[l].psumsConsidered, b[l].psumsConsidered)
                        << at;
                    EXPECT_EQ(a[l].sortedElems, b[l].sortedElems) << at;
                    EXPECT_EQ(a[l].selectScanPasses, b[l].selectScanPasses)
                        << at;
                    EXPECT_EQ(a[l].heapFallbackNeurons,
                              b[l].heapFallbackNeurons)
                        << at;
                    EXPECT_EQ(a[l].heapPops, b[l].heapPops) << at;
                }
            }
        }
    }
}

} // namespace
} // namespace ptolemy
