/**
 * @file
 * The AVX-512 conv lane kernel (path::selectConvLanes): every lane it
 * finishes must emit exactly referencePrefixSelect's index sequence for
 * its neuron's row, over exactly that row's length, and every lane it
 * hands back must be one the per-row path has to take (an output <= 0,
 * a non-finite partial sum, a prefix past kMaxSelectScanPasses). Cases:
 * 1-16 live lanes, padding 0/1/2 and stride 2, long prefixes, ±Inf and
 * NaN rows, non-positive and NaN outputs, ties including ±0, and rows
 * written tap by tap around the pass sweep's quarters. Then the
 * extractor end to end: the lane path leaves every bit and trace count
 * of the per-row path unchanged. The tests skip where SimdMode::Avx512
 * is not available.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/simd_modes.hh"
#include "common/test_models.hh"
#include "nn/conv.hh"
#include "nn/init.hh"
#include "path/extractor.hh"
#include "path/prefix_select.hh"
#include "path/trace.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace ptolemy
{
namespace
{

using path::ConvLaneScratch;
using path::kConvLanes;
using path::PrefixMass;
using testing::SimdModeGuard;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

#define SKIP_WITHOUT_AVX512()                                            \
    do {                                                                 \
        if (!avx512Available())                                          \
            GTEST_SKIP() << "SimdMode::Avx512 not available here";       \
    } while (0)

/** A conv layer, one input map and an output tensor holding each
 *  neuron's coverage base (theta * output is its target). */
struct ConvCase
{
    nn::Conv2d conv;
    nn::Tensor x, y;
    std::vector<std::uint32_t> offsets;

    ConvCase(int in_c, int out_c, int k, int stride, int pad, int hw,
             Rng &rng)
        : conv("c", in_c, out_c, k, stride, pad),
          x(nn::mapShape(in_c, hw, hw))
    {
        testing::setConvWeights(conv, [&] {
            return static_cast<float>(rng.gaussian(0.0, 0.5));
        });
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(std::max(0.0, rng.gaussian(0.0, 1.0)));
        conv.forwardInto({&x}, y, false);
        offsets = conv.receptiveFieldOffsets(x.shape());
    }
};

/** Lanes a check saw the kernel finish and hand back. */
struct LaneCounts
{
    std::size_t finished = 0, handedBack = 0;
};

/**
 * Run one group of neurons @p outs through selectConvLanes and check
 * every lane against its row's referencePrefixSelect (finished lanes)
 * or against the reasons to hand a lane back (the rest).
 */
void
checkGroup(const ConvCase &c, const std::vector<std::size_t> &outs,
           double theta, ConvLaneScratch &scratch, LaneCounts &counts,
           const std::string &what)
{
    ASSERT_LE(outs.size(), kConvLanes);
    const std::uint32_t done =
        path::selectConvLanes(c.conv, c.x, c.offsets.data(), outs.data(),
                              outs.size(), c.y, theta, scratch);
    ASSERT_EQ(done >> outs.size(), 0u) << what << ": a lane past n";
    const auto &g = scratch.group;
    nn::PsumRow row;
    path::PrefixScratch ps;
    for (std::size_t l = 0; l < outs.size(); ++l) {
        const std::size_t o = outs[l];
        const float out = c.y[o];
        c.conv.partialSums(c.x, o, row, c.offsets.data());
        const bool finite =
            std::all_of(row.value.begin(), row.value.end(),
                        [](float v) { return std::isfinite(v); });
        std::vector<std::size_t> want;
        if (finite || std::none_of(row.value.begin(), row.value.end(),
                                   [](float v) { return std::isnan(v); }))
            path::referencePrefixSelect(row, theta * out, PrefixMass::Signed,
                                        ps, want);
        const bool must_hand_back =
            out <= 0.0f || !finite ||
            want.size() > static_cast<std::size_t>(path::kMaxSelectScanPasses);
        const std::string at = what + " lane " + std::to_string(l) +
                               " o=" + std::to_string(o) +
                               " out=" + std::to_string(out);
        if (!(done >> l & 1u)) {
            EXPECT_TRUE(must_hand_back) << at << ": handed back needlessly";
            ++counts.handedBack;
            continue;
        }
        ASSERT_FALSE(must_hand_back) << at << ": finished a per-row lane";
        ++counts.finished;
        EXPECT_EQ(static_cast<std::size_t>(g.taps[l]), row.size()) << at;
        std::vector<std::size_t> got;
        for (int p = 0; p < g.count[l]; ++p)
            got.push_back(g.index[p][l]);
        ASSERT_EQ(got, want) << at;
    }
}

/** Every output neuron of @p c, in groups of @p n. */
LaneCounts
checkAllNeurons(const ConvCase &c, std::size_t n, double theta,
                const std::string &what)
{
    SimdModeGuard guard;
    simdMode() = SimdMode::Avx512;
    ConvLaneScratch scratch;
    LaneCounts counts;
    std::vector<std::size_t> outs;
    for (std::size_t o = 0; o < c.y.size(); o += n) {
        outs.clear();
        for (std::size_t i = o; i < std::min(o + n, c.y.size()); ++i)
            outs.push_back(i);
        checkGroup(c, outs, theta, scratch, counts, what);
    }
    return counts;
}

TEST(LaneSelect, Avx512EveryLiveLaneCount)
{
    SKIP_WITHOUT_AVX512();
    Rng rng(0x1A5E);
    ConvCase c(8, 32, 3, 1, 1, 7, rng);
    SimdModeGuard guard;
    simdMode() = SimdMode::Avx512;
    ConvLaneScratch scratch;
    LaneCounts counts;
    for (std::size_t n = 1; n <= kConvLanes; ++n) {
        // Neurons scattered over channels, borders and the interior.
        std::vector<std::size_t> outs;
        for (std::size_t i = 0; i < n; ++i)
            outs.push_back(rng.below(c.y.size()));
        for (double theta : {0.1, 0.5, 0.9})
            checkGroup(c, outs, theta, scratch, counts,
                       "n=" + std::to_string(n));
    }
    EXPECT_GT(counts.finished, 0u);
}

TEST(LaneSelect, Avx512PaddingAndStride)
{
    SKIP_WITHOUT_AVX512();
    struct Cfg
    {
        int in_c, k, stride, pad, hw;
    };
    Rng rng(0x9AD);
    for (const Cfg g : {Cfg{3, 3, 1, 0, 8}, Cfg{3, 3, 1, 1, 8},
                        Cfg{2, 5, 1, 2, 9}, Cfg{4, 3, 2, 1, 9},
                        Cfg{3, 5, 2, 2, 11}, Cfg{16, 3, 1, 1, 6},
                        Cfg{32, 3, 1, 1, 8}}) {
        // 16 and 32 output channels read the weights from the W^T
        // panels, any other count gathers them.
        for (int out_c : {3, 16, 32}) {
            ConvCase c(g.in_c, out_c, g.k, g.stride, g.pad, g.hw, rng);
            const std::string what =
                "in_c=" + std::to_string(g.in_c) +
                " out_c=" + std::to_string(out_c) +
                " k=" + std::to_string(g.k) +
                " stride=" + std::to_string(g.stride) +
                " pad=" + std::to_string(g.pad);
            for (double theta : {0.3, 0.5, 0.9}) {
                const LaneCounts counts =
                    checkAllNeurons(c, kConvLanes, theta, what);
                EXPECT_GT(counts.finished, 0u) << what;
            }
        }
    }
}

TEST(LaneSelect, Avx512PrefixesPastTheCap)
{
    SKIP_WITHOUT_AVX512();
    // Positive weights and inputs: every partial sum adds mass, so theta
    // near 1 needs most of a 144- or 288-tap row, well past the cap,
    // while a lower theta ends near it, on both sides.
    Rng rng(0xCA9);
    for (int in_c : {16, 32}) {
        ConvCase c(in_c, 2, 3, 1, 1, 6, rng);
        testing::setConvWeights(c.conv, [&] {
            return static_cast<float>(rng.uniform(0.01, 1.0));
        });
        c.conv.forwardInto({&c.x}, c.y, false);
        LaneCounts all;
        for (double theta : {0.2, 0.3, 0.4, 0.98, 1.0}) {
            const LaneCounts counts = checkAllNeurons(
                c, kConvLanes, theta, "in_c=" + std::to_string(in_c));
            all.finished += counts.finished;
            all.handedBack += counts.handedBack;
        }
        EXPECT_GT(all.finished, 0u);
        EXPECT_GT(all.handedBack, 0u);
    }
}

TEST(LaneSelect, Avx512NonFiniteRowsAreHandedBack)
{
    SKIP_WITHOUT_AVX512();
    Rng rng(0x1F1);
    for (float bad : {kInf, -kInf, kNaN}) {
        ConvCase c(4, 3, 3, 1, 1, 8, rng);
        // A few poisoned inputs: the neurons whose windows hold one
        // have a non-finite partial sum; their neighbours stay finite.
        for (int i = 0; i < 3; ++i)
            c.x[rng.below(c.x.size())] = bad;
        c.conv.forwardInto({&c.x}, c.y, false);
        // The forward made the poisoned outputs non-finite too; give
        // every neuron a finite positive base so that the row alone
        // decides.
        for (std::size_t o = 0; o < c.y.size(); ++o)
            c.y[o] = static_cast<float>(rng.uniform(0.1, 2.0));
        const LaneCounts counts =
            checkAllNeurons(c, kConvLanes, 0.5, "bad=" + std::to_string(bad));
        EXPECT_GT(counts.handedBack, 0u);
        EXPECT_GT(counts.finished, 0u);
    }
}

TEST(LaneSelect, Avx512NonPositiveAndNaNOutputs)
{
    SKIP_WITHOUT_AVX512();
    // out <= 0 lanes keep the per-row path's rank-first entry, so they
    // are handed back; a NaN output is a target no sum reaches, so the
    // lane takes its whole row when that fits the cap and is handed
    // back otherwise, as the per-row passes do.
    Rng rng(0x0D7);
    for (int in_c : {2, 3, 32}) {
        ConvCase c(in_c, 2, 3, 1, 1, 6, rng);
        const float levels[] = {0.0f, -0.0f, -1.0f, kNaN, kInf, 1e-30f, 3.0f};
        for (std::size_t o = 0; o < c.y.size(); ++o)
            c.y[o] = levels[rng.below(std::size(levels))];
        const LaneCounts counts =
            checkAllNeurons(c, 7, 0.5, "in_c=" + std::to_string(in_c));
        EXPECT_GT(counts.handedBack, 0u);
        EXPECT_GT(counts.finished, 0u);
    }
}

TEST(LaneSelect, Avx512TiesIncludingSignedZeros)
{
    SKIP_WITHOUT_AVX512();
    // Few distinct weight and input levels, zeros of both signs among
    // them, so most picks tie and must break on the lower input index.
    Rng rng(0x7135);
    for (int in_c : {3, 16}) {
        ConvCase c(in_c, 4, 3, 1, 1, 7, rng);
        const float w_levels[] = {0.5f, -0.5f, 0.0f, -0.0f, 1.0f};
        testing::setConvWeights(
            c.conv, [&] { return w_levels[rng.below(std::size(w_levels))]; });
        for (std::size_t i = 0; i < c.x.size(); ++i)
            c.x[i] = rng.bernoulli(0.3) ? (rng.bernoulli(0.5) ? 0.0f : -0.0f)
                                        : 1.0f;
        c.conv.forwardInto({&c.x}, c.y, false);
        for (std::size_t o = 0; o < c.y.size(); ++o)
            c.y[o] = static_cast<float>(rng.uniform(0.0, 2.0));
        LaneCounts all;
        for (double theta : {0.2, 0.6, 1.0}) {
            const LaneCounts counts = checkAllNeurons(
                c, kConvLanes, theta, "ties in_c=" + std::to_string(in_c));
            all.finished += counts.finished;
        }
        EXPECT_GT(all.finished, 0u);
    }
}

TEST(LaneSelect, Avx512ArgmaxTapOrderAndSignedZeros)
{
    SKIP_WITHOUT_AVX512();
    // One neuron per output channel on a 3x3 all-ones input (pad 0): a
    // lane's row is its weight row, so each lane is written tap by tap.
    // The pass sweep runs the taps in four quarters side by side (q =
    // K/4 each, the last one longer): the rows put maxima at tap 0 and
    // the last tap, equal maxima in both halves and at each quarter
    // boundary, ties at every level, and -0 before +0 (and after).
    Rng rng(0xA76);
    for (int in_c : {3, 32}) {
        const int K = 9 * in_c, q = K / 4;
        for (int out_c : {16, 17}) {
            ConvCase c(in_c, out_c, 3, 1, 0, 3, rng);
            for (std::size_t i = 0; i < c.x.size(); ++i)
                c.x[i] = 1.0f;
            std::vector<float> w(c.conv.weights().size());
            for (int l = 0; l < out_c; ++l) {
                float *row = w.data() + static_cast<std::size_t>(l) * K;
                for (int t = 0; t < K; ++t)
                    row[t] = static_cast<float>(rng.uniform(0.01, 1.0));
                switch (l % 8) {
                case 0: // maximum at tap 0
                    row[0] = 2.0f;
                    break;
                case 1: // maximum at the last tap
                    row[K - 1] = 2.0f;
                    break;
                case 2: // equal maxima in both halves, and a second level
                    row[1] = row[K / 2 + 1] = 2.0f;
                    row[q + 2] = row[3 * q + 1] = 1.5f;
                    break;
                case 3: // the maximum on both sides of every boundary
                    for (int t : {q - 1, q, 2 * q - 1, 2 * q, 3 * q - 1,
                                  3 * q, K - 1})
                        row[t] = 2.0f;
                    break;
                case 4: // ties at every level
                    for (int t = 0; t < K; ++t)
                        row[t] = 0.125f * static_cast<float>(1 + t % 9);
                    break;
                case 5: // -0 before +0, the rest negative
                case 6: // +0 before -0
                    for (int t = 0; t < K; ++t)
                        row[t] = -row[t];
                    for (int j = 0; j < 4; ++j)
                        row[j * q + 2] =
                            (j % 2 == 0) == (l % 8 == 5) ? -0.0f : 0.0f;
                    break;
                default: // zeros only, alternating signs
                    for (int t = 0; t < K; ++t)
                        row[t] = t % 2 ? 0.0f : -0.0f;
                    break;
                }
            }
            c.conv.setWeights(w);
            c.conv.forwardInto({&c.x}, c.y, false);
            // A positive base for every lane: theta 0 takes the first
            // pick only, a huge theta the whole row (or hands it back
            // past the cap).
            for (std::size_t o = 0; o < c.y.size(); ++o)
                c.y[o] = 1.0f;
            const std::string what = "K=" + std::to_string(K) +
                                     " out_c=" + std::to_string(out_c);
            LaneCounts all;
            for (double theta : {0.0, 0.5, 3.0, 1e9}) {
                const LaneCounts counts = checkAllNeurons(
                    c, kConvLanes, theta,
                    what + " theta=" + std::to_string(theta));
                all.finished += counts.finished;
                all.handedBack += counts.handedBack;
            }
            EXPECT_GT(all.finished, 0u) << what;
            if (K <= path::kMaxSelectScanPasses) {
                EXPECT_EQ(all.handedBack, 0u) << what;
            }
        }
    }
}

TEST(LaneSelect, Avx512ExtractionMatchesPerRowBitsAndTraces)
{
    SKIP_WITHOUT_AVX512();
    // The extractor end to end: the lane path (Avx512) must leave every
    // path bit and every trace count of the per-row path (Avx2) and of
    // the reference sort unchanged, on a chain and on a DAG network.
    SimdModeGuard guard;
    for (auto make : {&testing::makeTinyNet, &testing::makeTinyDagNet}) {
        auto net = make(10);
        nn::heInit(net, 31);
        const int n_w = static_cast<int>(net.weightedNodes().size());
        Rng rng(0xE7);
        std::vector<nn::Network::Record> recs;
        for (int s = 0; s < 6; ++s) {
            nn::Tensor x(net.inputShape());
            for (std::size_t i = 0; i < x.size(); ++i)
                x[i] = static_cast<float>(rng.uniform());
            recs.push_back(net.forward(x));
        }
        for (double theta : {0.5, 0.9, 1.0}) {
            path::PathExtractor ex(net, path::ExtractionConfig::bwCu(n_w, theta));
            for (const auto &rec : recs) {
                path::ExtractionWorkspace lane_ws, sort_ws;
                sort_ws.referenceSort = true;
                path::ExtractionTrace lane_t, row_t, sort_t;
                simdMode() = SimdMode::Avx512;
                const BitVector a = ex.extract(rec, lane_ws, &lane_t);
                const BitVector c = ex.extract(rec, sort_ws, &sort_t);
                simdMode() = SimdMode::Avx2;
                const BitVector b = ex.extract(rec, &row_t);
                EXPECT_EQ(a, b) << net.name() << " theta " << theta;
                EXPECT_EQ(a, c) << net.name() << " theta " << theta;
                ASSERT_EQ(lane_t.layers.size(), row_t.layers.size());
                for (std::size_t l = 0; l < row_t.layers.size(); ++l) {
                    const auto &p = lane_t.layers[l], &q = row_t.layers[l];
                    EXPECT_EQ(p.psumsConsidered, q.psumsConsidered) << l;
                    EXPECT_EQ(p.sortedElems, q.sortedElems) << l;
                    EXPECT_EQ(p.selectScanPasses, q.selectScanPasses) << l;
                    EXPECT_EQ(p.heapFallbackNeurons, q.heapFallbackNeurons)
                        << l;
                    EXPECT_EQ(p.heapPops, q.heapPops) << l;
                    EXPECT_EQ(p.importantIn, q.importantIn) << l;
                    EXPECT_EQ(p.importantOut, q.importantOut) << l;
                    EXPECT_EQ(p.selectScanPasses,
                              sort_t.layers[l].selectScanPasses)
                        << l;
                }
            }
        }
    }
}

} // namespace
} // namespace ptolemy
