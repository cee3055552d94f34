/**
 * @file
 * Row-level properties of ranked-prefix selection (path/prefix_select)
 * and of the partial-sum rows it consumes. prefixSelect must emit
 * exactly referencePrefixSelect's index sequence — the full ranked
 * sort — on every finite or ±Inf row, in every SIMD mode: ties (±0.0
 * included), non-positive targets, prefixes past the
 * kMaxSelectScanPasses cap, rows around the kPivotFirstRow cut (long
 * rows start in pivot blocks) with ties on a block's bound, row
 * lengths below and off the 8-lane width, and real conv rows at padded
 * and strided borders.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/simd_modes.hh"
#include "common/test_models.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "path/prefix_select.hh"
#include "path/trace.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace ptolemy
{
namespace
{

using path::PrefixMass;

using testing::modesToTest;
using testing::SimdModeGuard;

nn::PsumRow
rowOf(const std::vector<float> &values)
{
    nn::PsumRow row;
    for (std::size_t i = 0; i < values.size(); ++i)
        row.push(static_cast<std::uint32_t>(3 * i + 1), values[i]);
    return row;
}

std::vector<std::size_t>
fastSelect(nn::PsumRow row, double target, PrefixMass mass)
{
    path::PrefixScratch scratch;
    std::vector<std::size_t> sel;
    path::prefixSelect(row, target, mass, scratch, sel);
    return sel;
}

std::vector<std::size_t>
referenceSelect(const nn::PsumRow &row, double target, PrefixMass mass)
{
    path::PrefixScratch scratch;
    std::vector<std::size_t> sel;
    path::referencePrefixSelect(row, target, mass, scratch, sel);
    return sel;
}

/** Targets spanning the cases: a fraction of the positive mass, zero,
 *  negative, and beyond the row's total (whole row selected). */
std::vector<double>
targetsFor(const nn::PsumRow &row, PrefixMass mass)
{
    double pos = 0.0;
    for (float v : row.value)
        pos += std::max(0.0f, v);
    std::vector<double> t;
    for (double theta : {0.05, 0.5, 0.9, 0.98, 1.0})
        t.push_back(theta * pos);
    t.push_back(0.0);
    if (mass == PrefixMass::Signed)
        t.push_back(-1.0);
    t.push_back(2.0 * pos + 1.0);
    return t;
}

void
expectMatchesReference(const nn::PsumRow &row, const std::string &what)
{
    SimdModeGuard guard;
    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (PrefixMass mass : {PrefixMass::Signed, PrefixMass::ClampAtZero})
            for (double target : targetsFor(row, mass))
                ASSERT_EQ(fastSelect(row, target, mass),
                          referenceSelect(row, target, mass))
                    << what << " n=" << row.size() << " target=" << target
                    << " clamp=" << (mass == PrefixMass::ClampAtZero)
                    << " " << simdModeName();
        const std::vector<std::size_t> first =
            referenceSelect(row, -std::numeric_limits<double>::infinity(),
                            PrefixMass::Signed);
        ASSERT_EQ(path::rankedFirst(row), first.front())
            << what << " " << simdModeName();
    }
}

/** Row lengths below, at, and off the 8-lane width, plus the conv and
 *  fc widths the benchmark networks produce. */
const std::size_t kLengths[] = {1,  2,  3,  5,  7,   8,   9,    15,  16,
                                17, 27, 31, 33, 144, 288, 1000, 2048};

TEST(PrefixSelect, MatchesReferenceSortOnRandomRows)
{
    // Unit-scale rows, rows near FLT_MAX (float mass estimates
    // overflow) and subnormal rows (pivot bisection underflows).
    Rng rng(0x5E1);
    for (float scale : {1.0f, 1e37f, 1e-40f}) {
        for (std::size_t n : kLengths) {
            std::vector<float> v(n);
            for (auto &x : v)
                x = scale * static_cast<float>(rng.gaussian(0.0, 1.0));
            expectMatchesReference(rowOf(v), "gaussian x" +
                                                 std::to_string(scale));
        }
    }
}

TEST(PrefixSelect, TiesIncludingSignedZerosBreakOnLowerIndex)
{
    Rng rng(0x71E);
    for (std::size_t n : kLengths) {
        // Few distinct levels, so most picks tie; zeros of both signs
        // rank equal and must tie-break on index like any other value.
        std::vector<float> v(n);
        for (auto &x : v) {
            const int level = static_cast<int>(rng.below(5)) - 2;
            x = level == 0 ? (rng.bernoulli(0.5) ? 0.0f : -0.0f)
                           : 0.25f * static_cast<float>(level);
        }
        expectMatchesReference(rowOf(v), "ties");
        std::vector<float> zeros(n);
        for (auto &x : zeros)
            x = rng.bernoulli(0.5) ? 0.0f : -0.0f;
        expectMatchesReference(rowOf(zeros), "all zeros");
    }
}

TEST(PrefixSelect, NonPositiveRowsAndTargets)
{
    Rng rng(0x0E6);
    for (std::size_t n : kLengths) {
        std::vector<float> v(n);
        for (auto &x : v)
            x = -static_cast<float>(rng.uniform(0.0, 1.0));
        expectMatchesReference(rowOf(v), "all negative");
    }
}

TEST(PrefixSelect, WidePrefixesPastTheScanPassCap)
{
    // theta = 0.98 over a 2048-wide row of positive partial sums (an fc
    // row): the prefix runs far past kMaxSelectScanPasses into the
    // pivot blocks, which must keep the reference order to the last
    // element.
    SimdModeGuard guard;
    Rng rng(0xFC1);
    for (int trial = 0; trial < 4; ++trial) {
        std::vector<float> v(2048);
        for (auto &x : v)
            x = static_cast<float>(rng.uniform(0.0, 1.0) *
                                   (trial % 2 ? 1.0 : rng.uniform()));
        const nn::PsumRow row = rowOf(v);
        double total = 0.0;
        for (float x : v)
            total += x;
        for (SimdMode mode : modesToTest()) {
            simdMode() = mode;
            const auto fast = fastSelect(row, 0.98 * total, PrefixMass::Signed);
            EXPECT_GT(fast.size(),
                      static_cast<std::size_t>(path::kMaxSelectScanPasses));
            EXPECT_EQ(fast, referenceSelect(row, 0.98 * total,
                                            PrefixMass::Signed))
                << "trial " << trial << " " << simdModeName();
        }
        expectMatchesReference(row, "fc row");
    }
}

/** The double sum, in rank order, of the @p k highest entries of a
 *  positive row: a target its ranked prefix reaches at pick k. */
double
topSum(const nn::PsumRow &row, std::size_t k)
{
    std::vector<float> v = row.value;
    std::sort(v.begin(), v.end(), std::greater<float>());
    double sum = 0.0;
    for (std::size_t i = 0; i < k; ++i)
        sum += v[i];
    return sum;
}

TEST(PrefixSelect, PivotFirstCutAndLongRowPrefixes)
{
    // Rows at the pivot-first cut and past it start in pivot blocks,
    // rows below it in argmax passes; both must pick the reference
    // sequence, for prefixes that end inside the passes (1, 31, 32
    // picks) and one pick past them (33).
    SimdModeGuard guard;
    Rng rng(0xC07);
    for (std::size_t n : {path::kPivotFirstRow - 1, path::kPivotFirstRow,
                          path::kPivotFirstRow + 1, std::size_t{1024},
                          std::size_t{2048}}) {
        std::vector<float> v(n);
        for (auto &x : v)
            x = static_cast<float>(rng.uniform(0.01, 1.0));
        const nn::PsumRow row = rowOf(v);
        for (std::size_t k : {1, 31, 32, 33}) {
            const double target = topSum(row, k);
            const auto want = referenceSelect(row, target, PrefixMass::Signed);
            ASSERT_EQ(want.size(), k) << "n=" << n;
            for (SimdMode mode : modesToTest()) {
                simdMode() = mode;
                EXPECT_EQ(fastSelect(row, target, PrefixMass::Signed), want)
                    << "n=" << n << " k=" << k << " " << simdModeName();
            }
        }
        expectMatchesReference(row, "long row");
    }
}

TEST(PrefixSelect, LongRowTiesAndSignedZerosAtThePivotBound)
{
    // Pivot bounds are bisection points max * j / 2^8. Values on that
    // grid (and zeros of both signs, and negatives) put whole tie
    // classes exactly at, just above and just below a block's bound,
    // so a block must take every tied entry >= p and order it by
    // index like the passes do.
    Rng rng(0xB0B);
    for (std::size_t n : {path::kPivotFirstRow + 1, std::size_t{1024},
                          std::size_t{2048}}) {
        std::vector<float> grid(n), levels(n), zeros(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto j = static_cast<int>(rng.below(260)) - 3;
            grid[i] = j == 0 ? (rng.bernoulli(0.5) ? 0.0f : -0.0f)
                             : static_cast<float>(j) / 256.0f;
            const float lv[] = {1.0f, 0.5f, 0.25f, 0.0f, -0.0f, -0.5f};
            levels[i] = lv[rng.below(std::size(lv))];
            zeros[i] = rng.bernoulli(0.02) ? 0.75f
                       : rng.bernoulli(0.5) ? 0.0f
                                            : -0.0f;
        }
        expectMatchesReference(rowOf(grid), "grid");
        expectMatchesReference(rowOf(levels), "levels");
        expectMatchesReference(rowOf(zeros), "zeros");
    }
}

TEST(PrefixSelect, InfiniteRowsMatchReferenceSort)
{
    // ±Inf keep the rank comparison a total order but collide with the
    // picked mark of the finite path, so these rows must be routed away
    // from it and still match the full sort, tied infinities included.
    constexpr float inf = std::numeric_limits<float>::infinity();
    Rng rng(0x1F);
    for (std::size_t n : kLengths) {
        std::vector<float> v(n);
        for (auto &x : v)
            x = static_cast<float>(rng.gaussian(0.0, 1.0));
        v[rng.below(n)] = -inf;
        v[rng.below(n)] = -inf;
        expectMatchesReference(rowOf(v), "-inf");
        v[rng.below(n)] = inf;
        v[rng.below(n)] = inf;
        expectMatchesReference(rowOf(v), "+inf");
    }
}

/** The historical selection for rows holding NaN: successive argmax
 *  scans under the rank comparison, each swapping its pick to the head
 *  of the remainder, until the running sum reaches the target. */
std::vector<std::size_t>
historicalScan(nn::PsumRow row, double target)
{
    std::vector<std::size_t> sel;
    double cum = 0.0;
    for (std::size_t head = 0; head < row.size(); ++head) {
        std::size_t best = head;
        for (std::size_t i = head + 1; i < row.size(); ++i) {
            const float a = row.value[i], b = row.value[best];
            const bool before = a != b ? a > b : row.index[i] < row.index[best];
            best = before ? i : best;
        }
        std::swap(row.value[head], row.value[best]);
        std::swap(row.index[head], row.index[best]);
        sel.push_back(row.index[head]);
        cum += row.value[head];
        if (cum >= target)
            break;
    }
    return sel;
}

TEST(PrefixSelect, NaNRowsSelectTheHistoricalScanSet)
{
    // NaN breaks the rank order (std::sort with it is not defined), so
    // such rows are pinned to the historical scan instead of the sort:
    // the same selected set, identical in scalar and AVX2 modes.
    SimdModeGuard guard;
    constexpr float nan = std::numeric_limits<float>::quiet_NaN();
    Rng rng(0x4A4);
    for (std::size_t n : kLengths) {
        for (int trial = 0; trial < 3; ++trial) {
            std::vector<float> v(n);
            for (auto &x : v)
                x = static_cast<float>(rng.uniform(0.0, 1.0));
            v[trial == 0 ? 0 : rng.below(n)] = nan;
            const nn::PsumRow row = rowOf(v);
            double total = 0.0;
            for (float x : v)
                total += std::isnan(x) ? 0.0 : x;
            for (double theta : {0.3, 0.9, 2.0}) {
                auto want = historicalScan(row, theta * total);
                std::sort(want.begin(), want.end());
                std::vector<std::size_t> first;
                for (SimdMode mode : modesToTest()) {
                    simdMode() = mode;
                    auto got = fastSelect(row, theta * total,
                                          PrefixMass::Signed);
                    if (first.empty())
                        first = got;
                    EXPECT_EQ(got, first) << simdModeName();
                    std::sort(got.begin(), got.end());
                    EXPECT_EQ(got, want) << "n=" << n << " theta=" << theta;
                }
            }
        }
    }
}

TEST(PrefixSelect, ConvBorderRowsWithPaddingAndStride)
{
    // Real conv rows: border neurons (clipped, shorter rows) and
    // interior ones (gathered through the offset table), at stride 1
    // and 2, with and without padding.
    struct Cfg
    {
        int in_c, k, stride, pad, hw;
    };
    Rng rng(0xC0B);
    for (const Cfg c : {Cfg{3, 3, 1, 1, 7}, Cfg{4, 3, 2, 1, 9},
                        Cfg{2, 5, 2, 2, 8}, Cfg{16, 3, 1, 0, 6}}) {
        nn::Conv2d conv("c", c.in_c, 2, c.k, c.stride, c.pad);
        testing::setConvWeights(
            conv, [&] { return static_cast<float>(rng.gaussian(0.0, 0.5)); });
        nn::Tensor x(nn::mapShape(c.in_c, c.hw, c.hw));
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = static_cast<float>(std::max(0.0, rng.gaussian(0.0, 1.0)));
        nn::Tensor y;
        conv.forwardInto({&x}, y, false);
        const auto offsets = conv.receptiveFieldOffsets(x.shape());
        nn::PsumRow row;
        for (std::size_t o = 0; o < y.size(); ++o) {
            conv.partialSums(x, o, row, offsets.data());
            expectMatchesReference(row, "conv o=" + std::to_string(o));
        }
    }
}

/** Every row a layer emits ascends strictly in input index — the
 *  invariant that makes "first position of the maximum" the lower-index
 *  tie-break. */
void
expectAscending(const nn::PsumRow &row, const std::string &what)
{
    for (std::size_t i = 1; i < row.size(); ++i)
        ASSERT_LT(row.index[i - 1], row.index[i]) << what << " i=" << i;
}

TEST(PsumRow, LayerRowsAscendInInputIndex)
{
    SimdModeGuard guard;
    Rng rng(0xA5C);
    nn::Linear fc("fc", 37, 3);
    nn::Tensor fx(nn::flatShape(37));
    for (std::size_t i = 0; i < fx.size(); ++i)
        fx[i] = static_cast<float>(rng.uniform());
    nn::Conv2d padded("c1", 3, 2, 3, 1, 1);
    nn::Conv2d strided("c2", 3, 2, 3, 2, 1);
    nn::Conv2d wide("c3", 2, 2, 5, 1, 2);
    nn::Tensor cx(nn::mapShape(3, 9, 9));
    for (std::size_t i = 0; i < cx.size(); ++i)
        cx[i] = static_cast<float>(rng.uniform());
    nn::Tensor wx(nn::mapShape(2, 9, 9));
    for (std::size_t i = 0; i < wx.size(); ++i)
        wx[i] = static_cast<float>(rng.uniform());

    nn::PsumRow row;
    for (SimdMode mode : modesToTest()) {
        simdMode() = mode;
        for (std::size_t o = 0; o < 3; ++o) {
            fc.partialSums(fx, o, row);
            ASSERT_EQ(row.size(), 37u);
            expectAscending(row, "fc");
        }
        for (const auto *conv : {&padded, &strided, &wide}) {
            const nn::Tensor &x = conv == &wide ? wx : cx;
            nn::Tensor y;
            conv->forwardInto({&x}, y, false);
            const auto offsets = conv->receptiveFieldOffsets(x.shape());
            for (std::size_t o = 0; o < y.size(); ++o) {
                conv->partialSums(x, o, row, offsets.data());
                expectAscending(row, conv->name() + " o=" +
                                         std::to_string(o));
            }
        }
    }
}

} // namespace
} // namespace ptolemy
