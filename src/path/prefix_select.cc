#include "prefix_select.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "nn/conv.hh"
#include "nn/psum_kernels.hh"
#include "path/trace.hh"
#include "util/simd.hh"

namespace ptolemy::path
{

namespace
{

constexpr float kPicked = -std::numeric_limits<float>::infinity();

/** The extraction total order: value descending, input index ascending
 *  on ties (-0.0 and +0.0 compare equal, so they tie on index). */
inline bool
rankedBefore(float va, std::uint32_t ia, float vb, std::uint32_t ib)
{
    if (va != vb)
        return va > vb;
    return ia < ib;
}

inline float
massOf(float v, PrefixMass mass)
{
    return mass == PrefixMass::ClampAtZero ? std::max(0.0f, v) : v;
}

/** Ascending sort key of (value descending, row position ascending) for
 *  a finite value; -0.0 folds into +0.0 so zeros tie on position. */
inline std::uint64_t
rankKey(float v, std::size_t pos)
{
    std::uint32_t b = std::bit_cast<std::uint32_t>(v == 0.0f ? 0.0f : v);
    b = (b & 0x80000000u) ? ~b : (b | 0x80000000u); // ascends with v
    return (static_cast<std::uint64_t>(~b) << 32) | pos;
}

/** Row sweeps, dispatched once per selection on the SIMD mode. */
struct RowOps
{
    bool avx2 = false, avx512 = false;

    RowOps()
    {
#ifdef PTOLEMY_HAVE_AVX2
        avx2 = avx2Active();
#endif
#ifdef PTOLEMY_HAVE_AVX512
        avx512 = simdMode() == SimdMode::Avx512;
#endif
    }

    bool
    allFinite(const float *v, std::size_t n) const
    {
#ifdef PTOLEMY_HAVE_AVX2
        if (avx2)
            return nn::detail::avx2AllFinite(v, n);
#endif
        for (std::size_t i = 0; i < n; ++i)
            if (!std::isfinite(v[i]))
                return false;
        return true;
    }

    float
    max(const float *v, std::size_t n) const
    {
#ifdef PTOLEMY_HAVE_AVX512
        if (avx512)
            return nn::detail::avx512RowMax(v, n);
#endif
#ifdef PTOLEMY_HAVE_AVX2
        if (avx2)
            return nn::detail::avx2RowMax(v, n);
#endif
        float m = v[0];
        for (std::size_t i = 1; i < n; ++i)
            m = v[i] > m ? v[i] : m;
        return m;
    }

    std::size_t
    firstEqual(const float *v, std::size_t n, float m) const
    {
#ifdef PTOLEMY_HAVE_AVX2
        if (avx2)
            return nn::detail::avx2FirstEqual(v, n, m);
#endif
        std::size_t i = 0;
        while (i < n && v[i] != m)
            ++i;
        return i;
    }

    /** Float sum of the entries >= p > 0 (a pivot estimate only). */
    float
    massAtLeast(const float *v, std::size_t n, float p) const
    {
#ifdef PTOLEMY_HAVE_AVX512
        if (avx512)
            return nn::detail::avx512MassAtLeast(v, n, p);
#endif
#ifdef PTOLEMY_HAVE_AVX2
        if (avx2)
            return nn::detail::avx2MassAtLeast(v, n, p);
#endif
        float sum = 0.0f;
        for (std::size_t i = 0; i < n; ++i)
            sum += v[i] >= p ? v[i] : 0.0f;
        return sum;
    }

    /** Write the positions of the entries >= p to @p pos, ascending;
     *  return how many. */
    std::size_t
    positionsAtLeast(const float *v, std::size_t n, float p,
                     std::uint32_t *pos) const
    {
#ifdef PTOLEMY_HAVE_AVX512
        if (avx512)
            return nn::detail::avx512PositionsAtLeast(v, n, p, pos);
#endif
        std::size_t m = 0;
        for (std::size_t j = 0; j < n; ++j) {
            pos[m] = static_cast<std::uint32_t>(j);
            m += v[j] >= p;
        }
        return m;
    }

    /** Position of the rank-first entry of a finite row. */
    std::size_t
    argmax(const float *v, std::size_t n) const
    {
        return firstEqual(v, n, max(v, n));
    }
};

/** Bisection steps choosing a pivot-block bound: p lands within
 *  max/2^8 of the highest bound whose block still covers the mass. */
constexpr int kPivotSteps = 8;

/**
 * Finite rows. Phase 1 (rows of at most kPivotFirstRow entries): each
 * pass picks the first position holding the row maximum and marks it
 * kPicked. Phase 2 (prefixes longer than kMaxSelectScanPasses, and
 * every prefix of a longer row) works in pivot blocks: every unpicked
 * value >= p ranks ahead of every value below p, so that block is the
 * next ranked stretch of the prefix, and only the block is sorted. p
 * comes from bisecting (0, max] for the highest bound whose block still
 * holds the remaining mass (estimated in float — the choice of p never
 * changes what is selected, only how many blocks it takes). A block
 * that falls short is consumed and the next one chosen; once nothing
 * positive is left, p drops to the lowest float and the block is the
 * whole remainder. Both phases pick in rank order, so where phase 2
 * starts never changes the selection.
 */
void
selectFinite(float *v, const std::uint32_t *idx, std::size_t n,
             double target, PrefixMass mass, const RowOps &ops,
             PrefixScratch &scratch, std::vector<std::size_t> &selected)
{
    double cum = 0.0;
    const std::size_t passes =
        n > kPivotFirstRow
            ? 0
            : std::min<std::size_t>(
                  n, static_cast<std::size_t>(kMaxSelectScanPasses));
    for (std::size_t pass = 0; pass < passes; ++pass) {
        const std::size_t j = ops.argmax(v, n);
        selected.push_back(idx[j]);
        cum += massOf(v[j], mass);
        v[j] = kPicked;
        if (cum >= target)
            return;
    }
    std::size_t left = n - passes;
    auto &block = scratch.block;
    auto &pos = scratch.order;
    block.reserve(n);
    if (pos.size() < n)
        pos.resize(n);
    while (left > 0) {
        const float hi = ops.max(v, n);
        float p = std::numeric_limits<float>::lowest();
        if (hi > 0.0f) {
            const double need = target - cum;
            float lo = 0.0f, up = hi;
            for (int step = 0; step < kPivotSteps; ++step) {
                const float mid = lo + 0.5f * (up - lo);
                (ops.massAtLeast(v, n, mid) >= need ? lo : up) = mid;
            }
            p = lo; // 0 when even hi/2^8 falls short: all of the positives
        }
        block.clear();
        const std::size_t m = ops.positionsAtLeast(v, n, p, pos.data());
        for (std::size_t b = 0; b < m; ++b)
            block.push_back(rankKey(v[pos[b]], pos[b]));
        std::sort(block.begin(), block.end());
        for (const std::uint64_t key : block) {
            const auto j = static_cast<std::uint32_t>(key);
            selected.push_back(idx[j]);
            cum += massOf(v[j], mass);
            if (cum >= target)
                return;
        }
        for (const std::uint64_t key : block)
            v[static_cast<std::uint32_t>(key)] = kPicked;
        left -= block.size();
    }
}

/**
 * Rows holding NaN, which the rank comparison does not order:
 * successive scalar argmax scans under rankedBefore, each swapping its
 * pick to the head of the remainder (the historical semantics). Once
 * the running sum is NaN or ±Inf, or the target is NaN, no later pick
 * can reach the target, so the rest of the row is taken as it stands;
 * the selected set is the scan's.
 */
void
selectScan(float *v, std::uint32_t *idx, std::size_t n, double target,
           PrefixMass mass, std::vector<std::size_t> &selected)
{
    double cum = 0.0;
    for (std::size_t head = 0; head < n; ++head) {
        std::size_t best = head;
        for (std::size_t i = head + 1; i < n; ++i)
            best = rankedBefore(v[i], idx[i], v[best], idx[best]) ? i : best;
        std::swap(v[head], v[best]);
        std::swap(idx[head], idx[best]);
        selected.push_back(idx[head]);
        cum += massOf(v[head], mass);
        if (cum >= target)
            return;
        if (std::isnan(cum) || std::isinf(cum) || std::isnan(target)) {
            selected.insert(selected.end(), idx + head + 1, idx + n);
            return;
        }
    }
}

} // namespace

void
prefixSelect(nn::PsumRow &row, double target, PrefixMass mass,
             PrefixScratch &scratch, std::vector<std::size_t> &selected)
{
    const std::size_t n = row.size();
    if (n == 0)
        return;
    const RowOps ops;
    if (ops.allFinite(row.value.data(), n))
        selectFinite(row.value.data(), row.index.data(), n, target, mass,
                     ops, scratch, selected);
    else if (std::none_of(row.value.begin(), row.value.end(),
                          [](float v) { return std::isnan(v); }))
        // ±Inf keep the rank comparison a total order (and would collide
        // with the kPicked mark): the full sort is exact here.
        referencePrefixSelect(row, target, mass, scratch, selected);
    else
        selectScan(row.value.data(), row.index.data(), n, target, mass,
                   selected);
}

void
referencePrefixSelect(const nn::PsumRow &row, double target,
                      PrefixMass mass, PrefixScratch &scratch,
                      std::vector<std::size_t> &selected)
{
    auto &order = scratch.order;
    order.resize(row.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return rankedBefore(row.value[a], row.index[a],
                                      row.value[b], row.index[b]);
              });
    double cum = 0.0;
    for (const std::uint32_t pos : order) {
        selected.push_back(row.index[pos]);
        cum += massOf(row.value[pos], mass);
        if (cum >= target)
            break;
    }
}

std::uint32_t
rankedFirst(const nn::PsumRow &row)
{
    const std::size_t n = row.size();
    const float *v = row.value.data();
    const std::uint32_t *idx = row.index.data();
    const RowOps ops;
    if (ops.allFinite(v, n))
        return idx[ops.argmax(v, n)];
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i)
        best = rankedBefore(v[i], idx[i], v[best], idx[best]) ? i : best;
    return idx[best];
}

std::uint32_t
selectConvLanes(const nn::Conv2d &conv, const nn::Tensor &input,
                const std::uint32_t *rf_offsets, const std::size_t *outs,
                std::size_t n, const nn::Tensor &output, double theta,
                ConvLaneScratch &scratch)
{
#ifdef PTOLEMY_HAVE_AVX512
    static_assert(kMaxSelectScanPasses <= nn::detail::kLanePicks,
                  "a lane records at most kLanePicks picks");
    auto &g = scratch.group;
    g.weight = conv.weights().data();
    g.outC = conv.outChannels();
    g.wt = g.outC == 16 || g.outC == 32 ? conv.packedWeights().data.data()
                                        : nullptr;
    g.inC = conv.inChannels();
    g.k = conv.kernel();
    g.stride = conv.strideOf();
    g.pad = conv.padOf();
    g.in = input.data();
    g.ih = input.shape().h;
    g.iw = input.shape().w;
    g.off = rf_offsets;
    g.output = output.data();
    g.oh = output.shape().h;
    g.ow = output.shape().w;
    g.theta = theta;
    g.cap = kMaxSelectScanPasses;
    g.lanes = static_cast<int>(n);
    for (std::size_t l = 0; l < n; ++l)
        g.neuron[l] = static_cast<std::int32_t>(outs[l]);
    const std::size_t need = conv.receptiveFieldSize() * kConvLanes;
    if (scratch.rows.size() < need)
        scratch.rows.resize(need);
    nn::detail::avx512ConvLaneSelect(g, scratch.rows.data());
    return g.done;
#else
    (void)conv, (void)input, (void)rf_offsets, (void)outs, (void)n,
        (void)output, (void)theta, (void)scratch;
    return 0;
#endif
}

} // namespace ptolemy::path
