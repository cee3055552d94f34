#include "telemetry/sketch.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace ptolemy::telemetry
{

namespace
{

/** Round @p n up to a power of two (≥ 1). */
std::size_t
ceilPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/** splitmix64 finalizer: the per-row key mixer. Full-avalanche, cheap
 *  (two multiplies), and deterministic across platforms. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

CountMinSketch::CountMinSketch(const ErrorBound &bound, std::uint64_t s)
    : cfg(bound), seed(s)
{
    if (!(cfg.epsilon > 0.0 && cfg.epsilon <= 1.0))
        throw std::invalid_argument(
            "CountMinSketch: epsilon must be in (0, 1]");
    if (!(cfg.delta > 0.0 && cfg.delta < 1.0))
        throw std::invalid_argument("CountMinSketch: delta must be in (0, 1)");
    // w = ⌈e/ε⌉ gives E[overcount] ≤ ε·N/e per row; d = ⌈ln(1/δ)⌉
    // independent rows drive P[overcount > ε·N] below δ. Rounding w up
    // to a power of two only widens rows (tightens the bound) and turns
    // the per-update modulo into a mask.
    const double e = 2.718281828459045;
    const auto wantWidth = static_cast<std::size_t>(
        std::ceil(e / cfg.epsilon));
    rowWidth = ceilPow2(std::max<std::size_t>(wantWidth, 2));
    numRows = static_cast<std::size_t>(
        std::ceil(std::log(1.0 / cfg.delta)));
    numRows = std::max<std::size_t>(numRows, 1);
    mask = static_cast<std::uint64_t>(rowWidth) - 1;
    counters.assign(numRows * rowWidth, 0);
    rowSeeds.resize(numRows);
    for (std::size_t r = 0; r < numRows; ++r)
        rowSeeds[r] = mix64(seed + 0x0101010101010101ull * (r + 1));
}

std::size_t
CountMinSketch::rowIndex(std::size_t row, std::uint64_t key) const
{
    return static_cast<std::size_t>(mix64(key ^ rowSeeds[row]) & mask);
}

void
CountMinSketch::add(std::uint64_t key, std::uint32_t n)
{
    total += n;
    for (std::size_t r = 0; r < numRows; ++r)
        counters[r * rowWidth + rowIndex(r, key)] += n;
}

void
CountMinSketch::addPathBits(const BitVector &path)
{
    const auto &words = path.rawWords();
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t word = words[w];
        while (word) {
            const auto bit = static_cast<std::uint64_t>(
                __builtin_ctzll(word));
            add(static_cast<std::uint64_t>(w) * 64 + bit);
            word &= word - 1;
        }
    }
}

std::uint64_t
CountMinSketch::estimate(std::uint64_t key) const
{
    if (numRows == 0)
        return 0;
    std::uint64_t best = UINT64_MAX;
    for (std::size_t r = 0; r < numRows; ++r)
        best = std::min<std::uint64_t>(
            best, counters[r * rowWidth + rowIndex(r, key)]);
    return best;
}

void
CountMinSketch::mergeFrom(const CountMinSketch &other)
{
    assert(rowWidth == other.rowWidth && numRows == other.numRows &&
           seed == other.seed &&
           "CountMinSketch::mergeFrom: geometry/seed mismatch");
    for (std::size_t i = 0; i < counters.size(); ++i)
        counters[i] += other.counters[i];
    total += other.total;
}

void
CountMinSketch::reset()
{
    std::fill(counters.begin(), counters.end(), 0u);
    total = 0;
}

ScoreHistogram::ScoreHistogram(std::size_t num_bins)
    : counts(std::max<std::size_t>(num_bins, 1), 0)
{
}

std::size_t
ScoreHistogram::binOf(double v) const
{
    if (v <= 0.0)
        return 0;
    if (v >= 1.0)
        return counts.size() - 1;
    const auto b = static_cast<std::size_t>(
        v * static_cast<double>(counts.size()));
    return std::min(b, counts.size() - 1);
}

void
ScoreHistogram::add(double v)
{
    if (!std::isfinite(v)) {
        // Poisoned observation: typed counter only. It must never move
        // a bin, a quantile or a distance — the drift detector reports
        // poison as its own event class instead.
        ++poisonCount;
        return;
    }
    ++counts[binOf(v)];
    ++finiteTotal;
}

void
ScoreHistogram::mergeFrom(const ScoreHistogram &other)
{
    assert(counts.size() == other.counts.size() &&
           "ScoreHistogram::mergeFrom: bin count mismatch");
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    finiteTotal += other.finiteTotal;
    poisonCount += other.poisonCount;
}

void
ScoreHistogram::reset()
{
    std::fill(counts.begin(), counts.end(), std::uint64_t{0});
    finiteTotal = 0;
    poisonCount = 0;
}

double
ScoreHistogram::quantile(double q) const
{
    if (finiteTotal == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // ⌈q·N⌉ as an integer rank keeps the result a pure function of the
    // integer counts (bit-identical whenever the counts are).
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(finiteTotal)));
    const std::uint64_t want = std::max<std::uint64_t>(rank, 1);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        cum += counts[b];
        if (cum >= want)
            return static_cast<double>(b + 1) /
                   static_cast<double>(counts.size());
    }
    return 1.0;
}

double
ScoreHistogram::fractionAtLeast(double v) const
{
    if (finiteTotal == 0)
        return 0.0;
    std::uint64_t above = 0;
    for (std::size_t b = binOf(v); b < counts.size(); ++b)
        above += counts[b];
    return static_cast<double>(above) /
           static_cast<double>(finiteTotal);
}

double
ScoreHistogram::l1Distance(const ScoreHistogram &other) const
{
    assert(counts.size() == other.counts.size() &&
           "ScoreHistogram::l1Distance: bin count mismatch");
    if (finiteTotal == 0 && other.finiteTotal == 0)
        return 0.0;
    if (finiteTotal == 0 || other.finiteTotal == 0)
        return 2.0;
    double d = 0.0;
    const auto na = static_cast<double>(finiteTotal);
    const auto nb = static_cast<double>(other.finiteTotal);
    for (std::size_t i = 0; i < counts.size(); ++i)
        d += std::fabs(static_cast<double>(counts[i]) / na -
                       static_cast<double>(other.counts[i]) / nb);
    return d;
}

} // namespace ptolemy::telemetry
