/**
 * @file
 * Bounded-memory streaming summaries for production telemetry: a
 * Count-Min sketch sized from an explicit (ε, δ) error bound, and a
 * fixed-bin score histogram with a typed poison counter.
 *
 * Sizing follows the SketchConf idiom: the operator states the error
 * they can tolerate and the sketch derives its geometry from it, so
 * memory is provably bounded and the error is a configuration input,
 * not an accident of a hand-picked width. For a Count-Min sketch of
 * width w = ⌈e/ε⌉ and depth d = ⌈ln(1/δ)⌉ over a stream of N
 * increments, every point query satisfies
 *
 *     true(k) ≤ estimate(k) ≤ true(k) + ε·N   with probability ≥ 1−δ
 *
 * (Cormode & Muthukrishnan). The width is rounded up to a power of two
 * so row indexing is a mask, which only grows w and therefore only
 * tightens the bound.
 *
 * Determinism contract (the whole telemetry layer leans on it): every
 * counter is an integer, updates are += 1, and merging two summaries is
 * element-wise integer addition — commutative and associative exactly.
 * Aggregates assembled from per-slot shards are therefore bit-identical
 * regardless of which pool slot ingested which record, i.e. across any
 * thread count and any scheduling. Nothing in this header stores a
 * float accumulation.
 */

#ifndef PTOLEMY_TELEMETRY_SKETCH_HH
#define PTOLEMY_TELEMETRY_SKETCH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitvector.hh"

namespace ptolemy::telemetry
{

/**
 * Target point-query error bound: estimates exceed the true count by at
 * most epsilon·N (N = total increments) with probability ≥ 1 − delta.
 * The sketch derives width/depth — and so its memory — from this.
 */
struct ErrorBound
{
    double epsilon = 1.0 / 256.0; ///< additive error as a fraction of N
    double delta = 0.01;          ///< failure probability of the bound
};

/**
 * Count-Min sketch over 64-bit keys with (ε, δ)-derived geometry.
 *
 * Rows hash with independent multiply-xorshift mixers seeded from a
 * fixed per-row constant, so two sketches built from the same
 * (ErrorBound, seed) are structurally identical and mergeable.
 */
class CountMinSketch
{
  public:
    CountMinSketch() = default;

    /** Derive width/depth from @p bound (see file comment) and allocate
     *  all counters up front; no allocation happens after this.
     *  std::invalid_argument unless epsilon is in (0, 1] and delta in
     *  (0, 1). */
    explicit CountMinSketch(const ErrorBound &bound,
                            std::uint64_t seed = 0x7E1E3E7);

    std::size_t width() const { return rowWidth; }
    std::size_t depth() const { return numRows; }
    const ErrorBound &bound() const { return cfg; }

    /** Total increments ingested (the N of the ε·N bound). */
    std::uint64_t itemsAdded() const { return total; }

    /** Counter storage in bytes (the provably bounded footprint). */
    std::size_t memoryBytes() const
    {
        return counters.size() * sizeof(std::uint32_t);
    }

    /** Count @p n occurrences of @p key. */
    void add(std::uint64_t key, std::uint32_t n = 1);

    /** Count every set bit index of @p path as one key occurrence (the
     *  path-bit ingest primitive; one tzcnt loop over the raw words). */
    void addPathBits(const BitVector &path);

    /** Point query: min over rows; never undercounts. */
    std::uint64_t estimate(std::uint64_t key) const;

    /**
     * Element-wise merge of @p other into this (shard reduction). Both
     * sketches must have been built from the same (bound, seed) — same
     * geometry, same hashes — which is asserted. Integer addition, so
     * any merge order yields bit-identical counters.
     */
    void mergeFrom(const CountMinSketch &other);

    /** Zero every counter, keeping the geometry (window reset). */
    void reset();

    /** Raw counters, row-major (tests, hashing sealed windows). */
    const std::vector<std::uint32_t> &rawCounters() const
    {
        return counters;
    }

  private:
    std::size_t rowIndex(std::size_t row, std::uint64_t key) const;

    ErrorBound cfg;
    std::uint64_t seed = 0;
    std::size_t rowWidth = 0; ///< power of two, ≥ ⌈e/ε⌉
    std::size_t numRows = 0;  ///< ⌈ln(1/δ)⌉
    std::uint64_t mask = 0;   ///< rowWidth − 1
    std::uint64_t total = 0;
    std::vector<std::uint32_t> counters;   ///< depth × width, row-major
    std::vector<std::uint64_t> rowSeeds;   ///< per-row mixer constants
};

/**
 * Fixed-bin histogram over [0, 1] for detector scores (and for derived
 * per-record statistics like path divergence, which live in the same
 * range). Non-finite values — a poisoned activation propagating NaN/Inf
 * through the forest — land in a dedicated typed counter, never in a
 * bin: they cannot shift a quantile, distort a distance, or corrupt a
 * merge. All counters are integers (see determinism contract above).
 */
class ScoreHistogram
{
  public:
    ScoreHistogram() = default;

    explicit ScoreHistogram(std::size_t num_bins);

    std::size_t bins() const { return counts.size(); }

    /** Finite observations binned so far. */
    std::uint64_t total() const { return finiteTotal; }

    /** Non-finite observations routed to the typed poison counter. */
    std::uint64_t poisoned() const { return poisonCount; }

    /** Bin @p v: finite values clamp to [0, 1] and increment exactly
     *  one bin; NaN/Inf increment poisoned() and nothing else. */
    void add(double v);

    void mergeFrom(const ScoreHistogram &other);

    void reset();

    std::uint64_t count(std::size_t bin) const { return counts[bin]; }
    const std::vector<std::uint64_t> &rawCounts() const { return counts; }

    /**
     * Quantile @p q ∈ [0, 1] over the finite observations: the upper
     * edge of the first bin whose cumulative count reaches ⌈q·total⌉.
     * Deterministic given identical counts; poisoned observations are
     * excluded by construction. Returns 0 on an empty histogram.
     */
    double quantile(double q) const;

    /** Fraction of finite observations in bins at or above @p v's bin
     *  (e.g. the currently-flagged fraction at a decision threshold). */
    double fractionAtLeast(double v) const;

    /**
     * L1 distance between the two normalized bin distributions,
     * in [0, 2]. Empty histograms are treated as uniform-free: distance
     * to a non-empty one is 2 (fully disjoint), between two empties 0.
     */
    double l1Distance(const ScoreHistogram &other) const;

  private:
    std::size_t binOf(double v) const;

    std::vector<std::uint64_t> counts;
    std::uint64_t finiteTotal = 0;
    std::uint64_t poisonCount = 0;
};

} // namespace ptolemy::telemetry

#endif // PTOLEMY_TELEMETRY_SKETCH_HH
