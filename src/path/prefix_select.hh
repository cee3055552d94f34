/**
 * @file
 * Exact ranked-prefix selection over one partial-sum row (paper Sec.
 * III-A/III-C cumulative threshold).
 *
 * Entries rank by value descending, input index ascending on ties — a
 * total order on finite rows, so "the minimal ranked prefix whose sum
 * reaches the target" is one well-defined set. prefixSelect finds it
 * without sorting the row: on rows of up to kPivotFirstRow entries, up
 * to kMaxSelectScanPasses passes of (vector max, first position equal
 * to it); then, and from the start on longer rows, ranked pivot blocks
 * that sort only the entries the prefix can still reach (their sweeps
 * run 16 wide under SimdMode::Avx512). Because rows are in ascending
 * input-index order (nn::PsumRow invariant), the first position
 * holding the maximum is exactly the lower-index tie-break, and a
 * block's rank keys order ties the same way. The running sum adds the
 * same values in the same order as a full sort, so the cut — and the
 * emitted index sequence — are identical to referencePrefixSelect's,
 * wherever phase 2 starts.
 *
 * selectConvLanes runs the same phase 1 for up to 16 neurons of one
 * conv layer at once, one per AVX-512 lane, over rows it builds
 * transposed, finding each pass's maximum and its first tap in one
 * sweep; the lanes it cannot finish go back to prefixSelect.
 */

#ifndef PTOLEMY_PATH_PREFIX_SELECT_HH
#define PTOLEMY_PATH_PREFIX_SELECT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/layer.hh"
#include "nn/psum_kernels.hh"
#include "util/aligned.hh"

namespace ptolemy::nn
{
class Conv2d;
class Tensor;
} // namespace ptolemy::nn

namespace ptolemy::path
{

/**
 * Rows longer than this start in pivot blocks, with no argmax pass.
 * BM_PrefixSelect, one thread, best of 3 on a 4-vCPU AVX-512 Xeon,
 * pivot-first over passes-first at 1024 / 2048 entries: 2.75 / 3.13x
 * the time at a 1-pick prefix, 1.09 / 1.54x at 4, 0.71 / 0.86x at 8,
 * 0.47 / 0.42x at 16, 0.29 / 0.25x at 32 (the ratios at 144-576
 * entries are alike). The crossover sits at 4-8 picks at every length,
 * so the cut is a length: above the conv receptive fields of the
 * benchmark nets (up to 576 = 64 channels x 3x3), whose prefixes run a
 * few picks, and below their fc rows, whose prefixes at theta = 0.5
 * run about 14 (1024 entries, detect_early) and 30 picks (2048,
 * detect_full).
 */
inline constexpr std::size_t kPivotFirstRow = 576;

/** How a picked entry adds to the running coverage sum. */
enum class PrefixMass
{
    Signed,      ///< backward partial sums: the raw value
    ClampAtZero, ///< forward activation mass: max(0, value)
};

/** Reusable selection scratch (grown once; steady state allocates
 *  nothing). */
struct PrefixScratch
{
    std::vector<std::uint64_t> block; ///< pivot-block rank keys
    /** Row positions: the reference sort's order, a pivot block's
     *  members. */
    std::vector<std::uint32_t> order;
};

/**
 * Append to @p selected, in rank order, the input indices of the
 * shortest ranked prefix of @p row whose running double sum of
 * @p mass reaches @p target (the whole row when it never does).
 * Clobbers row.value (picked entries are overwritten) and, for
 * non-finite rows, the entry order.
 *
 * Rows holding ±Inf (but no NaN) are still totally ordered and take
 * the full sort. A row holding NaN is not ordered by the rank
 * comparison; it takes successive scalar argmax scans that swap each
 * pick to the head of the remainder, the historical semantics.
 */
void prefixSelect(nn::PsumRow &row, double target, PrefixMass mass,
                  PrefixScratch &scratch, std::vector<std::size_t> &selected);

/** The oracle: fully sort the row's positions by rank, then take the
 *  same prefix. Leaves @p row untouched. */
void referencePrefixSelect(const nn::PsumRow &row, double target,
                           PrefixMass mass, PrefixScratch &scratch,
                           std::vector<std::size_t> &selected);

/** Input index of the rank-first entry of a non-empty @p row. */
std::uint32_t rankedFirst(const nn::PsumRow &row);

/** Scratch of selectConvLanes (grown once; steady state allocates
 *  nothing). */
struct ConvLaneScratch
{
    util::AlignedF32 rows;           ///< [taps][16] transposed rows
    nn::detail::ConvLaneGroup group; ///< lane inputs and picks
};

/** Neurons selectConvLanes takes at once. */
inline constexpr std::size_t kConvLanes = nn::detail::kLaneGroup;

/**
 * Fewest neurons worth a lane group: a group costs about the same at
 * any lane count (its row build is one gather per tap), so a layer's
 * last group below this takes the per-row path. BM_ConvLaneSelect, one
 * thread, best of 5 on a 4-vCPU AVX-512 Xeon, ns per neuron per-row /
 * in groups of 4 / of 8: 83 / 76 / 42 at 27 taps, 226 / 292 / 155 at
 * 144, 505 / 575 / 307 at 288 — a group breaks even at 3.7, 5.2 and
 * 4.6 neurons.
 */
inline constexpr std::size_t kMinConvLanes = 5;

/**
 * Cumulative-threshold selection for @p n <= kConvLanes output neurons
 * @p outs of @p conv at once, neuron i in lane i, by the AVX-512 lane
 * kernel (nn::detail::avx512ConvLaneSelect). Lane i's target is
 * @p theta * output[outs[i]] with signed mass, as the per-row path
 * computes it. Requires @p rf_offsets, the receptiveFieldOffsets
 * table for @p input's shape. Callers use it under SimdMode::Avx512,
 * the one mode that has the kernel; a build without it leaves every
 * lane to the per-row path.
 *
 * Returns the mask of the lanes it finished. Lane i's selected input
 * indices, in rank order, are scratch.group.index[p][i] for p <
 * scratch.group.count[i], out of a row of scratch.group.taps[i]
 * partial sums: exactly prefixSelect's sequence for that row. The
 * other lanes are left to the per-row path: an output <= 0 (which
 * keeps the rank-first entry), a non-finite partial sum, or a prefix
 * longer than kMaxSelectScanPasses.
 */
std::uint32_t selectConvLanes(const nn::Conv2d &conv,
                              const nn::Tensor &input,
                              const std::uint32_t *rf_offsets,
                              const std::size_t *outs, std::size_t n,
                              const nn::Tensor &output, double theta,
                              ConvLaneScratch &scratch);

} // namespace ptolemy::path

#endif // PTOLEMY_PATH_PREFIX_SELECT_HH
