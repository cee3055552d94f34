/**
 * @file
 * Exact ranked-prefix selection over one partial-sum row (paper Sec.
 * III-A/III-C cumulative threshold).
 *
 * Entries rank by value descending, input index ascending on ties — a
 * total order on finite rows, so "the minimal ranked prefix whose sum
 * reaches the target" is one well-defined set. prefixSelect finds it
 * without sorting the row: up to kMaxSelectScanPasses passes of
 * (vector max, first position equal to it), then ranked pivot blocks
 * that sort only the entries the prefix can still reach. Because rows
 * are in ascending input-index order (nn::PsumRow invariant), the
 * first position holding the maximum is exactly the lower-index
 * tie-break. The running sum adds the same values in the same order as
 * a full sort, so the cut — and the emitted index sequence — are
 * identical to referencePrefixSelect's.
 *
 * selectConvLanes runs the same phase 1 for up to 16 neurons of one
 * conv layer at once, one per AVX-512 lane, over rows it builds
 * transposed; the lanes it cannot finish go back to prefixSelect.
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
    std::vector<std::uint32_t> order; ///< reference-sort row positions
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
