/**
 * @file
 * Internal SIMD kernel interface for partial-sum rows (nn::PsumRow):
 * row construction, shared by the dispatching layers (linear.cc,
 * conv.cc), the row sweeps of ranked-prefix selection, and the
 * AVX-512 conv lane kernel, all used by path/prefix_select.cc. Same
 * arrangement as gemm_kernels.hh: only psum_avx2.cc is compiled with
 * -mavx2 -mfma, and only psum_avx512.cc with -mavx512f on top.
 *
 * Every kernel is bit-identical to its scalar loop by construction.
 * Partial-sum values are single products w * x (one rounding each, no
 * accumulation order to preserve), and the selection sweeps are pure
 * comparisons and max over NaN-free rows, which do not depend on lane
 * order. The lane kernel runs each neuron's argmax passes in its own
 * zmm lane, with its own double running sum, so a lane's picks are the
 * ones the per-row passes make.
 */

#ifndef PTOLEMY_NN_PSUM_KERNELS_HH
#define PTOLEMY_NN_PSUM_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace ptolemy::nn::detail
{

/** Conv neurons per lane group: one per zmm lane. */
inline constexpr int kLaneGroup = 16;
/** Picks a lane group records per lane; a lane whose prefix is longer
 *  is handed back to the per-row path. */
inline constexpr int kLanePicks = 32;

/**
 * One group of up to kLaneGroup output neurons of a Conv2d whose ranked
 * prefixes avx512ConvLaneSelect finds together, neuron l in lane l. The
 * caller fills the layer's geometry and the neurons; the kernel fills
 * the results. Lane l's target is theta * output[neuron[l]] in double,
 * and its prefix the shortest run of argmax passes over its receptive
 * field (value descending, input index ascending on ties) whose running
 * double sum reaches the target: phase 1 of path::prefixSelect, pick
 * for pick.
 */
struct ConvLaneGroup
{
    // The layer.
    const float *weight = nullptr; ///< [outC][K] weight rows
    /** The packed W^T panels (Conv2d::packedWeights) when outC is 16 or
     *  32, read by permute: tap t's channels 0-15 at wt + 16 t, 16-31
     *  at wt + 16 (K + t). Null: the kernel gathers from weight. */
    const float *wt = nullptr;
    int outC = 0, inC = 0, k = 0, stride = 1, pad = 0;
    const float *in = nullptr; ///< input map [inC][ih][iw]
    int ih = 0, iw = 0;
    /** K tap offsets (Conv2d::receptiveFieldOffsets of the input). */
    const std::uint32_t *off = nullptr;
    const float *output = nullptr; ///< output map [outC][oh][ow]
    int oh = 0, ow = 0;
    double theta = 0.0;   ///< coverage fraction of the output
    int cap = kLanePicks; ///< passes per lane, 1..kLanePicks

    // The neurons.
    int lanes = 0; ///< lanes [0, lanes) hold a neuron, 1..kLaneGroup
    alignas(64) std::int32_t neuron[kLaneGroup] = {}; ///< output index

    // Results.
    /** Lanes whose prefixes the kernel found. The others are left to
     *  the per-row path: an output <= 0 (the rank-first entry is kept
     *  there), a real tap's product that is not finite, or a prefix
     *  longer than cap passes. */
    std::uint32_t done = 0;
    alignas(64) std::int32_t taps[kLaneGroup] = {};  ///< unclipped taps
    alignas(64) std::int32_t count[kLaneGroup] = {}; ///< prefix length
    /** index[p][l]: input index of lane l's p-th pick, p < count[l]. */
    alignas(64) std::uint32_t index[kLanePicks][kLaneGroup] = {};
};

#ifdef PTOLEMY_HAVE_AVX2

/** value[i] = w[i] * x[i] for i in [0, n): one Linear row's values. */
void avx2Products(const float *w, const float *x, std::size_t n,
                  float *value);

/**
 * One interior conv row through a receptive-field offset table:
 * index[j] = base + off[j], value[j] = w[j] * in[index[j]] for j in
 * [0, n). 8 taps per vgatherdps; scalar tail.
 */
void avx2GatherProducts(const float *w, const float *in, std::uint32_t base,
                        const std::uint32_t *off, std::size_t n,
                        float *value, std::uint32_t *index);

/** True when every v[i], i in [0, n), is finite (no NaN, no ±Inf). */
bool avx2AllFinite(const float *v, std::size_t n);

/** Maximum of v[0, n); n >= 1 and no NaN in the row. */
float avx2RowMax(const float *v, std::size_t n);

/** Sum, in float, of the entries of v[0, n) that are >= p (p > 0, no
 *  NaN in the row). A pivot-choice estimate only: lane order changes
 *  its rounding, so callers never decide membership by it. */
float avx2MassAtLeast(const float *v, std::size_t n, float p);

/** First position i in [0, n) with v[i] == m (so -0.0 matches +0.0),
 *  or n when there is none. */
std::size_t avx2FirstEqual(const float *v, std::size_t n, float m);

#endif // PTOLEMY_HAVE_AVX2

#ifdef PTOLEMY_HAVE_AVX512

/**
 * Ranked prefixes of a lane group's neurons, 16 at a time
 * (psum_avx512.cc, built with -mavx512f). The rows are built
 * transposed into @p rows ([K][16] floats, 64-byte aligned):
 * rows[t][l] = w * x at lane l's real taps, -Inf at the taps its
 * window clips. Each pass takes every lane's maximum with one vertical
 * sweep, finds the first tap holding it by a descending sweep (taps
 * ascend in input index, so that is the lower-index tie-break), adds
 * it to the lane's double sum and writes -Inf over it. A lane stops
 * when its sum reaches its target, after all of its real taps, or
 * after cap passes (handed back if taps remain).
 */
void avx512ConvLaneSelect(ConvLaneGroup &g, float *rows);

#endif // PTOLEMY_HAVE_AVX512

} // namespace ptolemy::nn::detail

#endif // PTOLEMY_NN_PSUM_KERNELS_HH
