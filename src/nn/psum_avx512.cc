/**
 * @file
 * AVX-512 conv lane kernel: ranked-prefix selection for 16 conv output
 * neurons at once, one neuron per zmm lane. Like gemm_avx512.cc this TU
 * is compiled with -mavx512f (on top of -mavx2 -mfma), reached only
 * through a runtime dispatch on SimdMode::Avx512, and defines nothing
 * with external linkage besides its one entry point.
 *
 * Per lane the kernel is the per-row path's phase 1 (path/
 * prefix_select.cc, selectFinite), pick for pick: the same
 * single-rounding products w * x, the same argmax passes with the
 * lower-index tie-break, and the same double running sum compared with
 * the same target after every pick. The lanes share nothing but the
 * sweeps, so a lane's picks do not depend on its neighbours.
 */

#include "psum_kernels.hh"

#ifdef PTOLEMY_HAVE_AVX512

#include <immintrin.h>

#include <cfloat>
#include <cmath>

namespace ptolemy::nn::detail
{

namespace
{

/** Lane-wise maximum of rows[0, K), K >= 1. Max over a NaN-free set
 *  does not depend on order (only, for a zero maximum, the sign of the
 *  zero, which the caller compares with ==). */
inline __m512
columnMax(const float *rows, int K)
{
    const __m512 ninf = _mm512_set1_ps(-INFINITY);
    __m512 m0 = ninf, m1 = ninf, m2 = ninf, m3 = ninf;
    int t = 0;
    for (; t + 4 <= K; t += 4) {
        m0 = _mm512_max_ps(m0, _mm512_load_ps(rows + 16 * t));
        m1 = _mm512_max_ps(m1, _mm512_load_ps(rows + 16 * (t + 1)));
        m2 = _mm512_max_ps(m2, _mm512_load_ps(rows + 16 * (t + 2)));
        m3 = _mm512_max_ps(m3, _mm512_load_ps(rows + 16 * (t + 3)));
    }
    for (; t < K; ++t)
        m0 = _mm512_max_ps(m0, _mm512_load_ps(rows + 16 * t));
    return _mm512_max_ps(_mm512_max_ps(m0, m1), _mm512_max_ps(m2, m3));
}

/**
 * Per lane, the first tap t < K with rows[t] == m (so -0.0 matches
 * +0.0); junk in lanes without one. Two descending sweeps over the
 * halves, each keeping its last hit, so neither waits on the other;
 * a hit in the lower half wins (all-ones marks no hit).
 */
inline __m512i
firstEqual(const float *rows, int K, __m512 m)
{
    const __m512i one = _mm512_set1_epi32(1);
    const int half = K / 2;
    __m512i lo = _mm512_set1_epi32(-1), hi = lo;
    __m512i tl = _mm512_set1_epi32(half - 1), th = _mm512_set1_epi32(K - 1);
    for (int j = K - 1; j >= half; --j) {
        if (j - half < half) {
            lo = _mm512_mask_mov_epi32(
                lo,
                _mm512_cmp_ps_mask(_mm512_load_ps(rows + 16 * (j - half)),
                                   m, _CMP_EQ_OQ),
                tl);
            tl = _mm512_sub_epi32(tl, one);
        }
        hi = _mm512_mask_mov_epi32(
            hi, _mm512_cmp_ps_mask(_mm512_load_ps(rows + 16 * j), m, _CMP_EQ_OQ),
            th);
        th = _mm512_sub_epi32(th, one);
    }
    return _mm512_min_epu32(lo, hi);
}

/** Quotient a / b of non-negative int32 lanes by b >= 1, through
 *  double division: the correctly rounded quotient of operands below
 *  2^31 truncates to the exact floor. */
inline __m512i
quotient(__m512i a, int b)
{
    const __m512d bd = _mm512_set1_pd(b);
    const __m256i lo = _mm512_cvttpd_epi32(
        _mm512_div_pd(_mm512_cvtepi32_pd(_mm512_castsi512_si256(a)), bd));
    const __m256i hi = _mm512_cvttpd_epi32(_mm512_div_pd(
        _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(a, 1)), bd));
    return _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
}

/** A group's neurons, one per lane. */
struct Lanes
{
    __m512i oc, iy0, ix0; ///< output channel, window top-left corner
    __m512d targetLo, targetHi; ///< theta * output, lanes 0-7 and 8-15
    __mmask16 live; ///< lanes whose output is > 0 or NaN
};

inline Lanes
laneInputs(const ConvLaneGroup &g)
{
    const auto held = static_cast<__mmask16>((1u << g.lanes) - 1u);
    const __m512i o = _mm512_maskz_loadu_epi32(held, g.neuron);
    const __m512i plane = _mm512_set1_epi32(g.oh * g.ow);
    const __m512i ow = _mm512_set1_epi32(g.ow);
    const __m512i stride = _mm512_set1_epi32(g.stride);
    const __m512i pad = _mm512_set1_epi32(g.pad);
    Lanes n;
    n.oc = quotient(o, g.oh * g.ow);
    const __m512i rem = _mm512_sub_epi32(o, _mm512_mullo_epi32(n.oc, plane));
    const __m512i oy = quotient(rem, g.ow);
    const __m512i ox = _mm512_sub_epi32(rem, _mm512_mullo_epi32(oy, ow));
    n.iy0 = _mm512_sub_epi32(_mm512_mullo_epi32(oy, stride), pad);
    n.ix0 = _mm512_sub_epi32(_mm512_mullo_epi32(ox, stride), pad);
    // The per-row path keeps the rank-first entry where out <= 0, and
    // ranks toward theta * out otherwise, NaN included.
    const __m512 out =
        _mm512_mask_i32gather_ps(_mm512_setzero_ps(), held, o, g.output, 4);
    n.live = _mm512_mask_cmp_ps_mask(held, out, _mm512_setzero_ps(),
                                     _CMP_NLE_UQ);
    const __m512d theta = _mm512_set1_pd(g.theta);
    n.targetLo = _mm512_mul_pd(
        theta, _mm512_cvtps_pd(_mm512_castps512_ps256(out)));
    n.targetHi = _mm512_mul_pd(
        theta, _mm512_cvtps_pd(_mm256_castpd_ps(
                   _mm512_extractf64x4_pd(_mm512_castps_pd(out), 1))));
    return n;
}

/** What a row build leaves for the passes. */
struct Built
{
    __m512i taps;  ///< real taps per lane
    __mmask16 bad; ///< lanes with a non-finite product
    __m512 max;    ///< per-lane maximum over the rows
};

/**
 * Build the rows transposed, taps in (ic, ky, kx) order: a tap is real
 * where the window row and column fall inside the map. The input is
 * gathered; the weights come from the W^T panels by one permute per
 * tap (kPanels) or are gathered from the weight rows.
 */
template <bool kPanels>
Built
buildRows(const ConvLaneGroup &g, const Lanes &n, __m512i base, float *rows)
{
    const int k = g.k;
    const int K = g.inC * k * k;
    const __m512 ninf = _mm512_set1_ps(-INFINITY);
    const __m512 fmax = _mm512_set1_ps(FLT_MAX);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i ih = _mm512_set1_epi32(g.ih);
    const __m512i iw = _mm512_set1_epi32(g.iw);
    const __m512i wrow = _mm512_mullo_epi32(n.oc, _mm512_set1_epi32(K));
    const float *wt_hi = g.outC == 32 ? g.wt + 16 * K : g.wt;
    Built b{zero, 0, ninf};
    int t = 0;
    for (int ic = 0; ic < g.inC; ++ic) {
        for (int ky = 0; ky < k; ++ky) {
            const __m512i iy = _mm512_add_epi32(n.iy0, _mm512_set1_epi32(ky));
            const __mmask16 row_ok = _mm512_mask_cmplt_epi32_mask(
                _mm512_mask_cmpge_epi32_mask(n.live, iy, zero), iy, ih);
            for (int kx = 0; kx < k; ++kx, ++t) {
                const __m512i ix =
                    _mm512_add_epi32(n.ix0, _mm512_set1_epi32(kx));
                const __mmask16 ok = _mm512_mask_cmplt_epi32_mask(
                    _mm512_mask_cmpge_epi32_mask(row_ok, ix, zero), ix, iw);
                const __m512 x = _mm512_mask_i32gather_ps(
                    ninf, ok,
                    _mm512_add_epi32(
                        base,
                        _mm512_set1_epi32(static_cast<int>(g.off[t]))),
                    g.in, 4);
                __m512 w;
                if constexpr (kPanels)
                    w = _mm512_permutex2var_ps(_mm512_load_ps(g.wt + 16 * t),
                                               n.oc,
                                               _mm512_load_ps(wt_hi + 16 * t));
                else
                    w = _mm512_mask_i32gather_ps(
                        ninf, ok,
                        _mm512_add_epi32(wrow, _mm512_set1_epi32(t)),
                        g.weight, 4);
                const __m512 p = _mm512_mask_mul_ps(ninf, ok, w, x);
                b.bad |= _mm512_mask_cmp_ps_mask(ok, _mm512_abs_ps(p), fmax,
                                                 _CMP_NLE_UQ);
                b.taps = _mm512_mask_add_epi32(b.taps, ok, b.taps, one);
                b.max = _mm512_max_ps(b.max, p);
                _mm512_store_ps(rows + 16 * t, p);
            }
        }
    }
    return b;
}

} // namespace

void
avx512ConvLaneSelect(ConvLaneGroup &g, float *rows)
{
    const int K = g.inC * g.k * g.k;
    const __m512 ninf = _mm512_set1_ps(-INFINITY);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi32(1);
    const Lanes n = laneInputs(g);
    // Input index of lane l's tap t: base[l] + off[t].
    const __m512i base = _mm512_add_epi32(
        _mm512_mullo_epi32(n.iy0, _mm512_set1_epi32(g.iw)), n.ix0);
    const Built b = g.wt ? buildRows<true>(g, n, base, rows)
                         : buildRows<false>(g, n, base, rows);

    // A lane runs while its sum is short of its target, up to its real
    // taps or cap passes, whichever is fewer; a row with a non-finite
    // product is left before its first pass.
    const __m512i cap = _mm512_set1_epi32(g.cap);
    const __m512i last = _mm512_min_epi32(b.taps, cap);
    const __mmask16 long_row = _mm512_cmpgt_epi32_mask(b.taps, cap);
    const __m512i lane_id = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                              10, 11, 12, 13, 14, 15);
    __mmask16 active = n.live & ~b.bad & _mm512_cmpgt_epi32_mask(b.taps, zero);
    __mmask16 found = active;
    __m512 m = b.max;
    __m512d cum_lo = _mm512_setzero_pd(), cum_hi = _mm512_setzero_pd();
    __m512i count = zero;
    for (int pass = 0; active; ++pass) {
        const __m512i pos = firstEqual(rows, K, m);
        _mm512_mask_i32scatter_ps(
            rows, active, _mm512_add_epi32(_mm512_slli_epi32(pos, 4), lane_id),
            ninf, 4);
        _mm512_mask_storeu_epi32(
            g.index[pass], active,
            _mm512_add_epi32(base, _mm512_mask_i32gather_epi32(
                                       zero, active, pos, g.off, 4)));
        // The picked value equals m (a zero of either sign adds
        // nothing to a sum that starts at +0).
        cum_lo = _mm512_mask_add_pd(cum_lo, static_cast<__mmask8>(active),
                                    cum_lo,
                                    _mm512_cvtps_pd(_mm512_castps512_ps256(m)));
        cum_hi = _mm512_mask_add_pd(
            cum_hi, static_cast<__mmask8>(active >> 8), cum_hi,
            _mm512_cvtps_pd(_mm256_castpd_ps(
                _mm512_extractf64x4_pd(_mm512_castps_pd(m), 1))));
        count = _mm512_mask_add_epi32(count, active, count, one);
        const auto reached = static_cast<__mmask16>(
            _mm512_cmp_pd_mask(cum_lo, n.targetLo, _CMP_GE_OQ) |
            (_mm512_cmp_pd_mask(cum_hi, n.targetHi, _CMP_GE_OQ) << 8));
        const __mmask16 ends =
            active & (reached | _mm512_cmpeq_epi32_mask(count, last));
        found &= ~(ends & ~reached & long_row);
        active &= ~ends;
        if (active)
            m = columnMax(rows, K);
    }
    _mm512_storeu_si512(g.taps, b.taps);
    _mm512_storeu_si512(g.count, count);
    g.done = found;
}

} // namespace ptolemy::nn::detail

#endif // PTOLEMY_HAVE_AVX512
