/**
 * @file
 * AVX-512 partial-sum kernels: the conv lane kernel, ranked-prefix
 * selection for 16 conv output neurons at once, one neuron per zmm
 * lane, and the 16-wide row sweeps of the pivot blocks. Like
 * gemm_avx512.cc this TU is compiled with -mavx512f (on top of -mavx2
 * -mfma), reached only through a runtime dispatch on SimdMode::Avx512,
 * and defines nothing with external linkage besides the entry points
 * psum_kernels.hh declares.
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

/** Mask of the first @p rem (1..15) lanes. */
inline __mmask16
tailMask(std::size_t rem)
{
    return static_cast<__mmask16>((1u << rem) - 1u);
}

/** Per lane, a maximum and the tap holding it. */
struct LaneMax
{
    __m512 max;
    __m512i pos;
};

/** Fold tap @p t's row @p v into @p a: a strictly greater value moves
 *  the maximum and its tap, so the lower tap keeps a tie, -0.0 and
 *  +0.0 included. */
inline void
foldTap(LaneMax &a, __m512 v, __m512i t)
{
    a.pos = _mm512_mask_mov_epi32(a.pos,
                                  _mm512_cmp_ps_mask(v, a.max, _CMP_GT_OQ), t);
    a.max = _mm512_max_ps(a.max, v);
}

/** @p lo, the maximum over lower taps, merged with @p hi: @p hi's tap
 *  only where its maximum is strictly greater. */
inline LaneMax
mergeHigher(LaneMax lo, LaneMax hi)
{
    const __mmask16 up = _mm512_cmp_ps_mask(hi.max, lo.max, _CMP_GT_OQ);
    return {_mm512_mask_mov_ps(lo.max, up, hi.max),
            _mm512_mask_mov_epi32(lo.pos, up, hi.pos)};
}

/**
 * Per lane, the maximum of rows[0, K) and the first tap holding it
 * (so -0.0 ties with +0.0), in one sweep. The taps split into four
 * contiguous quarters swept side by side, so no quarter waits on
 * another's max chain; the quarters merge in tap order with the lower
 * one keeping ties. Rows are NaN-free. A lane whose rows are all -Inf
 * comes out as (-Inf, junk tap); the caller never asks for one.
 */
inline LaneMax
columnArgmax(const float *rows, int K)
{
    const int q = K / 4;
    const float *r1 = rows + 16 * q, *r2 = r1 + 16 * q, *r3 = r2 + 16 * q;
    const LaneMax none{_mm512_set1_ps(-INFINITY), _mm512_setzero_si512()};
    LaneMax a0 = none, a1 = none, a2 = none, a3 = none;
    for (int j = 0; j < q; ++j) {
        const __m512i t = _mm512_set1_epi32(j);
        foldTap(a0, _mm512_load_ps(rows + 16 * j), t);
        foldTap(a1, _mm512_load_ps(r1 + 16 * j), t);
        foldTap(a2, _mm512_load_ps(r2 + 16 * j), t);
        foldTap(a3, _mm512_load_ps(r3 + 16 * j), t);
    }
    for (int j = q; j < K - 3 * q; ++j)
        foldTap(a3, _mm512_load_ps(r3 + 16 * j), _mm512_set1_epi32(j));
    a1.pos = _mm512_add_epi32(a1.pos, _mm512_set1_epi32(q));
    a2.pos = _mm512_add_epi32(a2.pos, _mm512_set1_epi32(2 * q));
    a3.pos = _mm512_add_epi32(a3.pos, _mm512_set1_epi32(3 * q));
    return mergeHigher(mergeHigher(a0, a1), mergeHigher(a2, a3));
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
    LaneMax first; ///< per-lane maximum over the rows and its first tap
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
    Built b{zero, 0, {ninf, zero}};
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
                foldTap(b.first, p, _mm512_set1_epi32(t));
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
    // Pass 1's argmax comes from the row build; each later pass's from
    // one sweep over the rows.
    LaneMax best = b.first;
    __m512d cum_lo = _mm512_setzero_pd(), cum_hi = _mm512_setzero_pd();
    __m512i count = zero;
    for (int pass = 0; active; ++pass) {
        const __m512 m = best.max;
        const __m512i pos = best.pos;
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
            best = columnArgmax(rows, K);
    }
    _mm512_storeu_si512(g.taps, b.taps);
    _mm512_storeu_si512(g.count, count);
    g.done = found;
}

float
avx512RowMax(const float *v, std::size_t n)
{
    // Four accumulators hide the vmaxps latency; max over a NaN-free
    // set is order-independent (up to the sign of a zero maximum).
    const __m512 ninf = _mm512_set1_ps(-INFINITY);
    __m512 m0 = ninf, m1 = ninf, m2 = ninf, m3 = ninf;
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        m0 = _mm512_max_ps(m0, _mm512_loadu_ps(v + i));
        m1 = _mm512_max_ps(m1, _mm512_loadu_ps(v + i + 16));
        m2 = _mm512_max_ps(m2, _mm512_loadu_ps(v + i + 32));
        m3 = _mm512_max_ps(m3, _mm512_loadu_ps(v + i + 48));
    }
    for (; i + 16 <= n; i += 16)
        m0 = _mm512_max_ps(m0, _mm512_loadu_ps(v + i));
    if (i < n)
        m1 = _mm512_max_ps(m1, _mm512_mask_loadu_ps(ninf, tailMask(n - i),
                                                    v + i));
    return _mm512_reduce_max_ps(
        _mm512_max_ps(_mm512_max_ps(m0, m1), _mm512_max_ps(m2, m3)));
}

float
avx512MassAtLeast(const float *v, std::size_t n, float p)
{
    const __m512 pv = _mm512_set1_ps(p);
    __m512 s0 = _mm512_setzero_ps(), s1 = s0, s2 = s0, s3 = s0;
    auto at_least = [&](__m512 x, __mmask16 k) {
        return _mm512_maskz_mov_ps(
            _mm512_mask_cmp_ps_mask(k, x, pv, _CMP_GE_OQ), x);
    };
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        s0 = _mm512_add_ps(s0, at_least(_mm512_loadu_ps(v + i), 0xffff));
        s1 = _mm512_add_ps(s1, at_least(_mm512_loadu_ps(v + i + 16), 0xffff));
        s2 = _mm512_add_ps(s2, at_least(_mm512_loadu_ps(v + i + 32), 0xffff));
        s3 = _mm512_add_ps(s3, at_least(_mm512_loadu_ps(v + i + 48), 0xffff));
    }
    for (; i + 16 <= n; i += 16)
        s0 = _mm512_add_ps(s0, at_least(_mm512_loadu_ps(v + i), 0xffff));
    if (i < n) {
        const __mmask16 k = tailMask(n - i);
        s1 = _mm512_add_ps(s1, at_least(_mm512_maskz_loadu_ps(k, v + i), k));
    }
    return _mm512_reduce_add_ps(
        _mm512_add_ps(_mm512_add_ps(s0, s1), _mm512_add_ps(s2, s3)));
}

std::size_t
avx512PositionsAtLeast(const float *v, std::size_t n, float p,
                       std::uint32_t *pos)
{
    const __m512 pv = _mm512_set1_ps(p);
    const __m512i step = _mm512_set1_epi32(16);
    __m512i at = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                   13, 14, 15);
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; i += 16) {
        const __mmask16 k = n - i >= 16 ? 0xffff : tailMask(n - i);
        const __mmask16 hit = _mm512_mask_cmp_ps_mask(
            k, _mm512_maskz_loadu_ps(k, v + i), pv, _CMP_GE_OQ);
        if (hit) {
            _mm512_mask_compressstoreu_epi32(pos + m, hit, at);
            m += static_cast<std::size_t>(__builtin_popcount(hit));
        }
        at = _mm512_add_epi32(at, step);
    }
    return m;
}

} // namespace ptolemy::nn::detail

#endif // PTOLEMY_HAVE_AVX512
