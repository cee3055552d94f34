/**
 * @file
 * AVX2/FMA kernels: the implicit-GEMM conv forward tile, the conv input
 * gradient, the NT product of the weight gradient and the Linear
 * gemv. Built with -mavx2 -mfma (see CMakeLists); everything here is
 * reached through runtime dispatch in gemm.cc, guarded by
 * avx2CpuSupported().
 *
 * Each conv output element follows the AVX2 fold of gemm_kernels.hh,
 * so results are bit-identical no matter how the driver blocks or
 * threads the work.
 */

#include "gemm_kernels.hh"

#ifdef PTOLEMY_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "util/aligned.hh"

namespace ptolemy::nn::detail
{

namespace
{

/** Lane masks selecting the first n <= 8 lanes (load at offset 8 - n). */
alignas(32) constexpr int kLaneMaskTab[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                              0,  0,  0,  0,  0,  0,  0,  0};

inline __m256i
laneMask(int n)
{
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(kLaneMaskTab + 8 - n));
}

/** In-register 8x8 float transpose (data movement only, no rounding). */
inline void
transpose8x8(__m256 r[8])
{
    __m256 t[8];
    t[0] = _mm256_unpacklo_ps(r[0], r[1]);
    t[1] = _mm256_unpackhi_ps(r[0], r[1]);
    t[2] = _mm256_unpacklo_ps(r[2], r[3]);
    t[3] = _mm256_unpackhi_ps(r[2], r[3]);
    t[4] = _mm256_unpacklo_ps(r[4], r[5]);
    t[5] = _mm256_unpackhi_ps(r[4], r[5]);
    t[6] = _mm256_unpacklo_ps(r[6], r[7]);
    t[7] = _mm256_unpackhi_ps(r[6], r[7]);
    __m256 s[8];
    s[0] = _mm256_shuffle_ps(t[0], t[2], 0x44);
    s[1] = _mm256_shuffle_ps(t[0], t[2], 0xEE);
    s[2] = _mm256_shuffle_ps(t[1], t[3], 0x44);
    s[3] = _mm256_shuffle_ps(t[1], t[3], 0xEE);
    s[4] = _mm256_shuffle_ps(t[4], t[6], 0x44);
    s[5] = _mm256_shuffle_ps(t[4], t[6], 0xEE);
    s[6] = _mm256_shuffle_ps(t[5], t[7], 0x44);
    s[7] = _mm256_shuffle_ps(t[5], t[7], 0xEE);
    r[0] = _mm256_permute2f128_ps(s[0], s[4], 0x20);
    r[1] = _mm256_permute2f128_ps(s[1], s[5], 0x20);
    r[2] = _mm256_permute2f128_ps(s[2], s[6], 0x20);
    r[3] = _mm256_permute2f128_ps(s[3], s[7], 0x20);
    r[4] = _mm256_permute2f128_ps(s[0], s[4], 0x31);
    r[5] = _mm256_permute2f128_ps(s[1], s[5], 0x31);
    r[6] = _mm256_permute2f128_ps(s[2], s[6], 0x31);
    r[7] = _mm256_permute2f128_ps(s[3], s[7], 0x31);
}

/** Copy @p rows stage rows of @p P floats out to @p out, @p ldc apart. */
inline void
flushStage(const float *stage, int rows, int P, float *out,
           std::ptrdiff_t ldc)
{
    for (int c = 0; c < rows; ++c)
        std::memcpy(out + c * ldc, stage + c * kStageLd, sizeof(float) * P);
}

/**
 * Implicit-GEMM conv register tile: R output positions (broadcast
 * operand) x 16 output channels (vector operand) over a packed [k][16]
 * weight panel. The A element for tap k at strip position r is read
 * straight from the zero-padded input plane, xp[koff[k] + poff[r]] —
 * exactly the value im2col would have written, padding zeros included
 * — so no A panel is ever emitted. Per element this is the AVX2 fold
 * of gemm_kernels.hh: fma(a_k, w_ik, acc) over k ascending from +0,
 * then one bias addition. The accumulators hold 16
 * channels per position; an in-register 8x8 transpose turns them into
 * per-channel rows of R positions, stored full-width into the
 * [16][kStageLd] @p stage (lanes past R land where the next strip
 * writes afterwards).
 */
template <int R>
inline void
implicitStripKx16(int K, const float *xp, const int *koff, const int *poff,
                  const float *wp, const float *bias, float *stage)
{
    const float *x[R];
    __m256 acc0[R], acc1[R];
    for (int r = 0; r < R; ++r) {
        x[r] = xp + poff[r];
        acc0[r] = _mm256_setzero_ps();
        acc1[r] = _mm256_setzero_ps();
    }
    // Keep the 4x-unrolled step shape: a plain k loop lets GCC spill
    // the accumulators every iteration.
    auto step = [&](int k) {
        const float *w = wp + static_cast<std::size_t>(k) * 16;
        const int o = koff[k];
        const __m256 b0 = _mm256_load_ps(w);
        const __m256 b1 = _mm256_load_ps(w + 8);
        for (int r = 0; r < R; ++r) {
            const __m256 av = _mm256_broadcast_ss(x[r] + o);
            acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
            acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
        }
    };
    int k = 0;
    for (; k + 4 <= K; k += 4) {
        step(k);
        step(k + 1);
        step(k + 2);
        step(k + 3);
    }
    for (; k < K; ++k)
        step(k);
    // Bias before the transpose: out = fold + b, one addition.
    const __m256 bv0 = _mm256_loadu_ps(bias);
    const __m256 bv1 = _mm256_loadu_ps(bias + 8);
    __m256 t0[8], t1[8];
    for (int r = 0; r < 8; ++r)
        t0[r] = t1[r] = _mm256_setzero_ps();
    for (int r = 0; r < R; ++r) {
        t0[r] = _mm256_add_ps(acc0[r], bv0);
        t1[r] = _mm256_add_ps(acc1[r], bv1);
    }
    transpose8x8(t0);
    transpose8x8(t1);
    for (int c = 0; c < 8; ++c)
        _mm256_storeu_ps(stage + c * kStageLd, t0[c]);
    for (int c = 0; c < 8; ++c)
        _mm256_storeu_ps(stage + (8 + c) * kStageLd, t1[c]);
}

/**
 * 8-lane variant of implicitStripKx16 for the last @p W <= 8 channels:
 * the 8-wide weight panel (W = 8) or the scalar-tail panel ([k][W],
 * W < 8), whose missing lanes load as zero. Per lane the fold is the
 * same fma chain as the 16-wide tile.
 */
template <int R>
inline void
implicitStripKx8(int K, const float *xp, const int *koff, const int *poff,
                 const float *wp, int W, const float *bias, float *stage)
{
    const __m256i wmask = laneMask(W);
    const float *x[R];
    __m256 acc[R];
    for (int r = 0; r < R; ++r) {
        x[r] = xp + poff[r];
        acc[r] = _mm256_setzero_ps();
    }
    auto step = [&](int k) {
        const __m256 b0 =
            _mm256_maskload_ps(wp + static_cast<std::size_t>(k) * W, wmask);
        const int o = koff[k];
        for (int r = 0; r < R; ++r)
            acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(x[r] + o), b0,
                                     acc[r]);
    };
    int k = 0;
    for (; k + 4 <= K; k += 4) {
        step(k);
        step(k + 1);
        step(k + 2);
        step(k + 3);
    }
    for (; k < K; ++k)
        step(k);
    const __m256 bv = _mm256_maskload_ps(bias, wmask);
    __m256 t[8];
    for (int r = 0; r < 8; ++r)
        t[r] = _mm256_setzero_ps();
    for (int r = 0; r < R; ++r)
        t[r] = _mm256_add_ps(acc[r], bv);
    transpose8x8(t);
    for (int c = 0; c < 8; ++c)
        _mm256_storeu_ps(stage + c * kStageLd, t[c]);
}

} // namespace

void
avx2ConvImplicitBlock(int K, int N, const float *xp, const int *koff,
                      const int *poff, int P, const float *packed,
                      const float *bias, float *out, std::ptrdiff_t ldc)
{
    assert(P >= 1 && P <= kConvBlockPositions);
    assert(util::isAligned(packed));
    // Full 6-position strips call the tile directly (so it inlines);
    // only a block's last strip can be short, dispatched on its R.
    static constexpr decltype(&implicitStripKx16<6>) kShort16[] = {
        implicitStripKx16<1>, implicitStripKx16<2>, implicitStripKx16<3>,
        implicitStripKx16<4>, implicitStripKx16<5>};
    const int n_full = P / 6;
    const int r_last = P % 6;
    const int *poff_last = poff + n_full * 6;
    // Each channel panel's strips land in a compact stage first; its
    // rows then go out as contiguous P-float runs. Storing strips
    // straight into the channel-major output would touch 16 rows
    // oh*ow floats apart per strip — one L1 set when that is 1024.
    alignas(32) float stage[16 * kStageLd];
    float *stage_last = stage + n_full * 6;
    // Channel panel OUTER, strip INNER: each K x 16 weight panel streams
    // from cache once per block rather than once per strip.
    for (int blk = 0; blk < N / 16; ++blk) {
        const float *wp = packed + static_cast<std::size_t>(blk) * K * 16;
        const float *bv = bias + blk * 16;
        assert(util::isAligned(wp));
        for (int s = 0; s < n_full; ++s)
            implicitStripKx16<6>(K, xp, koff, poff + s * 6, wp, bv,
                                 stage + s * 6);
        if (r_last > 0)
            kShort16[r_last - 1](K, xp, koff, poff_last, wp, bv, stage_last);
        flushStage(stage, 16, P, out + blk * 16 * ldc, ldc);
    }
    avx2ConvImplicitNarrowPanels(K, N, xp, koff, poff, P, packed, bias, out,
                                 ldc);
}

void
avx2ConvImplicitNarrowPanels(int K, int N, const float *xp, const int *koff,
                             const int *poff, int P, const float *packed,
                             const float *bias, float *out,
                             std::ptrdiff_t ldc)
{
    static constexpr decltype(&implicitStripKx8<6>) kShort8[] = {
        implicitStripKx8<1>, implicitStripKx8<2>, implicitStripKx8<3>,
        implicitStripKx8<4>, implicitStripKx8<5>};
    const PackedBLayout L = packedBLayout(K, N);
    const int n_full = P / 6;
    const int r_last = P % 6;
    const int *poff_last = poff + n_full * 6;
    alignas(32) float stage[8 * kStageLd];
    float *stage_last = stage + n_full * 6;
    // The 8-wide panel, then the <8-channel tail panel, through the
    // same 8-lane tile.
    int c0 = L.nFull * 16;
    for (const auto &[off, W] : {std::pair{L.off8, L.has8 ? 8 : 0},
                                 std::pair{L.offTail, L.tail}}) {
        if (W == 0)
            continue;
        const float *wp = packed + off;
        for (int s = 0; s < n_full; ++s)
            implicitStripKx8<6>(K, xp, koff, poff + s * 6, wp, W, bias + c0,
                                stage + s * 6);
        if (r_last > 0)
            kShort8[r_last - 1](K, xp, koff, poff_last, wp, W, bias + c0,
                                stage_last);
        flushStage(stage, W, P, out + c0 * ldc, ldc);
        c0 += W;
    }
}

namespace
{

/**
 * One tap's chains for a strip: out[r*V + v] = the fold of
 * fma(w_oc, dy_oc, acc) over oc ascending from +0 for RC channels
 * (broadcast operand: the weight of (oc, channel r), at
 * w[oc*oc_stride + r*kk]) x V vectors of 8 lanes (dY read in place),
 * with V = 12/RC so every channel count fills the 12-accumulator tile —
 * conv1's 3 channels run 32 lanes. Kept out of line so the strip's mask
 * constants cannot push an accumulator out of the register file.
 */
template <int RC>
__attribute__((noinline)) void
gradInputChains(int outC, std::ptrdiff_t plane_stride, const float *d,
                const float *w, std::ptrdiff_t oc_stride, int kk,
                __m256 *out)
{
    constexpr int V = 12 / RC;
    __m256 s[RC][V];
    for (int r = 0; r < RC; ++r)
        for (int v = 0; v < V; ++v)
            s[r][v] = _mm256_setzero_ps();
    auto step = [&](int oc) {
        const float *dd = d + oc * plane_stride;
        const float *ww = w + oc * oc_stride;
        if constexpr (RC >= V) {
            __m256 dv[V];
            for (int v = 0; v < V; ++v)
                dv[v] = _mm256_loadu_ps(dd + 8 * v);
            for (int r = 0; r < RC; ++r) {
                const __m256 wv = _mm256_broadcast_ss(ww + r * kk);
                for (int v = 0; v < V; ++v)
                    s[r][v] = _mm256_fmadd_ps(wv, dv[v], s[r][v]);
            }
        } else {
            __m256 wv[RC];
            for (int r = 0; r < RC; ++r)
                wv[r] = _mm256_broadcast_ss(ww + r * kk);
            for (int v = 0; v < V; ++v) {
                const __m256 dv = _mm256_loadu_ps(dd + 8 * v);
                for (int r = 0; r < RC; ++r)
                    s[r][v] = _mm256_fmadd_ps(wv[r], dv, s[r][v]);
            }
        }
    };
    int oc = 0;
    for (; oc + 4 <= outC; oc += 4) {
        step(oc);
        step(oc + 1);
        step(oc + 2);
        step(oc + 3);
    }
    for (; oc < outC; ++oc)
        step(oc);
    for (int r = 0; r < RC; ++r)
        for (int v = 0; v < V; ++v)
            out[r * V + v] = s[r][v];
}

/**
 * One strip of the conv input gradient: for each tap in order, the
 * chains of gradInputChains (the AVX2 fold over output channels),
 * added onto the lanes whose output position exists and blended away
 * elsewhere.
 */
template <int RC>
void
gradInputStrip(const ConvGradInputPhase &ph, const float *wblock,
               float *acc, int q)
{
    const std::ptrdiff_t oc_stride =
        static_cast<std::ptrdiff_t>(ph.inC) * ph.kTaps;
    constexpr int V = 12 / RC;
    const __m256i neg1 = _mm256_set1_epi32(-1);
    const __m256i ohv = _mm256_set1_epi32(ph.oh);
    const __m256i owv = _mm256_set1_epi32(ph.ow);
    // All-ones where lane q + 8v, shifted by the tap, lands on an
    // output position: 0 <= a + cy < oh and 0 <= b + cx < ow.
    const auto live = [&](int v, const ConvGradTap &tp) {
        const __m256i y = _mm256_add_epi32(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(ph.rowOf + q + 8 * v)),
            _mm256_set1_epi32(tp.cy));
        const __m256i x = _mm256_add_epi32(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(ph.colOf + q + 8 * v)),
            _mm256_set1_epi32(tp.cx));
        const __m256i m =
            _mm256_and_si256(_mm256_and_si256(_mm256_cmpgt_epi32(y, neg1),
                                              _mm256_cmpgt_epi32(ohv, y)),
                             _mm256_and_si256(_mm256_cmpgt_epi32(x, neg1),
                                              _mm256_cmpgt_epi32(owv, x)));
        return _mm256_castsi256_ps(m);
    };
    __m256 t[RC * V];
    for (int ti = 0; ti < ph.nTaps; ++ti) {
        const ConvGradTap tp = ph.taps[ti];
        __m256 m[V];
        int any = 0;
        for (int v = 0; v < V; ++v) {
            m[v] = live(v, tp);
            any |= _mm256_movemask_ps(m[v]);
        }
        if (any == 0)
            continue; // the blend would keep every lane as it is
        gradInputChains<RC>(ph.outC, ph.planeStride,
                            ph.dyp + q + tp.cy * ph.width + tp.cx,
                            wblock + tp.tap, oc_stride, ph.kTaps, t);
        for (int r = 0; r < RC; ++r)
            for (int v = 0; v < V; ++v) {
                float *p = acc + r * ph.accStride + q + 8 * v;
                const __m256 cur = _mm256_loadu_ps(p);
                _mm256_storeu_ps(p, _mm256_blendv_ps(
                                        cur, _mm256_add_ps(cur, t[r * V + v]),
                                        m[v]));
            }
    }
}

} // namespace

void
avx2ConvGradInputBlock(const ConvGradInputPhase &ph, int q0, int q1)
{
    static constexpr decltype(&gradInputStrip<1>) kStrip[] = {
        gradInputStrip<1>, gradInputStrip<2>, gradInputStrip<3>,
        gradInputStrip<4>, gradInputStrip<5>, gradInputStrip<6>};
    static_assert(kGradInChannelBlock == 6);
    // Channel block OUTER, strip INNER: a block's weights (outC runs of
    // rc*k*k floats) stay in L1 across the strips of the lane block.
    for (int ic0 = 0; ic0 < ph.inC; ic0 += kGradInChannelBlock) {
        const int rc = std::min(kGradInChannelBlock, ph.inC - ic0);
        const float *wb = ph.weight + static_cast<std::size_t>(ic0) * ph.kTaps;
        float *acc = ph.acc + ic0 * ph.accStride;
        const int lanes = 8 * (12 / rc);
        for (int q = q0; q < q1; q += lanes)
            kStrip[rc - 1](ph, wb, acc, q);
    }
}

namespace
{

/** Horizontal sum of one 8-lane accumulator: lo + hi, then two hadds. */
inline float
hsum(__m256 acc)
{
    __m128 lo = _mm256_castps256_ps128(acc);
    __m128 hi = _mm256_extractf128_ps(acc, 1);
    lo = _mm_add_ps(lo, hi);
    lo = _mm_hadd_ps(lo, lo);
    lo = _mm_hadd_ps(lo, lo);
    return _mm_cvtss_f32(lo);
}

/**
 * hsum of 8 accumulators at once, each lane's sum through the same
 * adds in the same order: the lo + hi step of two accumulators is one
 * 256-bit add of their 128-bit halves, and 256-bit hadds run the two
 * hadd levels of four accumulators per instruction.
 */
inline void
hsum8(const __m256 *x, float *out)
{
    __m256 p[4];
    for (int i = 0; i < 4; ++i) {
        const __m256 a = x[2 * i], b = x[2 * i + 1];
        p[i] = _mm256_add_ps(_mm256_permute2f128_ps(a, b, 0x20),
                             _mm256_permute2f128_ps(a, b, 0x31));
    }
    // [s0 s2 s4 s6 | s1 s3 s5 s7]
    const __m256 f = _mm256_hadd_ps(_mm256_hadd_ps(p[0], p[1]),
                                    _mm256_hadd_ps(p[2], p[3]));
    alignas(32) float t[8];
    _mm256_store_ps(t, f);
    for (int i = 0; i < 4; ++i) {
        out[2 * i] = t[i];
        out[2 * i + 1] = t[4 + i];
    }
}

/**
 * R x C block of NT dot products: each element is its own 8-lane FMA
 * chain over k, then the horizontal sum and the scalar remainder, the
 * same operations in the same order as a lone dot. Only the
 * interleaving changes: R*C independent chains hide the FMA latency
 * that a single chain is bound by, and a full 4 x 2 block shares its
 * horizontal sums (hsum8), which short rows (8 x 8 maps) are bound by.
 */
template <int R, int C>
inline void
ntBlock(const float *const *a, const float *const *b, int K, float *c,
        std::ptrdiff_t ldc, bool accumulate)
{
    __m256 acc[R][C];
    for (int r = 0; r < R; ++r)
        for (int j = 0; j < C; ++j)
            acc[r][j] = _mm256_setzero_ps();
    int k = 0;
    for (; k + 8 <= K; k += 8) {
        __m256 bv[C];
        for (int j = 0; j < C; ++j)
            bv[j] = _mm256_loadu_ps(b[j] + k);
        for (int r = 0; r < R; ++r) {
            const __m256 av = _mm256_loadu_ps(a[r] + k);
            for (int j = 0; j < C; ++j)
                acc[r][j] = _mm256_fmadd_ps(av, bv[j], acc[r][j]);
        }
    }
    // Horizontal sums, then the scalar remainders.
    float sums[R * C];
    if constexpr (R * C == 8)
        hsum8(&acc[0][0], sums);
    else
        for (int r = 0; r < R; ++r)
            for (int j = 0; j < C; ++j)
                sums[r * C + j] = hsum(acc[r][j]);
    for (int r = 0; r < R; ++r) {
        for (int j = 0; j < C; ++j) {
            float s = sums[r * C + j];
            for (int kk = k; kk < K; ++kk)
                s += a[r][kk] * b[j][kk];
            float &dst = c[r * ldc + j];
            dst = accumulate ? dst + s : s;
        }
    }
}

/** ntBlock over rows [i, i + R) and every column, 2 at a time. */
template <int R>
inline void
ntRows(int i, int N, int K, const float *A, const float *B, float *C,
       bool accumulate)
{
    const float *a[R];
    for (int r = 0; r < R; ++r)
        a[r] = A + static_cast<std::ptrdiff_t>(i + r) * K;
    float *c = C + static_cast<std::ptrdiff_t>(i) * N;
    int j = 0;
    for (; j + 2 <= N; j += 2) {
        const float *b[2] = {B + static_cast<std::ptrdiff_t>(j) * K,
                             B + static_cast<std::ptrdiff_t>(j + 1) * K};
        ntBlock<R, 2>(a, b, K, c + j, N, accumulate);
    }
    if (j < N) {
        const float *b[1] = {B + static_cast<std::ptrdiff_t>(j) * K};
        ntBlock<R, 1>(a, b, K, c + j, N, accumulate);
    }
}

} // namespace

void
avx2GemmNTRows(int i0, int i1, int N, int K, const float *A, const float *B,
               float *C, bool accumulate)
{
    int i = i0;
    for (; i + 4 <= i1; i += 4)
        ntRows<4>(i, N, K, A, B, C, accumulate);
    for (; i < i1; ++i)
        ntRows<1>(i, N, K, A, B, C, accumulate);
}

namespace
{

/**
 * One gemv row: 8-wide FMA accumulation, horizontal sum, bias, scalar
 * remainder.
 */
inline float
gemvRowDotBias(const float *a, const float *x, int K, float bias)
{
    __m256 acc = _mm256_setzero_ps();
    int k = 0;
    for (; k + 8 <= K; k += 8)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + k),
                              _mm256_loadu_ps(x + k), acc);
    float s = bias + hsum(acc);
    for (; k < K; ++k)
        s += a[k] * x[k];
    return s;
}

/**
 * Rows [i, i + 8) of the gemv at once: one x load per k feeds 8
 * independent FMA chains (a single row's chain is bound by FMA
 * latency), and hsum8 folds the 8 accumulators. Per row the operations
 * and their order are gemvRowDotBias's: the chain over k, the hsum,
 * bias + sum, then the scalar remainder.
 */
inline void
gemvRows8DotBias(const float *A, int K, const float *x, const float *bias,
                 float *y)
{
    const float *a[8];
    __m256 acc[8];
    for (int r = 0; r < 8; ++r) {
        a[r] = A + static_cast<std::ptrdiff_t>(r) * K;
        acc[r] = _mm256_setzero_ps();
    }
    int k = 0;
    for (; k + 8 <= K; k += 8) {
        const __m256 xv = _mm256_loadu_ps(x + k);
        for (int r = 0; r < 8; ++r)
            acc[r] = _mm256_fmadd_ps(_mm256_loadu_ps(a[r] + k), xv, acc[r]);
    }
    float sums[8];
    hsum8(acc, sums);
    for (int r = 0; r < 8; ++r) {
        float s = bias[r] + sums[r];
        for (int kk = k; kk < K; ++kk)
            s += a[r][kk] * x[kk];
        y[r] = s;
    }
}

} // namespace

void
avx2GemvBias(int M, int K, const float *A, const float *x, const float *bias,
             float *y)
{
    int i = 0;
    for (; i + 8 <= M; i += 8)
        gemvRows8DotBias(A + static_cast<std::ptrdiff_t>(i) * K, K, x,
                         bias + i, y + i);
    for (; i < M; ++i)
        y[i] = gemvRowDotBias(A + static_cast<std::ptrdiff_t>(i) * K, x, K,
                              bias[i]);
}

} // namespace ptolemy::nn::detail

#endif // PTOLEMY_HAVE_AVX2
