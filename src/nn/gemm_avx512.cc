/**
 * @file
 * AVX-512 implicit-GEMM conv forward tile. This is the only TU compiled
 * with -mavx512f (on top of -mavx2 -mfma; see CMakeLists), and it is
 * reached only through convForwardPacked's runtime dispatch on
 * SimdMode::Avx512. Everything it defines beyond the one entry point
 * has internal linkage and it calls no out-of-line header code, so no
 * AVX-512 instruction can leak into a symbol another TU links against.
 *
 * The tile is the AVX2 one (gemm_avx2.cc, implicitStripKx16) at twice
 * the width: 16 output channels per zmm instead of two ymm halves, so
 * one accumulator per position and a 12-position strip (12 of the 32
 * zmm registers) where AVX2 fits 6. Per output element the chain is
 * unchanged — fma over k ascending from +0, then one bias addition —
 * which is what makes SimdMode::Avx512 bit-identical to Avx2.
 */

#include "gemm_kernels.hh"

#ifdef PTOLEMY_HAVE_AVX512

#include <immintrin.h>

#include <cassert>
#include <cstring>

namespace ptolemy::nn::detail
{

namespace
{

/** Output positions per strip: one zmm accumulator each. */
constexpr int kStrip = 12;
static_assert(kConvBlockPositions % kStrip == 0,
              "full blocks must be whole strips");
static_assert((kConvBlockPositions - 1) / kStrip * kStrip + 16 <= kStageLd,
              "a strip's full-width stage store must stay inside the row");

/**
 * In-register transpose of a strip: a[r] holds the 16 channels of
 * position r < 12; on return y[c] holds positions 0..11 of channel c in
 * lanes 0..11 (lanes 12..15 are junk). Data movement only, no rounding.
 */
inline void
transpose12x16(const __m512 a[kStrip], __m512 y[16])
{
    // Per group g of 4 positions, a 4x4 transpose inside every 128-bit
    // lane L: t[g][j] lane L = positions 4g..4g+3 of channel 4L + j.
    __m512 t[3][4];
    for (int g = 0; g < 3; ++g) {
        const __m512 *q = a + 4 * g;
        const __m512 lo01 = _mm512_unpacklo_ps(q[0], q[1]);
        const __m512 hi01 = _mm512_unpackhi_ps(q[0], q[1]);
        const __m512 lo23 = _mm512_unpacklo_ps(q[2], q[3]);
        const __m512 hi23 = _mm512_unpackhi_ps(q[2], q[3]);
        t[g][0] = _mm512_shuffle_ps(lo01, lo23, 0x44);
        t[g][1] = _mm512_shuffle_ps(lo01, lo23, 0xEE);
        t[g][2] = _mm512_shuffle_ps(hi01, hi23, 0x44);
        t[g][3] = _mm512_shuffle_ps(hi01, hi23, 0xEE);
    }
    // Gather lane L of the three groups: y[4L + j] = [t[0][j].L,
    // t[1][j].L, t[2][j].L, junk].
    for (int j = 0; j < 4; ++j) {
        const __m512 u01 = _mm512_shuffle_f32x4(t[0][j], t[1][j], 0x44);
        const __m512 u23 = _mm512_shuffle_f32x4(t[0][j], t[1][j], 0xEE);
        y[j] = _mm512_shuffle_f32x4(u01, t[2][j], 0x08);
        y[4 + j] = _mm512_shuffle_f32x4(u01, t[2][j], 0x5D);
        y[8 + j] = _mm512_shuffle_f32x4(u23, t[2][j], 0xA8);
        y[12 + j] = _mm512_shuffle_f32x4(u23, t[2][j], 0xFD);
    }
}

/**
 * R <= 12 output positions (broadcast operand) x 16 output channels
 * (one zmm) over a packed [k][16] weight panel: the A element for tap k
 * at strip position r is xp[koff[k] + poff[r]], read straight from the
 * zero-padded input plane. Bias is added per position once the chain
 * is done, then the strip is transposed in registers and stored
 * full-width into the [16][kStageLd] @p stage (lanes past R land where
 * the next strip writes afterwards, or past the block's P).
 */
template <int R>
inline void
implicitStripZx16(int K, const float *xp, const int *koff, const int *poff,
                  const float *wp, const float *bias, float *stage)
{
    const float *x[R];
    __m512 acc[R];
    for (int r = 0; r < R; ++r) {
        x[r] = xp + poff[r];
        acc[r] = _mm512_setzero_ps();
    }
    // The same 4x-unrolled step shape as the AVX2 tile.
    auto step = [&](int k) {
        const __m512 b = _mm512_load_ps(wp + static_cast<std::size_t>(k) * 16);
        const int o = koff[k];
        for (int r = 0; r < R; ++r)
            acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(x[r][o]), b, acc[r]);
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
    const __m512 bv = _mm512_loadu_ps(bias);
    __m512 a[kStrip];
    for (int r = 0; r < kStrip; ++r)
        a[r] = r < R ? _mm512_add_ps(acc[r], bv) : _mm512_setzero_ps();
    __m512 y[16];
    transpose12x16(a, y);
    for (int c = 0; c < 16; ++c)
        _mm512_storeu_ps(stage + c * kStageLd, y[c]);
}

} // namespace

void
avx512ConvImplicitBlock(int K, int N, const float *xp, const int *koff,
                        const int *poff, int P, const float *packed,
                        const float *bias, float *out, std::ptrdiff_t ldc)
{
    assert(P >= 1 && P <= kConvBlockPositions);
    // Full strips call the tile directly (so it inlines); only a block's
    // last strip can be short, dispatched on its R.
    static constexpr decltype(&implicitStripZx16<kStrip>) kShort[] = {
        implicitStripZx16<1>, implicitStripZx16<2>, implicitStripZx16<3>,
        implicitStripZx16<4>, implicitStripZx16<5>, implicitStripZx16<6>,
        implicitStripZx16<7>, implicitStripZx16<8>, implicitStripZx16<9>,
        implicitStripZx16<10>, implicitStripZx16<11>};
    const int n_full = P / kStrip;
    const int r_last = P % kStrip;
    const int *poff_last = poff + n_full * kStrip;
    alignas(64) float stage[16 * kStageLd];
    float *stage_last = stage + n_full * kStrip;
    // Channel panel OUTER, strip INNER, as in avx2ConvImplicitBlock.
    // Aligned panel-row loads: packed and every 16-wide panel start sit
    // on 64 bytes (packedBLayout), so a misaligned pack faults here.
    for (int blk = 0; blk < N / 16; ++blk) {
        const float *wp = packed + static_cast<std::size_t>(blk) * K * 16;
        const float *bv = bias + blk * 16;
        for (int s = 0; s < n_full; ++s)
            implicitStripZx16<kStrip>(K, xp, koff, poff + s * kStrip, wp, bv,
                                      stage + s * kStrip);
        if (r_last > 0)
            kShort[r_last - 1](K, xp, koff, poff_last, wp, bv, stage_last);
        float *dst = out + static_cast<std::ptrdiff_t>(blk) * 16 * ldc;
        for (int c = 0; c < 16; ++c)
            std::memcpy(dst + c * ldc, stage + c * kStageLd,
                        sizeof(float) * P);
    }
    avx2ConvImplicitNarrowPanels(K, N, xp, koff, poff, P, packed, bias, out,
                                 ldc);
}

} // namespace ptolemy::nn::detail

#endif // PTOLEMY_HAVE_AVX512
