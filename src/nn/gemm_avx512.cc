/**
 * @file
 * AVX-512 implicit-GEMM conv forward tile. This TU and psum_avx512.cc
 * are the two compiled with -mavx512f (on top of -mavx2 -mfma; see
 * CMakeLists), and this one is reached only through
 * convForwardPacked's runtime dispatch on SimdMode::Avx512. Everything it defines beyond the one entry point
 * has internal linkage and it calls no out-of-line header code, so no
 * AVX-512 instruction can leak into a symbol another TU links against.
 *
 * The tile is the AVX2 one (gemm_avx2.cc, implicitStripKx16) widened
 * twice: 16 output channels per zmm instead of two ymm halves, and two
 * adjacent 16-wide weight panels per strip, so a 12-position strip
 * keeps 24 accumulators (of the 32 zmm registers) and each broadcast
 * input element feeds two FMAs — 14 loads per 24 FMAs, where one panel
 * per strip would take 13 per 12 and be load-bound. A lone 16-wide
 * panel (N / 16 odd) runs the one-panel 12 x 16 form. Per output
 * element the chain is unchanged — fma over k ascending from +0, then
 * one bias addition — which is what makes SimdMode::Avx512
 * bit-identical to Avx2.
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
 * Ends one 16-channel half of a strip: adds the bias to each of the R
 * finished chains, transposes the strip in registers and stores it
 * full-width into the [16][kStageLd] @p stage (lanes past R land where
 * the next strip writes afterwards, or past the block's P).
 */
template <int R>
inline void
flushStripHalf(const __m512 acc[R], const float *bias, float *stage)
{
    const __m512 bv = _mm512_loadu_ps(bias);
    __m512 a[kStrip];
    for (int r = 0; r < kStrip; ++r)
        a[r] = r < R ? _mm512_add_ps(acc[r], bv) : _mm512_setzero_ps();
    __m512 y[16];
    transpose12x16(a, y);
    for (int c = 0; c < 16; ++c)
        _mm512_storeu_ps(stage + c * kStageLd, y[c]);
}

/**
 * R <= 12 output positions (broadcast operand) x 32 output channels
 * (two zmm) over two adjacent packed [k][16] weight panels, @p wp and
 * wp + K * 16: the A element for tap k at strip position r is
 * xp[koff[k] + poff[r]], read straight from the zero-padded input
 * plane, and each broadcast feeds one FMA per panel (24 accumulators,
 * two panel rows and the broadcast: 27 of the 32 zmm). Each half is
 * flushed by flushStripHalf into its 16 rows of the [32][kStageLd]
 * @p stage.
 */
template <int R>
inline void
implicitStripZx32(int K, const float *xp, const int *koff, const int *poff,
                  const float *wp, const float *bias, float *stage)
{
    const float *x[R];
    __m512 acc0[R], acc1[R];
    for (int r = 0; r < R; ++r) {
        x[r] = xp + poff[r];
        acc0[r] = _mm512_setzero_ps();
        acc1[r] = _mm512_setzero_ps();
    }
    const float *wp1 = wp + static_cast<std::size_t>(K) * 16;
    // One tap per iteration, not the 4x-unrolled step of the one-panel
    // tile: unrolled, GCC spills accumulators to the stack (3 zmm
    // stores + 3 reloads per 4 taps); rolled, the loop holds all 27 zmm
    // with no spill, and is as fast.
    for (int k = 0; k < K; ++k) {
        const std::size_t row = static_cast<std::size_t>(k) * 16;
        const __m512 b0 = _mm512_load_ps(wp + row);
        const __m512 b1 = _mm512_load_ps(wp1 + row);
        const int o = koff[k];
        for (int r = 0; r < R; ++r) {
            const __m512 a = _mm512_set1_ps(x[r][o]);
            acc0[r] = _mm512_fmadd_ps(a, b0, acc0[r]);
            acc1[r] = _mm512_fmadd_ps(a, b1, acc1[r]);
        }
    }
    flushStripHalf<R>(acc0, bias, stage);
    flushStripHalf<R>(acc1, bias + 16, stage + 16 * kStageLd);
}

/**
 * The one-panel form of implicitStripZx32 (12 x 16, one zmm per
 * position) for a lone 16-wide panel, when N / 16 is odd: same chain,
 * flushed into a [16][kStageLd] @p stage.
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
    flushStripHalf<R>(acc, bias, stage);
}

/** A strip tile's signature (implicitStripZx32 / implicitStripZx16). */
using StripTile = void (*)(int K, const float *xp, const int *koff,
                           const int *poff, const float *wp,
                           const float *bias, float *stage);

/**
 * One block's strips through the 12-position tile @p Full over the
 * panel(s) at @p wp, then the staged rows [0, Rows) copied out to
 * @p dst. Full strips call the tile directly (so it inlines); only a
 * block's last strip can be short, dispatched on its R through
 * @p short_tiles.
 */
template <StripTile Full, int Rows>
inline void
runPanelStrips(const StripTile *short_tiles, int K, const float *xp,
               const int *koff, const int *poff, int P, const float *wp,
               const float *bias, float *stage, float *dst,
               std::ptrdiff_t ldc)
{
    const int n_full = P / kStrip;
    const int r_last = P % kStrip;
    for (int s = 0; s < n_full; ++s)
        Full(K, xp, koff, poff + s * kStrip, wp, bias, stage + s * kStrip);
    if (r_last > 0)
        short_tiles[r_last - 1](K, xp, koff, poff + n_full * kStrip, wp, bias,
                                stage + n_full * kStrip);
    for (int c = 0; c < Rows; ++c)
        std::memcpy(dst + c * ldc, stage + c * kStageLd, sizeof(float) * P);
}

} // namespace

void
avx512ConvImplicitBlock(int K, int N, const float *xp, const int *koff,
                        const int *poff, int P, const float *packed,
                        const float *bias, float *out, std::ptrdiff_t ldc)
{
    assert(P >= 1 && P <= kConvBlockPositions);
    static constexpr StripTile kShort32[] = {
        implicitStripZx32<1>, implicitStripZx32<2>, implicitStripZx32<3>,
        implicitStripZx32<4>, implicitStripZx32<5>, implicitStripZx32<6>,
        implicitStripZx32<7>, implicitStripZx32<8>, implicitStripZx32<9>,
        implicitStripZx32<10>, implicitStripZx32<11>};
    static constexpr StripTile kShort16[] = {
        implicitStripZx16<1>, implicitStripZx16<2>, implicitStripZx16<3>,
        implicitStripZx16<4>, implicitStripZx16<5>, implicitStripZx16<6>,
        implicitStripZx16<7>, implicitStripZx16<8>, implicitStripZx16<9>,
        implicitStripZx16<10>, implicitStripZx16<11>};
    alignas(64) float stage[32 * kStageLd];
    // Channel panel pair OUTER, strip INNER, as in avx2ConvImplicitBlock.
    // Aligned panel-row loads: packed and every 16-wide panel start sit
    // on 64 bytes (packedBLayout), so a misaligned pack faults here.
    const int n16 = N / 16;
    const std::size_t panel = static_cast<std::size_t>(K) * 16;
    int blk = 0;
    for (; blk + 2 <= n16; blk += 2)
        runPanelStrips<implicitStripZx32<kStrip>, 32>(
            kShort32, K, xp, koff, poff, P, packed + blk * panel,
            bias + blk * 16, stage,
            out + static_cast<std::ptrdiff_t>(blk) * 16 * ldc, ldc);
    if (blk < n16)
        runPanelStrips<implicitStripZx16<kStrip>, 16>(
            kShort16, K, xp, koff, poff, P, packed + blk * panel,
            bias + blk * 16, stage,
            out + static_cast<std::ptrdiff_t>(blk) * 16 * ldc, ldc);
    avx2ConvImplicitNarrowPanels(K, N, xp, koff, poff, P, packed, bias, out,
                                 ldc);
}

} // namespace ptolemy::nn::detail

#endif // PTOLEMY_HAVE_AVX512
