/**
 * @file
 * AVX2/FMA SGEMM microkernels. This is the only TU compiled with
 * -mavx2 -mfma (see CMakeLists); everything here is reached through
 * runtime dispatch in gemm.cc, guarded by avx2CpuSupported().
 *
 * The core is a 6x16 register tile: 12 ymm accumulators, two B vectors
 * and one broadcast A value stay in registers across the whole K loop,
 * so each C element is read/written exactly once per call. Column
 * blocks are anchored at absolute multiples of 16 from column 0 and
 * rows are independent, which makes results bit-identical no matter
 * how the surrounding driver tiles or threads the matrix.
 */

#include "gemm_kernels.hh"

#ifdef PTOLEMY_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "util/aligned.hh"

namespace ptolemy::nn::detail
{

namespace
{

/** A-element accessor: row r (relative to the block base), depth k. */
struct APanel
{
    const float *base;
    std::ptrdiff_t rowStride;
    std::ptrdiff_t elemStride;

    const float *
    row(int r) const
    {
        return base + static_cast<std::ptrdiff_t>(r) * rowStride;
    }
};

/**
 * R x 16 register-tile kernel over the full K extent. STRIDE1 selects
 * the unit-stride A specialization (the NN layout, i.e. the conv
 * forward hot path) so the per-k A addressing is a pointer increment.
 */
template <int R, bool STRIDE1>
inline void
kernelRx16(int K, const APanel &a, const float *B, int ldb, float *c,
           int ldc, bool accumulate)
{
    __m256 acc0[R], acc1[R];
    for (int r = 0; r < R; ++r) {
        acc0[r] = _mm256_setzero_ps();
        acc1[r] = _mm256_setzero_ps();
    }
    const float *arow[R];
    for (int r = 0; r < R; ++r)
        arow[r] = a.row(r);
    const std::ptrdiff_t astep = STRIDE1 ? 1 : a.elemStride;
    auto step = [&](int k) {
        const float *brow = B + static_cast<std::ptrdiff_t>(k) * ldb;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        for (int r = 0; r < R; ++r) {
            const __m256 av = _mm256_set1_ps(arow[r][k * astep]);
            acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
            acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
        }
    };
    int k = 0;
    // K x4 unroll. Each element keeps its single accumulator chain in
    // the same k-ascending order (splitting the chain would change the
    // rounding and break bit-identity); the unroll only removes
    // loop-carried branch overhead and lets the B loads of the next
    // steps issue while the FMA chain drains.
    for (; k + 4 <= K; k += 4) {
        step(k);
        step(k + 1);
        step(k + 2);
        step(k + 3);
    }
    for (; k < K; ++k)
        step(k);
    for (int r = 0; r < R; ++r) {
        float *crow = c + static_cast<std::ptrdiff_t>(r) * ldc;
        if (accumulate) {
            acc0[r] = _mm256_add_ps(acc0[r], _mm256_loadu_ps(crow));
            acc1[r] = _mm256_add_ps(acc1[r], _mm256_loadu_ps(crow + 8));
        }
        _mm256_storeu_ps(crow, acc0[r]);
        _mm256_storeu_ps(crow + 8, acc1[r]);
    }
}

/** R x 8 kernel for the 8-wide column tail. */
template <int R, bool STRIDE1>
inline void
kernelRx8(int K, const APanel &a, const float *B, int ldb, float *c,
          int ldc, bool accumulate)
{
    __m256 acc[R];
    for (int r = 0; r < R; ++r)
        acc[r] = _mm256_setzero_ps();
    const float *arow[R];
    for (int r = 0; r < R; ++r)
        arow[r] = a.row(r);
    const std::ptrdiff_t astep = STRIDE1 ? 1 : a.elemStride;
    auto step = [&](int k) {
        const __m256 b0 =
            _mm256_loadu_ps(B + static_cast<std::ptrdiff_t>(k) * ldb);
        for (int r = 0; r < R; ++r)
            acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(arow[r][k * astep]),
                                     b0, acc[r]);
    };
    int k = 0;
    // Same K x4 single-chain unroll as kernelRx16.
    for (; k + 4 <= K; k += 4) {
        step(k);
        step(k + 1);
        step(k + 2);
        step(k + 3);
    }
    for (; k < K; ++k)
        step(k);
    for (int r = 0; r < R; ++r) {
        float *crow = c + static_cast<std::ptrdiff_t>(r) * ldc;
        if (accumulate)
            acc[r] = _mm256_add_ps(acc[r], _mm256_loadu_ps(crow));
        _mm256_storeu_ps(crow, acc[r]);
    }
}

/**
 * Scalar column tail (fewer than 8 columns left). The accumulation is
 * an explicit single-rounding FMA per k step, which makes this column
 * chain identical to one SIMD lane of kernelRx16/kernelRx8: every AVX2
 * column — vector or tail — computes fold(fma(a_k, b_kj, acc)) over k
 * ascending from zero. Per-element results therefore depend only on
 * (i, j, K), never on where the 16/8-column blocking lands, so any
 * tile or block partition of a product is bit-identical to the whole.
 */
inline void
kernelScalarCols(int rows, int j0, int jmax, int K, const APanel &a,
                 const float *B, int ldb, float *c, int ldc,
                 bool accumulate)
{
    for (int r = 0; r < rows; ++r) {
        const float *arow = a.row(r);
        float *crow = c + static_cast<std::ptrdiff_t>(r) * ldc;
        for (int j = j0; j < jmax; ++j) {
            float s = 0.0f;
            for (int k = 0; k < K; ++k)
                s = std::fmaf(arow[k * a.elemStride],
                              B[static_cast<std::ptrdiff_t>(k) * ldb + j],
                              s);
            crow[j] = accumulate ? crow[j] + s : s;
        }
    }
}

/**
 * Pack @p width (8 or 16) columns of B starting at @p j into @p dst as
 * [k][width] contiguous rows. B's row stride is a feature-map width
 * (kilobytes), so the unpacked walk touches one page per k step; the
 * packed panel streams. The pack pays that cost once per tile instead
 * of once per 6-row microkernel pass.
 */
inline void
packBPanel(const float *B, int ldb, int j, int K, int width, float *dst)
{
    for (int k = 0; k < K; ++k) {
        const float *src = B + static_cast<std::ptrdiff_t>(k) * ldb + j;
        _mm256_storeu_ps(dst, _mm256_loadu_ps(src));
        if (width == 16)
            _mm256_storeu_ps(dst + 8, _mm256_loadu_ps(src + 8));
        dst += width;
    }
}

/** Per-thread B-panel scratch; grown once, reused by every tile. */
inline std::vector<float> &
packScratch()
{
    thread_local std::vector<float> buf;
    return buf;
}

/**
 * Run the 6-row microkernels over one packed B panel of @p width (16
 * or 8) columns at absolute column @p j.
 */
template <bool STRIDE1>
inline void
panelColumns(int width, int i0, int i1, int j, int K, const float *a_base,
             std::ptrdiff_t a_row_stride, std::ptrdiff_t a_elem_stride,
             const float *bp, float *C, int ldc, bool accumulate)
{
    int i = i0;
    for (; i + 6 <= i1; i += 6) {
        const APanel a{a_base + i * a_row_stride, a_row_stride,
                       a_elem_stride};
        float *c = C + static_cast<std::ptrdiff_t>(i) * ldc + j;
        if (width == 16)
            kernelRx16<6, STRIDE1>(K, a, bp, 16, c, ldc, accumulate);
        else
            kernelRx8<6, STRIDE1>(K, a, bp, 8, c, ldc, accumulate);
    }
    const int rem = i1 - i;
    if (rem > 0) {
        const APanel a{a_base + i * a_row_stride, a_row_stride,
                       a_elem_stride};
        float *c = C + static_cast<std::ptrdiff_t>(i) * ldc + j;
        if (width == 16) {
            switch (rem) {
              case 1: kernelRx16<1, STRIDE1>(K, a, bp, 16, c, ldc, accumulate); break;
              case 2: kernelRx16<2, STRIDE1>(K, a, bp, 16, c, ldc, accumulate); break;
              case 3: kernelRx16<3, STRIDE1>(K, a, bp, 16, c, ldc, accumulate); break;
              case 4: kernelRx16<4, STRIDE1>(K, a, bp, 16, c, ldc, accumulate); break;
              default: kernelRx16<5, STRIDE1>(K, a, bp, 16, c, ldc, accumulate); break;
            }
        } else {
            switch (rem) {
              case 1: kernelRx8<1, STRIDE1>(K, a, bp, 8, c, ldc, accumulate); break;
              case 2: kernelRx8<2, STRIDE1>(K, a, bp, 8, c, ldc, accumulate); break;
              case 3: kernelRx8<3, STRIDE1>(K, a, bp, 8, c, ldc, accumulate); break;
              case 4: kernelRx8<4, STRIDE1>(K, a, bp, 8, c, ldc, accumulate); break;
              default: kernelRx8<5, STRIDE1>(K, a, bp, 8, c, ldc, accumulate); break;
            }
        }
    }
}

template <bool STRIDE1>
void
gemmTileImpl(int i0, int i1, int j0, int j1, int K, const float *a_base,
             std::ptrdiff_t a_row_stride, std::ptrdiff_t a_elem_stride,
             const float *B, int ldb, float *C, int ldc, bool accumulate)
{
    auto &pack = packScratch();

    // Column blocks are anchored at the tile origin, which the driver
    // places at absolute multiples of 16, so per-element grouping (and
    // therefore the result) is independent of the tile partition.
    int j = j0;
    for (; j + 8 <= j1; j += (j + 16 <= j1) ? 16 : 8) {
        const int width = (j + 16 <= j1) ? 16 : 8;
        pack.resize(static_cast<std::size_t>(K) * width);
        packBPanel(B, ldb, j, K, width, pack.data());
        panelColumns<STRIDE1>(width, i0, i1, j, K, a_base, a_row_stride,
                              a_elem_stride, pack.data(), C, ldc,
                              accumulate);
    }
    if (j < j1) {
        // Scalar column tail (fewer than 8 columns at the matrix edge).
        for (int i = i0; i < i1; ++i) {
            const APanel a{a_base + i * a_row_stride, a_row_stride,
                           a_elem_stride};
            kernelScalarCols(1, j, j1, K, a, B, ldb,
                             C + static_cast<std::ptrdiff_t>(i) * ldc, ldc,
                             accumulate);
        }
    }
}

} // namespace

void
avx2GemmTile(int i0, int i1, int j0, int j1, int K, const float *a_base,
             std::ptrdiff_t a_row_stride, std::ptrdiff_t a_elem_stride,
             const float *B, int ldb, float *C, int ldc, bool accumulate)
{
    if (a_elem_stride == 1)
        gemmTileImpl<true>(i0, i1, j0, j1, K, a_base, a_row_stride, 1, B,
                           ldb, C, ldc, accumulate);
    else
        gemmTileImpl<false>(i0, i1, j0, j1, K, a_base, a_row_stride,
                            a_elem_stride, B, ldb, C, ldc, accumulate);
}

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

/**
 * Row stride of the per-panel output stage: one block's positions plus
 * the two lanes a full-width store of the block's last strip runs past
 * them. A multiple of 8, so stage rows are never 4 KiB apart.
 */
constexpr int kStageLd = kConvBlockPositions + 8;

/**
 * Implicit-GEMM conv register tile: R output positions (broadcast
 * operand) x 16 output channels (vector operand) over a packed [k][16]
 * weight panel. The A element for tap k at strip position r is read
 * straight from the zero-padded input plane, xp[koff[k] + poff[r]] —
 * exactly the value im2col would have written, padding zeros included
 * — so no A panel is ever emitted. Per element this is the exact fold
 * fma(a_k, w_ik, acc) over k ascending that AVX2 sgemm computes on the
 * im2col matrix — fma's product operands merely swap roles, which
 * rounds identically — followed by one bias addition, so results are
 * bit-identical to im2col + sgemm + bias. The accumulators hold 16
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
    // Bias before the transpose: out = gemm + b, the same single
    // addition the unpacked path's bias pass performs.
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
    static constexpr decltype(&implicitStripKx8<6>) kShort8[] = {
        implicitStripKx8<1>, implicitStripKx8<2>, implicitStripKx8<3>,
        implicitStripKx8<4>, implicitStripKx8<5>};
    const PackedBLayout L = packedBLayout(K, N);
    const int n_full = P / 6;
    const int r_last = P % 6;
    const int *poff_last = poff + n_full * 6;
    // Each channel panel's strips land in a compact stage first; its
    // rows then go out as contiguous P-float runs. Storing strips
    // straight into the channel-major output would touch 16 rows
    // oh*ow floats apart per strip — one L1 set when that is 1024.
    alignas(32) float stage[16 * kStageLd];
    float *stage_last = stage + n_full * 6;
    const auto flush = [&](int c0, int width) {
        for (int c = 0; c < width; ++c)
            std::memcpy(out + static_cast<std::ptrdiff_t>(c0 + c) * ldc,
                        stage + c * kStageLd, sizeof(float) * P);
    };
    // Channel panel OUTER, strip INNER: each K x 16 weight panel streams
    // from cache once per block rather than once per strip.
    for (int blk = 0; blk < L.nFull; ++blk) {
        const float *wp = packed + static_cast<std::size_t>(blk) * K * 16;
        const float *bv = bias + blk * 16;
        assert(util::isAligned(wp));
        for (int s = 0; s < n_full; ++s)
            implicitStripKx16<6>(K, xp, koff, poff + s * 6, wp, bv,
                                 stage + s * 6);
        if (r_last > 0)
            kShort16[r_last - 1](K, xp, koff, poff_last, wp, bv, stage_last);
        flush(blk * 16, 16);
    }
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
        flush(c0, W);
        c0 += W;
    }
}

void
avx2GemmNTRows(int i0, int i1, int N, int K, const float *A, const float *B,
               float *C, bool accumulate)
{
    for (int i = i0; i < i1; ++i) {
        const float *a = A + static_cast<std::ptrdiff_t>(i) * K;
        float *c = C + static_cast<std::ptrdiff_t>(i) * N;
        for (int j = 0; j < N; ++j) {
            const float *b = B + static_cast<std::ptrdiff_t>(j) * K;
            __m256 acc = _mm256_setzero_ps();
            int k = 0;
            for (; k + 8 <= K; k += 8)
                acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + k),
                                      _mm256_loadu_ps(b + k), acc);
            // Horizontal sum, then the scalar remainder.
            __m128 lo = _mm256_castps256_ps128(acc);
            __m128 hi = _mm256_extractf128_ps(acc, 1);
            lo = _mm_add_ps(lo, hi);
            lo = _mm_hadd_ps(lo, lo);
            lo = _mm_hadd_ps(lo, lo);
            float s = _mm_cvtss_f32(lo);
            for (; k < K; ++k)
                s += a[k] * b[k];
            c[j] = accumulate ? c[j] + s : s;
        }
    }
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
    __m128 lo = _mm256_castps256_ps128(acc);
    __m128 hi = _mm256_extractf128_ps(acc, 1);
    lo = _mm_add_ps(lo, hi);
    lo = _mm_hadd_ps(lo, lo);
    lo = _mm_hadd_ps(lo, lo);
    float s = bias + _mm_cvtss_f32(lo);
    for (; k < K; ++k)
        s += a[k] * x[k];
    return s;
}

} // namespace

void
avx2GemvBias(int M, int K, const float *A, const float *x, const float *bias,
             float *y)
{
    for (int i = 0; i < M; ++i)
        y[i] = gemvRowDotBias(A + static_cast<std::ptrdiff_t>(i) * K, x, K,
                              bias[i]);
}

} // namespace ptolemy::nn::detail

#endif // PTOLEMY_HAVE_AVX2
