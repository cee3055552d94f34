/**
 * @file
 * Internal SGEMM tile-kernel interface shared between the portable
 * driver (gemm.cc) and the AVX2/FMA and AVX-512 translation units
 * (gemm_avx2.cc, gemm_avx512.cc).
 *
 * Each ISA's kernels live in their own TU so only that file is
 * compiled with the ISA's flags: the rest of the library keeps the
 * default ISA and the scalar reference kernels keep their exact
 * historical numerics. When the build does not define
 * PTOLEMY_HAVE_AVX2 (PTOLEMY_HAVE_AVX512) the TU is empty and the
 * driver never references its symbols. The packed-panel layout
 * and the conv block size are shared by both kernel families.
 */

#ifndef PTOLEMY_NN_GEMM_KERNELS_HH
#define PTOLEMY_NN_GEMM_KERNELS_HH

#include <cstddef>

namespace ptolemy::nn::detail
{

/**
 * Blocked layout of a packed B matrix [K x N]: the column
 * space is split exactly the way the tile kernels block it — 16-wide
 * panels, then one 8-wide panel when 8 <= N%16, then a <8-column
 * scalar tail — and each panel is stored [k][width] contiguous, the
 * same shape avx2GemmTile's per-tile packBPanel produces.
 * Panel starts are padded up to 64-byte boundaries so every AVX2 load
 * of a panel row begins on a cache line (the backing buffer itself is
 * allocated with util::AlignedF32).
 *
 * The packer and both implicit-GEMM conv blocks (scalar in gemm.cc,
 * AVX2 in gemm_avx2.cc) derive offsets from this one function, so
 * layout and consumption cannot drift apart.
 */
struct PackedBLayout
{
    int K = 0;
    int N = 0;
    int nFull = 0;         ///< count of 16-wide panels
    bool has8 = false;     ///< one 8-wide panel after the 16s
    int tail = 0;          ///< scalar-tail columns (0..7)
    std::size_t off8 = 0;  ///< float offset of the 8-wide panel
    std::size_t offTail = 0; ///< float offset of the scalar tail panel
    std::size_t total = 0; ///< total floats (incl. alignment padding)
};

/** Round a float count up to a 64-byte (16-float) boundary. */
constexpr std::size_t
alignFloats16(std::size_t n)
{
    return (n + 15u) & ~static_cast<std::size_t>(15u);
}

constexpr PackedBLayout
packedBLayout(int K, int N)
{
    PackedBLayout L;
    L.K = K;
    L.N = N;
    L.nFull = N / 16;
    const int rem = N - L.nFull * 16;
    L.has8 = rem >= 8;
    L.tail = rem - (L.has8 ? 8 : 0);
    // 16-wide panels are K*16 floats each — inherently 64-byte
    // multiples — so only the 8-wide panel needs explicit padding.
    L.off8 = static_cast<std::size_t>(L.nFull) * K * 16;
    L.offTail =
        L.off8 +
        (L.has8 ? alignFloats16(static_cast<std::size_t>(K) * 8) : 0);
    L.total = L.offTail + static_cast<std::size_t>(K) * L.tail;
    return L;
}

/**
 * Output positions per implicit-GEMM conv block: the pool-task grain of
 * convForwardPacked and the largest @p P its block kernels take. 16
 * AVX2 strips of 6 positions (8 AVX-512 strips of 12), so each K x 16
 * weight panel is reused across a block's strips per load from cache.
 */
constexpr int kConvBlockPositions = 96;

/**
 * Row stride of the implicit-GEMM conv blocks' per-panel output stage
 * ([16][kStageLd]; [32][kStageLd] for the AVX-512 panel pair): one
 * block's positions plus the lanes a full-width store of the block's
 * last strip runs past them (2 for the AVX2 6-position strip, 4 for the
 * AVX-512 12-position one). A multiple of 8, so stage rows are never
 * 4 KiB apart.
 */
constexpr int kStageLd = kConvBlockPositions + 8;

/**
 * Input channels per block of the conv input gradient: a 6-channel
 * block is the AVX2 strip's broadcast operand (6 channels x 16 lanes =
 * 12 accumulators); a narrower last block widens its strip so small
 * channel counts still fill the register tile.
 */
constexpr int kGradInChannelBlock = 6;

/** One tap (ky, kx) of a conv input-gradient phase: a lane at phase
 *  position (a, b) reads output gradient (a + cy, b + cx). */
struct ConvGradTap
{
    int tap; ///< ky * k + kx
    int cy;
    int cx;
};

/**
 * One stride phase of the conv input gradient (see convBackwardInput):
 * the input positions (py + stride*a, px + stride*b) for one phase
 * (py, px), laid out as lanes q = a*width + b. Every field is built by
 * the driver in gemm.cc; both block kernels only read it.
 *
 * Lane q, tap t reads dY channel oc at
 *   dyp[oc*planeStride + q + taps[t].cy*width + taps[t].cx],
 * which is the output gradient at (a + cy, b + cx) whenever that lies
 * in [0, oh) x [0, ow). Lanes where it does not (image borders, and
 * the junk lanes b >= the phase's row length) read some in-bounds plane
 * value, and the per-lane blend discards the result.
 */
struct ConvGradInputPhase
{
    int inC = 0, outC = 0;
    int oh = 0, ow = 0;
    int width = 0;                 ///< lanes per phase row = dY row stride
    std::ptrdiff_t planeStride = 0; ///< floats between dY channel planes
    const float *dyp = nullptr;    ///< dY (0, 0) of channel 0
    const float *weight = nullptr; ///< conv weights [outC][inC][k][k]
    int kTaps = 0;                 ///< k*k
    const ConvGradTap *taps = nullptr; ///< this phase's taps, (ky, kx) order
    int nTaps = 0;
    const int *rowOf = nullptr;    ///< lane q -> a
    const int *colOf = nullptr;    ///< lane q -> b
    float *acc = nullptr;          ///< [inC][accStride] gradient lanes
    std::ptrdiff_t accStride = 0;
};

#ifdef PTOLEMY_HAVE_AVX2

/**
 * C tile [i0,i1) x [j0,j1) = A * B over the full K extent (or += when
 * @p accumulate), with register-resident accumulators (6x16 FMA
 * microkernel plus 8-wide and scalar column tails). A, B and C are
 * row-major with leading dimensions @p lda, @p ldb and @p ldc.
 *
 * Per-element results depend only on (i, j, K) — never on the tile
 * partition or where the 16/8-column blocking lands: every column
 * (vector lane or scalar tail) computes the same fold of
 * fma(a_k, b_kj, acc) over k ascending. Outputs are therefore
 * bit-identical across thread counts AND across column placement.
 */
void avx2GemmTile(int i0, int i1, int j0, int j1, int K, const float *A,
                  std::ptrdiff_t lda, const float *B, int ldb, float *C,
                  int ldc, bool accumulate);

/**
 * Implicit-GEMM conv-forward block: out[i * ldc + j] = bias[i] +
 * sum_k xp[koff[k] + poff[j]] * packed weight (k, i) for channels i in
 * [0, N) and the block's @p P <= kConvBlockPositions output positions j.
 * @p xp is the zero-padded input plane, @p koff the K tap offsets
 * (ic*ihp + ky)*iwp + kx into it, and @p poff the block's P position
 * offsets oy*stride*iwp + ox*stride (convForwardPacked builds all three
 * once per call), so xp[koff[k] + poff[j]] is exactly the im2col
 * element (k, j), padding zeros included, and no [K x P] A panel is
 * ever written. @p packed is the transposed weight matrix W^T [K x N]
 * in packedBLayout form.
 *
 * The register tile is flipped relative to avx2GemmTile — 6 positions
 * (one strip) are the broadcast operand, 16 output channels the vector
 * operand — and the results are transposed through registers, bias
 * added, into a block-local stage whose rows are copied out to the
 * channel-major output as contiguous runs. The loop nest is
 * channel-panel OUTER, strip INNER, so each K x 16 weight panel
 * streams from cache once per block instead of once per strip.
 *
 * Per output element this performs the exact same chain as AVX2 sgemm
 * on the im2col matrix: a fold of fma(a_k, w_ik, acc) over k ascending from
 * zero (fma(a, b, c) and fma(b, a, c) round identically), then one
 * bias addition — so the implicit GEMM is bit-identical to
 * im2col + sgemm + bias, and the strip/block partition is scheduling,
 * not numerics.
 */
void avx2ConvImplicitBlock(int K, int N, const float *xp, const int *koff,
                           const int *poff, int P, const float *packed,
                           const float *bias, float *out,
                           std::ptrdiff_t ldc);

/**
 * The part of avx2ConvImplicitBlock after the 16-wide panels: the
 * 8-wide panel and the scalar-tail panel (channels [16 * (N / 16), N))
 * through the 8-lane AVX2 tile. Same arguments; avx512ConvImplicitBlock
 * finishes its blocks with it.
 */
void avx2ConvImplicitNarrowPanels(int K, int N, const float *xp,
                                  const int *koff, const int *poff, int P,
                                  const float *packed, const float *bias,
                                  float *out, std::ptrdiff_t ldc);

/**
 * Conv input-gradient block: lanes [q0, q1) of phase @p ph (q0 a
 * multiple of kConvBlockPositions, q1 - q0 <= kConvBlockPositions) for
 * every input channel. Per lane and tap in order, the tap's value is
 * the fold fma(w_oc, dy_oc, t) over oc ascending from +0 — the AVX2 TN
 * product W^T * dY's chain for that col-gradient element — and it is
 * added onto the lane's
 * accumulator only where the tap lands inside the output gradient (a
 * per-lane blend), exactly as col2im adds it. The result is therefore
 * bit-identical to that product scattered by col2im, signed zeros
 * included.
 */
void avx2ConvGradInputBlock(const ConvGradInputPhase &ph, int q0, int q1);

/**
 * NT row block: C[i][j] = dot(A row i, B row j) for i in [i0,i1),
 * j in [0,N), rows of length K (or += when @p accumulate). 8-wide FMA
 * accumulation with a scalar remainder; per-element deterministic.
 * Dots run 4 rows x 2 columns at a time, each with its own chain.
 */
void avx2GemmNTRows(int i0, int i1, int N, int K, const float *A,
                    const float *B, float *C, bool accumulate);

/**
 * y[M] = bias[M] + A[MxK] * x[K]: the Linear-layer forward. 8-wide FMA
 * accumulation per row (horizontal sum, then bias and the scalar
 * remainder); per-element deterministic, tolerance-equal — not
 * bit-equal — to the scalar reference, whose statistical fixtures were
 * recalibrated when this path landed. Rows run 8 at a time, each with
 * its own unchanged chain, so a row's bits do not depend on M.
 */
void avx2GemvBias(int M, int K, const float *A, const float *x,
                  const float *bias, float *y);

#endif // PTOLEMY_HAVE_AVX2

#ifdef PTOLEMY_HAVE_AVX512

/**
 * avx2ConvImplicitBlock with each pair of adjacent 16-wide weight
 * panels run as one AVX-512 tile of 12 output positions x 32 channels
 * (gemm_avx512.cc, built with -mavx512f): two zmm
 * accumulators per position, two aligned panel-row loads and 12
 * broadcasts per tap, each broadcast feeding two FMAs (14 loads per 24
 * FMAs). A lone 16-wide panel (N / 16 odd) runs the tile's one-panel
 * 12 x 16 form; the 8-wide and tail panels go through
 * avx2ConvImplicitNarrowPanels. Per output element the chain is the
 * AVX2 tile's — fma over k ascending from +0, then one bias addition —
 * so the result is bit-identical to avx2ConvImplicitBlock.
 */
void avx512ConvImplicitBlock(int K, int N, const float *xp, const int *koff,
                             const int *poff, int P, const float *packed,
                             const float *bias, float *out,
                             std::ptrdiff_t ldc);

#endif // PTOLEMY_HAVE_AVX512

} // namespace ptolemy::nn::detail

#endif // PTOLEMY_NN_GEMM_KERNELS_HH
