/**
 * @file
 * The implicit-GEMM conv forward and input gradient, the NT product
 * and im2col of the conv weight gradient, and the Linear gemv.
 *
 * Convolution is a [outC x K] * [K x OHW] product. The forward
 * (convForwardPacked, the only conv forward) computes it as an
 * implicit GEMM: each im2col element is read straight from a
 * zero-padded copy of the input against W^T packed into blocked
 * panels, so no column matrix is written. The input gradient
 * (convBackwardInput) is the transposed convolution, an implicit GEMM
 * as well: each input position gathers its taps straight from a
 * padded copy of the output gradient. Only the weight gradient uses an
 * explicit matrix: an NT product over im2col. The Linear layer runs on
 * the gemv kernels.
 *
 * All matrices are dense row-major. Three kernel families back the
 * entry points, picked at runtime by simdMode(): portable scalar
 * kernels; AVX2/FMA kernels, compiled into their own TU when the build
 * enables them (CMake option PTOLEMY_SIMD); and, under
 * SimdMode::Avx512, an AVX-512 conv forward tile in a TU of its own
 * (every other entry point runs its AVX2 kernel there). Each conv
 * kernel computes the fold of its mode written in gemm_kernels.hh, so
 * AVX-512 is bit-identical to AVX2, and every family is deterministic
 * across thread counts. Large products are split into row or position
 * blocks and fanned out on the process-wide thread pool (or whatever
 * pool gemmPool() points at), so single-sample conv latency scales
 * with cores.
 */

#ifndef PTOLEMY_NN_GEMM_HH
#define PTOLEMY_NN_GEMM_HH

#include <cstddef>

#include "util/aligned.hh"
#include "util/simd.hh"

namespace ptolemy
{
class ThreadPool;
}

namespace ptolemy::nn
{

// The process-wide SIMD selector moved to util/simd.hh so util-level
// code (BitVector) can dispatch without depending on nn; re-exported
// here for the historical nn::simdMode() spelling.
using ptolemy::SimdMode;
using ptolemy::simdMode;
using ptolemy::simdModeName;
using ptolemy::avx2Active;
using ptolemy::avx2Available;
using ptolemy::avx512Available;

/**
 * Pool the blocked kernels fan work out on. Defaults to the process-wide
 * globalPool(); point it elsewhere (or at nullptr for strictly serial
 * kernels) in tests. Small products always run serially regardless.
 */
ThreadPool *&gemmPool();

/**
 * A B matrix [K x N] packed into the blocked panel layout the conv
 * kernels consume (see detail::packedBLayout), 64-byte-aligned. Each
 * Conv2d holds one, repacked whenever its weights change.
 */
struct PackedB
{
    int K = 0;
    int N = 0;
    util::AlignedF32 data;
};

/**
 * Pack a B matrix given arbitrary element strides: element (k, n) is
 * b[k * k_stride + n * n_stride]. This packs a transposed view without
 * materializing it — conv weights [outC x K] pack as W^T with
 * (k_stride, n_stride) = (1, K). Reuses @p out's storage, so repacking
 * a same-or-smaller matrix never allocates.
 */
void packBMatrixStrided(const float *b, std::ptrdiff_t k_stride,
                        std::ptrdiff_t n_stride, int K, int N,
                        PackedB &out);

/**
 * Conv forward as an implicit GEMM, in both SIMD modes: the input is
 * copied once into a zero-padded plane, and a tap offset table (K
 * entries) plus a position offset table (oh*ow entries) let the block
 * kernels read each im2col element straight from that plane — no
 * im2col matrix or per-block A panel is ever written. The kernels run
 * against the packed W^T panels with the bias fused into the store.
 * Output is channel-major [outC x oh*ow]; each element is the forward
 * fold of the current mode (gemm_kernels.hh): im2col, then the fold,
 * then one bias add, bit for bit. Blocks of
 * detail::kConvBlockPositions output positions fan out on gemmPool().
 * @p wt must be the packed [K x outC] transposed weight matrix with
 * K = in_c*k*k.
 */
void convForwardPacked(const float *in, int in_c, int ih, int iw, int k,
                       int stride, int pad, int oh, int ow,
                       const PackedB &wt, const float *bias, float *out);

/**
 * Conv input gradient as an implicit GEMM, in both SIMD modes:
 * grad_in [in_c x ih x iw] = (or += when @p accumulate) the transposed
 * convolution of @p grad_out [out_c x oh x ow] with @p weight
 * ([out_c][in_c][k][k]), for any stride and padding. Input positions
 * are split into stride x stride phases; within one, every tap (ky, kx)
 * that reaches it reads a contiguous run of a padded copy of grad_out,
 * so no col-space matrix is written.
 *
 * Bit-identical in each mode to the explicit form, col = W^T * grad_out
 * scattered onto grad_in by col2im, with the input-gradient fold of
 * gemm_kernels.hh: each tap's value is the mode's chain over oc, the
 * taps are added in col2im's (ky, kx) order, and a tap that col2im
 * skips (outside the output, or stride-skipped) adds nothing — not
 * even +0, so -0 in an accumulate sink stays -0. Blocks of
 * detail::kConvBlockPositions lanes fan out on gemmPool().
 */
void convBackwardInput(const float *grad_out, int out_c, int oh, int ow,
                       const float *weight, int in_c, int ih, int iw, int k,
                       int stride, int pad, float *grad_in, bool accumulate);

/**
 * C[MxN] = A[MxK] * B^T where B is [NxK] row-major, or += when
 * @p accumulate. Each output element is a contiguous dot product; used
 * for the convolution weight gradient: grad_W = grad_out * col^T. The
 * kernels run 4 rows x 2 columns of dots at once, each element with
 * its own unchanged chain.
 */
void sgemmNT(int M, int N, int K, const float *A, const float *B, float *C,
             bool accumulate = false);

/**
 * y[M] = bias[M] + A[MxK] * x[K]: the Linear-layer forward. Dispatched
 * through simdMode() like the conv entry points — AVX2/FMA rows when
 * available, otherwise the scalar reference that seeds each dot
 * product's accumulator with the bias (the historical Linear numerics;
 * statistical fixtures are calibrated to hold under both). Both run
 * several rows at once (AVX2 8, scalar 4), each row keeping its own
 * chain, so y[i] is the same bits for any M.
 */
void sgemvBias(int M, int K, const float *A, const float *x,
               const float *bias, float *y);

/** y[K] = A^T * x where A is [MxK] row-major (+= when @p accumulate). */
void sgemvT(int M, int K, const float *A, const float *x, float *y,
            bool accumulate = false);

/**
 * Reusable im2col scratch for the conv weight gradient. One instance
 * lives per thread (see gemmScratch()), so a warmed-up training loop
 * performs no heap allocation regardless of how many conv layers share
 * it.
 */
struct GemmScratch
{
    util::AlignedF32 col; ///< im2col matrix [inC*k*k x oh*ow]
};

/** Thread-local scratch shared by every conv layer on this thread. */
GemmScratch &gemmScratch();

/**
 * Unroll @p in (CHW, @p in_c x @p ih x @p iw) into @p col as a
 * [in_c*k*k x oh*ow] row-major matrix; out-of-image taps are zero.
 * Row (ic*k + ky)*k + kx matches the Conv2d weight layout, so the
 * weight matrix multiplies @p col directly.
 */
void im2col(const float *in, int in_c, int ih, int iw, int k, int stride,
            int pad, int oh, int ow, util::AlignedF32 &col);

} // namespace ptolemy::nn

#endif // PTOLEMY_NN_GEMM_HH
