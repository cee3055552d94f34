/**
 * @file
 * Small single-precision GEMM kernels and im2col/col2im helpers.
 *
 * The inference hot path lowers convolution to matrix multiplication:
 * im2col unrolls each receptive field into a column, so the layer's
 * forward pass is one [outC x K] * [K x OHW] product computed by a
 * cache-blocked, vectorizable kernel instead of a 6-deep scalar loop.
 * The AVX2 serving forward (convForwardPacked) computes that same
 * product as an implicit GEMM, reading each column element straight
 * from a zero-padded copy of the input.
 * The same kernels back the backward pass (weight gradient via NT,
 * input gradient via TN + col2im) and the Linear layer (gemv).
 *
 * All matrices are dense row-major. Two kernel families back the entry
 * points: a portable scalar reference (bit-identical to the historical
 * cache-blocked kernel) and AVX2/FMA microkernels compiled into their
 * own TU when the build enables them (CMake option PTOLEMY_SIMD).
 * simdMode() picks between them at runtime; both are deterministic
 * across thread counts. Large products are additionally split over
 * M x N tiles and fanned out on the process-wide thread pool (or
 * whatever pool gemmPool() points at), so single-sample conv latency
 * scales with cores.
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
using ptolemy::avx2Available;

/**
 * Pool the tiled kernels fan work out on. Defaults to the process-wide
 * globalPool(); point it elsewhere (or at nullptr for strictly serial
 * kernels) in tests. Small products always run serially regardless.
 */
ThreadPool *&gemmPool();

/**
 * C[MxN] = A[MxK] * B[KxN], or += when @p accumulate.
 * Cache-blocked with a k-unrolled inner kernel over contiguous C/B rows.
 */
void sgemm(int M, int N, int K, const float *A, const float *B, float *C,
           bool accumulate = false);

/**
 * A B matrix [K x N] packed once into the blocked panel layout the
 * tile kernels consume (see detail::packedBLayout), 64-byte-aligned.
 * Serving-path weights are immutable, so packing them at model-build
 * time removes the per-call packBPanel copy from every forward SGEMM.
 */
struct PackedB
{
    int K = 0;
    int N = 0;
    util::AlignedF32 data;

    bool empty() const { return data.empty(); }

    void
    clear()
    {
        K = N = 0;
        util::AlignedF32().swap(data);
    }
};

/** Pack row-major B [K x N] (leading dimension @p ldb) into @p out. */
void packBMatrix(const float *B, int ldb, int K, int N, PackedB &out);

/**
 * Pack a B matrix given arbitrary element strides: element (k, n) is
 * b[k * k_stride + n * n_stride]. This packs a transposed view without
 * materializing it — conv weights [outC x K] pack as W^T with
 * (k_stride, n_stride) = (1, K).
 */
void packBMatrixStrided(const float *b, std::ptrdiff_t k_stride,
                        std::ptrdiff_t n_stride, int K, int N,
                        PackedB &out);

/**
 * C[MxN] = A[MxK] * B from a persistent packed panel (or += when
 * @p accumulate), with N and K taken from @p B. Bit-identical to
 * sgemm(M, N, K, A, B_unpacked, C, accumulate) in both SIMD modes:
 * the AVX2 tiles skip the per-call pack but consume the exact blocked
 * layout packBPanel produced, and the scalar path replays the
 * reference kernel's BK-blocked grouped-4 accumulation order over the
 * packed panels (k-group boundaries are absolute, so per-element
 * numerics cannot shift).
 */
void sgemmPrepacked(int M, const float *A, const PackedB &B, float *C,
                    bool accumulate = false);

/**
 * Fused packed conv forward (AVX2 serving fast path) as an implicit
 * GEMM: the input is copied once into a zero-padded plane, and a tap
 * offset table (K entries) plus a position offset table (oh*ow entries)
 * let the 6-position x 16-channel register tiles broadcast each im2col
 * element straight from that plane — no im2col matrix or per-block A
 * panel is ever written. The tiles run against the persistent packed
 * W^T panels with the bias fused into the store. Output is
 * channel-major [outC x oh*ow], bit-identical to im2col + sgemm + bias
 * (see avx2ConvImplicitBlock). Blocks of detail::kConvBlockPositions
 * output positions fan out on gemmPool() like sgemm tiles. Caller must
 * hold simdMode() == Avx2 and an AVX2 build; @p wt must be the packed
 * [K x outC] transposed weight matrix with K = in_c*k*k.
 */
void convForwardPacked(const float *in, int in_c, int ih, int iw, int k,
                       int stride, int pad, int oh, int ow,
                       const PackedB &wt, const float *bias, float *out);

/**
 * Process-wide switch for the persistent-packed serving path
 * (convForwardPacked / packed Linear weights). Initialized from
 * PTOLEMY_PREPACK (default on; "0" disables); benches and bench_sweep
 * flip it at runtime to measure the packed-vs-on-the-fly delta. Gates
 * *use* of packed panels only — layers still build them — so flipping
 * it is always bit-identity-safe.
 */
bool &prepackEnabled();

/**
 * Minimum task count before a tiled kernel fans out to gemmPool():
 * below it the product runs inline on the calling thread, skipping
 * pool dispatch latency that dominates the 2-3-tile shapes detectBatch
 * actually sees. From PTOLEMY_GEMM_INLINE_TILES (default 4); the FLOP
 * cutoff still applies independently. Scheduling only — results are
 * bit-identical either way.
 */
int &gemmInlineTaskCutoff();

/**
 * C[MxN] = A^T * B where A is [KxM] row-major, or += when @p accumulate.
 * Used for the convolution input gradient: col_grad = W^T * grad_out.
 */
void sgemmTN(int M, int N, int K, const float *A, const float *B, float *C,
             bool accumulate = false);

/**
 * C[MxN] = A[MxK] * B^T where B is [NxK] row-major, or += when
 * @p accumulate. Each output element is a contiguous dot product; used
 * for the convolution weight gradient: grad_W = grad_out * col^T.
 */
void sgemmNT(int M, int N, int K, const float *A, const float *B, float *C,
             bool accumulate = false);

/**
 * y[M] = bias[M] + A[MxK] * x[K]: the Linear-layer forward. Dispatched
 * through simdMode() like the sgemm entry points — AVX2/FMA rows when
 * available, otherwise the scalar reference that seeds each dot
 * product's accumulator with the bias (the historical Linear numerics;
 * statistical fixtures are calibrated to hold under both).
 */
void sgemvBias(int M, int K, const float *A, const float *x,
               const float *bias, float *y);

/** y[K] = A^T * x where A is [MxK] row-major (+= when @p accumulate). */
void sgemvT(int M, int K, const float *A, const float *x, float *y,
            bool accumulate = false);

/**
 * Reusable im2col/col2im scratch. One instance lives per thread (see
 * gemmScratch()), so a warmed-up inference loop performs no heap
 * allocation regardless of how many conv layers share it.
 */
struct GemmScratch
{
    util::AlignedF32 col;     ///< im2col matrix [inC*k*k x oh*ow]
    util::AlignedF32 colGrad; ///< col-space gradient for backward
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

/**
 * Inverse scatter-add of im2col: accumulate the col-space gradient
 * @p col [in_c*k*k x oh*ow] back into the image gradient @p grad_in
 * (CHW, must be pre-zeroed by the caller).
 */
void col2im(const util::AlignedF32 &col, int in_c, int ih, int iw, int k,
            int stride, int pad, int oh, int ow, float *grad_in);

/**
 * Process-wide switch to the scalar reference convolution (equivalence
 * tests, perf baselines). Initialized from the PTOLEMY_NAIVE_CONV
 * environment variable; tests and benches may flip it at runtime.
 */
bool &naiveConvFlag();

} // namespace ptolemy::nn

#endif // PTOLEMY_NN_GEMM_HH
