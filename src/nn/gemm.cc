#include "gemm.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "nn/gemm_kernels.hh"
#include "util/thread_pool.hh"

namespace ptolemy::nn
{

namespace
{

// Rows of C per sgemmNT pool task.
constexpr int kNTRowsPerTask = 8;

// Products below this many FLOPs (2*M*N*K) are not worth waking the
// pool for; they run serially on the calling thread.
constexpr double kParallelFlopCutoff = 2.0 * 1024 * 1024;

// Products split into fewer tasks than this run inline as well: pool
// dispatch latency dominates the 2-3-block shapes detectBatch sees.
constexpr std::size_t kInlineTaskCutoff = 4;

/** Pool gate shared by every blocked entry point: enough threads,
 *  enough tasks, enough arithmetic. Scheduling only — results are
 *  bit-identical either way. */
bool
usePoolFor(ThreadPool *pool, std::size_t n_tasks, double flops)
{
    return pool && pool->size() > 1 && n_tasks >= kInlineTaskCutoff &&
           flops >= kParallelFlopCutoff;
}

} // namespace

ThreadPool *&
gemmPool()
{
    static ThreadPool *pool = &globalPool();
    return pool;
}

namespace
{

/**
 * R x C block of scalar NT dots, each the sequential s += a[k]*b[k]
 * from zero: R*C independent chains instead of one latency-bound one,
 * every chain unchanged.
 */
template <int R, int C>
inline void
scalarNTBlock(const float *const *a, const float *const *b, int K, float *c,
              std::ptrdiff_t ldc, bool accumulate)
{
    float s[R][C] = {};
    for (int k = 0; k < K; ++k)
        for (int r = 0; r < R; ++r)
            for (int j = 0; j < C; ++j)
                s[r][j] += a[r][k] * b[j][k];
    for (int r = 0; r < R; ++r)
        for (int j = 0; j < C; ++j) {
            float &dst = c[r * ldc + j];
            dst = accumulate ? dst + s[r][j] : s[r][j];
        }
}

template <int R>
inline void
scalarNTRowBlock(int i, int N, int K, const float *A, const float *B,
                 float *C, bool accumulate)
{
    const float *a[R];
    for (int r = 0; r < R; ++r)
        a[r] = A + static_cast<std::size_t>(i + r) * K;
    float *c = C + static_cast<std::size_t>(i) * N;
    int j = 0;
    for (; j + 2 <= N; j += 2) {
        const float *b[2] = {B + static_cast<std::size_t>(j) * K,
                             B + static_cast<std::size_t>(j + 1) * K};
        scalarNTBlock<R, 2>(a, b, K, c + j, N, accumulate);
    }
    if (j < N) {
        const float *b[1] = {B + static_cast<std::size_t>(j) * K};
        scalarNTBlock<R, 1>(a, b, K, c + j, N, accumulate);
    }
}

void
scalarNTRows(int i0, int i1, int N, int K, const float *A, const float *B,
             float *C, bool accumulate)
{
    int i = i0;
    for (; i + 4 <= i1; i += 4)
        scalarNTRowBlock<4>(i, N, K, A, B, C, accumulate);
    for (; i < i1; ++i)
        scalarNTRowBlock<1>(i, N, K, A, B, C, accumulate);
}

} // namespace

void
sgemmNT(int M, int N, int K, const float *A, const float *B, float *C,
        bool accumulate)
{
    // Each output is an independent contiguous dot product; parallelism
    // splits rows, which cannot change any element's accumulation order.
    const double flops = 2.0 * M * N * K;
    const std::size_t n_tasks = static_cast<std::size_t>(
        (M + kNTRowsPerTask - 1) / kNTRowsPerTask);
    ThreadPool *pool = gemmPool();
    auto run = [&](std::size_t t) {
        const int i0 = static_cast<int>(t) * kNTRowsPerTask;
        const int i1 = std::min(M, i0 + kNTRowsPerTask);
#ifdef PTOLEMY_HAVE_AVX2
        if (avx2Active()) {
            detail::avx2GemmNTRows(i0, i1, N, K, A, B, C, accumulate);
            return;
        }
#endif
        scalarNTRows(i0, i1, N, K, A, B, C, accumulate);
    };
    if (usePoolFor(pool, n_tasks, flops)) {
        pool->parallelFor(n_tasks, run);
        return;
    }
    for (std::size_t t = 0; t < n_tasks; ++t)
        run(t);
}

namespace
{

/**
 * One scalar gemv row: bias-seeded sequential dot product (the
 * historical Linear-layer numerics). noinline pins a single codegen of
 * the accumulation chain, so the compiler cannot contract or unroll it
 * differently at the call site below.
 */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
float
scalarGemvRowDotBias(const float *a, const float *x, int K, float bias)
{
    float s = bias;
    for (int k = 0; k < K; ++k)
        s += a[k] * x[k];
    return s;
}

/**
 * Rows [i, i + 4) at once: four bias-seeded chains share each x[k]
 * load and hide one another's add latency; each row's fold is
 * scalarGemvRowDotBias's, term for term.
 */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void
scalarGemvRows4DotBias(const float *A, int K, const float *x,
                       const float *bias, float *y)
{
    const float *a0 = A, *a1 = A + K, *a2 = A + 2 * K, *a3 = A + 3 * K;
    float s0 = bias[0], s1 = bias[1], s2 = bias[2], s3 = bias[3];
    for (int k = 0; k < K; ++k) {
        const float xk = x[k];
        s0 += a0[k] * xk;
        s1 += a1[k] * xk;
        s2 += a2[k] * xk;
        s3 += a3[k] * xk;
    }
    y[0] = s0;
    y[1] = s1;
    y[2] = s2;
    y[3] = s3;
}

} // namespace

void
sgemvBias(int M, int K, const float *A, const float *x, const float *bias,
          float *y)
{
#ifdef PTOLEMY_HAVE_AVX2
    if (avx2Active()) {
        detail::avx2GemvBias(M, K, A, x, bias, y);
        return;
    }
#endif
    int i = 0;
    for (; i + 4 <= M; i += 4)
        scalarGemvRows4DotBias(A + static_cast<std::size_t>(i) * K, K, x,
                               bias + i, y + i);
    for (; i < M; ++i)
        y[i] = scalarGemvRowDotBias(A + static_cast<std::size_t>(i) * K, x,
                                    K, bias[i]);
}

void
sgemvT(int M, int K, const float *A, const float *x, float *y, bool accumulate)
{
    if (!accumulate)
        std::fill(y, y + K, 0.0f);
    for (int i = 0; i < M; ++i) {
        const float xi = x[i];
        if (xi == 0.0f)
            continue;
        const float *a = A + static_cast<std::size_t>(i) * K;
        for (int k = 0; k < K; ++k)
            y[k] += xi * a[k];
    }
}

GemmScratch &
gemmScratch()
{
    thread_local GemmScratch scratch;
    return scratch;
}

void
packBMatrixStrided(const float *b, std::ptrdiff_t k_stride,
                   std::ptrdiff_t n_stride, int K, int N, PackedB &out)
{
    const auto L = detail::packedBLayout(K, N);
    out.K = K;
    out.N = N;
    // assign zeroes the alignment padding between panels so the buffer
    // content is fully deterministic (the pad floats are never read).
    out.data.assign(L.total, 0.0f);
    float *base = out.data.data();
    auto at = [&](int k, int n) { return b[k * k_stride + n * n_stride]; };
    for (int blk = 0; blk < L.nFull; ++blk) {
        float *dst = base + static_cast<std::size_t>(blk) * K * 16;
        for (int k = 0; k < K; ++k)
            for (int c = 0; c < 16; ++c)
                dst[static_cast<std::size_t>(k) * 16 + c] =
                    at(k, blk * 16 + c);
    }
    if (L.has8) {
        float *dst = base + L.off8;
        const int j0 = L.nFull * 16;
        for (int k = 0; k < K; ++k)
            for (int c = 0; c < 8; ++c)
                dst[static_cast<std::size_t>(k) * 8 + c] = at(k, j0 + c);
    }
    if (L.tail > 0) {
        float *dst = base + L.offTail;
        const int j0 = L.nFull * 16 + (L.has8 ? 8 : 0);
        for (int k = 0; k < K; ++k)
            for (int c = 0; c < L.tail; ++c)
                dst[static_cast<std::size_t>(k) * L.tail + c] =
                    at(k, j0 + c);
    }
}

namespace
{

/** Per-thread implicit-GEMM scratch: padded input plane + offset tables. */
struct ConvImplicitScratch
{
    util::AlignedF32 plane; ///< in_c x (ih+2p) x (iw+2p), zero border
    std::vector<int> koff;  ///< per tap (ic, ky, kx): offset into plane
    std::vector<int> poff;  ///< per output position: offset into plane
};

ConvImplicitScratch &
convImplicitScratch()
{
    thread_local ConvImplicitScratch scratch;
    return scratch;
}

/**
 * Portable implicit-GEMM conv block: avx2ConvImplicitBlock's arguments
 * (same padded plane, offset tables and packed W^T panels) with the
 * scalar fold of gemm_kernels.hh, bit for bit.
 *
 * Positions whose plane offsets are consecutive (a stride-1 output
 * row's share of the block) form a run, and tap k of a run is the
 * contiguous plane segment xp + koff[k] + poff[run start]: the im2col
 * row segment, read in place. So the inner loop vectorizes over the
 * run, and each element's chain is the scalar fold: from zero,
 * grouped-4 steps acc += w0*a0 + w1*a1 + w2*a2 + w3*a3, then the K%4
 * single steps, then one bias addition. Each weight panel accumulates
 * in a compact stage (16 output rows ohw floats apart would share one
 * L1 set) that leaves, bias added, as contiguous output rows.
 */
void
scalarConvImplicitBlock(int K, int N, const float *xp, const int *koff,
                        const int *poff, int P, const float *packed,
                        const float *bias, float *out, std::ptrdiff_t ldc)
{
    assert(P >= 1 && P <= detail::kConvBlockPositions);
    constexpr int ld = detail::kConvBlockPositions;
    float stage[16 * ld];
    int c0 = 0;
    // One w-wide weight panel: channel c's weight for tap k is wp[k*w + c].
    const auto panel = [&](const float *wp, int w) {
        std::fill_n(stage, w * ld, 0.0f);
        for (int j0 = 0, j1; j0 < P; j0 = j1) {
            j1 = j0 + 1;
            while (j1 < P && poff[j1] == poff[j1 - 1] + 1)
                ++j1;
            const int run = j1 - j0;
            const float *x = xp + poff[j0];
            int k = 0;
            for (; k + 3 < K; k += 4) {
                const float *a0 = x + koff[k];
                const float *a1 = x + koff[k + 1];
                const float *a2 = x + koff[k + 2];
                const float *a3 = x + koff[k + 3];
                const float *b0 = wp + static_cast<std::size_t>(k) * w;
                for (int c = 0; c < w; ++c) {
                    const float w0 = b0[c], w1 = b0[w + c],
                                w2 = b0[2 * w + c], w3 = b0[3 * w + c];
                    float *acc = stage + c * ld + j0;
                    for (int j = 0; j < run; ++j)
                        acc[j] += w0 * a0[j] + w1 * a1[j] + w2 * a2[j] +
                                  w3 * a3[j];
                }
            }
            for (; k < K; ++k) {
                const float *a0 = x + koff[k];
                const float *b0 = wp + static_cast<std::size_t>(k) * w;
                for (int c = 0; c < w; ++c) {
                    float *acc = stage + c * ld + j0;
                    for (int j = 0; j < run; ++j)
                        acc[j] += b0[c] * a0[j];
                }
            }
        }
        for (int c = 0; c < w; ++c, ++c0) {
            float *row = out + c0 * ldc;
            for (int j = 0; j < P; ++j)
                row[j] = stage[c * ld + j] + bias[c0];
        }
    };
    const auto L = detail::packedBLayout(K, N);
    for (int blk = 0; blk < L.nFull; ++blk)
        panel(packed + static_cast<std::size_t>(blk) * K * 16, 16);
    if (L.has8)
        panel(packed + L.off8, 8);
    if (L.tail > 0)
        panel(packed + L.offTail, L.tail);
}

} // namespace

void
convForwardPacked(const float *in, int in_c, int ih, int iw, int k,
                  int stride, int pad, int oh, int ow, const PackedB &wt,
                  float const *bias, float *out)
{
    const int K = wt.K;
    const int outC = wt.N;
    const int ohw = oh * ow;
    assert(K == in_c * k * k);
    auto &scratch = convImplicitScratch();
    // Copy the input once into a zero-padded plane so every tap of every
    // output position is an in-bounds load: xp[koff[k] + poff[p]] is the
    // im2col element (k, p), border zeros included. Unpadded convs read
    // the input in place.
    const int ihp = ih + 2 * pad, iwp = iw + 2 * pad;
    const float *xp = in;
    if (pad > 0) {
        scratch.plane.resize(static_cast<std::size_t>(in_c) * ihp * iwp);
        float *dst = scratch.plane.data();
        const std::size_t border_rows = static_cast<std::size_t>(pad) * iwp;
        for (int ic = 0; ic < in_c; ++ic) {
            const float *src = in + static_cast<std::size_t>(ic) * ih * iw;
            std::fill_n(dst, border_rows, 0.0f);
            dst += border_rows;
            for (int y = 0; y < ih; ++y, src += iw) {
                std::fill_n(dst, pad, 0.0f);
                std::memcpy(dst + pad, src, sizeof(float) * iw);
                std::fill_n(dst + pad + iw, pad, 0.0f);
                dst += iwp;
            }
            std::fill_n(dst, border_rows, 0.0f);
            dst += border_rows;
        }
        xp = scratch.plane.data();
    }
    // Raw pointers into this thread's scratch: inside the pool lambda a
    // convImplicitScratch() call would name the worker's instance.
    scratch.koff.resize(static_cast<std::size_t>(K));
    scratch.poff.resize(static_cast<std::size_t>(ohw));
    int *const koff = scratch.koff.data();
    int *const poff = scratch.poff.data();
    for (int ic = 0; ic < in_c; ++ic)
        for (int ky = 0; ky < k; ++ky)
            for (int kx = 0; kx < k; ++kx)
                koff[(ic * k + ky) * k + kx] = (ic * ihp + ky) * iwp + kx;
    for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox)
            poff[oy * ow + ox] = oy * stride * iwp + ox * stride;
    auto *block = &scalarConvImplicitBlock;
#ifdef PTOLEMY_HAVE_AVX2
    if (avx2Active())
        block = &detail::avx2ConvImplicitBlock;
#endif
#ifdef PTOLEMY_HAVE_AVX512
    if (simdMode() == SimdMode::Avx512)
        block = &detail::avx512ConvImplicitBlock;
#endif
    // One block of kConvBlockPositions output positions is both the
    // kernel's weight-reuse unit and the pool-task grain. Positions are
    // independent and per-element results partition-invariant, so the
    // blocking is scheduling-only.
    constexpr int kBlock = detail::kConvBlockPositions;
    const std::size_t n_tasks =
        static_cast<std::size_t>((ohw + kBlock - 1) / kBlock);
    const double flops = 2.0 * outC * ohw * K;
    auto run = [&](std::size_t t) {
        const int p0 = static_cast<int>(t) * kBlock;
        block(K, outC, xp, koff, poff + p0, std::min(kBlock, ohw - p0),
              wt.data.data(), bias, out + p0, ohw);
    };
    ThreadPool *pool = gemmPool();
    if (usePoolFor(pool, n_tasks, flops)) {
        pool->parallelFor(n_tasks, run);
        return;
    }
    for (std::size_t t = 0; t < n_tasks; ++t)
        run(t);
}

namespace
{

/** Per-thread conv input-gradient scratch (see convBackwardInput). */
struct ConvGradInputScratch
{
    util::AlignedF32 plane; ///< out_c output-gradient planes with margins
    util::AlignedF32 acc;   ///< [in_c][lanes] one phase's gradient lanes
    std::vector<int> rowOf; ///< lane -> phase row
    std::vector<int> colOf; ///< lane -> phase column
    std::vector<detail::ConvGradTap> taps;
};

ConvGradInputScratch &
convGradInputScratch()
{
    thread_local ConvGradInputScratch scratch;
    return scratch;
}

/**
 * Portable conv input-gradient block: avx2ConvGradInputBlock's
 * arguments with the scalar fold of gemm_kernels.hh over output
 * channels, bit for bit. Per lane and tap the value is, from zero,
 * grouped-4 steps t += w0*d0 + w1*d1 + w2*d2 + w3*d3, then the outC%4
 * single steps. It is added onto the lane only where the tap lands
 * inside the output gradient, as col2im adds it.
 */
void
scalarConvGradInputBlock(const detail::ConvGradInputPhase &ph, int q0,
                         int q1)
{
    constexpr int ld = detail::kConvBlockPositions;
    constexpr int RC = detail::kGradInChannelBlock;
    assert(q1 - q0 >= 1 && q1 - q0 <= ld);
    float t[RC * ld];
    const int n = q1 - q0;
    const int outC = ph.outC;
    const int kk = ph.kTaps;
    const std::ptrdiff_t ps = ph.planeStride;
    const std::ptrdiff_t ocs = static_cast<std::ptrdiff_t>(ph.inC) * kk;
    for (int ic0 = 0; ic0 < ph.inC; ic0 += RC) {
        const int rc = std::min(RC, ph.inC - ic0);
        for (int ti = 0; ti < ph.nTaps; ++ti) {
            const detail::ConvGradTap tp = ph.taps[ti];
            const float *d = ph.dyp + q0 + tp.cy * ph.width + tp.cx;
            // Weight (oc, channel ic0 + c) of this tap: w[oc*ocs + c*kk].
            const float *w =
                ph.weight + static_cast<std::size_t>(ic0) * kk + tp.tap;
            std::fill_n(t, rc * ld, 0.0f);
            int oc = 0;
            for (; oc + 3 < outC; oc += 4) {
                const float *d0 = d + oc * ps;
                const float *d1 = d0 + ps;
                const float *d2 = d1 + ps;
                const float *d3 = d2 + ps;
                const float *w0 = w + oc * ocs;
                for (int c = 0; c < rc; ++c) {
                    const float a0 = w0[c * kk], a1 = w0[ocs + c * kk],
                                a2 = w0[2 * ocs + c * kk],
                                a3 = w0[3 * ocs + c * kk];
                    float *acc = t + c * ld;
                    for (int j = 0; j < n; ++j)
                        acc[j] += a0 * d0[j] + a1 * d1[j] + a2 * d2[j] +
                                  a3 * d3[j];
                }
            }
            for (; oc < outC; ++oc) {
                const float *d0 = d + oc * ps;
                const float *w0 = w + oc * ocs;
                for (int c = 0; c < rc; ++c) {
                    const float a0 = w0[c * kk];
                    float *acc = t + c * ld;
                    for (int j = 0; j < n; ++j)
                        acc[j] += a0 * d0[j];
                }
            }
            const int *rows = ph.rowOf + q0;
            const int *cols = ph.colOf + q0;
            for (int c = 0; c < rc; ++c) {
                float *dst = ph.acc + (ic0 + c) * ph.accStride + q0;
                const float *src = t + c * ld;
                for (int j = 0; j < n; ++j) {
                    const bool live =
                        (static_cast<unsigned>(rows[j] + tp.cy) <
                         static_cast<unsigned>(ph.oh)) &
                        (static_cast<unsigned>(cols[j] + tp.cx) <
                         static_cast<unsigned>(ph.ow));
                    dst[j] = live ? dst[j] + src[j] : dst[j];
                }
            }
        }
    }
}

} // namespace

void
convBackwardInput(const float *grad_out, int out_c, int oh, int ow,
                  const float *weight, int in_c, int ih, int iw, int k,
                  int stride, int pad, float *grad_in, bool accumulate)
{
    constexpr int kBlock = detail::kConvBlockPositions;
    auto &sc = convGradInputScratch();
    // Input row iy = py + s*a takes tap ky iff s divides py + pad - ky,
    // from output row a + (py + pad - ky)/s; columns alike. The lane
    // offsets (cy, cx) of every phase lie in [lo, hi].
    const int s = stride;
    int lo = 0, hi = 0;
    for (int p = 0; p < s; ++p)
        for (int t = 0; t < k; ++t)
            if ((p + pad - t) % s == 0) {
                lo = std::min(lo, (p + pad - t) / s);
                hi = std::max(hi, (p + pad - t) / s);
            }
    // Lane q = a*width + b; width holds a phase row and a dY row. The
    // dY planes get a front margin and a tail, so every lane of every
    // tap reads in bounds; the blend discards the lanes outside dY.
    const int width = std::max(ow, (iw + s - 1) / s);
    const int rows = (ih + s - 1) / s;
    const int lanes = (rows * width + kBlock - 1) / kBlock * kBlock;
    const std::ptrdiff_t front = std::max(0, -(lo * width + lo));
    const std::ptrdiff_t ps =
        front + std::max(static_cast<std::ptrdiff_t>(oh) * width,
                         static_cast<std::ptrdiff_t>(lanes) +
                             std::max(0, hi * width + hi));
    sc.plane.resize(static_cast<std::size_t>(out_c) * ps);
    for (int oc = 0; oc < out_c; ++oc) {
        float *p = sc.plane.data() + oc * ps;
        std::fill_n(p, front, 0.0f);
        p += front;
        const float *src = grad_out + static_cast<std::size_t>(oc) * oh * ow;
        for (int oy = 0; oy < oh; ++oy, p += width, src += ow) {
            std::memcpy(p, src, sizeof(float) * ow);
            std::fill_n(p + ow, width - ow, 0.0f);
        }
        std::fill_n(p, ps - front - static_cast<std::ptrdiff_t>(oh) * width,
                    0.0f);
    }
    sc.rowOf.resize(static_cast<std::size_t>(lanes));
    sc.colOf.resize(static_cast<std::size_t>(lanes));
    for (int q = 0, a = 0, b = 0; q < lanes; ++q) {
        sc.rowOf[q] = a;
        sc.colOf[q] = b;
        if (++b == width) {
            b = 0;
            ++a;
        }
    }
    auto *block = &scalarConvGradInputBlock;
#ifdef PTOLEMY_HAVE_AVX2
    if (avx2Active())
        block = &detail::avx2ConvGradInputBlock;
#endif
    detail::ConvGradInputPhase ph;
    ph.inC = in_c;
    ph.outC = out_c;
    ph.oh = oh;
    ph.ow = ow;
    ph.width = width;
    ph.planeStride = ps;
    ph.dyp = sc.plane.data() + front;
    ph.weight = weight;
    ph.kTaps = k * k;
    ph.rowOf = sc.rowOf.data();
    ph.colOf = sc.colOf.data();
    const std::size_t plane_in = static_cast<std::size_t>(ih) * iw;
    for (int py = 0; py < std::min(s, ih); ++py) {
        for (int px = 0; px < std::min(s, iw); ++px) {
            sc.taps.clear();
            for (int ky = 0; ky < k; ++ky) {
                if ((py + pad - ky) % s != 0)
                    continue;
                for (int kx = 0; kx < k; ++kx)
                    if ((px + pad - kx) % s == 0)
                        sc.taps.push_back({ky * k + kx, (py + pad - ky) / s,
                                           (px + pad - kx) / s});
            }
            if (sc.taps.empty() && accumulate)
                continue; // no tap lands on this phase
            const int na = (ih - py + s - 1) / s;
            const int nb = (iw - px + s - 1) / s;
            const int nq = na * width;
            const int stride_q = (nq + kBlock - 1) / kBlock * kBlock;
            // This phase's positions in lane order: the sink's contents,
            // or +0 for an overwrite sink (col2im's zeroed start).
            sc.acc.assign(static_cast<std::size_t>(in_c) * stride_q, 0.0f);
            if (accumulate)
                for (int ic = 0; ic < in_c; ++ic)
                    for (int a = 0; a < na; ++a) {
                        const float *src = grad_in + ic * plane_in +
                                           (py + s * a) * iw + px;
                        float *dst = sc.acc.data() + ic * stride_q + a * width;
                        for (int b = 0; b < nb; ++b)
                            dst[b] = src[s * b];
                    }
            if (!sc.taps.empty()) {
                ph.taps = sc.taps.data();
                ph.nTaps = static_cast<int>(sc.taps.size());
                ph.acc = sc.acc.data();
                ph.accStride = stride_q;
                const std::size_t n_tasks =
                    static_cast<std::size_t>(nq + kBlock - 1) / kBlock;
                const double flops = 2.0 * out_c * in_c * ph.nTaps * nq;
                auto run = [&](std::size_t t) {
                    const int q0 = static_cast<int>(t) * kBlock;
                    block(ph, q0, std::min(nq, q0 + kBlock));
                };
                ThreadPool *pool = gemmPool();
                if (usePoolFor(pool, n_tasks, flops))
                    pool->parallelFor(n_tasks, run);
                else
                    for (std::size_t t = 0; t < n_tasks; ++t)
                        run(t);
            }
            for (int ic = 0; ic < in_c; ++ic)
                for (int a = 0; a < na; ++a) {
                    float *dst =
                        grad_in + ic * plane_in + (py + s * a) * iw + px;
                    const float *src =
                        sc.acc.data() + ic * stride_q + a * width;
                    for (int b = 0; b < nb; ++b)
                        dst[s * b] = src[b];
                }
        }
    }
}

void
im2col(const float *in, int in_c, int ih, int iw, int k, int stride, int pad,
       int oh, int ow, util::AlignedF32 &col)
{
    const std::size_t ohw = static_cast<std::size_t>(oh) * ow;
    col.resize(static_cast<std::size_t>(in_c) * k * k * ohw);
    float *row = col.data();
    for (int ic = 0; ic < in_c; ++ic) {
        const float *plane = in + static_cast<std::size_t>(ic) * ih * iw;
        for (int ky = 0; ky < k; ++ky) {
            for (int kx = 0; kx < k; ++kx) {
                for (int oy = 0; oy < oh; ++oy, row += ow) {
                    const int iy = oy * stride - pad + ky;
                    if (iy < 0 || iy >= ih) {
                        std::memset(row, 0, sizeof(float) * ow);
                        continue;
                    }
                    const float *src = plane + static_cast<std::size_t>(iy) * iw;
                    if (stride == 1) {
                        // Contiguous tap run; clamp the borders once. All
                        // three extents are clamped to the row so kernel
                        // footprints wider than the padded image (e.g.
                        // k=5, pad=2 on a 1-wide input) stay in bounds.
                        const int ix0 = -pad + kx;
                        const int lead = std::clamp(-ix0, 0, ow);
                        const int valid_end = std::clamp(iw - ix0, 0, ow);
                        const int body = std::max(0, valid_end - lead);
                        const int tail = ow - lead - body;
                        if (lead > 0)
                            std::memset(row, 0, sizeof(float) * lead);
                        if (body > 0)
                            std::memcpy(row + lead, src + ix0 + lead,
                                        sizeof(float) * body);
                        if (tail > 0)
                            std::memset(row + lead + body, 0,
                                        sizeof(float) * tail);
                    } else {
                        for (int ox = 0; ox < ow; ++ox) {
                            const int ix = ox * stride - pad + kx;
                            row[ox] = (ix < 0 || ix >= iw) ? 0.0f : src[ix];
                        }
                    }
                }
            }
        }
    }
}

} // namespace ptolemy::nn
