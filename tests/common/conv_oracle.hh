/**
 * @file
 * Plain-loop oracles for the conv kernels' written numerics contract
 * (the "fold" comment in src/nn/gemm_kernels.hh): the explicit conv
 * forward (im2col, then the fold per output element, then one bias
 * add) and the explicit conv input gradient (the TN product W^T * dY
 * with the fold per col element, then col2im). Each SIMD mode's kernels
 * must reproduce these bytes exactly.
 *
 * Two folds, picked by SIMD mode:
 * - Avx2 / Avx512: acc = +0, then acc = fma(a_k, w_k, acc) for k
 *   ascending (std::fmaf rounds once, like the vector FMA).
 * - Scalar: acc = 0, then for each group of four k ascending
 *   acc += w0*a0 + w1*a1 + w2*a2 + w3*a3 (left to right), then the
 *   K%4 single steps acc += w*a. The tests are built without FMA
 *   instructions, so every * and + rounds separately, as in the
 *   library's scalar kernels.
 *
 * Everything here is a naive loop over plain vectors: no library
 * kernel, pack or scratch buffer is involved.
 */

#ifndef PTOLEMY_TESTS_COMMON_CONV_ORACLE_HH
#define PTOLEMY_TESTS_COMMON_CONV_ORACLE_HH

#include <cmath>
#include <cstddef>
#include <vector>

#include "util/simd.hh"

namespace ptolemy::testing
{

/**
 * The fold of @p mode over n terms: the sum of w(i) * a(i), i
 * ascending, chained as the kernels of that mode chain it.
 */
template <typename W, typename A>
float
convFold(SimdMode mode, int n, W w, A a)
{
    float acc = 0.0f;
    if (mode != SimdMode::Scalar) {
        for (int i = 0; i < n; ++i)
            acc = std::fmaf(a(i), w(i), acc);
        return acc;
    }
    int i = 0;
    for (; i + 3 < n; i += 4)
        acc += w(i) * a(i) + w(i + 1) * a(i + 1) + w(i + 2) * a(i + 2) +
               w(i + 3) * a(i + 3);
    for (; i < n; ++i)
        acc += w(i) * a(i);
    return acc;
}

/** Output extent of a conv along one axis. */
inline int
convOutExtent(int in, int k, int stride, int pad)
{
    return (in + 2 * pad - k) / stride + 1;
}

/**
 * The explicit conv forward in @p mode: out [out_c x oh*ow] =
 * fold over k of (w[oc][k], col[k][p]) + b[oc], where col is the
 * im2col matrix of @p x (CHW, in_c x ih x iw; out-of-image taps are 0)
 * with row k = (ic*k + ky)*k + kx, the Conv2d weight layout.
 */
inline std::vector<float>
oracleConvForward(SimdMode mode, const float *w, const float *b, int out_c,
                  const float *x, int in_c, int ih, int iw, int k,
                  int stride, int pad)
{
    const int oh = convOutExtent(ih, k, stride, pad);
    const int ow = convOutExtent(iw, k, stride, pad);
    const int kdim = in_c * k * k, ohw = oh * ow;
    std::vector<float> col(static_cast<std::size_t>(kdim) * ohw, 0.0f);
    for (int ic = 0; ic < in_c; ++ic)
        for (int ky = 0; ky < k; ++ky)
            for (int kx = 0; kx < k; ++kx)
                for (int oy = 0; oy < oh; ++oy)
                    for (int ox = 0; ox < ow; ++ox) {
                        const int iy = oy * stride - pad + ky;
                        const int ix = ox * stride - pad + kx;
                        if (iy >= 0 && iy < ih && ix >= 0 && ix < iw)
                            col[(static_cast<std::size_t>(ic * k + ky) * k +
                                 kx) * ohw + oy * ow + ox] =
                                x[(static_cast<std::size_t>(ic) * ih + iy) *
                                      iw + ix];
                    }
    std::vector<float> out(static_cast<std::size_t>(out_c) * ohw);
    for (int oc = 0; oc < out_c; ++oc) {
        const float *wr = w + static_cast<std::size_t>(oc) * kdim;
        for (int p = 0; p < ohw; ++p)
            out[static_cast<std::size_t>(oc) * ohw + p] =
                convFold(
                    mode, kdim, [&](int i) { return wr[i]; },
                    [&](int i) {
                        return col[static_cast<std::size_t>(i) * ohw + p];
                    }) +
                b[oc];
    }
    return out;
}

/**
 * The explicit conv input gradient in @p mode, added onto @p grad_in
 * (in_c x ih x iw; zero it first for an overwrite): col [kdim x oh*ow]
 * = fold over oc of (w[oc][j], dy[oc][p]), the TN product W^T * dY,
 * then col2im adds each col element onto the input pixel its tap
 * reads, taps in (ky, kx) order; taps outside the image add nothing.
 */
inline void
oracleConvInputGrad(SimdMode mode, const float *dy, int out_c, int oh,
                    int ow, const float *w, int in_c, int ih, int iw, int k,
                    int stride, int pad, float *grad_in)
{
    const int kdim = in_c * k * k, ohw = oh * ow;
    for (int ic = 0; ic < in_c; ++ic)
        for (int ky = 0; ky < k; ++ky)
            for (int kx = 0; kx < k; ++kx) {
                const int j = (ic * k + ky) * k + kx;
                for (int oy = 0; oy < oh; ++oy) {
                    const int iy = oy * stride - pad + ky;
                    if (iy < 0 || iy >= ih)
                        continue;
                    for (int ox = 0; ox < ow; ++ox) {
                        const int ix = ox * stride - pad + kx;
                        if (ix < 0 || ix >= iw)
                            continue;
                        const int p = oy * ow + ox;
                        grad_in[(static_cast<std::size_t>(ic) * ih + iy) *
                                    iw + ix] +=
                            convFold(
                                mode, out_c,
                                [&](int oc) {
                                    return w[static_cast<std::size_t>(oc) *
                                                 kdim + j];
                                },
                                [&](int oc) {
                                    return dy[static_cast<std::size_t>(oc) *
                                                  ohw + p];
                                });
                    }
                }
            }
}

} // namespace ptolemy::testing

#endif // PTOLEMY_TESTS_COMMON_CONV_ORACLE_HH
