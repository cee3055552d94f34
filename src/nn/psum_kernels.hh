/**
 * @file
 * Internal AVX2 kernel interface for partial-sum rows (nn::PsumRow):
 * row construction, shared by the dispatching layers (linear.cc,
 * conv.cc), and the row sweeps of ranked-prefix selection, used by
 * path/prefix_select.cc. Same arrangement as gemm_kernels.hh: only
 * psum_avx2.cc is compiled with -mavx2 -mfma.
 *
 * Every kernel is bit-identical to its scalar loop by construction.
 * Partial-sum values are single products w * x (one rounding each, no
 * accumulation order to preserve), and the selection sweeps are pure
 * comparisons and max over NaN-free rows, which do not depend on lane
 * order.
 */

#ifndef PTOLEMY_NN_PSUM_KERNELS_HH
#define PTOLEMY_NN_PSUM_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace ptolemy::nn::detail
{

#ifdef PTOLEMY_HAVE_AVX2

/** value[i] = w[i] * x[i] for i in [0, n): one Linear row's values. */
void avx2Products(const float *w, const float *x, std::size_t n,
                  float *value);

/**
 * One interior conv row through a receptive-field offset table:
 * index[j] = base + off[j], value[j] = w[j] * in[index[j]] for j in
 * [0, n). 8 taps per vgatherdps; scalar tail.
 */
void avx2GatherProducts(const float *w, const float *in, std::uint32_t base,
                        const std::uint32_t *off, std::size_t n,
                        float *value, std::uint32_t *index);

/** True when every v[i], i in [0, n), is finite (no NaN, no ±Inf). */
bool avx2AllFinite(const float *v, std::size_t n);

/** Maximum of v[0, n); n >= 1 and no NaN in the row. */
float avx2RowMax(const float *v, std::size_t n);

/** Sum, in float, of the entries of v[0, n) that are >= p (p > 0, no
 *  NaN in the row). A pivot-choice estimate only: lane order changes
 *  its rounding, so callers never decide membership by it. */
float avx2MassAtLeast(const float *v, std::size_t n, float p);

/** First position i in [0, n) with v[i] == m (so -0.0 matches +0.0),
 *  or n when there is none. */
std::size_t avx2FirstEqual(const float *v, std::size_t n, float m);

#endif // PTOLEMY_HAVE_AVX2

} // namespace ptolemy::nn::detail

#endif // PTOLEMY_NN_PSUM_KERNELS_HH
