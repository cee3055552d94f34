/**
 * @file
 * AVX2 partial-sum row kernels (compiled with -mavx2 -mfma; empty TU
 * otherwise): row construction for Linear and interior Conv2d neurons,
 * and the max / first-equal / finiteness sweeps ranked-prefix
 * selection runs over a row. Values are single multiplies (one
 * rounding) and the sweeps are comparisons over NaN-free rows, so each
 * kernel is bit-identical to the scalar loop it replaces.
 */

#include "psum_kernels.hh"

#ifdef PTOLEMY_HAVE_AVX2

#include <immintrin.h>

#include <cfloat>
#include <cmath>

namespace ptolemy::nn::detail
{

namespace
{

/** Load mask selecting the first @p rem (1..7) lanes. */
inline __m256i
tailMask(std::size_t rem)
{
    return _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<std::int32_t>(rem)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

} // namespace

void
avx2Products(const float *w, const float *x, std::size_t n, float *value)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(value + i, _mm256_mul_ps(_mm256_loadu_ps(w + i),
                                                  _mm256_loadu_ps(x + i)));
    for (; i < n; ++i)
        value[i] = w[i] * x[i];
}

void
avx2GatherProducts(const float *w, const float *in, std::uint32_t base,
                   const std::uint32_t *off, std::size_t n, float *value,
                   std::uint32_t *index)
{
    const __m256i vbase = _mm256_set1_epi32(static_cast<std::int32_t>(base));
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i ix = _mm256_add_epi32(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(off + j)),
            vbase);
        const __m256 x = _mm256_i32gather_ps(in, ix, 4);
        _mm256_storeu_ps(value + j,
                         _mm256_mul_ps(_mm256_loadu_ps(w + j), x));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(index + j), ix);
    }
    for (; j < n; ++j) {
        index[j] = base + off[j];
        value[j] = w[j] * in[index[j]];
    }
}

bool
avx2AllFinite(const float *v, std::size_t n)
{
    // |x| <= FLT_MAX is false for ±Inf and (ordered compare) for NaN;
    // masked-off tail lanes load as 0.0, which passes.
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256 fmax = _mm256_set1_ps(FLT_MAX);
    __m256 ok = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        ok = _mm256_and_ps(
            ok, _mm256_cmp_ps(_mm256_and_ps(_mm256_loadu_ps(v + i), abs_mask),
                              fmax, _CMP_LE_OQ));
    if (i < n) {
        const __m256 x = _mm256_maskload_ps(v + i, tailMask(n - i));
        ok = _mm256_and_ps(ok, _mm256_cmp_ps(_mm256_and_ps(x, abs_mask),
                                             fmax, _CMP_LE_OQ));
    }
    return _mm256_movemask_ps(ok) == 0xff;
}

float
avx2RowMax(const float *v, std::size_t n)
{
    // Four independent accumulators hide the vmaxps latency; max over a
    // NaN-free set is order-independent, so the lane split cannot change
    // the result (only, for an all-zero maximum, the sign of the zero,
    // which callers compare with ==). The tail is a masked load with
    // the masked-off lanes forced to -Inf.
    const __m256 ninf = _mm256_set1_ps(-INFINITY);
    __m256 m0 = ninf, m1 = ninf, m2 = ninf, m3 = ninf;
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        m0 = _mm256_max_ps(m0, _mm256_loadu_ps(v + i));
        m1 = _mm256_max_ps(m1, _mm256_loadu_ps(v + i + 8));
        m2 = _mm256_max_ps(m2, _mm256_loadu_ps(v + i + 16));
        m3 = _mm256_max_ps(m3, _mm256_loadu_ps(v + i + 24));
    }
    for (; i + 8 <= n; i += 8)
        m0 = _mm256_max_ps(m0, _mm256_loadu_ps(v + i));
    if (i < n) {
        const __m256i mask = tailMask(n - i);
        m1 = _mm256_max_ps(
            m1, _mm256_blendv_ps(ninf, _mm256_maskload_ps(v + i, mask),
                                 _mm256_castsi256_ps(mask)));
    }
    const __m256 a = _mm256_max_ps(_mm256_max_ps(m0, m1),
                                   _mm256_max_ps(m2, m3));
    __m128 r = _mm_max_ps(_mm256_castps256_ps128(a),
                          _mm256_extractf128_ps(a, 1));
    r = _mm_max_ps(r, _mm_movehl_ps(r, r));
    r = _mm_max_ss(r, _mm_shuffle_ps(r, r, 1));
    return _mm_cvtss_f32(r);
}

float
avx2MassAtLeast(const float *v, std::size_t n, float p)
{
    const __m256 pv = _mm256_set1_ps(p);
    __m256 s0 = _mm256_setzero_ps(), s1 = s0;
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m256 a = _mm256_loadu_ps(v + i);
        const __m256 b = _mm256_loadu_ps(v + i + 8);
        s0 = _mm256_add_ps(s0, _mm256_and_ps(a, _mm256_cmp_ps(a, pv,
                                                              _CMP_GE_OQ)));
        s1 = _mm256_add_ps(s1, _mm256_and_ps(b, _mm256_cmp_ps(b, pv,
                                                              _CMP_GE_OQ)));
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, _mm256_add_ps(s0, s1));
    float sum = 0.0f;
    for (float l : lanes)
        sum += l;
    for (; i < n; ++i)
        sum += v[i] >= p ? v[i] : 0.0f;
    return sum;
}

std::size_t
avx2FirstEqual(const float *v, std::size_t n, float m)
{
    const __m256 mv = _mm256_set1_ps(m);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const int hit = _mm256_movemask_ps(
            _mm256_cmp_ps(_mm256_loadu_ps(v + i), mv, _CMP_EQ_OQ));
        if (hit)
            return i + static_cast<std::size_t>(
                           __builtin_ctz(static_cast<unsigned>(hit)));
    }
    if (i < n) {
        const std::size_t rem = n - i;
        const unsigned hit =
            static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(
                _mm256_maskload_ps(v + i, tailMask(rem)), mv,
                _CMP_EQ_OQ))) &
            ((1u << rem) - 1u);
        if (hit)
            return i + static_cast<std::size_t>(__builtin_ctz(hit));
    }
    return n;
}

} // namespace ptolemy::nn::detail

#endif // PTOLEMY_HAVE_AVX2
