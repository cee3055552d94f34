/**
 * @file
 * Process-wide SIMD kernel selection.
 *
 * Every vectorized hot path in the library (SGEMM microkernels, the
 * partial-sum extraction feed, BitVector popcount kernels) follows one
 * pattern: the AVX2/FMA implementation lives in its own translation
 * unit compiled with -mavx2 -mfma, reached through runtime dispatch on
 * simdMode(), with the portable scalar implementation always compiled
 * and always available. This header owns the selector so util-level
 * code (BitVector) can dispatch without depending on the nn layer;
 * nn/gemm.hh re-exports the names for its historical callers.
 *
 * Dispatch rule: a TU consults simdMode() at each entry point and calls
 * its AVX2 kernel iff the mode is Avx2 (which is only reachable when
 * the build compiled the kernels AND the CPU supports AVX2+FMA).
 * Flipping the mode at runtime is supported for tests and benches; it
 * is not thread-safe against concurrent hot-path calls.
 */

#ifndef PTOLEMY_UTIL_SIMD_HH
#define PTOLEMY_UTIL_SIMD_HH

namespace ptolemy
{

/** Kernel family used by the dispatched entry points. */
enum class SimdMode
{
    Scalar, ///< portable reference kernels (exact historical numerics)
    Avx2,   ///< AVX2/FMA kernels (bit-identity contracts documented per
            ///< entry point)
};

/**
 * Process-wide kernel selector. Initialized on first use to Scalar
 * when the PTOLEMY_SIMD environment variable is "scalar" (the one
 * place the library reads it), to avx2Available() otherwise; tests
 * and benches may flip it at runtime.
 */
SimdMode &simdMode();

/** Human-readable name of the *active* mode ("avx2" / "scalar"). */
const char *simdModeName();

/** True when the AVX2 kernels are compiled in and the CPU supports
 *  them (i.e. SimdMode::Avx2 is usable). */
bool avx2Available();

} // namespace ptolemy

#endif // PTOLEMY_UTIL_SIMD_HH
