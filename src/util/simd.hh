/**
 * @file
 * Process-wide SIMD kernel selection.
 *
 * Every vectorized hot path in the library (SGEMM microkernels, the
 * implicit-GEMM conv tile, the partial-sum extraction feed, BitVector
 * popcount kernels) follows one pattern: each ISA's implementation
 * lives in its own translation unit compiled with that ISA's flags
 * (-mavx2 -mfma for the *_avx2.cc kernels, -mavx512f on top for the
 * *_avx512.cc ones), reached through runtime dispatch on simdMode(),
 * with the portable scalar implementation always compiled and always
 * available. This header owns the selector so util-level code
 * (BitVector) can dispatch without depending on the nn layer;
 * nn/gemm.hh re-exports the names for its historical callers.
 *
 * Dispatch rule: a TU consults simdMode() at each entry point and calls
 * its AVX2 kernel iff avx2Active() (mode Avx2 or Avx512). The two
 * AVX-512 kernels, the conv forward's 16-channel tile and the conv lane
 * selection of cumulative extraction, run iff the mode is Avx512; every
 * other entry point treats Avx512 exactly as Avx2. The tile replays the
 * AVX2 tile's per-element fold and the lane selection the per-row
 * argmax passes, so Avx512 and Avx2 produce the same bits everywhere
 * (and the same determinism pins). A mode is only reachable when the build compiled its kernels
 * AND the CPU supports them. Flipping the mode at runtime is supported
 * for tests and benches; it is not thread-safe against concurrent
 * hot-path calls.
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
    Avx512, ///< Avx2 plus the AVX-512 conv forward tile and conv lane
            ///< selection (bit-identical to Avx2)
};

/**
 * Process-wide kernel selector. Initialized on first use to Scalar
 * when the PTOLEMY_SIMD environment variable is "scalar" (the one
 * place the library reads it), otherwise to the widest available mode
 * (Avx512, then Avx2, then Scalar); tests and benches may flip it at
 * runtime.
 */
SimdMode &simdMode();

/** Human-readable name of the *active* mode ("avx512" / "avx2" /
 *  "scalar"). */
const char *simdModeName();

/** True when the active mode runs the AVX2 kernels: the single test
 *  every AVX2 dispatch site makes (Avx512 includes them). */
inline bool
avx2Active()
{
    return simdMode() != SimdMode::Scalar;
}

/** True when the AVX2 kernels are compiled in and the CPU supports
 *  them (i.e. SimdMode::Avx2 is usable). */
bool avx2Available();

/** True when the AVX-512 kernels are compiled in and the CPU supports
 *  AVX-512F on top of AVX2 (i.e. SimdMode::Avx512 is usable). */
bool avx512Available();

} // namespace ptolemy

#endif // PTOLEMY_UTIL_SIMD_HH
