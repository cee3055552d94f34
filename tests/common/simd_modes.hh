/**
 * @file
 * Kernel-test scaffolding shared by every suite that sweeps the SIMD
 * modes: the list of modes this build and CPU can run, and RAII guards
 * restoring the process-wide SIMD mode and the gemm pool pointer.
 */

#ifndef PTOLEMY_TESTS_COMMON_SIMD_MODES_HH
#define PTOLEMY_TESTS_COMMON_SIMD_MODES_HH

#include <vector>

#include "nn/gemm.hh"
#include "util/simd.hh"

namespace ptolemy::testing
{

/** Every mode usable here: Scalar always, then Avx2 and Avx512 where
 *  the build compiled their kernels and the CPU supports them. */
inline std::vector<SimdMode>
modesToTest()
{
    std::vector<SimdMode> modes = {SimdMode::Scalar};
    if (avx2Available())
        modes.push_back(SimdMode::Avx2);
    if (avx512Available())
        modes.push_back(SimdMode::Avx512);
    return modes;
}

/** RAII guard restoring the process-wide SIMD mode. */
struct SimdModeGuard
{
    SimdMode saved = simdMode();
    ~SimdModeGuard() { simdMode() = saved; }
};

/** RAII guard restoring the gemm pool pointer. */
struct GemmPoolGuard
{
    ThreadPool *saved = nn::gemmPool();
    ~GemmPoolGuard() { nn::gemmPool() = saved; }
};

} // namespace ptolemy::testing

#endif // PTOLEMY_TESTS_COMMON_SIMD_MODES_HH
