#include "simd.hh"

#include <cstdlib>
#include <string>

namespace ptolemy
{

SimdMode &
simdMode()
{
    static SimdMode mode = [] {
        if (const char *s = std::getenv("PTOLEMY_SIMD")) {
            if (std::string(s) == "scalar")
                return SimdMode::Scalar;
        }
        if (avx512Available())
            return SimdMode::Avx512;
        return avx2Available() ? SimdMode::Avx2 : SimdMode::Scalar;
    }();
    return mode;
}

const char *
simdModeName()
{
    switch (simdMode()) {
    case SimdMode::Avx512:
        return "avx512";
    case SimdMode::Avx2:
        return "avx2";
    case SimdMode::Scalar:
        break;
    }
    return "scalar";
}

bool
avx2Available()
{
#ifdef PTOLEMY_HAVE_AVX2
    // The cpuid probe needs no -mavx2 flag, so it can live in this
    // plain TU; only the kernels themselves need the ISA flags.
#if defined(__GNUC__) || defined(__clang__)
    static const bool ok =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    return ok;
#else
    return false;
#endif
#else
    return false;
#endif
}

bool
avx512Available()
{
#if defined(PTOLEMY_HAVE_AVX512) && (defined(__GNUC__) || defined(__clang__))
    static const bool ok =
        avx2Available() && __builtin_cpu_supports("avx512f");
    return ok;
#else
    return false;
#endif
}

} // namespace ptolemy
