#include "common/cpu.h"

#include <thread>

namespace mosaic {

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2:
      return "avx2";
  }
  return "scalar";
}

bool CpuSupports(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kAvx2:
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
      // The AVX2 kernels use BMI2 (pdep/pext) for mask<->byte
      // expansion, so both must be present.
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2");
#else
      return false;
#endif
  }
  return false;
}

SimdIsa DetectBestSimdIsa() {
  return CpuSupports(SimdIsa::kAvx2) ? SimdIsa::kAvx2 : SimdIsa::kScalar;
}

size_t HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

}  // namespace mosaic
