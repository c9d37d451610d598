// Runtime kernel dispatch: combine what was compiled (per-ISA
// translation units), what the CPU supports (common/cpu.h), and the
// MOSAIC_SIMD override into the one table the executor uses.
#include "exec/simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "exec/simd_internal.h"

namespace mosaic {
namespace exec {
namespace simd {

namespace {

const KernelTable* BestAvailable() {
  const KernelTable* t = KernelsFor(SimdIsa::kAvx2);
  return t != nullptr ? t : &ScalarKernels();
}

/// Resolve MOSAIC_SIMD once. Values: unset/""/"1"/"auto" = best
/// available; "0"/"off"/"scalar" = scalar. Anything else warns and
/// falls back to auto.
const KernelTable* Resolve() {
  const char* env = std::getenv("MOSAIC_SIMD");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "1") == 0 ||
      std::strcmp(env, "auto") == 0) {
    return BestAvailable();
  }
  if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
      std::strcmp(env, "scalar") == 0) {
    return &ScalarKernels();
  }
  std::fprintf(stderr,
               "mosaic: unknown MOSAIC_SIMD value '%s' "
               "(want 0|scalar|auto); using auto\n",
               env);
  return BestAvailable();
}

}  // namespace

const KernelTable* KernelsFor(SimdIsa isa) {
  if (!CpuSupports(isa)) return isa == SimdIsa::kScalar ? &ScalarKernels()
                                                        : nullptr;
  switch (isa) {
    case SimdIsa::kScalar:
      return &ScalarKernels();
    case SimdIsa::kAvx2:
      return internal::Avx2KernelsOrNull();
  }
  return nullptr;
}

const KernelTable& ActiveKernels() {
  static const KernelTable* table = Resolve();
  return *table;
}

SimdIsa ActiveIsa() { return ActiveKernels().isa; }

const char* ActiveIsaName() { return SimdIsaName(ActiveIsa()); }

}  // namespace simd
}  // namespace exec
}  // namespace mosaic
