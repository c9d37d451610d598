// CPU feature detection for the SIMD kernel dispatch (exec/simd.h).
//
// Detection answers "what can this CPU run", not "what did we compile"
// — the exec layer combines both (plus the MOSAIC_SIMD override) to
// pick the active kernel table, falling back to scalar when the AVX2
// table was not compiled in or cannot run.
#ifndef MOSAIC_COMMON_CPU_H_
#define MOSAIC_COMMON_CPU_H_

#include <cstddef>

namespace mosaic {

/// Instruction-set level of a SIMD kernel variant. kScalar is always
/// available and is the bit-parity reference for every other level.
enum class SimdIsa { kScalar, kAvx2 };

/// Stable lowercase name ("scalar", "avx2") — used in
/// bench JSON, EXPLAIN ANALYZE notes, and the MOSAIC_SIMD override.
const char* SimdIsaName(SimdIsa isa);

/// Best level this CPU supports at runtime (cpuid on x86; other
/// architectures run the scalar table). Independent of what was
/// compiled.
SimdIsa DetectBestSimdIsa();

/// True when `isa` can run on this CPU.
bool CpuSupports(SimdIsa isa);

/// Hardware threads (>= 1) — recorded in bench JSON so a flat
/// thread-scaling figure on a 1-core host is attributable from the
/// file alone.
size_t HardwareThreads();

}  // namespace mosaic

#endif  // MOSAIC_COMMON_CPU_H_
