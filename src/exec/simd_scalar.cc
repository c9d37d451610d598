// Pure-scalar kernel table: the parity reference every wider ISA is
// tested against, and the fallback when MOSAIC_SIMD=0 or the CPU
// supports nothing wider. Built with the baseline flags only; the
// reference bodies have internal linkage (simd_internal.h), so no
// other file's compile of them can stand in for these.
#include "exec/simd_internal.h"

namespace mosaic {
namespace exec {
namespace simd {

const KernelTable& ScalarKernels() noexcept {
  static const KernelTable table = [] {
    namespace ref = internal::ref;
    KernelTable t;
    t.isa = SimdIsa::kScalar;
    t.mask_cmp_f64 = &ref::MaskCmpF64;
    t.mask_cmp_i64 = &ref::MaskCmpI64;
    t.mask_cmp_f64_pair = &ref::MaskCmpF64Pair;
    t.mask_between_f64 = &ref::MaskBetweenF64;
    t.mask_between_i64 = &ref::MaskBetweenI64;
    t.mask_cmp_codes = &ref::MaskCmpCodes;
    t.mask_table_codes = &ref::MaskTableCodes;
    t.mask_in_f64 = &ref::MaskInF64;
    t.mask_not = &ref::MaskNot;
    t.compact_rows = &ref::CompactRows;
    t.gather_f64 = &ref::GatherF64;
    t.gather_i64_f64 = &ref::GatherI64F64;
    t.gather_b8_f64 = &ref::GatherB8F64;
    t.gather_i64 = &ref::GatherI64;
    t.gather_i32 = &ref::GatherI32;
    t.widen_u32_u64 = &ref::WidenU32U64;
    t.pack_mul_add = &ref::PackMulAdd;
    t.hash_u64 = &ref::HashU64Batch;
    t.hash_f64 = &ref::HashF64Batch;
    return t;
  }();
  return table;
}

}  // namespace simd
}  // namespace exec
}  // namespace mosaic
