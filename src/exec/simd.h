// Portable SIMD kernel layer for the vectorized executor.
//
// Every inner loop the batch executor runs per element — WHERE mask
// evaluation (col-op-literal, BETWEEN, dictionary-code compares),
// selection-vector compaction, typed gathers, group-code packing, and
// group-key hashing — exists here as an entry in a KernelTable of
// function pointers. One table per instruction set (pure scalar and
// AVX2; other architectures run the scalar table); the active
// table is chosen once at startup from CPU detection (common/cpu.h)
// and the MOSAIC_SIMD override.
//
// Each table is its own translation unit with its own ISA flags, both
// pinned at -O3. The scalar table is the one reference body per
// kernel (simd_internal.h, internal linkage) compiled for the
// baseline ISA. The AVX2 table copies it and overrides entries with
// either a hand-written intrinsic kernel, kept only where it beats
// the compiler, or the AVX2 file's own compile of the reference body.
//
// Parity contract: the scalar table defines the semantics, and every
// wider implementation must be BIT-IDENTICAL to it on every input —
// including NaN comparisons (IEEE: only != holds), -0.0 (== 0.0), and
// int64 values beyond 2^53 (compared through their double rounding,
// like Value::operator<). tests/test_simd_kernels.cc enforces this
// per kernel at adversarial lengths; scripts/check.sh re-proves it
// end-to-end by running the SQL fuzzer with MOSAIC_SIMD=0.
//
// Calling conventions shared by all kernels:
//  - `rows` selects elements base[rows[0..n)]; it is ascending (a
//    selection vector or a slice of one). nullptr means the identity
//    selection base[0..n) — how an all-rows selection (and a block of
//    one, with `base` advanced) reaches them. Kernels detect
//    contiguous runs (rows[n-1]-rows[0]+1 == n) and switch to linear
//    loads.
//  - Mask bytes are strictly 0 or 1 — producers guarantee it and the
//    branchless consumers (compact_rows) rely on it.
//  - Output buffers may be unaligned (block offsets land anywhere);
//    kernels use unaligned stores. Allocation *bases* of column /
//    selection storage are 64-byte aligned (common/aligned.h) so
//    full-width loads at span heads never straddle a cache line.
//  - compact_rows writes up to n entries into `out` (not just the
//    kept count): it stores unconditionally and bumps conditionally,
//    so `out` must have capacity n. `out == rows` (in-place
//    compaction) is explicitly supported.
#ifndef MOSAIC_EXEC_SIMD_H_
#define MOSAIC_EXEC_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/cpu.h"

namespace mosaic {
namespace exec {
namespace simd {

/// Comparison predicate with scalar-double semantics (NaN: only kNe).
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// Mixing hash for packed group keys. Scalar definition; hash_u64 /
/// hash_f64 kernels must produce these exact values so a group table
/// built with SIMD hashing probes identically to a scalar build.
inline uint64_t HashU64(uint64_t x) {
  x ^= x >> 33;
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 29;
  return x;
}

/// Canonical bit pattern for a double group key: -0.0 maps to +0.0
/// (they compare equal, so they must hash equal); every other value —
/// NaN patterns included — keeps its own bits.
inline uint64_t CanonicalF64Bits(double v) {
  if (v == 0.0) return 0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// One instruction-set's implementation of every executor kernel.
/// All mask outputs are byte masks (0/1 per element).
struct KernelTable {
  SimdIsa isa = SimdIsa::kScalar;

  /// out[i] = CmpApply(op, base[rows[i]], lit)
  void (*mask_cmp_f64)(const double* base, const uint32_t* rows, size_t n,
                       CmpOp op, double lit, uint8_t* out);
  /// out[i] = CmpApply(op, double(base[rows[i]]), lit)
  void (*mask_cmp_i64)(const int64_t* base, const uint32_t* rows, size_t n,
                       CmpOp op, double lit, uint8_t* out);
  /// out[i] = CmpApply(op, a[i], b[i]) over two contiguous arrays
  void (*mask_cmp_f64_pair)(const double* a, const double* b, size_t n,
                            CmpOp op, uint8_t* out);
  /// out[i] = base[rows[i]] >= lo && base[rows[i]] <= hi
  void (*mask_between_f64)(const double* base, const uint32_t* rows, size_t n,
                           double lo, double hi, uint8_t* out);
  /// out[i] = double(base[rows[i]]) >= lo && double(base[rows[i]]) <= hi
  void (*mask_between_i64)(const int64_t* base, const uint32_t* rows, size_t n,
                           double lo, double hi, uint8_t* out);
  /// out[i] = (base[rows[i]] == code) == want_eq
  void (*mask_cmp_codes)(const int32_t* base, const uint32_t* rows, size_t n,
                         int32_t code, bool want_eq, uint8_t* out);
  /// out[i] = table[base[rows[i]]] — per-code truth table (IN lists,
  /// dictionary ordering compares); codes must be valid table indices
  void (*mask_table_codes)(const int32_t* base, const uint32_t* rows, size_t n,
                           const uint8_t* table, uint8_t* out);
  /// out[i] = any(vals[i] == items[k]) over a contiguous value array
  void (*mask_in_f64)(const double* vals, size_t n, const double* items,
                      size_t k, uint8_t* out);
  /// mask[i] = !mask[i]
  void (*mask_not)(uint8_t* mask, size_t n);

  /// out <- {rows[i] : mask[i] == want} (indices i when rows is
  /// null), preserving order; returns the kept count. `out` needs
  /// capacity n and may alias `rows`.
  size_t (*compact_rows)(const uint32_t* rows, const uint8_t* mask,
                         uint8_t want, size_t n, uint32_t* out);

  /// out[i] = base[rows[i]]
  void (*gather_f64)(const double* base, const uint32_t* rows, size_t n,
                     double* out);
  /// out[i] = double(base[rows[i]])
  void (*gather_i64_f64)(const int64_t* base, const uint32_t* rows, size_t n,
                         double* out);
  /// out[i] = base[rows[i]] != 0 ? 1.0 : 0.0
  void (*gather_b8_f64)(const uint8_t* base, const uint32_t* rows, size_t n,
                        double* out);
  /// out[i] = base[rows[i]]
  void (*gather_i64)(const int64_t* base, const uint32_t* rows, size_t n,
                     int64_t* out);
  /// out[i] = base[rows[i]]
  void (*gather_i32)(const int32_t* base, const uint32_t* rows, size_t n,
                     int32_t* out);

  /// out[i] = uint64(codes[i]) — seeds group-key packing
  void (*widen_u32_u64)(const uint32_t* codes, size_t n, uint64_t* out);
  /// acc[i] = acc[i] * card + codes[i]; card < 2^32 (mixed-radix
  /// group-code packing)
  void (*pack_mul_add)(uint64_t* acc, const uint32_t* codes, uint64_t card,
                       size_t n);

  /// out[i] = HashU64(keys[i])
  void (*hash_u64)(const uint64_t* keys, size_t n, uint64_t* out);
  /// out[i] = HashU64(CanonicalF64Bits(vals[i]))
  void (*hash_f64)(const double* vals, size_t n, uint64_t* out);
};

/// The always-available scalar table (also the parity reference).
/// noexcept: the AVX2 table copies it in a static initializer, which
/// would otherwise need the C++ exception personality, a weak symbol.
const KernelTable& ScalarKernels() noexcept;

/// Table for a specific level, or nullptr when that level was not
/// compiled in or cannot run on this CPU.
const KernelTable* KernelsFor(SimdIsa isa);

/// The table the executor uses: best compiled+supported level, unless
/// MOSAIC_SIMD=0 (or off/scalar) forces the scalar table.
/// Resolved once, cached for the process.
const KernelTable& ActiveKernels();

/// Level of ActiveKernels(), and its stable name ("avx2", ...) for
/// bench JSON and EXPLAIN ANALYZE annotations.
SimdIsa ActiveIsa();
const char* ActiveIsaName();

}  // namespace simd
}  // namespace exec
}  // namespace mosaic

#endif  // MOSAIC_EXEC_SIMD_H_
