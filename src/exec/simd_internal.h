// Shared internals for the per-ISA kernel translation units. Not part
// of the public simd.h surface.
//
// Everything below the table getters has internal linkage (an unnamed
// namespace): each kernel file compiles its own private copy with its
// own ISA flags. An `inline` function with external linkage would be
// emitted as a weak symbol by every file that does not inline it, and
// the linker would keep one copy for all of them — possibly the one
// compiled with -mavx2, which then runs behind the scalar table. The
// simd_avx2_linkage ctest keeps simd_avx2.cc free of such symbols.
#ifndef MOSAIC_EXEC_SIMD_INTERNAL_H_
#define MOSAIC_EXEC_SIMD_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "exec/simd.h"

namespace mosaic {
namespace exec {
namespace simd {
namespace internal {

/// Per-ISA table getters, each defined in its own translation unit
/// (so ISA-specific compile flags stay per-file). A getter returns
/// nullptr when its level is not compiled for this target.
const KernelTable* Avx2KernelsOrNull();

namespace {

/// Reference comparison — the single definition of predicate
/// semantics every kernel (scalar and vector) must reproduce.
inline bool CmpApply(CmpOp op, double l, double r) {
  switch (op) {
    case CmpOp::kEq:
      return l == r;
    case CmpOp::kNe:
      return l != r;
    case CmpOp::kLt:
      return l < r;
    case CmpOp::kLe:
      return l <= r;
    case CmpOp::kGt:
      return l > r;
    case CmpOp::kGe:
      return l >= r;
  }
  return false;
}

/// True when `rows` denotes a contiguous ascending run (or the
/// identity). Kernels use this to replace gathers with linear loads.
/// An all-rows selection reaches the kernels as the null identity and
/// returns at once; an explicit list is settled by the endpoint test
/// in O(1) when it is not a run. A permuted selection (the executor
/// gathers through ORDER BY-sorted row lists) can alias that test, so
/// a positive endpoint test is verified element-wise — a branch-free
/// 8-wide loop that vectorizes, and permutations that pass the
/// endpoint test fail it within a block.
inline bool DenseRows(const uint32_t* rows, size_t n) {
  if (rows == nullptr || n == 0) return true;
  if (static_cast<uint64_t>(rows[n - 1]) - rows[0] + 1 != n) return false;
  const uint32_t r0 = rows[0];
  size_t i = 1;
  for (; i + 8 <= n; i += 8) {
    uint32_t d = 0;
    for (size_t j = 0; j < 8; ++j) {
      d |= rows[i + j] ^ (r0 + static_cast<uint32_t>(i + j));
    }
    if (d != 0) return false;
  }
  for (; i < n; ++i) {
    if (rows[i] != r0 + static_cast<uint32_t>(i)) return false;
  }
  return true;
}

/// Spread the low 4 bits of `bits` into 4 bytes (0/1 each) at `out`.
/// Single multiply: bit j lands on byte j's LSB with no carry
/// collisions (positions j+7k collide only at j==k).
inline void StoreMaskBytes4(uint8_t* out, unsigned bits) {
  uint32_t y = (static_cast<uint32_t>(bits) * 0x00204081u) & 0x01010101u;
  std::memcpy(out, &y, 4);
}

/// Low 8 bits of `bits` as 8 bytes (0/1 each). The single-multiply
/// trick carries at 8 lanes, so broadcast + per-byte bit select +
/// nonzero-normalize instead.
inline uint64_t ExpandBits8(unsigned bits) {
  uint64_t y = (static_cast<uint64_t>(bits) * 0x0101010101010101ull) &
               0x8040201008040201ull;
  return ((y + 0x7f7f7f7f7f7f7f7full) & 0x8080808080808080ull) >> 7;
}

inline void StoreMaskBytes8(uint8_t* out, unsigned bits) {
  const uint64_t y = ExpandBits8(bits);
  std::memcpy(out, &y, 8);
}

/// Row ids sign-extend through 32-bit SIMD gather indices, so gather
/// paths require ids below 2^31. Selections may be permuted (ORDER BY
/// gathers), so the last id is not necessarily the largest: the whole
/// list is OR-reduced, and any id with the top bit set fails the check.
/// (Row kernels fall back to scalar loops then — tables that large do
/// not fit this engine's memory model anyway.)
inline bool RowsFitGather(const uint32_t* rows, size_t n) {
  if (n == 0 || rows == nullptr) return true;
  uint32_t m = 0;
  for (size_t i = 0; i < n; ++i) m |= rows[i];
  return (m & 0x80000000u) == 0;
}

/// Scalar reference bodies: the whole scalar table, and the tails and
/// fallbacks of the hand-written kernels. A wider table that has no
/// intrinsic kernel for an entry points it at its own compile of the
/// body here, so the compiler vectorizes it for that ISA.
namespace ref {

inline void MaskCmpF64(const double* base, const uint32_t* rows, size_t n,
                       CmpOp op, double lit, uint8_t* out) {
  if (rows == nullptr) {
    for (size_t i = 0; i < n; ++i) out[i] = CmpApply(op, base[i], lit);
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = CmpApply(op, base[rows[i]], lit);
  }
}

inline void MaskCmpI64(const int64_t* base, const uint32_t* rows, size_t n,
                       CmpOp op, double lit, uint8_t* out) {
  if (rows == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = CmpApply(op, static_cast<double>(base[i]), lit);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = CmpApply(op, static_cast<double>(base[rows[i]]), lit);
    }
  }
}

inline void MaskCmpF64Pair(const double* a, const double* b, size_t n,
                           CmpOp op, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = CmpApply(op, a[i], b[i]);
}

inline void MaskBetweenF64(const double* base, const uint32_t* rows, size_t n,
                           double lo, double hi, uint8_t* out) {
  if (rows == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = base[i] >= lo && base[i] <= hi;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const double v = base[rows[i]];
      out[i] = v >= lo && v <= hi;
    }
  }
}

inline void MaskBetweenI64(const int64_t* base, const uint32_t* rows, size_t n,
                           double lo, double hi, uint8_t* out) {
  if (rows == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      const double v = static_cast<double>(base[i]);
      out[i] = v >= lo && v <= hi;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const double v = static_cast<double>(base[rows[i]]);
      out[i] = v >= lo && v <= hi;
    }
  }
}

inline void MaskCmpCodes(const int32_t* base, const uint32_t* rows, size_t n,
                         int32_t code, bool want_eq, uint8_t* out) {
  if (rows == nullptr) {
    for (size_t i = 0; i < n; ++i) out[i] = (base[i] == code) == want_eq;
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = (base[rows[i]] == code) == want_eq;
    }
  }
}

inline void MaskTableCodes(const int32_t* base, const uint32_t* rows,
                           size_t n, const uint8_t* table, uint8_t* out) {
  if (rows == nullptr) {
    for (size_t i = 0; i < n; ++i) out[i] = table[base[i]];
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = table[base[rows[i]]];
  }
}

inline void MaskInF64(const double* vals, size_t n, const double* items,
                      size_t k, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    uint8_t hit = 0;
    for (size_t j = 0; j < k; ++j) hit |= (vals[i] == items[j]);
    out[i] = hit;
  }
}

inline void MaskNot(uint8_t* mask, size_t n) {
  for (size_t i = 0; i < n; ++i) mask[i] = mask[i] == 0;
}

inline size_t CompactRows(const uint32_t* rows, const uint8_t* mask,
                          uint8_t want, size_t n, uint32_t* out) {
  // Store-always / bump-conditionally: no per-row branch to
  // mispredict; in-place (out == rows) is safe because the write
  // index never passes the read index.
  size_t k = 0;
  if (rows == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      out[k] = static_cast<uint32_t>(i);
      k += (mask[i] == want);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[k] = rows[i];
      k += (mask[i] == want);
    }
  }
  return k;
}

inline void GatherF64(const double* base, const uint32_t* rows, size_t n,
                      double* out) {
  if (rows == nullptr) {
    if (n != 0) std::memcpy(out, base, n * sizeof(double));
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = base[rows[i]];
  }
}

inline void GatherI64F64(const int64_t* base, const uint32_t* rows, size_t n,
                         double* out) {
  if (rows == nullptr) {
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(base[i]);
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<double>(base[rows[i]]);
    }
  }
}

inline void GatherB8F64(const uint8_t* base, const uint32_t* rows, size_t n,
                        double* out) {
  // Over a row list the byte's truth value indexes a table instead of
  // steering a branch, which mispredicts on mixed bools; the identity
  // loop vectorizes as written.
  static constexpr double kTruth[2] = {0.0, 1.0};
  if (rows == nullptr) {
    for (size_t i = 0; i < n; ++i) out[i] = base[i] != 0 ? 1.0 : 0.0;
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = kTruth[base[rows[i]] != 0];
  }
}

inline void GatherI64(const int64_t* base, const uint32_t* rows, size_t n,
                      int64_t* out) {
  if (rows == nullptr) {
    if (n != 0) std::memcpy(out, base, n * sizeof(int64_t));
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = base[rows[i]];
  }
}

inline void GatherI32(const int32_t* base, const uint32_t* rows, size_t n,
                      int32_t* out) {
  if (rows == nullptr) {
    if (n != 0) std::memcpy(out, base, n * sizeof(int32_t));
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = base[rows[i]];
  }
}

inline void WidenU32U64(const uint32_t* codes, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = codes[i];
}

inline void PackMulAdd(uint64_t* acc, const uint32_t* codes, uint64_t card,
                       size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] = acc[i] * card + codes[i];
}

inline void HashU64Batch(const uint64_t* keys, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = HashU64(keys[i]);
}

inline void HashF64Batch(const double* vals, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = HashU64(CanonicalF64Bits(vals[i]));
}

}  // namespace ref

}  // namespace

}  // namespace internal
}  // namespace simd
}  // namespace exec
}  // namespace mosaic

#endif  // MOSAIC_EXEC_SIMD_INTERNAL_H_
