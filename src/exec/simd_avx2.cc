// AVX2 kernel table: the scalar table, with every entry but two
// overridden by either a hand-written kernel (4x f64 / 8x i32 lanes,
// hardware gathers, LUT-driven left-packing compaction) or this
// file's own -mavx2 -O3 compile of the scalar reference body, which
// GCC and Clang vectorize. An intrinsic kernel, or a branch of one,
// stays only where it measured at least 1.2x faster than that compile
// on a selection shape the executor sends (README, "SIMD execution").
// Compiled with -mavx2 -mbmi2 -O3 on x86-64 (per-file flags in
// CMakeLists.txt); every kernel is bit-identical to the scalar
// reference, including NaN predicates (ordered/unordered compare
// immediates chosen to match C semantics) and int64->double
// conversion (exact in-range fast path, scalar convert per 4-lane
// block otherwise).
#include "exec/simd_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

// GCC's gather intrinsics seed their unmasked lanes with
// _mm256_undefined_pd(), which trips -Wmaybe-uninitialized even
// though every lane is overwritten (the mask is all-ones).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace mosaic {
namespace exec {
namespace simd {
namespace internal {
namespace {

// --- mask byte <-> lane plumbing -------------------------------------------

/// idx[m] = positions of the set bits of m, left-packed — the operand
/// of vpermd that moves surviving lanes to the front.
struct CompactLut {
  alignas(32) uint32_t idx[256][8];
  constexpr CompactLut() : idx{} {
    for (unsigned m = 0; m < 256; ++m) {
      unsigned k = 0;
      for (unsigned b = 0; b < 8; ++b) {
        if (m & (1u << b)) idx[m][k++] = b;
      }
      for (; k < 8; ++k) idx[m][k] = 0;
    }
  }
};
constexpr CompactLut kCompactLut{};

// --- exact int64 -> double -------------------------------------------------

constexpr double kMagic = 6755399441055744.0;  // 1.5 * 2^52

/// Exact conversion for |v| < 2^51 via the add-magic bit trick;
/// returns false (leaving *out untouched) when any lane is out of
/// range so the caller can convert that block scalar-exactly.
inline bool CvtI64F64InRange(__m256i v, __m256d* out) {
  const __m256i biased = _mm256_add_epi64(v, _mm256_set1_epi64x(1ll << 51));
  const __m256i hi_bits = _mm256_set1_epi64x(~((1ll << 52) - 1));
  if (!_mm256_testz_si256(biased, hi_bits)) return false;
  const __m256i magic_bits = _mm256_castpd_si256(_mm256_set1_pd(kMagic));
  *out = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(v, magic_bits)),
      _mm256_set1_pd(kMagic));
  return true;
}

inline __m256d CvtI64F64(__m256i v) {
  __m256d d;
  if (CvtI64F64InRange(v, &d)) return d;
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return _mm256_set_pd(
      static_cast<double>(lanes[3]), static_cast<double>(lanes[2]),
      static_cast<double>(lanes[1]), static_cast<double>(lanes[0]));
}

// --- loads -----------------------------------------------------------------

inline __m128i LoadRows4(const uint32_t* rows, size_t i) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i));
}

inline __m256i LoadRows8(const uint32_t* rows, size_t i) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
}

template <bool Dense>
inline __m256d LoadF64(const double* base, const uint32_t* rows, size_t i) {
  if (Dense) return _mm256_loadu_pd(base + i);
  return _mm256_i32gather_pd(base, LoadRows4(rows, i), 8);
}

template <bool Dense>
inline __m256i LoadI64(const int64_t* base, const uint32_t* rows, size_t i) {
  if (Dense) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + i));
  }
  return _mm256_i32gather_epi64(
      reinterpret_cast<const long long*>(base), LoadRows4(rows, i), 8);
}

// --- comparison loops ------------------------------------------------------
//
// Each loop handles n & ~3 elements; entry functions delegate the
// tail (and any non-gatherable row list) to the scalar reference, so
// semantics live in exactly one place.

template <int Pred, bool Dense>
void CmpF64Loop(const double* base, const uint32_t* rows, size_t n,
                double lit, uint8_t* out) {
  const __m256d vlit = _mm256_set1_pd(lit);
  for (size_t i = 0; i + 4 <= n; i += 4) {
    const __m256d v = LoadF64<Dense>(base, rows, i);
    StoreMaskBytes4(out + i,
                    _mm256_movemask_pd(_mm256_cmp_pd(v, vlit, Pred)));
  }
}

template <int Pred, bool Dense>
void CmpI64Loop(const int64_t* base, const uint32_t* rows, size_t n,
                double lit, uint8_t* out) {
  const __m256d vlit = _mm256_set1_pd(lit);
  for (size_t i = 0; i + 4 <= n; i += 4) {
    const __m256d v = CvtI64F64(LoadI64<Dense>(base, rows, i));
    StoreMaskBytes4(out + i,
                    _mm256_movemask_pd(_mm256_cmp_pd(v, vlit, Pred)));
  }
}

template <int Pred>
void CmpF64PairLoop(const double* a, const double* b, size_t n,
                    uint8_t* out) {
  for (size_t i = 0; i + 4 <= n; i += 4) {
    StoreMaskBytes4(out + i,
                    _mm256_movemask_pd(_mm256_cmp_pd(
                        _mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                        Pred)));
  }
}

/// op -> compare-immediate instantiation. The OQ/UQ immediates
/// reproduce C's scalar semantics on NaN: every predicate false
/// except !=.
template <template <int, bool> class Loop, bool Dense, typename... Args>
bool DispatchCmp(CmpOp op, Args... args) {
  switch (op) {
    case CmpOp::kEq:
      Loop<_CMP_EQ_OQ, Dense>::Run(args...);
      return true;
    case CmpOp::kNe:
      Loop<_CMP_NEQ_UQ, Dense>::Run(args...);
      return true;
    case CmpOp::kLt:
      Loop<_CMP_LT_OQ, Dense>::Run(args...);
      return true;
    case CmpOp::kLe:
      Loop<_CMP_LE_OQ, Dense>::Run(args...);
      return true;
    case CmpOp::kGt:
      Loop<_CMP_GT_OQ, Dense>::Run(args...);
      return true;
    case CmpOp::kGe:
      Loop<_CMP_GE_OQ, Dense>::Run(args...);
      return true;
  }
  return false;
}

template <int Pred, bool Dense>
struct CmpF64LoopT {
  static void Run(const double* base, const uint32_t* rows, size_t n,
                  double lit, uint8_t* out) {
    CmpF64Loop<Pred, Dense>(base, rows, n, lit, out);
  }
};

template <int Pred, bool Dense>
struct CmpI64LoopT {
  static void Run(const int64_t* base, const uint32_t* rows, size_t n,
                  double lit, uint8_t* out) {
    CmpI64Loop<Pred, Dense>(base, rows, n, lit, out);
  }
};

template <int Pred, bool Dense>
struct CmpF64PairLoopT {
  static void Run(const double* a, const double* b, size_t n, uint8_t* out) {
    CmpF64PairLoop<Pred>(a, b, n, out);
  }
};

// --- kernel entries --------------------------------------------------------

void MaskCmpF64(const double* base, const uint32_t* rows, size_t n,
                CmpOp op, double lit, uint8_t* out) {
  const size_t main = n & ~size_t{3};
  if (DenseRows(rows, n)) {
    const double* b = base + (rows != nullptr && n > 0 ? rows[0] : 0);
    DispatchCmp<CmpF64LoopT, true>(op, b, nullptr, n, lit, out);
    ref::MaskCmpF64(b + main, nullptr, n - main, op, lit, out + main);
    return;
  }
  if (!RowsFitGather(rows, n)) {
    ref::MaskCmpF64(base, rows, n, op, lit, out);
    return;
  }
  DispatchCmp<CmpF64LoopT, false>(op, base, rows, n, lit, out);
  ref::MaskCmpF64(base, rows + main, n - main, op, lit, out + main);
}

void MaskCmpI64(const int64_t* base, const uint32_t* rows, size_t n,
                CmpOp op, double lit, uint8_t* out) {
  const size_t main = n & ~size_t{3};
  if (DenseRows(rows, n)) {
    const int64_t* b = base + (rows != nullptr && n > 0 ? rows[0] : 0);
    DispatchCmp<CmpI64LoopT, true>(op, b, nullptr, n, lit, out);
    ref::MaskCmpI64(b + main, nullptr, n - main, op, lit, out + main);
    return;
  }
  if (!RowsFitGather(rows, n)) {
    ref::MaskCmpI64(base, rows, n, op, lit, out);
    return;
  }
  DispatchCmp<CmpI64LoopT, false>(op, base, rows, n, lit, out);
  ref::MaskCmpI64(base, rows + main, n - main, op, lit, out + main);
}

void MaskCmpF64Pair(const double* a, const double* b, size_t n, CmpOp op,
                    uint8_t* out) {
  const size_t main = n & ~size_t{3};
  DispatchCmp<CmpF64PairLoopT, true>(op, a, b, n, out);
  ref::MaskCmpF64Pair(a + main, b + main, n - main, op, out + main);
}

template <bool Dense>
void BetweenF64Loop(const double* base, const uint32_t* rows, size_t n,
                    double lo, double hi, uint8_t* out) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  for (size_t i = 0; i + 4 <= n; i += 4) {
    const __m256d v = LoadF64<Dense>(base, rows, i);
    const __m256d m = _mm256_and_pd(_mm256_cmp_pd(v, vlo, _CMP_GE_OQ),
                                    _mm256_cmp_pd(v, vhi, _CMP_LE_OQ));
    StoreMaskBytes4(out + i, _mm256_movemask_pd(m));
  }
}

void MaskBetweenF64(const double* base, const uint32_t* rows, size_t n,
                    double lo, double hi, uint8_t* out) {
  const size_t main = n & ~size_t{3};
  if (DenseRows(rows, n)) {
    const double* b = base + (rows != nullptr && n > 0 ? rows[0] : 0);
    BetweenF64Loop<true>(b, nullptr, n, lo, hi, out);
    ref::MaskBetweenF64(b + main, nullptr, n - main, lo, hi, out + main);
    return;
  }
  if (!RowsFitGather(rows, n)) {
    ref::MaskBetweenF64(base, rows, n, lo, hi, out);
    return;
  }
  BetweenF64Loop<false>(base, rows, n, lo, hi, out);
  ref::MaskBetweenF64(base, rows + main, n - main, lo, hi, out + main);
}

void BetweenI64Loop(const int64_t* base, size_t n, double lo, double hi,
                    uint8_t* out) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  for (size_t i = 0; i + 4 <= n; i += 4) {
    const __m256d v = CvtI64F64(LoadI64<true>(base, nullptr, i));
    const __m256d m = _mm256_and_pd(_mm256_cmp_pd(v, vlo, _CMP_GE_OQ),
                                    _mm256_cmp_pd(v, vhi, _CMP_LE_OQ));
    StoreMaskBytes4(out + i, _mm256_movemask_pd(m));
  }
}

/// Linear loads only: over a gathered row list the compiled reference
/// is at least as fast.
void MaskBetweenI64(const int64_t* base, const uint32_t* rows, size_t n,
                    double lo, double hi, uint8_t* out) {
  if (!DenseRows(rows, n)) {
    ref::MaskBetweenI64(base, rows, n, lo, hi, out);
    return;
  }
  const size_t main = n & ~size_t{3};
  const int64_t* b = base + (rows != nullptr && n > 0 ? rows[0] : 0);
  BetweenI64Loop(b, n, lo, hi, out);
  ref::MaskBetweenI64(b + main, nullptr, n - main, lo, hi, out + main);
}

void CmpCodesGatherLoop(const int32_t* base, const uint32_t* rows, size_t n,
                        int32_t code, unsigned flip, uint8_t* out) {
  const __m256i vcode = _mm256_set1_epi32(code);
  for (size_t i = 0; i + 8 <= n; i += 8) {
    const __m256i v = _mm256_i32gather_epi32(base, LoadRows8(rows, i), 4);
    const unsigned bits =
        static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, vcode)))) ^
        flip;
    StoreMaskBytes8(out + i, bits & 0xFFu);
  }
}

/// Gathers only: a contiguous run is the compiled reference's linear
/// loop, which the compiler vectorizes as well as by hand.
void MaskCmpCodes(const int32_t* base, const uint32_t* rows, size_t n,
                  int32_t code, bool want_eq, uint8_t* out) {
  if (DenseRows(rows, n)) {
    const int32_t* b = base + (rows != nullptr && n > 0 ? rows[0] : 0);
    ref::MaskCmpCodes(b, nullptr, n, code, want_eq, out);
    return;
  }
  if (!RowsFitGather(rows, n)) {
    ref::MaskCmpCodes(base, rows, n, code, want_eq, out);
    return;
  }
  const size_t main = n & ~size_t{7};
  CmpCodesGatherLoop(base, rows, n, code, want_eq ? 0u : 0xFFu, out);
  ref::MaskCmpCodes(base, rows + main, n - main, code, want_eq, out + main);
}

void MaskInF64(const double* vals, size_t n, const double* items, size_t k,
               uint8_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(vals + i);
    __m256d acc = _mm256_setzero_pd();
    for (size_t j = 0; j < k; ++j) {
      acc = _mm256_or_pd(
          acc, _mm256_cmp_pd(v, _mm256_set1_pd(items[j]), _CMP_EQ_OQ));
    }
    StoreMaskBytes4(out + i, _mm256_movemask_pd(acc));
  }
  ref::MaskInF64(vals + i, n - i, items, k, out + i);
}

size_t CompactRows(const uint32_t* rows, const uint8_t* mask, uint8_t want,
                   size_t n, uint32_t* out) {
  const uint64_t want_xor = want != 0 ? 0ull : 0x0101010101010101ull;
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  size_t k = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t m8;
    std::memcpy(&m8, mask + i, 8);
    m8 ^= want_xor;
    const unsigned bits =
        static_cast<unsigned>((m8 * 0x0102040810204080ull) >> 56);
    const __m256i v =
        rows != nullptr
            ? LoadRows8(rows, i)
            : _mm256_add_epi32(iota, _mm256_set1_epi32(static_cast<int>(i)));
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompactLut.idx[bits]));
    // Writing 8 lanes at out+k is safe for in-place use: k <= i
    // always, so the store never reaches unread input.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k),
                        _mm256_permutevar8x32_epi32(v, perm));
    k += static_cast<size_t>(__builtin_popcount(bits));
  }
  for (; i < n; ++i) {
    out[k] = rows != nullptr ? rows[i] : static_cast<uint32_t>(i);
    k += (mask[i] == want);
  }
  return k;
}

void GatherI32(const int32_t* base, const uint32_t* rows, size_t n,
               int32_t* out) {
  const bool dense = DenseRows(rows, n);
  if (dense || !RowsFitGather(rows, n)) {
    ref::GatherI32(rows != nullptr && n > 0 && dense ? base + rows[0] : base,
              dense ? nullptr : rows, n, out);
    return;
  }
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_i32gather_epi32(base, LoadRows8(rows, i), 4));
  }
  for (; i < n; ++i) out[i] = base[rows[i]];
}

/// Intrinsics over a contiguous run only: over a row list the
/// hardware gather measured no faster than this file's compile of the
/// reference.
void GatherI64F64(const int64_t* base, const uint32_t* rows, size_t n,
                  double* out) {
  if (!DenseRows(rows, n)) {
    ref::GatherI64F64(base, rows, n, out);
    return;
  }
  const size_t main = n & ~size_t{3};
  const int64_t* b = base + (rows != nullptr && n > 0 ? rows[0] : 0);
  for (size_t i = 0; i < main; i += 4) {
    _mm256_storeu_pd(out + i, CvtI64F64(LoadI64<true>(b, nullptr, i)));
  }
  ref::GatherI64F64(b + main, nullptr, n - main, out + main);
}

}  // namespace

const KernelTable* Avx2KernelsOrNull() {
  static const KernelTable table = [] {
    // mask_table_codes and gather_b8_f64 keep the baseline entries:
    // byte-granular lookups have no AVX2 gather form worth the setup,
    // and this file's compile of MaskTableCodes measured slower.
    KernelTable t = ScalarKernels();
    t.isa = SimdIsa::kAvx2;
    // Hand-written kernels.
    t.mask_cmp_f64 = &MaskCmpF64;
    t.mask_cmp_i64 = &MaskCmpI64;
    t.mask_cmp_f64_pair = &MaskCmpF64Pair;
    t.mask_between_f64 = &MaskBetweenF64;
    t.mask_between_i64 = &MaskBetweenI64;
    t.mask_cmp_codes = &MaskCmpCodes;
    t.mask_in_f64 = &MaskInF64;
    t.compact_rows = &CompactRows;
    t.gather_i64_f64 = &GatherI64F64;
    t.gather_i32 = &GatherI32;
    // The reference bodies, compiled here for AVX2.
    t.mask_not = &ref::MaskNot;
    t.gather_f64 = &ref::GatherF64;
    t.gather_i64 = &ref::GatherI64;
    t.widen_u32_u64 = &ref::WidenU32U64;
    t.pack_mul_add = &ref::PackMulAdd;
    t.hash_u64 = &ref::HashU64Batch;
    t.hash_f64 = &ref::HashF64Batch;
    return t;
  }();
  return &table;
}

}  // namespace internal
}  // namespace simd
}  // namespace exec
}  // namespace mosaic

#else  // !__AVX2__

namespace mosaic {
namespace exec {
namespace simd {
namespace internal {

const KernelTable* Avx2KernelsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace exec
}  // namespace mosaic

#endif
