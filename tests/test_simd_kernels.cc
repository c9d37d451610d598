// Bit-exact parity of every SIMD kernel table against the scalar
// reference, at adversarial lengths (0, 1, lane-1, lane, lane+1,
// 3*lane+tail), with NaN / -0.0 payloads, dense and gathered row
// lists, in-place compaction, and codes near the int32 boundary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "exec/simd.h"

namespace mosaic {
namespace exec {
namespace simd {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Widest lane count across implementations (AVX2 i32 kernels run 8
// lanes); lengths derived from it cover every narrower tail too.
constexpr size_t kLane = 8;
const size_t kLengths[] = {0,         1,         kLane - 1, kLane,
                           kLane + 1, 3 * kLane, 3 * kLane + 5, 257};

struct Fixture {
  AlignedVector<double> f64;
  AlignedVector<int64_t> i64;
  AlignedVector<int32_t> codes;
  AlignedVector<uint8_t> b8;             // masks: strictly 0 or 1 (simd.h)
  AlignedVector<uint8_t> bools;          // bool column: whole bytes, != 0 true
  AlignedVector<uint32_t> dense_rows;    // contiguous run, offset base
  AlignedVector<uint32_t> sparse_rows;   // ascending, gappy
  size_t base_n = 0;

  explicit Fixture(size_t n, unsigned seed) : base_n(4 * n + 16) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> ud(-100.0, 100.0);
    std::uniform_int_distribution<int64_t> ui(-3000, 3000);
    std::uniform_int_distribution<int32_t> uc(0, 7);
    f64.resize(base_n);
    i64.resize(base_n);
    codes.resize(base_n);
    b8.resize(base_n);
    for (size_t i = 0; i < base_n; ++i) {
      f64[i] = ud(rng);
      i64[i] = ui(rng);
      codes[i] = uc(rng);
      b8[i] = static_cast<uint8_t>(rng() & 1);
    }
    // Poison with the adversarial values.
    for (size_t i = 0; i < base_n; i += 7) f64[i] = kNaN;
    for (size_t i = 3; i < base_n; i += 11) f64[i] = -0.0;
    for (size_t i = 5; i < base_n; i += 13) f64[i] = kInf;
    for (size_t i = 1; i < base_n; i += 17) {
      i64[i] = (int64_t{1} << 53) + static_cast<int64_t>(i);  // > 2^51 range
    }
    for (size_t i = 2; i < base_n; i += 19) i64[i] = -(int64_t{1} << 62);
    // Whole random bytes: the bool gather must read any nonzero byte as
    // true, and a random mix is also what defeats a per-row branch.
    bools.resize(base_n);
    for (size_t i = 0; i < base_n; ++i) {
      bools[i] = static_cast<uint8_t>(rng() & 1 ? rng() : 0);
    }
    dense_rows.resize(n);
    sparse_rows.resize(n);
    for (size_t i = 0; i < n; ++i) {
      dense_rows[i] = static_cast<uint32_t>(i + 3);
      sparse_rows[i] = static_cast<uint32_t>(4 * i + (i % 3));
    }
  }
};

template <typename T>
void ExpectBytesEq(const std::vector<T>& got, const std::vector<T>& want,
                   const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(T)), 0)
        << what << " differs at [" << i << "]";
  }
}

const uint32_t* RowsArg(const Fixture& fx, int mode) {
  switch (mode) {
    case 0:
      return nullptr;
    case 1:
      return fx.dense_rows.data();
    default:
      return fx.sparse_rows.data();
  }
}

const char* RowsName(int mode) {
  return mode == 0 ? "identity" : mode == 1 ? "dense" : "sparse";
}

class SimdKernelParity : public ::testing::TestWithParam<SimdIsa> {
 protected:
  const KernelTable& T() { return *KernelsFor(GetParam()); }
  const KernelTable& S() { return ScalarKernels(); }
};

TEST_P(SimdKernelParity, MaskCmpF64) {
  for (size_t n : kLengths) {
    Fixture fx(n, 42);
    for (int mode = 0; mode < 3; ++mode) {
      for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                       CmpOp::kGt, CmpOp::kGe}) {
        for (double lit : {7.5, 0.0, -0.0, kNaN}) {
          std::vector<uint8_t> got(n, 0xCC), want(n, 0xEE);
          T().mask_cmp_f64(fx.f64.data(), RowsArg(fx, mode), n, op, lit,
                           got.data());
          S().mask_cmp_f64(fx.f64.data(), RowsArg(fx, mode), n, op, lit,
                           want.data());
          ExpectBytesEq(got, want,
                        std::string("mask_cmp_f64 n=") + std::to_string(n) +
                            " rows=" + RowsName(mode));
          for (size_t i = 0; i < n; ++i) ASSERT_LE(got[i], 1) << "mask not 0/1";
        }
      }
    }
  }
}

TEST_P(SimdKernelParity, MaskCmpI64) {
  for (size_t n : kLengths) {
    Fixture fx(n, 43);
    for (int mode = 0; mode < 3; ++mode) {
      for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                       CmpOp::kGt, CmpOp::kGe}) {
        // 2^53 exercises the exact-conversion boundary: (2^53)+1
        // rounds to 2^53 as a double, so == through double holds.
        for (double lit : {100.0, static_cast<double>(int64_t{1} << 53)}) {
          std::vector<uint8_t> got(n, 0xCC), want(n, 0xEE);
          T().mask_cmp_i64(fx.i64.data(), RowsArg(fx, mode), n, op, lit,
                           got.data());
          S().mask_cmp_i64(fx.i64.data(), RowsArg(fx, mode), n, op, lit,
                           want.data());
          ExpectBytesEq(got, want,
                        std::string("mask_cmp_i64 n=") + std::to_string(n) +
                            " rows=" + RowsName(mode));
        }
      }
    }
  }
}

TEST_P(SimdKernelParity, MaskCmpF64Pair) {
  for (size_t n : kLengths) {
    Fixture fx(n, 44);
    for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                     CmpOp::kGt, CmpOp::kGe}) {
      std::vector<uint8_t> got(n, 0xCC), want(n, 0xEE);
      T().mask_cmp_f64_pair(fx.f64.data(), fx.f64.data() + 16, n, op,
                            got.data());
      S().mask_cmp_f64_pair(fx.f64.data(), fx.f64.data() + 16, n, op,
                            want.data());
      ExpectBytesEq(got, want,
                    std::string("mask_cmp_f64_pair n=") + std::to_string(n));
    }
  }
}

TEST_P(SimdKernelParity, MaskBetween) {
  for (size_t n : kLengths) {
    Fixture fx(n, 45);
    for (int mode = 0; mode < 3; ++mode) {
      std::vector<uint8_t> got(n, 0xCC), want(n, 0xEE);
      T().mask_between_f64(fx.f64.data(), RowsArg(fx, mode), n, -50.0, 50.0,
                           got.data());
      S().mask_between_f64(fx.f64.data(), RowsArg(fx, mode), n, -50.0, 50.0,
                           want.data());
      ExpectBytesEq(got, want,
                    std::string("mask_between_f64 n=") + std::to_string(n) +
                        " rows=" + RowsName(mode));
      T().mask_between_i64(fx.i64.data(), RowsArg(fx, mode), n, -1000.5,
                           2000.5, got.data());
      S().mask_between_i64(fx.i64.data(), RowsArg(fx, mode), n, -1000.5,
                           2000.5, want.data());
      ExpectBytesEq(got, want,
                    std::string("mask_between_i64 n=") + std::to_string(n) +
                        " rows=" + RowsName(mode));
    }
  }
}

TEST_P(SimdKernelParity, MaskCmpCodes) {
  for (size_t n : kLengths) {
    Fixture fx(n, 46);
    // Codes near the int32 boundary: cmpeq_epi32 must not wrap.
    for (size_t i = 0; i < fx.base_n; i += 5) {
      fx.codes[i] = std::numeric_limits<int32_t>::max() - (i % 2 ? 0 : 1);
    }
    for (int mode = 0; mode < 3; ++mode) {
      for (int32_t code : {3, std::numeric_limits<int32_t>::max(), -1}) {
        for (bool want_eq : {true, false}) {
          std::vector<uint8_t> got(n, 0xCC), want(n, 0xEE);
          T().mask_cmp_codes(fx.codes.data(), RowsArg(fx, mode), n, code,
                             want_eq, got.data());
          S().mask_cmp_codes(fx.codes.data(), RowsArg(fx, mode), n, code,
                             want_eq, want.data());
          ExpectBytesEq(got, want,
                        std::string("mask_cmp_codes n=") + std::to_string(n) +
                            " rows=" + RowsName(mode));
        }
      }
    }
  }
}

TEST_P(SimdKernelParity, MaskTableCodes) {
  for (size_t n : kLengths) {
    Fixture fx(n, 47);
    uint8_t table[8] = {1, 0, 1, 1, 0, 0, 1, 0};
    for (int mode = 0; mode < 3; ++mode) {
      std::vector<uint8_t> got(n, 0xCC), want(n, 0xEE);
      T().mask_table_codes(fx.codes.data(), RowsArg(fx, mode), n, table,
                           got.data());
      S().mask_table_codes(fx.codes.data(), RowsArg(fx, mode), n, table,
                           want.data());
      ExpectBytesEq(got, want,
                    std::string("mask_table_codes n=") + std::to_string(n));
    }
  }
}

TEST_P(SimdKernelParity, MaskInF64) {
  for (size_t n : kLengths) {
    Fixture fx(n, 48);
    const double items[] = {fx.f64[0], -0.0, 13.25, kNaN};
    for (size_t k : {size_t{0}, size_t{1}, size_t{4}}) {
      std::vector<uint8_t> got(n, 0xCC), want(n, 0xEE);
      T().mask_in_f64(fx.f64.data(), n, items, k, got.data());
      S().mask_in_f64(fx.f64.data(), n, items, k, want.data());
      ExpectBytesEq(got, want, std::string("mask_in_f64 n=") +
                                   std::to_string(n) + " k=" +
                                   std::to_string(k));
    }
  }
}

TEST_P(SimdKernelParity, MaskNot) {
  for (size_t n : kLengths) {
    Fixture fx(n, 49);
    std::vector<uint8_t> got(fx.b8.begin(), fx.b8.begin() + n);
    std::vector<uint8_t> want = got;
    T().mask_not(got.data(), n);
    S().mask_not(want.data(), n);
    ExpectBytesEq(got, want, std::string("mask_not n=") + std::to_string(n));
  }
}

TEST_P(SimdKernelParity, CompactRows) {
  for (size_t n : kLengths) {
    Fixture fx(n, 50);
    for (int mode = 0; mode < 3; ++mode) {
      for (uint8_t want_byte : {uint8_t{1}, uint8_t{0}}) {
        std::vector<uint32_t> got(n, 0xDEADBEEF), want(n, 0xFEEDFACE);
        const size_t gk = T().compact_rows(RowsArg(fx, mode), fx.b8.data(),
                                           want_byte, n, got.data());
        const size_t wk = S().compact_rows(RowsArg(fx, mode), fx.b8.data(),
                                           want_byte, n, want.data());
        ASSERT_EQ(gk, wk) << "compact_rows count n=" << n;
        for (size_t i = 0; i < gk; ++i) {
          ASSERT_EQ(got[i], want[i])
              << "compact_rows n=" << n << " rows=" << RowsName(mode)
              << " at " << i;
        }
      }
    }
    // In-place: out aliases rows.
    if (n > 0) {
      AlignedVector<uint32_t> in_place = fx.sparse_rows;
      std::vector<uint32_t> want(n);
      const size_t wk = S().compact_rows(fx.sparse_rows.data(), fx.b8.data(),
                                         1, n, want.data());
      const size_t gk =
          T().compact_rows(in_place.data(), fx.b8.data(), 1, n,
                           in_place.data());
      ASSERT_EQ(gk, wk);
      for (size_t i = 0; i < gk; ++i) ASSERT_EQ(in_place[i], want[i]);
    }
  }
}

TEST_P(SimdKernelParity, Gathers) {
  for (size_t n : kLengths) {
    Fixture fx(n, 51);
    for (int mode = 0; mode < 3; ++mode) {
      {
        std::vector<double> got(n, -1), want(n, -2);
        T().gather_f64(fx.f64.data(), RowsArg(fx, mode), n, got.data());
        S().gather_f64(fx.f64.data(), RowsArg(fx, mode), n, want.data());
        ExpectBytesEq(got, want, std::string("gather_f64 n=") +
                                     std::to_string(n) + " rows=" +
                                     RowsName(mode));
      }
      {
        std::vector<double> got(n, -1), want(n, -2);
        T().gather_i64_f64(fx.i64.data(), RowsArg(fx, mode), n, got.data());
        S().gather_i64_f64(fx.i64.data(), RowsArg(fx, mode), n, want.data());
        ExpectBytesEq(got, want, std::string("gather_i64_f64 n=") +
                                     std::to_string(n));
      }
      {
        std::vector<double> got(n, -1), want(n, -2);
        T().gather_b8_f64(fx.bools.data(), RowsArg(fx, mode), n, got.data());
        S().gather_b8_f64(fx.bools.data(), RowsArg(fx, mode), n, want.data());
        ExpectBytesEq(got, want,
                      std::string("gather_b8_f64 n=") + std::to_string(n));
        const uint32_t* rows = RowsArg(fx, mode);
        for (size_t i = 0; i < n; ++i) {
          const uint8_t byte = fx.bools[rows == nullptr ? i : rows[i]];
          ASSERT_EQ(want[i], byte != 0 ? 1.0 : 0.0)
              << "gather_b8_f64 n=" << n << " at [" << i << "]";
        }
      }
      {
        std::vector<int64_t> got(n, -1), want(n, -2);
        T().gather_i64(fx.i64.data(), RowsArg(fx, mode), n, got.data());
        S().gather_i64(fx.i64.data(), RowsArg(fx, mode), n, want.data());
        ExpectBytesEq(got, want,
                      std::string("gather_i64 n=") + std::to_string(n));
      }
      {
        std::vector<int32_t> got(n, -1), want(n, -2);
        T().gather_i32(fx.codes.data(), RowsArg(fx, mode), n, got.data());
        S().gather_i32(fx.codes.data(), RowsArg(fx, mode), n, want.data());
        ExpectBytesEq(got, want,
                      std::string("gather_i32 n=") + std::to_string(n));
      }
    }
  }
}

TEST_P(SimdKernelParity, WidenPackHash) {
  for (size_t n : kLengths) {
    Fixture fx(n, 52);
    {
      std::vector<uint64_t> got(n, 1), want(n, 2);
      T().widen_u32_u64(fx.dense_rows.data(), n, got.data());
      S().widen_u32_u64(fx.dense_rows.data(), n, want.data());
      ExpectBytesEq(got, want,
                    std::string("widen_u32_u64 n=") + std::to_string(n));
    }
    {
      // Accumulators large enough that acc*card wraps 2^64 in-lane.
      std::vector<uint64_t> got(n), want(n);
      for (size_t i = 0; i < n; ++i) {
        got[i] = want[i] = 0x0123456789ABCDEFull * (i + 1);
      }
      // Codes at the u32 boundary.
      AlignedVector<uint32_t> codes(n);
      for (size_t i = 0; i < n; ++i) {
        codes[i] = (i % 2) ? 0xFFFFFFFFu : static_cast<uint32_t>(i);
      }
      const uint64_t card = 0xFFFFFFFFull;
      T().pack_mul_add(got.data(), codes.data(), card, n);
      S().pack_mul_add(want.data(), codes.data(), card, n);
      ExpectBytesEq(got, want,
                    std::string("pack_mul_add n=") + std::to_string(n));
    }
    {
      std::vector<uint64_t> keys(n), got(n, 1), want(n, 2);
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(&keys[i], &fx.f64[i], sizeof(uint64_t));
      }
      T().hash_u64(keys.data(), n, got.data());
      S().hash_u64(keys.data(), n, want.data());
      ExpectBytesEq(got, want, std::string("hash_u64 n=") + std::to_string(n));
      T().hash_f64(fx.f64.data(), n, got.data());
      S().hash_f64(fx.f64.data(), n, want.data());
      ExpectBytesEq(got, want, std::string("hash_f64 n=") + std::to_string(n));
    }
  }
}

// hash_f64 canonicalization invariants, checked directly.
TEST_P(SimdKernelParity, HashF64Canonicalization) {
  const double vals[] = {0.0, -0.0, 1.0, kNaN};
  uint64_t h[4];
  T().hash_f64(vals, 4, h);
  EXPECT_EQ(h[0], h[1]) << "-0.0 must hash like +0.0";
  EXPECT_EQ(h[0], HashU64(0));
  EXPECT_EQ(h[3], HashU64(CanonicalF64Bits(kNaN)));
}

std::string IsaParamName(const ::testing::TestParamInfo<SimdIsa>& info) {
  return SimdIsaName(info.param);
}

std::vector<SimdIsa> AvailableIsas() {
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  if (KernelsFor(SimdIsa::kAvx2) != nullptr) isas.push_back(SimdIsa::kAvx2);
  return isas;
}

INSTANTIATE_TEST_SUITE_P(AllIsas, SimdKernelParity,
                         ::testing::ValuesIn(AvailableIsas()), IsaParamName);

TEST(SimdDispatch, ActiveTableIsConsistent) {
  const KernelTable& active = ActiveKernels();
  EXPECT_EQ(&active, &ActiveKernels()) << "dispatch must be cached";
  EXPECT_STREQ(ActiveIsaName(), SimdIsaName(active.isa));
  EXPECT_NE(KernelsFor(active.isa), nullptr);
}

TEST(SimdDispatch, AlignedAllocationBases) {
  AlignedVector<double> v(100);
  AlignedVector<uint32_t> r(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kSimdAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(r.data()) % kSimdAlignment, 0u);
}

}  // namespace
}  // namespace simd
}  // namespace exec
}  // namespace mosaic
