#include "research/metrics.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mosaic {
namespace stats {
namespace {

TEST(KolmogorovSmirnov, IdenticalSamplesZero) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_NEAR(*KolmogorovSmirnov(xs, xs), 0.0, 1e-12);
}

TEST(KolmogorovSmirnov, DisjointSupportsOne) {
  EXPECT_NEAR(*KolmogorovSmirnov({1, 2, 3}, {10, 11}), 1.0, 1e-12);
}

TEST(KolmogorovSmirnov, KnownHalfOverlap) {
  // F_P jumps to 1 at 1; F_Q is 0.5 at 1 -> sup diff 0.5.
  EXPECT_NEAR(*KolmogorovSmirnov({1.0, 1.0}, {1.0, 2.0}), 0.5, 1e-12);
}

TEST(KolmogorovSmirnov, SymmetricAndBounded) {
  Rng rng(1);
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(rng.Gaussian());
    b.push_back(rng.Gaussian(0.5, 2.0));
  }
  double ab = *KolmogorovSmirnov(a, b);
  double ba = *KolmogorovSmirnov(b, a);
  EXPECT_NEAR(ab, ba, 1e-12);
  EXPECT_GT(ab, 0.0);
  EXPECT_LE(ab, 1.0);
}

TEST(KolmogorovSmirnov, EmptyRejected) {
  EXPECT_FALSE(KolmogorovSmirnov({}, {1.0}).ok());
}

TEST(PearsonCorrelation, PerfectLinear) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> pos = {2, 4, 6, 8};
  std::vector<double> neg = {8, 6, 4, 2};
  EXPECT_NEAR(*PearsonCorrelation(xs, pos), 1.0, 1e-12);
  EXPECT_NEAR(*PearsonCorrelation(xs, neg), -1.0, 1e-12);
}

TEST(PearsonCorrelation, IndependentNearZero) {
  Rng rng(2);
  std::vector<double> a, b;
  for (int i = 0; i < 20000; ++i) {
    a.push_back(rng.Gaussian());
    b.push_back(rng.Gaussian());
  }
  EXPECT_NEAR(*PearsonCorrelation(a, b), 0.0, 0.02);
}

TEST(PearsonCorrelation, ConstantInputIsZero) {
  EXPECT_DOUBLE_EQ(*PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(PearsonCorrelation, Validation) {
  EXPECT_FALSE(PearsonCorrelation({1}, {1, 2}).ok());
  EXPECT_FALSE(PearsonCorrelation({1}, {1}).ok());
}

TEST(ChiSquare, ExactMatchZero) {
  EXPECT_NEAR(*ChiSquare({10, 20, 30}, {10, 20, 30}), 0.0, 1e-12);
}

TEST(ChiSquare, ScaleInvariantExpected) {
  // Expected on a different scale must be renormalized first.
  double a = *ChiSquare({12, 18, 30}, {10, 20, 30});
  double b = *ChiSquare({12, 18, 30}, {100, 200, 300});
  EXPECT_NEAR(a, b, 1e-12);
  EXPECT_GT(a, 0.0);
}

TEST(ChiSquare, KnownValue) {
  // obs (50,50) vs exp (25,75) scaled to 100: (25²/25)+(25²/75).
  EXPECT_NEAR(*ChiSquare({50, 50}, {25, 75}), 25.0 + 625.0 / 75.0, 1e-9);
}

TEST(ChiSquare, ZeroExpectedCellWithMassRejected) {
  EXPECT_FALSE(ChiSquare({1, 1}, {2, 0}).ok());
  EXPECT_TRUE(ChiSquare({1, 0}, {2, 0}).ok());
}

TEST(JensenShannon, IdenticalZeroDisjointOne) {
  EXPECT_NEAR(*JensenShannon({1, 2, 3}, {1, 2, 3}), 0.0, 1e-12);
  EXPECT_NEAR(*JensenShannon({1, 0}, {0, 1}), 1.0, 1e-12);
}

TEST(JensenShannon, SymmetricAndBounded) {
  std::vector<double> p = {5, 1, 4}, q = {1, 6, 3};
  double pq = *JensenShannon(p, q);
  EXPECT_NEAR(pq, *JensenShannon(q, p), 1e-12);
  EXPECT_GT(pq, 0.0);
  EXPECT_LT(pq, 1.0);
}

TEST(JensenShannon, HandlesZeroCellsGracefully) {
  auto js = JensenShannon({1, 0, 2}, {1, 1, 1});
  ASSERT_TRUE(js.ok());
  EXPECT_GT(*js, 0.0);
}

TEST(JensenShannon, Validation) {
  EXPECT_FALSE(JensenShannon({1}, {1, 2}).ok());
  EXPECT_FALSE(JensenShannon({0, 0}, {1, 1}).ok());
  EXPECT_FALSE(JensenShannon({-1, 2}, {1, 1}).ok());
}

}  // namespace
}  // namespace stats
}  // namespace mosaic
