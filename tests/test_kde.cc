#include "research/kde.h"

#include <gtest/gtest.h>

#include "common/math_util.h"

namespace mosaic {
namespace stats {
namespace {

Table MixedData(size_t n, Rng* rng) {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"c", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  EXPECT_TRUE(s.AddColumn({"i", DataType::kInt64}).ok());
  Table t(s);
  for (size_t r = 0; r < n; ++r) {
    bool heavy = rng->Bernoulli(0.7);
    EXPECT_TRUE(t.AppendRow({Value(heavy ? "H" : "L"),
                             Value(rng->Gaussian(heavy ? 2.0 : -2.0, 0.5)),
                             Value(rng->UniformInt(int64_t{0}, int64_t{100}))})
                    .ok());
  }
  return t;
}

TEST(Kde, FitValidation) {
  Rng rng(1);
  Table data = MixedData(10, &rng);
  EXPECT_FALSE(MixedKde::Fit(data, {1.0}).ok());  // size mismatch
  std::vector<double> neg(10, 1.0);
  neg[0] = -1.0;
  EXPECT_FALSE(MixedKde::Fit(data, neg).ok());
  std::vector<double> zeros(10, 0.0);
  EXPECT_FALSE(MixedKde::Fit(data, zeros).ok());
  Schema s;
  ASSERT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table empty(s);
  EXPECT_FALSE(MixedKde::Fit(empty, {}).ok());
}

TEST(Kde, BandwidthsPositiveForNumericOnly) {
  Rng rng(2);
  Table data = MixedData(500, &rng);
  std::vector<double> w(500, 1.0);
  auto kde = MixedKde::Fit(data, w);
  ASSERT_TRUE(kde.ok());
  EXPECT_DOUBLE_EQ(kde->bandwidths()[0], 0.0);  // categorical
  EXPECT_GT(kde->bandwidths()[1], 0.0);
  EXPECT_GT(kde->bandwidths()[2], 0.0);
}

TEST(Kde, SamplePreservesSchemaAndTypes) {
  Rng rng(3);
  Table data = MixedData(300, &rng);
  std::vector<double> w(300, 1.0);
  auto kde = MixedKde::Fit(data, w);
  ASSERT_TRUE(kde.ok());
  Rng srng(4);
  auto sampled = kde->Sample(100, &srng);
  ASSERT_TRUE(sampled.ok());
  EXPECT_EQ(sampled->num_rows(), 100u);
  EXPECT_TRUE(sampled->schema() == data.schema());
  for (size_t r = 0; r < 100; ++r) {
    std::string c = sampled->GetValue(r, 0).AsString();
    EXPECT_TRUE(c == "H" || c == "L");
    EXPECT_EQ(sampled->GetValue(r, 2).type(), DataType::kInt64);
  }
}

TEST(Kde, UnweightedSamplingMatchesSourceDistribution) {
  Rng rng(5);
  Table data = MixedData(3000, &rng);
  std::vector<double> w(3000, 1.0);
  auto kde = MixedKde::Fit(data, w);
  ASSERT_TRUE(kde.ok());
  Rng srng(6);
  auto sampled = kde->Sample(3000, &srng);
  ASSERT_TRUE(sampled.ok());
  // Mean of x preserved (bimodal mixture mean ~ 0.7*2 - 0.3*2 = 0.8).
  auto xs = sampled->column(1).ToDoubleVector();
  auto xs_src = data.column(1).ToDoubleVector();
  EXPECT_NEAR(Mean(xs), Mean(xs_src), 0.15);
  // Category frequencies preserved within smoothing slack.
  size_t h = 0;
  for (size_t r = 0; r < sampled->num_rows(); ++r) {
    if (sampled->GetValue(r, 0).AsString() == "H") ++h;
  }
  EXPECT_NEAR(h / 3000.0, 0.7, 0.05);
}

TEST(Kde, WeightsShiftTheDistribution) {
  // Upweight the L cluster 10x: generated mix must flip toward L.
  Rng rng(7);
  Table data = MixedData(2000, &rng);
  std::vector<double> w(2000, 1.0);
  for (size_t r = 0; r < 2000; ++r) {
    if (data.GetValue(r, 0).AsString() == "L") w[r] = 10.0;
  }
  auto kde = MixedKde::Fit(data, w);
  ASSERT_TRUE(kde.ok());
  Rng srng(8);
  auto sampled = kde->Sample(4000, &srng);
  ASSERT_TRUE(sampled.ok());
  size_t l = 0;
  for (size_t r = 0; r < sampled->num_rows(); ++r) {
    if (sampled->GetValue(r, 0).AsString() == "L") ++l;
  }
  // Weighted share of L: 0.3*10 / (0.3*10 + 0.7) ~ 0.81.
  EXPECT_NEAR(l / 4000.0, 0.81, 0.05);
}

TEST(Kde, BandwidthScaleControlsSpread) {
  Rng rng(9);
  Schema s;
  ASSERT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table data(s);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(data.AppendRow({Value(rng.Gaussian(0.0, 1.0))}).ok());
  }
  std::vector<double> w(500, 1.0);
  KdeOptions narrow, wide;
  narrow.bandwidth_scale = 0.1;
  wide.bandwidth_scale = 3.0;
  auto k_narrow = MixedKde::Fit(data, w, narrow);
  auto k_wide = MixedKde::Fit(data, w, wide);
  ASSERT_TRUE(k_narrow.ok());
  ASSERT_TRUE(k_wide.ok());
  Rng s1(10), s2(10);
  auto g_narrow = k_narrow->Sample(4000, &s1);
  auto g_wide = k_wide->Sample(4000, &s2);
  double v_narrow = Variance(g_narrow->column(0).ToDoubleVector());
  double v_wide = Variance(g_wide->column(0).ToDoubleVector());
  EXPECT_LT(v_narrow, v_wide);
}

}  // namespace
}  // namespace stats
}  // namespace mosaic
