#include "research/bayes_net.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mosaic {
namespace stats {
namespace {

/// Two strongly correlated categorical attributes plus an independent
/// one.
Table CorrelatedData(size_t n, Rng* rng) {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"a", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"b", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"c", DataType::kString}).ok());
  Table t(s);
  for (size_t i = 0; i < n; ++i) {
    bool a = rng->Bernoulli(0.5);
    bool b = rng->Bernoulli(a ? 0.9 : 0.1);  // b tracks a
    bool c = rng->Bernoulli(0.3);            // independent
    EXPECT_TRUE(t.AppendRow({Value(a ? "a1" : "a0"),
                             Value(b ? "b1" : "b0"),
                             Value(c ? "c1" : "c0")})
                    .ok());
  }
  return t;
}

TEST(BayesNet, FitBasicShape) {
  Rng rng(1);
  Table data = CorrelatedData(2000, &rng);
  auto tree = ChowLiuTree::Fit(data);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->num_nodes(), 3u);
  // Exactly one root.
  int roots = 0;
  for (size_t v = 0; v < 3; ++v) {
    if (tree->parent(v) < 0) ++roots;
  }
  EXPECT_EQ(roots, 1);
}

TEST(BayesNet, ChowLiuLinksCorrelatedPair) {
  Rng rng(2);
  Table data = CorrelatedData(5000, &rng);
  auto tree = ChowLiuTree::Fit(data);
  ASSERT_TRUE(tree.ok());
  // The a-b edge has far higher MI than any edge to c, so a and b
  // must be adjacent in the tree.
  auto a = *tree->NodeIndex("a");
  auto b = *tree->NodeIndex("b");
  bool adjacent = tree->parent(a) == static_cast<int>(b) ||
                  tree->parent(b) == static_cast<int>(a);
  EXPECT_TRUE(adjacent);
}

TEST(BayesNet, ProbabilitiesSumToOne) {
  Rng rng(3);
  Table data = CorrelatedData(1000, &rng);
  auto tree = ChowLiuTree::Fit(data);
  ASSERT_TRUE(tree.ok());
  double total = 0.0;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      for (size_t k = 0; k < 2; ++k) {
        total += tree->Probability({i, j, k});
      }
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(BayesNet, UnconstrainedMarginalProbabilityIsOne) {
  Rng rng(4);
  Table data = CorrelatedData(1000, &rng);
  auto tree = ChowLiuTree::Fit(data);
  ASSERT_TRUE(tree.ok());
  auto p = tree->MarginalProbability({{}, {}, {}});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 1.0, 1e-9);
}

TEST(BayesNet, InferenceMatchesEmpirical) {
  Rng rng(5);
  Table data = CorrelatedData(20000, &rng);
  auto tree = ChowLiuTree::Fit(data);
  ASSERT_TRUE(tree.ok());
  // P(a = a1): empirical ~0.5.
  size_t a = *tree->NodeIndex("a");
  size_t bin_a1 = *tree->binning(a).BinOf(Value("a1"));
  std::vector<std::vector<size_t>> allowed(3);
  allowed[a] = {bin_a1};
  auto p = tree->MarginalProbability(allowed);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.5, 0.03);
  // P(a=a1, b=b1) ~ 0.45 (joint through the correlated edge).
  size_t b = *tree->NodeIndex("b");
  allowed[b] = {*tree->binning(b).BinOf(Value("b1"))};
  auto pj = tree->MarginalProbability(allowed);
  ASSERT_TRUE(pj.ok());
  EXPECT_NEAR(*pj, 0.45, 0.03);
}

TEST(BayesNet, EstimateCountScales) {
  Rng rng(6);
  Table data = CorrelatedData(5000, &rng);
  auto tree = ChowLiuTree::Fit(data);
  ASSERT_TRUE(tree.ok());
  size_t a = *tree->NodeIndex("a");
  std::vector<std::vector<size_t>> allowed(3);
  allowed[a] = {*tree->binning(a).BinOf(Value("a1"))};
  auto count = tree->EstimateCount(allowed, 1000000.0);
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(*count, 500000.0, 40000.0);
}

TEST(BayesNet, SampleRowsPreservesJoint) {
  Rng rng(7);
  Table data = CorrelatedData(20000, &rng);
  auto tree = ChowLiuTree::Fit(data);
  ASSERT_TRUE(tree.ok());
  Rng sample_rng(8);
  auto sampled = tree->SampleRows(20000, &sample_rng);
  ASSERT_TRUE(sampled.ok());
  EXPECT_EQ(sampled->num_rows(), 20000u);
  EXPECT_EQ(sampled->num_columns(), 3u);
  // Check the a-b correlation survives generation.
  size_t both = 0, a1 = 0;
  auto ca = *sampled->ColumnByName("a");
  auto cb = *sampled->ColumnByName("b");
  for (size_t r = 0; r < sampled->num_rows(); ++r) {
    bool is_a1 = ca->GetValue(r).AsString() == "a1";
    bool is_b1 = cb->GetValue(r).AsString() == "b1";
    if (is_a1) {
      ++a1;
      if (is_b1) ++both;
    }
  }
  EXPECT_NEAR(static_cast<double>(both) / a1, 0.9, 0.05);
}

TEST(BayesNet, ContinuousAttributeBinsAndSamples) {
  Rng rng(9);
  Schema s;
  ASSERT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table t(s);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(rng.Gaussian(5.0, 1.0))}).ok());
  }
  BayesNetOptions opts;
  opts.continuous_bins = 20;
  auto tree = ChowLiuTree::Fit(t, "", opts);
  ASSERT_TRUE(tree.ok());
  Rng sample_rng(10);
  auto sampled = tree->SampleRows(5000, &sample_rng);
  ASSERT_TRUE(sampled.ok());
  double mean = 0.0;
  auto cx = *sampled->ColumnByName("x");
  for (size_t r = 0; r < sampled->num_rows(); ++r) {
    mean += *cx->GetDouble(r);
  }
  mean /= static_cast<double>(sampled->num_rows());
  EXPECT_NEAR(mean, 5.0, 0.2);
}

TEST(BayesNet, WeightedFitFollowsWeights) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"a", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"w", DataType::kDouble}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("hot"), Value(9.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("cold"), Value(1.0)}).ok());
  BayesNetOptions opts;
  opts.smoothing = 1e-6;
  auto tree = ChowLiuTree::Fit(t, "w", opts);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->num_nodes(), 1u);  // weight column excluded
  size_t a = *tree->NodeIndex("a");
  std::vector<std::vector<size_t>> allowed(1);
  allowed[a] = {*tree->binning(a).BinOf(Value("hot"))};
  EXPECT_NEAR(*tree->MarginalProbability(allowed), 0.9, 1e-3);
}

TEST(BayesNet, EmptyDataRejected) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"a", DataType::kString}).ok());
  Table t(s);
  EXPECT_FALSE(ChowLiuTree::Fit(t).ok());
}

}  // namespace
}  // namespace stats
}  // namespace mosaic
