// Property-based sweeps (TEST_P) over the core invariants:
//  * IPF marginal satisfaction across bias strengths
//  * weighted execution == replicated execution for integer weights
//  * encoder round-trips across random mixed tables
#include <gtest/gtest.h>


#include "common/rng.h"
#include "core/encoder.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "stats/ipf.h"

namespace mosaic {
namespace {

// ---------------------------------------------------------------------------
// IPF satisfies marginals across bias strengths.
// ---------------------------------------------------------------------------

class IpfBiasSweep : public ::testing::TestWithParam<double> {};

TEST_P(IpfBiasSweep, MarginalsSatisfiedForAnyBias) {
  double bias = GetParam();
  Rng rng(99);
  // Population: two correlated binary attributes.
  Schema s;
  ASSERT_TRUE(s.AddColumn({"a", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"b", DataType::kString}).ok());
  Table pop(s);
  for (int i = 0; i < 4000; ++i) {
    bool a = rng.Bernoulli(0.5);
    bool b = rng.Bernoulli(a ? 0.8 : 0.3);
    ASSERT_TRUE(
        pop.AppendRow({Value(a ? "a1" : "a0"), Value(b ? "b1" : "b0")}).ok());
  }
  // Biased sample: include a1 rows with probability `bias`, a0 with
  // (1 - bias).
  Table sample(s);
  for (size_t r = 0; r < pop.num_rows(); ++r) {
    bool is_a1 = pop.GetValue(r, 0).AsString() == "a1";
    if (rng.Bernoulli(is_a1 ? bias : 1.0 - bias)) {
      ASSERT_TRUE(sample.AppendRow(pop.GetRow(r)).ok());
    }
  }
  ASSERT_GT(sample.num_rows(), 100u);
  auto ma = stats::Marginal::FromData(pop, {"a"});
  auto mb = stats::Marginal::FromData(pop, {"b"});
  ASSERT_TRUE(ma.ok());
  ASSERT_TRUE(mb.ok());
  std::vector<double> w(sample.num_rows(), 1.0);
  auto report =
      stats::IterativeProportionalFit(sample, {*ma, *mb}, &w);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(*ma->L1Error(sample, w), 1e-4) << "bias " << bias;
  EXPECT_LT(*mb->L1Error(sample, w), 1e-4) << "bias " << bias;
  // Total weight equals the population size.
  double total = 0.0;
  for (double x : w) total += x;
  EXPECT_NEAR(total, 4000.0, 1.0);
}

INSTANTIATE_TEST_SUITE_P(BiasLevels, IpfBiasSweep,
                         ::testing::Values(0.5, 0.6, 0.75, 0.9, 0.95));

// ---------------------------------------------------------------------------
// Weighted execution == replicated execution, randomized.
// ---------------------------------------------------------------------------

class WeightedExecEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(WeightedExecEquivalence, MatchesReplication) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  Schema s;
  ASSERT_TRUE(s.AddColumn({"g", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"v", DataType::kInt64}).ok());
  ASSERT_TRUE(s.AddColumn({"w", DataType::kDouble}).ok());
  Schema s2;
  ASSERT_TRUE(s2.AddColumn({"g", DataType::kString}).ok());
  ASSERT_TRUE(s2.AddColumn({"v", DataType::kInt64}).ok());
  Table weighted(s);
  Table replicated(s2);
  const char* groups[] = {"g0", "g1", "g2"};
  size_t n = 5 + rng.UniformInt(uint64_t{15});
  for (size_t i = 0; i < n; ++i) {
    const char* g = groups[rng.UniformInt(uint64_t{3})];
    int64_t v = rng.UniformInt(int64_t{-50}, int64_t{50});
    int64_t w = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{5}));
    ASSERT_TRUE(weighted
                    .AppendRow({Value(g), Value(v),
                                Value(static_cast<double>(w))})
                    .ok());
    for (int64_t k = 0; k < w; ++k) {
      ASSERT_TRUE(replicated.AppendRow({Value(g), Value(v)}).ok());
    }
  }
  const std::string query =
      "SELECT g, COUNT(*) AS c, SUM(v) AS s, AVG(v) AS a FROM t "
      "GROUP BY g ORDER BY g";
  auto stmt = sql::ParseStatement(query);
  ASSERT_TRUE(stmt.ok());
  exec::ExecOptions weighted_opts;
  weighted_opts.weight_column = "w";
  auto rw = exec::ExecuteSelect(weighted, stmt->As<sql::SelectStmt>(),
                                weighted_opts);
  auto rr = exec::ExecuteSelect(replicated, stmt->As<sql::SelectStmt>());
  ASSERT_TRUE(rw.ok());
  ASSERT_TRUE(rr.ok());
  ASSERT_EQ(rw->num_rows(), rr->num_rows());
  for (size_t r = 0; r < rw->num_rows(); ++r) {
    EXPECT_EQ(rw->GetValue(r, 0).AsString(), rr->GetValue(r, 0).AsString());
    EXPECT_NEAR(rw->GetValue(r, 1).AsDouble(),
                static_cast<double>(rr->GetValue(r, 1).AsInt64()), 1e-9);
    EXPECT_NEAR(rw->GetValue(r, 2).AsDouble(), rr->GetValue(r, 2).AsDouble(),
                1e-9);
    EXPECT_NEAR(rw->GetValue(r, 3).AsDouble(), rr->GetValue(r, 3).AsDouble(),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, WeightedExecEquivalence,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Encoder round-trip on random mixed tables.
// ---------------------------------------------------------------------------

class EncoderRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(EncoderRoundTrip, DecodeInvertsEncode) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 3);
  Schema s;
  ASSERT_TRUE(s.AddColumn({"c", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"i", DataType::kInt64}).ok());
  ASSERT_TRUE(s.AddColumn({"d", DataType::kDouble}).ok());
  Table t(s);
  const char* cats[] = {"x", "y", "z", "w"};
  size_t n = 2 + rng.UniformInt(uint64_t{40});
  for (size_t r = 0; r < n; ++r) {
    ASSERT_TRUE(t.AppendRow({Value(cats[rng.UniformInt(uint64_t{4})]),
                             Value(rng.UniformInt(int64_t{-100}, int64_t{100})),
                             Value(rng.Uniform(-5.0, 5.0))})
                    .ok());
  }
  auto enc = core::MixedEncoder::Fit(t, {});
  ASSERT_TRUE(enc.ok());
  auto encoded = enc->Encode(t);
  ASSERT_TRUE(encoded.ok());
  // Everything scaled into [0, 1].
  for (double v : encoded->data()) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
  auto back = enc->Decode(*encoded);
  ASSERT_TRUE(back.ok());
  for (size_t r = 0; r < n; ++r) {
    EXPECT_TRUE(back->GetValue(r, 0) == t.GetValue(r, 0));
    EXPECT_TRUE(back->GetValue(r, 1) == t.GetValue(r, 1));
    EXPECT_NEAR(back->GetValue(r, 2).AsDouble(),
                t.GetValue(r, 2).AsDouble(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, EncoderRoundTrip, ::testing::Range(0, 10));

}  // namespace
}  // namespace mosaic
