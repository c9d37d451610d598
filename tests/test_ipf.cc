#include "stats/ipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/rng.h"
#include "data/flights.h"

namespace mosaic {
namespace stats {
namespace {

/// A 2-attribute categorical sample with controllable cell counts.
Table MakeSample(const std::vector<std::array<const char*, 2>>& rows) {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"a", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"b", DataType::kString}).ok());
  Table t(s);
  for (const auto& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value(r[0]), Value(r[1])}).ok());
  }
  return t;
}

Marginal MarginalOver(const std::string& attr,
                      std::vector<std::pair<const char*, double>> counts) {
  std::vector<Value> cats;
  std::vector<double> c;
  for (auto& [name, count] : counts) {
    cats.emplace_back(name);
    c.push_back(count);
  }
  auto m = Marginal::FromCounts(
      {AttributeBinning::Categorical(attr, cats)}, c);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

TEST(Ipf, SingleMarginalExactFit) {
  // Sample: 3x a=x, 1x a=y. Target: x=10, y=30.
  Table sample = MakeSample({{"x", "p"}, {"x", "p"}, {"x", "q"}, {"y", "q"}});
  std::vector<double> w(4, 1.0);
  auto report = IterativeProportionalFit(
      sample, {MarginalOver("a", {{"x", 10}, {"y", 30}})}, &w);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->converged);
  // Each x-row gets 10/3, the y-row gets 30.
  EXPECT_NEAR(w[0], 10.0 / 3.0, 1e-9);
  EXPECT_NEAR(w[3], 30.0, 1e-9);
  double total = w[0] + w[1] + w[2] + w[3];
  EXPECT_NEAR(total, 40.0, 1e-9);  // scaled to population
}

TEST(Ipf, TwoMarginalsConverge) {
  Table sample = MakeSample({{"x", "p"}, {"x", "q"}, {"y", "p"}, {"y", "q"}});
  std::vector<double> w(4, 1.0);
  std::vector<Marginal> margs = {
      MarginalOver("a", {{"x", 70}, {"y", 30}}),
      MarginalOver("b", {{"p", 40}, {"q", 60}}),
  };
  auto report = IterativeProportionalFit(sample, margs, &w);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged);
  for (const auto& m : margs) {
    auto err = m.L1Error(sample, w);
    ASSERT_TRUE(err.ok());
    EXPECT_LT(*err, 1e-5);
  }
}

TEST(Ipf, BiasedStartingWeightsStillConverge) {
  Table sample = MakeSample({{"x", "p"}, {"x", "q"}, {"y", "p"}, {"y", "q"}});
  std::vector<double> w = {100.0, 0.5, 3.0, 7.0};
  std::vector<Marginal> margs = {
      MarginalOver("a", {{"x", 50}, {"y", 50}}),
      MarginalOver("b", {{"p", 25}, {"q", 75}}),
  };
  auto report = IterativeProportionalFit(sample, margs, &w);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged);
  for (const auto& m : margs) {
    EXPECT_LT(*m.L1Error(sample, w), 1e-5);
  }
}

TEST(Ipf, UncoveredCellsReported) {
  // Target has mass on a=z but the sample has no z tuples: that mass
  // is unreachable (SEMI-OPEN false negatives).
  Table sample = MakeSample({{"x", "p"}, {"y", "p"}});
  std::vector<double> w(2, 1.0);
  auto report = IterativeProportionalFit(
      sample, {MarginalOver("a", {{"x", 40}, {"y", 40}, {"z", 20}})}, &w);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->uncovered_target_mass, 0.2, 1e-12);
  // Covered part is fit proportionally: x and y get equal mass.
  EXPECT_NEAR(w[0], w[1], 1e-9);
}

TEST(Ipf, ZeroOverlapFails) {
  Table sample = MakeSample({{"x", "p"}});
  std::vector<double> w(1, 1.0);
  auto report = IterativeProportionalFit(
      sample, {MarginalOver("a", {{"zz", 10.0}})}, &w);
  EXPECT_FALSE(report.ok());
}

TEST(Ipf, InputValidation) {
  Table sample = MakeSample({{"x", "p"}});
  std::vector<double> w(1, 1.0);
  EXPECT_FALSE(IterativeProportionalFit(sample, {}, &w).ok());
  std::vector<double> wrong_size(3, 1.0);
  EXPECT_FALSE(IterativeProportionalFit(
                   sample, {MarginalOver("a", {{"x", 1.0}})}, &wrong_size)
                   .ok());
  std::vector<double> negative = {-1.0};
  EXPECT_FALSE(IterativeProportionalFit(
                   sample, {MarginalOver("a", {{"x", 1.0}})}, &negative)
                   .ok());
}

TEST(Ipf, NoPopulationScalingOption) {
  Table sample = MakeSample({{"x", "p"}, {"y", "p"}});
  std::vector<double> w(2, 1.0);
  IpfOptions opts;
  opts.scale_to_population = false;
  auto report = IterativeProportionalFit(
      sample, {MarginalOver("a", {{"x", 300}, {"y", 100}})}, &w, opts);
  ASSERT_TRUE(report.ok());
  // Proportions fit (3:1) regardless of absolute scale.
  EXPECT_NEAR(w[0] / w[1], 3.0, 1e-6);
}

TEST(Ipf, TwoDimensionalMarginal) {
  Table sample = MakeSample({{"x", "p"}, {"x", "q"}, {"y", "p"}, {"y", "q"}});
  auto m2 = Marginal::FromCounts(
      {AttributeBinning::Categorical("a", {Value("x"), Value("y")}),
       AttributeBinning::Categorical("b", {Value("p"), Value("q")})},
      {10, 20, 30, 40});
  ASSERT_TRUE(m2.ok());
  std::vector<double> w(4, 1.0);
  auto report = IterativeProportionalFit(sample, {*m2}, &w);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged);
  // With a full 2-D marginal and one tuple per cell, weights equal
  // the cell targets exactly.
  EXPECT_NEAR(w[0], 10.0, 1e-6);
  EXPECT_NEAR(w[1], 20.0, 1e-6);
  EXPECT_NEAR(w[2], 30.0, 1e-6);
  EXPECT_NEAR(w[3], 40.0, 1e-6);
}

TEST(Ipf, InconsistentMarginalsStillTerminate) {
  // Marginals with different totals (inconsistent): IPF oscillates
  // toward a compromise; it must terminate and report the residual.
  Table sample = MakeSample({{"x", "p"}, {"x", "q"}, {"y", "p"}, {"y", "q"}});
  std::vector<Marginal> margs = {
      MarginalOver("a", {{"x", 90}, {"y", 10}}),
      MarginalOver("b", {{"p", 10}, {"q", 90}}),
  };
  std::vector<double> w(4, 1.0);
  IpfOptions opts;
  opts.max_iterations = 50;
  auto report = IterativeProportionalFit(sample, margs, &w, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->iterations, 50u);
  for (double x : w) {
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_GE(x, 0.0);
  }
}

// Property sweep: IPF must converge for random biased samples of
// varying size against consistent random marginals.
class IpfRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(IpfRandomSweep, ConvergesOnRandomInstances) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const char* as[] = {"a0", "a1", "a2"};
  const char* bs[] = {"b0", "b1"};
  // Random population over 3x2 cells.
  std::vector<double> pop_cells(6);
  for (double& c : pop_cells) c = 10.0 + rng.Uniform() * 90.0;
  // Marginals of that population.
  std::vector<std::pair<const char*, double>> ma, mb;
  for (int i = 0; i < 3; ++i) {
    ma.emplace_back(as[i], pop_cells[2 * i] + pop_cells[2 * i + 1]);
  }
  for (int j = 0; j < 2; ++j) {
    mb.emplace_back(bs[j],
                    pop_cells[j] + pop_cells[2 + j] + pop_cells[4 + j]);
  }
  // Biased sample: one tuple per cell with random multiplicity.
  std::vector<std::array<const char*, 2>> rows;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      size_t copies = 1 + rng.UniformInt(uint64_t{4});
      for (size_t k = 0; k < copies; ++k) rows.push_back({as[i], bs[j]});
    }
  }
  Table sample = MakeSample(rows);
  std::vector<double> w(sample.num_rows(), 1.0);
  std::vector<Marginal> margs = {MarginalOver("a", ma),
                                 MarginalOver("b", mb)};
  auto report = IterativeProportionalFit(sample, margs, &w);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged) << "seed " << GetParam();
  for (const auto& m : margs) {
    EXPECT_LT(*m.L1Error(sample, w), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IpfRandomSweep,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Kernel parity: IterativeProportionalFit rakes over cell ids it computes
// once per fit, in one fused pass per marginal. The reference below is
// the straightforward loop it replaced: rows binned one by one through
// CellOfRow, a separate mass pass and two divisions per row per raking
// step, and Marginal::L1Error (which re-bins the sample) for the
// per-marginal convergence check after every cycle. Weights and reports
// must match it bit for bit.
// ---------------------------------------------------------------------------

Result<IpfReport> ReferenceIpf(const Table& sample,
                               const std::vector<Marginal>& marginals,
                               std::vector<double>* weights,
                               const IpfOptions& options) {
  std::vector<double>& w = *weights;
  if (w.size() != sample.num_rows() || marginals.empty() ||
      sample.num_rows() == 0) {
    return Status::InvalidArgument("bad reference input");
  }
  std::vector<std::vector<int64_t>> cells(marginals.size());
  for (size_t m = 0; m < marginals.size(); ++m) {
    for (size_t r = 0; r < sample.num_rows(); ++r) {
      auto cell = marginals[m].CellOfRow(sample, r);
      cells[m].push_back(cell.ok() ? static_cast<int64_t>(*cell) : -1);
    }
  }
  IpfReport report;
  report.l1_error.assign(marginals.size(), 0.0);
  double uncovered = 0.0;
  for (size_t m = 0; m < marginals.size(); ++m) {
    std::vector<bool> covered(marginals[m].NumCells(), false);
    for (int64_t c : cells[m]) {
      if (c >= 0) covered[static_cast<size_t>(c)] = true;
    }
    double miss = 0.0;
    for (size_t c = 0; c < marginals[m].NumCells(); ++c) {
      if (!covered[c]) miss += marginals[m].count(c);
    }
    report.floor.push_back(2.0 * (miss / marginals[m].total()));
    uncovered += miss / marginals[m].total();
  }
  report.uncovered_target_mass =
      uncovered / static_cast<double>(marginals.size());

  std::vector<double> cell_mass;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    for (size_t m = 0; m < marginals.size(); ++m) {
      const Marginal& marg = marginals[m];
      cell_mass.assign(marg.NumCells(), 0.0);
      double covered_weight = 0.0;
      for (size_t r = 0; r < w.size(); ++r) {
        if (cells[m][r] >= 0) {
          cell_mass[static_cast<size_t>(cells[m][r])] += w[r];
          covered_weight += w[r];
        }
      }
      if (covered_weight <= 0.0) return Status::ExecutionError("no weight");
      double covered_target = 0.0;
      for (size_t c = 0; c < marg.NumCells(); ++c) {
        if (cell_mass[c] > 0.0) covered_target += marg.count(c);
      }
      if (covered_target <= 0.0) return Status::ExecutionError("no overlap");
      for (size_t r = 0; r < w.size(); ++r) {
        int64_t c = cells[m][r];
        if (c < 0) continue;
        double cur = cell_mass[static_cast<size_t>(c)];
        if (cur <= 0.0) continue;
        double target = marg.count(static_cast<size_t>(c)) / covered_target;
        double current = cur / covered_weight;
        if (current > 0.0) w[r] *= target / current;
      }
    }
    report.iterations = iter + 1;
    // Per-marginal stop rule: every marginal within the tolerance of
    // its own floor.
    double max_err = 0.0;
    bool converged = true;
    for (size_t m = 0; m < marginals.size(); ++m) {
      MOSAIC_ASSIGN_OR_RETURN(double err, marginals[m].L1Error(sample, w));
      report.l1_error[m] = err;
      max_err = std::max(max_err, err);
      if (!(err <= options.tolerance + report.floor[m])) converged = false;
    }
    report.max_l1_error = max_err;
    if (converged) {
      report.converged = true;
      break;
    }
  }
  if (options.scale_to_population) {
    double avg_total = 0.0;
    for (const auto& m : marginals) avg_total += m.total();
    avg_total /= static_cast<double>(marginals.size());
    double w_total = 0.0;
    for (double x : w) w_total += x;
    if (w_total > 0.0) {
      double scale = avg_total / w_total;
      for (double& x : w) x *= scale;
    }
  }
  return report;
}

// IncrementalProportionalFit's warm-then-cold policy over ReferenceIpf.
Result<IpfReport> ReferenceIncremental(const Table& sample,
                                       const std::vector<Marginal>& marginals,
                                       const std::vector<double>& previous,
                                       double regress_threshold,
                                       std::vector<double>* weights,
                                       const IpfOptions& options) {
  std::vector<double> warm(previous);
  warm.resize(sample.num_rows(), 1.0);
  auto warm_result = ReferenceIpf(sample, marginals, &warm, options);
  size_t warm_iterations = 0;
  if (warm_result.ok()) {
    IpfReport report = *warm_result;
    report.warm_started = true;
    if (!(report.max_l1_error > regress_threshold)) {
      *weights = std::move(warm);
      return report;
    }
    warm_iterations = report.iterations;
  }
  std::vector<double> cold(sample.num_rows(), 1.0);
  MOSAIC_ASSIGN_OR_RETURN(IpfReport report,
                          ReferenceIpf(sample, marginals, &cold, options));
  report.warm_started = true;
  report.fell_back_to_cold = true;
  report.iterations += warm_iterations;
  *weights = std::move(cold);
  return report;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

std::vector<uint64_t> Bits(const std::vector<double>& xs) {
  std::vector<uint64_t> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(Bits(x));
  return out;
}

void ExpectSameFit(const Result<IpfReport>& got, const std::vector<double>& w,
                   const Result<IpfReport>& want,
                   const std::vector<double>& want_w) {
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->iterations, want->iterations);
  EXPECT_EQ(Bits(got->max_l1_error), Bits(want->max_l1_error));
  EXPECT_EQ(got->converged, want->converged);
  EXPECT_EQ(Bits(got->uncovered_target_mass),
            Bits(want->uncovered_target_mass));
  EXPECT_EQ(got->warm_started, want->warm_started);
  EXPECT_EQ(got->fell_back_to_cold, want->fell_back_to_cold);
  EXPECT_EQ(Bits(got->l1_error), Bits(want->l1_error));
  EXPECT_EQ(Bits(got->floor), Bits(want->floor));
  EXPECT_EQ(Bits(w), Bits(want_w));
}

// Small flights world: a biased sample plus marginals with an uncovered
// category, values outside the support, and a 2-D marginal.
class IpfKernelParity : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    data::FlightsOptions fo;
    fo.num_rows = 6000;
    population_ = data::GenerateFlights(fo, &rng);
    data::FlightsBiasOptions bo;
    bo.sample_fraction = 0.1;
    auto sample = data::DrawBiasedFlightsSample(population_, bo, &rng);
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    sample_ = std::move(sample).value();

    // VARCHAR marginal: every population carrier plus 'ZZ', which no
    // sample row carries (an uncovered cell).
    auto carrier = Marginal::FromData(population_, {"carrier"});
    ASSERT_TRUE(carrier.ok());
    std::vector<Value> cats = carrier->binning(0).categories();
    std::vector<double> counts = carrier->counts();
    cats.emplace_back("ZZ");
    counts.push_back(0.05 * carrier->total());
    auto with_zz = Marginal::FromCounts(
        {AttributeBinning::Categorical("carrier", cats)}, counts);
    ASSERT_TRUE(with_zz.ok());
    carrier_ = std::move(with_zz).value();

    // INT marginal over elapsed_time without its longest tenth of
    // values: the sample (biased toward long flights) has rows outside
    // its support, and short values the sample misses stay uncovered.
    auto elapsed = Marginal::FromData(population_, {"elapsed_time"});
    ASSERT_TRUE(elapsed.ok());
    const auto& all = elapsed->binning(0).categories();
    const size_t keep = all.size() - all.size() / 10;
    std::vector<Value> kept(all.begin(), all.begin() + keep);
    std::vector<double> kept_counts(elapsed->counts().begin(),
                                    elapsed->counts().begin() + keep);
    auto cut = Marginal::FromCounts(
        {AttributeBinning::Categorical("elapsed_time", kept)}, kept_counts);
    ASSERT_TRUE(cut.ok());
    elapsed_ = std::move(cut).value();

    auto joint = Marginal::FromData(population_, {"carrier", "taxi_out"});
    ASSERT_TRUE(joint.ok());
    joint_ = std::move(joint).value();
  }

  // The sample with `n` more population rows appended (an ingest).
  Table Extended(size_t n) const {
    Table out = sample_;
    for (size_t r = 0; r < n; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < population_.num_columns(); ++c) {
        row.push_back(population_.GetValue(r * 7, c));
      }
      EXPECT_TRUE(out.AppendRow(row).ok());
    }
    return out;
  }

  void ExpectColdParity(const std::vector<Marginal>& margs,
                        const IpfOptions& opts,
                        IpfReport* report_out = nullptr) {
    std::vector<double> w(sample_.num_rows(), 1.0);
    std::vector<double> ref_w = w;
    auto got = IterativeProportionalFit(sample_, margs, &w, opts);
    auto want = ReferenceIpf(sample_, margs, &ref_w, opts);
    ExpectSameFit(got, w, want, ref_w);
    if (report_out != nullptr && got.ok()) *report_out = *got;
  }

  Table population_;
  Table sample_;
  Marginal carrier_, elapsed_, joint_;
};

TEST_F(IpfKernelParity, FixtureHasTheEdgeCases) {
  auto carrier_cells = carrier_.CellIds(sample_);
  auto elapsed_cells = elapsed_.CellIds(sample_);
  ASSERT_TRUE(carrier_cells.ok() && elapsed_cells.ok());
  const auto zz = static_cast<int64_t>(carrier_.NumCells() - 1);
  EXPECT_EQ(std::count(carrier_cells->begin(), carrier_cells->end(), zz), 0);
  EXPECT_GT(std::count(elapsed_cells->begin(), elapsed_cells->end(), -1), 0);
  IpfReport report;
  ExpectColdParity({carrier_, elapsed_}, IpfOptions(), &report);
  EXPECT_GT(report.uncovered_target_mass, 0.0);
}

TEST_F(IpfKernelParity, ColdFitPlateausAtMaxIterations) {
  IpfOptions opts;
  opts.max_iterations = 40;
  opts.tolerance = 0.0;
  IpfReport report;
  ExpectColdParity({carrier_, elapsed_, joint_}, opts, &report);
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.iterations, 40u);
}

TEST_F(IpfKernelParity, ColdFitConvergesEarly) {
  IpfReport report;
  ExpectColdParity({carrier_}, IpfOptions(), &report);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.iterations, IpfOptions().max_iterations);
}

TEST_F(IpfKernelParity, PerMarginalFloorStopsEarly) {
  // elapsed_time in 20 equi-width bins over the whole population: the
  // sample covers every bin, so its floor is 0. Beside it carrier_,
  // whose 'ZZ' no sample row carries (and no row falls outside its
  // support): its error cannot fall below twice that uncovered mass.
  auto elapsed = Marginal::FromData(population_, {"elapsed_time"}, 20,
                                    /*weight_column=*/"",
                                    /*max_int_categories=*/0);
  ASSERT_TRUE(elapsed.ok());
  auto carrier_cells = carrier_.CellIds(sample_);
  ASSERT_TRUE(carrier_cells.ok());
  ASSERT_EQ(std::count(carrier_cells->begin(), carrier_cells->end(), -1), 0);
  const IpfOptions opts;
  IpfReport report;
  ExpectColdParity({*elapsed, carrier_}, opts, &report);
  ASSERT_EQ(report.floor.size(), 2u);
  ASSERT_EQ(report.l1_error.size(), 2u);
  EXPECT_EQ(report.floor[0], 0.0);
  EXPECT_GT(report.floor[1], 0.0);
  EXPECT_TRUE(report.converged);
  EXPECT_LE(report.iterations, 30u);
  for (size_t m = 0; m < 2; ++m) {
    EXPECT_NEAR(report.l1_error[m], report.floor[m], opts.tolerance) << m;
  }
  // The averaged rule judged the max error against twice the
  // uncovered mass averaged over marginals. Carrier's floor alone is
  // above that threshold, and no cycle's error gets below its floor
  // by more than rounding, so that rule could never fire: it ran the
  // whole cycle budget.
  const double averaged_threshold =
      opts.tolerance + 2.0 * report.uncovered_target_mass;
  EXPECT_GT(report.floor[1] - opts.tolerance, averaged_threshold);
  EXPECT_GT(*std::max_element(report.l1_error.begin(), report.l1_error.end()),
            averaged_threshold);
}

TEST_F(IpfKernelParity, UnscaledAndSeededWeights) {
  IpfOptions opts;
  opts.scale_to_population = false;
  opts.max_iterations = 25;
  std::vector<double> w(sample_.num_rows());
  for (size_t r = 0; r < w.size(); ++r) w[r] = 0.5 + 0.01 * (r % 97);
  std::vector<double> ref_w = w;
  std::vector<Marginal> margs = {elapsed_, joint_};
  auto got = IterativeProportionalFit(sample_, margs, &w, opts);
  auto want = ReferenceIpf(sample_, margs, &ref_w, opts);
  ExpectSameFit(got, w, want, ref_w);
}

TEST_F(IpfKernelParity, WarmRefitAfterAppendingRows) {
  std::vector<Marginal> margs = {carrier_, elapsed_};
  IpfOptions opts;
  opts.max_iterations = 60;
  std::vector<double> fitted(sample_.num_rows(), 1.0);
  auto first = IterativeProportionalFit(sample_, margs, &fitted, opts);
  ASSERT_TRUE(first.ok());
  Table grown = Extended(40);

  // Accepted warm fit (threshold as the ingest path sets it), then a
  // threshold no fit reaches (cold fallback).
  const double accept = 2.0 * first->max_l1_error + opts.tolerance;
  const double reject = 1e-300;
  for (const double threshold : {accept, reject}) {
    std::vector<double> w, ref_w;
    auto got =
        IncrementalProportionalFit(grown, margs, fitted, threshold, &w, opts);
    auto want =
        ReferenceIncremental(grown, margs, fitted, threshold, &ref_w, opts);
    ExpectSameFit(got, w, want, ref_w);
  }
  std::vector<double> w, ref_w;
  auto got = IncrementalProportionalFit(grown, margs, fitted, accept, &w, opts);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->fell_back_to_cold);
  got = IncrementalProportionalFit(grown, margs, fitted, reject, &w, opts);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->fell_back_to_cold);
}

}  // namespace
}  // namespace stats
}  // namespace mosaic
