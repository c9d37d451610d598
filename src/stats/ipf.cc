#include "stats/ipf.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mosaic {
namespace stats {

[[nodiscard]] Result<IpfReport> IterativeProportionalFit(
    const Table& sample, const std::vector<Marginal>& marginals,
    std::vector<double>* weights, const IpfOptions& options) {
  if (weights == nullptr || weights->size() != sample.num_rows()) {
    return Status::InvalidArgument("weights must match sample row count");
  }
  if (marginals.empty()) {
    return Status::InvalidArgument("IPF needs at least one marginal");
  }
  if (sample.num_rows() == 0) {
    return Status::InvalidArgument("IPF over empty sample");
  }
  for (double w : *weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      return Status::InvalidArgument("initial weights must be >= 0");
    }
  }

  // Precompute per-marginal cell ids for every row.
  std::vector<std::vector<int64_t>> cells(marginals.size());
  for (size_t m = 0; m < marginals.size(); ++m) {
    MOSAIC_ASSIGN_OR_RETURN(cells[m], marginals[m].CellIds(sample));
  }

  // Uncovered target mass: cells with target > 0 but no sample rows.
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
    uncovered += miss / marginals[m].total();
  }
  uncovered /= static_cast<double>(marginals.size());

  IpfReport report;
  report.uncovered_target_mass = uncovered;

  // The loop below is an array kernel over `cells`: no row is binned
  // again until the next fit.
  std::vector<double>& w = *weights;
  std::vector<double> cell_mass;
  std::vector<double> factor;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    // One raking cycle: scale to each marginal in turn.
    for (size_t m = 0; m < marginals.size(); ++m) {
      const Marginal& marg = marginals[m];
      const std::vector<int64_t>& cell = cells[m];
      cell_mass.assign(marg.NumCells(), 0.0);
      double covered_weight = 0.0;
      for (size_t r = 0; r < w.size(); ++r) {
        if (cell[r] >= 0) {
          cell_mass[static_cast<size_t>(cell[r])] += w[r];
          covered_weight += w[r];
        }
      }
      if (covered_weight <= 0.0) {
        return Status::ExecutionError(
            "IPF: sample has zero weight in the support of marginal over (" +
            marg.binning(0).attr() + ")");
      }
      // Target restricted to covered cells, renormalized so each
      // raking step matches the achievable distribution.
      double covered_target = 0.0;
      for (size_t c = 0; c < marg.NumCells(); ++c) {
        if (cell_mass[c] > 0.0) covered_target += marg.count(c);
      }
      if (covered_target <= 0.0) {
        return Status::ExecutionError(
            "IPF: no overlap between sample and marginal support");
      }
      // One raking factor per cell; 1.0 leaves the rows of an empty
      // cell (or one whose share underflows) untouched.
      factor.assign(marg.NumCells(), 1.0);
      for (size_t c = 0; c < marg.NumCells(); ++c) {
        if (cell_mass[c] <= 0.0) continue;
        double target = marg.count(c) / covered_target;
        double current = cell_mass[c] / covered_weight;
        if (current > 0.0) factor[c] = target / current;
      }
      for (size_t r = 0; r < w.size(); ++r) {
        if (cell[r] >= 0) w[r] *= factor[static_cast<size_t>(cell[r])];
      }
    }
    report.iterations = iter + 1;

    // Convergence check on the normalized L1 error of every marginal,
    // judged against the tolerance widened by the uncovered mass that
    // reweighting can never fix.
    double max_err = 0.0;
    for (size_t m = 0; m < marginals.size(); ++m) {
      max_err = std::max(max_err, marginals[m].L1ErrorOfCells(cells[m], w));
    }
    report.max_l1_error = max_err;
    if (max_err <= options.tolerance + 2.0 * uncovered) {
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

[[nodiscard]] Result<IpfReport> IncrementalProportionalFit(
    const Table& sample, const std::vector<Marginal>& marginals,
    const std::vector<double>& previous_weights,
    std::vector<double>* weights, const IpfOptions& options) {
  if (weights == nullptr) {
    return Status::InvalidArgument("weights must be non-null");
  }
  if (previous_weights.size() > sample.num_rows()) {
    return Status::InvalidArgument(
        "previous weights cover more rows than the sample");
  }
  // Seed: the previous epoch's fitted weights, unit weight for the
  // newly ingested tail. IPF's fixpoint has the form w_i = seed_i *
  // prod(cell factors), so a near-fitted seed leaves only the factors
  // the new rows perturbed to be re-raked.
  std::vector<double> warm(previous_weights);
  warm.resize(sample.num_rows(), 1.0);
  IpfOptions warm_opts = options;
  if (options.incremental_max_iterations > 0) {
    warm_opts.max_iterations = options.incremental_max_iterations;
  }
  auto warm_result =
      IterativeProportionalFit(sample, marginals, &warm, warm_opts);
  size_t warm_iterations = 0;
  if (warm_result.ok()) {
    IpfReport report = warm_result.value();
    report.warm_started = true;
    // With a threshold the warm fit is judged by its exit error alone
    // — uncovered marginal mass can put a floor under the achievable
    // error that keeps `converged` false for cold fits too, and a
    // warm fit plateauing at the same floor is no regression. Without
    // one, fall back whenever the warm fit failed to converge.
    bool regressed = options.incremental_regress_threshold > 0.0
                         ? report.max_l1_error >
                               options.incremental_regress_threshold
                         : !report.converged;
    if (!regressed) {
      *weights = std::move(warm);
      return report;
    }
    warm_iterations = report.iterations;
  }
  // Warm attempt regressed (a seed can sit in a poorly covered corner
  // of the marginal polytope) or errored outright (e.g. the seed has
  // zero mass inside a marginal's support): cold full refit.
  std::vector<double> cold(sample.num_rows(), 1.0);
  MOSAIC_ASSIGN_OR_RETURN(
      IpfReport cold_report,
      IterativeProportionalFit(sample, marginals, &cold, options));
  cold_report.warm_started = true;
  cold_report.fell_back_to_cold = true;
  cold_report.iterations += warm_iterations;
  *weights = std::move(cold);
  return cold_report;
}

}  // namespace stats
}  // namespace mosaic
