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
  // Marginal m's L1 error can never fall below twice its own share
  // u_m: the uncovered cells miss u_m, and the covered cells, which
  // hold all the weight, overshoot their targets by u_m in total. That
  // is the marginal's floor.
  IpfReport report;
  report.l1_error.assign(marginals.size(), 0.0);
  report.floor.assign(marginals.size(), 0.0);
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
    const double share = miss / marginals[m].total();
    report.floor[m] = 2.0 * share;
    uncovered += share;
  }
  report.uncovered_target_mass =
      uncovered / static_cast<double>(marginals.size());

  // The loop below is an array kernel over `cells`: no row is binned
  // again until the next fit. Each raking step is one pass over the
  // rows, and the weight sums the next step (or the convergence check)
  // needs are taken inside the pass that produced the weights: each
  // new w[r] is added in row order from 0.0, the same operations in
  // the same order as a separate pass, so fusing keeps every bit.
  // Per marginal: the current weight of each cell, of the rows inside
  // its support (`covered`) and of the rows outside it (`outside`).
  const size_t num_marginals = marginals.size();
  std::vector<std::vector<double>> cell_mass(num_marginals);
  for (size_t m = 0; m < num_marginals; ++m) {
    cell_mass[m].resize(marginals[m].NumCells());
  }
  std::vector<double> covered(num_marginals, 0.0);
  std::vector<double> outside(num_marginals, 0.0);
  double total = 0.0;
  std::vector<double>& w = *weights;
  const size_t n = w.size();
  // The first step of the first cycle rakes the starting weights.
  for (size_t r = 0; r < n; ++r) {
    const int64_t c = cells[0][r];
    if (c >= 0) {
      cell_mass[0][static_cast<size_t>(c)] += w[r];
      covered[0] += w[r];
    }
  }
  std::vector<double> factor;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    // One raking cycle: scale to each marginal in turn.
    for (size_t m = 0; m < num_marginals; ++m) {
      const Marginal& marg = marginals[m];
      const std::vector<double>& mass = cell_mass[m];
      const double covered_weight = covered[m];
      if (covered_weight <= 0.0) {
        return Status::ExecutionError(
            "IPF: sample has zero weight in the support of marginal over (" +
            marg.binning(0).attr() + ")");
      }
      // Target restricted to covered cells, renormalized so each
      // raking step matches the achievable distribution.
      double covered_target = 0.0;
      for (size_t c = 0; c < marg.NumCells(); ++c) {
        if (mass[c] > 0.0) covered_target += marg.count(c);
      }
      if (covered_target <= 0.0) {
        return Status::ExecutionError(
            "IPF: no overlap between sample and marginal support");
      }
      // One raking factor per cell; 1.0 leaves the rows of an empty
      // cell (or one whose share underflows) untouched.
      factor.assign(marg.NumCells(), 1.0);
      for (size_t c = 0; c < marg.NumCells(); ++c) {
        if (mass[c] <= 0.0) continue;
        double target = marg.count(c) / covered_target;
        double current = mass[c] / covered_weight;
        if (current > 0.0) factor[c] = target / current;
      }
      // The serial sums run in locals, not through memory, so each
      // pass is bound by one add chain rather than a store-load chain.
      const int64_t* cell = cells[m].data();
      if (m + 1 < num_marginals) {
        // Rake by marginal m, summing marginal m+1's cell masses and
        // covered weight for the next step.
        const int64_t* next_cell = cells[m + 1].data();
        double* next_mass = cell_mass[m + 1].data();
        std::fill(cell_mass[m + 1].begin(), cell_mass[m + 1].end(), 0.0);
        double next_covered = 0.0;
        for (size_t r = 0; r < n; ++r) {
          double x = w[r];
          if (cell[r] >= 0) {
            x *= factor[static_cast<size_t>(cell[r])];
            w[r] = x;
          }
          if (next_cell[r] >= 0) {
            next_mass[static_cast<size_t>(next_cell[r])] += x;
            next_covered += x;
          }
        }
        covered[m + 1] = next_covered;
      } else {
        // Last step: rake, summing every marginal's cell masses and
        // out-of-support weight and the total, which the convergence
        // check reads, and marginal 0's covered weight, which the next
        // cycle's first step reads.
        for (size_t k = 0; k < num_marginals; ++k) {
          std::fill(cell_mass[k].begin(), cell_mass[k].end(), 0.0);
          outside[k] = 0.0;
        }
        const int64_t* first_cell = cells[0].data();
        double* first_mass = cell_mass[0].data();
        double first_covered = 0.0;
        double first_outside = 0.0;
        double sum = 0.0;
        for (size_t r = 0; r < n; ++r) {
          double x = w[r];
          if (cell[r] >= 0) {
            x *= factor[static_cast<size_t>(cell[r])];
            w[r] = x;
          }
          if (first_cell[r] >= 0) {
            first_mass[static_cast<size_t>(first_cell[r])] += x;
            first_covered += x;
          } else {
            first_outside += x;
          }
          for (size_t k = 1; k < num_marginals; ++k) {
            const int64_t c = cells[k][r];
            if (c >= 0) {
              cell_mass[k][static_cast<size_t>(c)] += x;
            } else {
              outside[k] += x;
            }
          }
          sum += x;
        }
        covered[0] = first_covered;
        outside[0] = first_outside;
        total = sum;
      }
    }
    report.iterations = iter + 1;

    // Converged when every marginal's normalized L1 error is within
    // the tolerance of its own floor: the uncovered mass reweighting
    // can never fix.
    double max_err = 0.0;
    bool converged = true;
    for (size_t m = 0; m < num_marginals; ++m) {
      const double err =
          marginals[m].L1ErrorOfMasses(cell_mass[m], total, outside[m]);
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

[[nodiscard]] Result<IpfReport> IncrementalProportionalFit(
    const Table& sample, const std::vector<Marginal>& marginals,
    const std::vector<double>& previous_weights, double regress_threshold,
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
  auto warm_result =
      IterativeProportionalFit(sample, marginals, &warm, options);
  size_t warm_iterations = 0;
  if (warm_result.ok()) {
    IpfReport report = warm_result.value();
    report.warm_started = true;
    const bool regressed = report.max_l1_error > regress_threshold;
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
