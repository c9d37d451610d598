// Iterative Proportional Fitting (raking / Sinkhorn matrix scaling):
// Mosaic's SEMI-OPEN debiasing technique when the sampling mechanism
// is unknown (§4.1, inherited from Themis [42]; classic reference is
// Deming & Stephan 1940 [13]).
//
// Given a sample and a set of population marginals, IPF rescales the
// per-tuple weights so that the weighted sample reproduces every
// marginal: it cycles through the marginals and, for each cell,
// multiplies the weights of the sample tuples falling in that cell by
// target_mass / current_mass. With consistent marginals this
// converges to the maximum-entropy reweighting subject to the
// marginal constraints.
//
// Cells with positive target mass but *no* sample tuples cannot be
// fixed by reweighting — those are exactly the false negatives the
// paper attributes to SEMI-OPEN queries (§3.3); the report exposes the
// uncovered mass so callers can quantify it.
#ifndef MOSAIC_STATS_IPF_H_
#define MOSAIC_STATS_IPF_H_

#include <vector>

#include "common/status.h"
#include "stats/marginal.h"
#include "storage/table.h"

namespace mosaic {
namespace stats {

struct IpfOptions {
  size_t max_iterations = 200;  ///< full cycles through all marginals
  /// Converged when every marginal's normalized L1 error is within
  /// this of its own floor (IpfReport::floor: twice that marginal's
  /// uncovered target mass). The check runs after every cycle, with
  /// Marginal::L1Error's arithmetic over weight masses the last
  /// raking pass summed (Marginal::L1ErrorOfMasses).
  double tolerance = 1e-6;
  /// Scale the final weights so the total equals the (average)
  /// marginal total — i.e. the weighted sample represents the
  /// population size, not the sample size.
  bool scale_to_population = true;
};

struct IpfReport {
  size_t iterations = 0;
  double max_l1_error = 0.0;  ///< at exit, across all marginals
  /// Every marginal reached its floor (within the tolerance).
  bool converged = false;
  /// Fraction of target mass (averaged over marginals) living in
  /// cells with zero sample coverage: reweighting can never recover
  /// it (SEMI-OPEN false negatives). The stop rule uses each
  /// marginal's own share (`floor`), not this average.
  double uncovered_target_mass = 0.0;
  /// Per marginal, in the order given: the normalized L1 error at
  /// exit, and its floor, twice the marginal's own uncovered target
  /// mass — the least error reweighting can reach.
  std::vector<double> l1_error;
  std::vector<double> floor;
  /// Set by IncrementalProportionalFit: a warm-seeded attempt ran
  /// (the returned weights are cold-seeded anyway when
  /// fell_back_to_cold is also set).
  bool warm_started = false;
  /// Set when the warm-started fit regressed past the threshold and a
  /// cold full refit ran instead; iterations then counts both
  /// attempts.
  bool fell_back_to_cold = false;
};

/// Run IPF. `weights` must have one entry per sample row; it is used
/// as the starting point (the paper initializes weights to 1) and is
/// overwritten with the fitted weights. Rows outside a marginal's
/// support keep their weight for that marginal's update.
[[nodiscard]] Result<IpfReport> IterativeProportionalFit(
    const Table& sample, const std::vector<Marginal>& marginals,
    std::vector<double>* weights, const IpfOptions& options = {});

/// Incremental IPF for sample ingest: seed the fit from a previous
/// epoch's fitted weights (`previous_weights`, covering the first
/// rows of `sample`; newly ingested rows start at 1) instead of a
/// cold all-ones start. Near-fitted seeds converge in a fraction of
/// the cold cycle count. The warm fit is judged by its exit error
/// alone: when it fails, or exits with max_l1_error above
/// `regress_threshold`, the function falls back to a cold full refit.
/// Convergence is not the test — uncovered marginal mass can keep a
/// cold fit from converging too, and a warm fit plateauing at the
/// same error is no regression. `weights` receives the fitted weights.
[[nodiscard]] Result<IpfReport> IncrementalProportionalFit(
    const Table& sample, const std::vector<Marginal>& marginals,
    const std::vector<double>& previous_weights, double regress_threshold,
    std::vector<double>* weights, const IpfOptions& options = {});

}  // namespace stats
}  // namespace mosaic

#endif  // MOSAIC_STATS_IPF_H_
