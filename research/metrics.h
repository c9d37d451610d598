// Distribution-comparison metrics used by the evaluation harnesses
// and tests to judge generated data against ground truth, beyond the
// Wasserstein/L1 measures the training itself optimizes.
#ifndef MOSAIC_RESEARCH_METRICS_H_
#define MOSAIC_RESEARCH_METRICS_H_

#include <vector>

#include "common/status.h"

namespace mosaic {
namespace stats {

/// Two-sample Kolmogorov–Smirnov statistic: sup_t |F_P(t) - F_Q(t)|
/// over the empirical CDFs. Unlike W1 it is scale-free, so it
/// complements the transport metrics on heavy-tailed attributes.
[[nodiscard]] Result<double> KolmogorovSmirnov(const std::vector<double>& xs,
                                 const std::vector<double>& ys);

/// Pearson correlation coefficient; 0 when either side is constant.
[[nodiscard]] Result<double> PearsonCorrelation(const std::vector<double>& xs,
                                  const std::vector<double>& ys);

/// Chi-square statistic of observed vs expected counts (cells with
/// zero expected count must also be zero observed, else
/// InvalidArgument). Expected counts are rescaled to the observed
/// total first, so the two inputs may be on different scales.
[[nodiscard]] Result<double> ChiSquare(const std::vector<double>& observed,
                         const std::vector<double>& expected);

/// Jensen–Shannon divergence (base-2, in [0,1]) between two
/// non-negative count vectors of equal length, normalized internally.
[[nodiscard]] Result<double> JensenShannon(const std::vector<double>& p,
                             const std::vector<double>& q);

}  // namespace stats
}  // namespace mosaic

#endif  // MOSAIC_RESEARCH_METRICS_H_
