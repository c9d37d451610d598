// Weighted mixed-data kernel density estimator, the nonparametric
// alternative the paper's §7 ("Open World Density Estimation") asks
// about: "it is an open question whether alternative density
// estimation techniques, like nonparametric kernel density estimation
// [31], will be more accurate or efficient."
//
// The estimator follows Li & Racine's mixed-data construction [31] in
// sampling form: a generated tuple picks a seed row with probability
// proportional to its weight, then perturbs each numeric attribute
// with a Gaussian kernel (per-attribute Silverman bandwidth) and
// resamples each categorical attribute with an Aitchison–Aitken-style
// kernel (keep with probability 1-λ_c, else uniform over the domain).
#ifndef MOSAIC_RESEARCH_KDE_H_
#define MOSAIC_RESEARCH_KDE_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "storage/table.h"

namespace mosaic {
namespace stats {

struct KdeOptions {
  /// Multiplier on the Silverman rule-of-thumb bandwidth
  /// h = 1.06 σ n^{-1/5} for numeric attributes.
  double bandwidth_scale = 1.0;
  /// Categorical kernel smoothing: probability of replacing a seed
  /// tuple's categorical value with a uniform draw from the domain.
  double categorical_lambda = 0.02;
};

/// Weighted mixed-data KDE over a table; Sample() draws synthetic
/// tuples from the smoothed distribution.
class MixedKde {
 public:
  /// Fit to (weighted) data; weights must be non-negative with
  /// positive total. Numeric bandwidths use the weighted standard
  /// deviation.
  [[nodiscard]] static Result<MixedKde> Fit(const Table& data,
                              const std::vector<double>& weights,
                              const KdeOptions& options = {});

  /// Draw n tuples with the source schema. Integer attributes are
  /// rounded after perturbation.
  [[nodiscard]] Result<Table> Sample(size_t n, Rng* rng) const;

  /// Per-numeric-attribute bandwidths (diagnostics / tests).
  const std::vector<double>& bandwidths() const { return bandwidths_; }

 private:
  Table data_;
  std::vector<double> cumulative_weights_;
  std::vector<double> bandwidths_;  ///< 0 for categorical columns
  KdeOptions options_;
};

}  // namespace stats
}  // namespace mosaic

#endif  // MOSAIC_RESEARCH_KDE_H_
