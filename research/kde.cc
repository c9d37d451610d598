#include "research/kde.h"

#include <algorithm>
#include <cmath>

namespace mosaic {
namespace stats {

Result<MixedKde> MixedKde::Fit(const Table& data,
                               const std::vector<double>& weights,
                               const KdeOptions& options) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("cannot fit KDE to empty data");
  }
  if (weights.size() != data.num_rows()) {
    return Status::InvalidArgument("weights size mismatch");
  }
  MixedKde kde;
  kde.options_ = options;
  kde.data_ = data;
  kde.cumulative_weights_.resize(weights.size());
  double total = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] < 0.0 || !std::isfinite(weights[i])) {
      return Status::InvalidArgument("weights must be non-negative finite");
    }
    total += weights[i];
    kde.cumulative_weights_[i] = total;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("weights have zero total");
  }
  // Per-column Silverman bandwidths from the weighted moments.
  kde.bandwidths_.assign(data.num_columns(), 0.0);
  double n_eff = total * total;
  {
    // Kish effective sample size: (Σw)² / Σw².
    double sum_sq = 0.0;
    for (double w : weights) sum_sq += w * w;
    n_eff = sum_sq > 0.0 ? (total * total) / sum_sq
                         : static_cast<double>(weights.size());
  }
  for (size_t c = 0; c < data.num_columns(); ++c) {
    const Column& col = data.column(c);
    if (col.type() == DataType::kString) continue;
    double mean = 0.0;
    for (size_t r = 0; r < col.size(); ++r) {
      mean += weights[r] * *col.GetDouble(r);
    }
    mean /= total;
    double var = 0.0;
    for (size_t r = 0; r < col.size(); ++r) {
      double d = *col.GetDouble(r) - mean;
      var += weights[r] * d * d;
    }
    var /= total;
    double sigma = std::sqrt(var);
    kde.bandwidths_[c] = options.bandwidth_scale * 1.06 * sigma *
                         std::pow(std::max(n_eff, 2.0), -0.2);
  }
  return kde;
}

Result<Table> MixedKde::Sample(size_t n, Rng* rng) const {
  Table out(data_.schema());
  out.Reserve(n);
  double total = cumulative_weights_.back();
  std::vector<Value> row(data_.num_columns());
  for (size_t i = 0; i < n; ++i) {
    // Weighted seed-row draw by inverse CDF.
    double target = rng->Uniform() * total;
    size_t seed = static_cast<size_t>(
        std::lower_bound(cumulative_weights_.begin(),
                         cumulative_weights_.end(), target) -
        cumulative_weights_.begin());
    seed = std::min(seed, data_.num_rows() - 1);
    for (size_t c = 0; c < data_.num_columns(); ++c) {
      const Column& col = data_.column(c);
      if (col.type() == DataType::kString) {
        if (rng->Bernoulli(options_.categorical_lambda)) {
          // Aitchison–Aitken escape: uniform over the observed domain.
          size_t k = rng->UniformInt(
              static_cast<uint64_t>(col.dictionary().size()));
          row[c] = Value(col.dictionary().Decode(static_cast<int32_t>(k)));
        } else {
          row[c] = col.GetValue(seed);
        }
      } else {
        double x = *col.GetDouble(seed) +
                   rng->Gaussian(0.0, bandwidths_[c]);
        if (col.type() == DataType::kInt64) {
          row[c] = Value(static_cast<int64_t>(std::llround(x)));
        } else if (col.type() == DataType::kBool) {
          row[c] = col.GetValue(seed);  // no meaningful jitter
        } else {
          row[c] = Value(x);
        }
      }
    }
    MOSAIC_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

}  // namespace stats
}  // namespace mosaic
