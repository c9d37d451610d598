#include "research/metrics.h"

#include <algorithm>
#include <cmath>

namespace mosaic {
namespace stats {

[[nodiscard]] Result<double> KolmogorovSmirnov(const std::vector<double>& xs,
                                 const std::vector<double>& ys) {
  if (xs.empty() || ys.empty()) {
    return Status::InvalidArgument("KS requires non-empty samples");
  }
  std::vector<double> a = xs, b = ys;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double na = static_cast<double>(a.size());
  double nb = static_cast<double>(b.size());
  size_t i = 0, j = 0;
  double sup = 0.0;
  while (i < a.size() && j < b.size()) {
    double t = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= t) ++i;
    while (j < b.size() && b[j] <= t) ++j;
    sup = std::max(sup, std::fabs(static_cast<double>(i) / na -
                                  static_cast<double>(j) / nb));
  }
  return sup;
}

[[nodiscard]] Result<double> PearsonCorrelation(const std::vector<double>& xs,
                                  const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("correlation requires equal sizes");
  }
  if (xs.size() < 2) {
    return Status::InvalidArgument("correlation requires >= 2 points");
  }
  double n = static_cast<double>(xs.size());
  double mx = 0.0, my = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= n;
  my /= n;
  double cov = 0.0, vx = 0.0, vy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    double dx = xs[i] - mx, dy = ys[i] - my;
    cov += dx * dy;
    vx += dx * dx;
    vy += dy * dy;
  }
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

[[nodiscard]] Result<double> ChiSquare(const std::vector<double>& observed,
                         const std::vector<double>& expected) {
  if (observed.size() != expected.size() || observed.empty()) {
    return Status::InvalidArgument("chi-square requires equal-size inputs");
  }
  double obs_total = 0.0, exp_total = 0.0;
  for (size_t i = 0; i < observed.size(); ++i) {
    if (observed[i] < 0.0 || expected[i] < 0.0) {
      return Status::InvalidArgument("counts must be non-negative");
    }
    obs_total += observed[i];
    exp_total += expected[i];
  }
  if (exp_total <= 0.0) {
    return Status::InvalidArgument("expected counts are all zero");
  }
  double scale = obs_total / exp_total;
  double stat = 0.0;
  for (size_t i = 0; i < observed.size(); ++i) {
    double e = expected[i] * scale;
    if (e <= 0.0) {
      if (observed[i] > 0.0) {
        return Status::InvalidArgument(
            "observed mass in a zero-expectation cell");
      }
      continue;
    }
    double d = observed[i] - e;
    stat += d * d / e;
  }
  return stat;
}

[[nodiscard]] Result<double> JensenShannon(const std::vector<double>& p,
                             const std::vector<double>& q) {
  if (p.size() != q.size() || p.empty()) {
    return Status::InvalidArgument("JS requires equal-size inputs");
  }
  double tp = 0.0, tq = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] < 0.0 || q[i] < 0.0) {
      return Status::InvalidArgument("counts must be non-negative");
    }
    tp += p[i];
    tq += q[i];
  }
  if (tp <= 0.0 || tq <= 0.0) {
    return Status::InvalidArgument("distributions have zero mass");
  }
  auto kl_to_mix = [&](double a, double ta, double b, double tb) {
    double pa = a / ta;
    if (pa <= 0.0) return 0.0;
    double m = 0.5 * (pa + b / tb);
    return pa * std::log2(pa / m);
  };
  double js = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    js += 0.5 * kl_to_mix(p[i], tp, q[i], tq);
    js += 0.5 * kl_to_mix(q[i], tq, p[i], tp);
  }
  return js;
}

}  // namespace stats
}  // namespace mosaic
