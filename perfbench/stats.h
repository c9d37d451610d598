// The benchmark's own statistics: exact order-statistic quantiles over
// raw per-request samples, the tail percentile a sample count supports,
// medians over groups of consecutive samples, and failure accounting.
// No bucketing anywhere — every quantile is one of the recorded values.
// Header-only so perfbench_selftest can check it without linking the
// engine.
#ifndef MOSAIC_PERFBENCH_STATS_H_
#define MOSAIC_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mosaic {
namespace perfbench {

/// Nearest-rank quantile: the smallest sample with at least q * n
/// samples at or below it (q in (0, 1]; q <= 0 gives the minimum).
/// `sorted` must be ascending and non-empty.
inline double QuantileSorted(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  // Rounding guard: q * n lands a hair above an integer for q = 0.99,
  // n = 1000 in binary floating point.
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  size_t r = rank < 1 ? 1 : static_cast<size_t>(rank);
  return sorted[std::min(r, n) - 1];
}

inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return QuantileSorted(samples, q);
}

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Samples strictly above the nearest-rank q-quantile's position.
inline size_t SamplesBeyond(size_t n, double q) {
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  size_t r = rank < 1 ? 1 : static_cast<size_t>(rank);
  return r >= n ? 0 : n - r;
}

/// The tail percentile a run reports: the highest rung of the ladder
/// that still has at least `min_beyond` samples beyond it (p99 needs
/// 1000 samples, p95 needs 200, ...). Falls back to the median. The
/// ladder stops at p99: beyond it a single scheduler stall moves the
/// figure between runs.
struct TailChoice {
  double q = 0.5;
  size_t beyond = 0;
};

inline TailChoice ChooseTail(size_t n, size_t min_beyond = 10) {
  static const double kLadder[] = {0.99, 0.95, 0.9, 0.75};
  for (double q : kLadder) {
    size_t beyond = SamplesBeyond(n, q);
    if (beyond >= min_beyond) return {q, beyond};
  }
  return {0.5, SamplesBeyond(n, 0.5)};
}

/// Time-ordered samples are cut into groups of consecutive samples, and
/// a run reports the median over its groups, so a few seconds in which
/// the host ran badly move one group, not the figure. Groups hold at
/// least `min_per_group` samples (the p99 rung needs 1000) and there
/// are at most `max_groups`; fewer samples make one group.
inline size_t GroupCount(size_t n, size_t min_per_group = 1000,
                         size_t max_groups = 20) {
  return std::max<size_t>(1, std::min(n / min_per_group, max_groups));
}

/// Group g of `groups` near-equal runs of consecutive samples.
inline std::vector<double> Group(const std::vector<double>& samples,
                                 size_t groups, size_t g) {
  const size_t n = samples.size();
  return std::vector<double>(samples.begin() + g * n / groups,
                             samples.begin() + (g + 1) * n / groups);
}

/// Median over groups of each group's tail percentile, chosen from the
/// group's size. `choice` gets the percentile of the first group (all
/// groups differ in size by at most one sample).
inline double GroupedTail(const std::vector<double>& samples, size_t groups,
                          TailChoice* choice) {
  std::vector<double> tails;
  for (size_t g = 0; g < groups; ++g) {
    std::vector<double> part = Group(samples, groups, g);
    TailChoice c = ChooseTail(part.size());
    if (g == 0) *choice = c;
    tails.push_back(Quantile(std::move(part), c.q));
  }
  return Median(std::move(tails));
}

/// Median over groups of the group's completions per second of busy
/// time: samples / (sum of the samples' microseconds).
inline double GroupedRate(const std::vector<double>& us, size_t groups) {
  std::vector<double> rates;
  for (size_t g = 0; g < groups; ++g) {
    double busy_us = 0;
    const std::vector<double> part = Group(us, groups, g);
    for (double v : part) busy_us += v;
    if (busy_us > 0) {
      rates.push_back(static_cast<double>(part.size()) * 1e6 / busy_us);
    }
  }
  return Median(std::move(rates));
}

/// Statements attempted and failed; a statement fails when it errors or
/// when its answer fails verification. err_pct = 100 * failed /
/// attempted.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  double err_pct() const {
    return attempted == 0 ? 0.0
                          : 100.0 * static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
}  // namespace mosaic

#endif  // MOSAIC_PERFBENCH_STATS_H_
