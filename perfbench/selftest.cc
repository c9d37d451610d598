// Self-tests for the benchmark's own statistics (stats.h): exact
// order-statistic quantiles, tail-percentile selection from the sample
// count, medians over groups of consecutive samples, and err_pct
// accounting. perfbench/run.py runs this before every
// benchmark run; `ctest` in the perfbench build directory runs it too.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

using mosaic::perfbench::ChooseTail;
using mosaic::perfbench::GroupCount;
using mosaic::perfbench::GroupedRate;
using mosaic::perfbench::GroupedTail;
using mosaic::perfbench::TailChoice;
using mosaic::perfbench::Median;
using mosaic::perfbench::Quantile;
using mosaic::perfbench::SamplesBeyond;
using mosaic::perfbench::Tally;

void QuantilesAreOrderStatistics() {
  // 1..100 shuffled: the nearest-rank q-quantile is exactly 100 * q.
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back((i * 37) % 100 + 1);
  EXPECT(Quantile(v, 0.5) == 50);
  EXPECT(Quantile(v, 0.99) == 99);
  EXPECT(Quantile(v, 0.95) == 95);
  EXPECT(Quantile(v, 1.0) == 100);
  EXPECT(Quantile(v, 0.0) == 1);
  EXPECT(Quantile(v, 0.001) == 1);
  // Every answer is one of the samples, never an interpolation.
  EXPECT(Median({1.0, 2.0}) == 1.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({7.5}) == 7.5);
  EXPECT(Quantile({}, 0.5) == 0.0);
  // 0.99 * 1000 is not exactly 990 in binary floating point; the rank
  // must still be 990, not 991.
  std::vector<double> k(1000);
  for (int i = 0; i < 1000; ++i) k[i] = i + 1;
  EXPECT(Quantile(k, 0.99) == 990);
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
}

void TailFollowsSampleCount() {
  EXPECT(ChooseTail(100000).q == 0.99);  // capped at p99
  EXPECT(ChooseTail(1000).q == 0.99);
  EXPECT(ChooseTail(1000).beyond == 10);
  EXPECT(ChooseTail(999).q == 0.95);
  EXPECT(ChooseTail(200).q == 0.95);
  EXPECT(ChooseTail(200).beyond == 10);
  EXPECT(ChooseTail(199).q == 0.9);
  EXPECT(ChooseTail(100).q == 0.9);
  EXPECT(ChooseTail(40).q == 0.75);
  EXPECT(ChooseTail(39).q == 0.5);
  EXPECT(ChooseTail(1).q == 0.5);
  EXPECT(ChooseTail(1).beyond == 0);
}

void GroupsTakeMedians() {
  EXPECT(GroupCount(999) == 1);
  EXPECT(GroupCount(2000) == 2);
  EXPECT(GroupCount(1000000) == 20);  // capped
  // Four groups of 100; one group slowed tenfold moves no median.
  std::vector<double> us;
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 100; ++i) us.push_back((g == 2 ? 10.0 : 1.0) * (i + 1));
  }
  TailChoice c;
  // Each group of 100 supports p90 (10 beyond); the slowed group's p90
  // is 900, the others' 90, and the median of {90, 90, 900, 90} is 90.
  EXPECT(GroupedTail(us, 4, &c) == 90);
  EXPECT(c.q == 0.9 && c.beyond == 10);
  // Busy time per group is 5050 us (50500 in the slowed one), so the
  // rates are 100 / 5050e-6 s three times and one tenth of that.
  EXPECT(std::fabs(GroupedRate(us, 4) - 100 / 5050e-6) < 1e-6);
  EXPECT(GroupedRate({}, 1) == 0.0);
}

void ErrPctCountsEveryFailure() {
  Tally t;
  EXPECT(t.err_pct() == 0.0);
  t.Add(true);
  t.Add(true);
  t.Add(false);
  t.Add(true);
  EXPECT(t.attempted == 4 && t.failed == 1);
  EXPECT(t.err_pct() == 25.0);
  Tally other;
  other.Add(false);
  t.Merge(other);
  EXPECT(t.attempted == 5 && t.failed == 2);
  EXPECT(std::fabs(t.err_pct() - 40.0) < 1e-12);
}

}  // namespace

int main() {
  QuantilesAreOrderStatistics();
  TailFollowsSampleCount();
  GroupsTakeMedians();
  ErrPctCountsEveryFailure();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
