// Microbenchmarks (google-benchmark) for the performance-critical
// primitives: IPF cycles, weighted aggregation, and the mixed encoder.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/encoder.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "stats/ipf.h"
#include "stats/marginal.h"

namespace mosaic {
namespace {

Table MakeCategoricalSample(size_t n, uint64_t seed) {
  Rng rng(seed);
  Schema s;
  (void)s.AddColumn({"a", DataType::kString});
  (void)s.AddColumn({"b", DataType::kString});
  Table t(s);
  const char* as[] = {"a0", "a1", "a2", "a3", "a4"};
  const char* bs[] = {"b0", "b1", "b2", "b3"};
  for (size_t i = 0; i < n; ++i) {
    (void)t.AppendRow({Value(as[rng.UniformInt(uint64_t{5})]),
                       Value(bs[rng.UniformInt(uint64_t{4})])});
  }
  return t;
}

void BM_IpfCycle(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Table sample = MakeCategoricalSample(n, 8);
  auto ma = *stats::Marginal::FromData(sample, {"a"});
  auto mb = *stats::Marginal::FromData(sample, {"b"});
  stats::IpfOptions opts;
  opts.max_iterations = 1;
  opts.tolerance = 0.0;
  for (auto _ : state) {
    std::vector<double> w(n, 1.0);
    benchmark::DoNotOptimize(
        *stats::IterativeProportionalFit(sample, {ma, mb}, &w, opts));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_IpfCycle)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_WeightedGroupBy(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Table t = MakeCategoricalSample(n, 9);
  Rng rng(10);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.Uniform(0.5, 2.0);
  Table with_w = t;
  (void)with_w.AddDoubleColumn("w", weights);
  auto stmt = std::move(sql::ParseStatement(
                            "SELECT a, COUNT(*) FROM t GROUP BY a"))
                  .value();
  exec::ExecOptions opts;
  opts.weight_column = "w";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        *exec::ExecuteSelect(with_w, stmt.As<sql::SelectStmt>(), opts));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_WeightedGroupBy)->Arg(10000)->Arg(100000);

void BM_FilterScan(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  Schema s;
  (void)s.AddColumn({"x", DataType::kInt64});
  Table t(s);
  for (size_t i = 0; i < n; ++i) {
    (void)t.AppendRow({Value(rng.UniformInt(int64_t{0}, int64_t{1000}))});
  }
  auto stmt = std::move(sql::ParseStatement(
                            "SELECT COUNT(*) FROM t WHERE x > 250 AND "
                            "x < 750"))
                  .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        *exec::ExecuteSelect(t, stmt.As<sql::SelectStmt>()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FilterScan)->Arg(10000)->Arg(100000);

void BM_EncoderEncode(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Table t = MakeCategoricalSample(n, 12);
  auto enc = *core::MixedEncoder::Fit(t, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(*enc.Encode(t));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_EncoderEncode)->Arg(1000)->Arg(10000);

void BM_MarginalSampleCells(benchmark::State& state) {
  Table t = MakeCategoricalSample(10000, 13);
  auto m = *stats::Marginal::FromData(t, {"a", "b"});
  Rng rng(14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.SampleCells(500, &rng));
  }
}
BENCHMARK(BM_MarginalSampleCells);

}  // namespace
}  // namespace mosaic

BENCHMARK_MAIN();
