// Versioned-weight benchmarks: what the copy-on-write epoch store and
// incremental IPF buy.
//
//   1. Refit latencies at the stats layer: cold IPF on n rows, then —
//      after ingesting a small batch — a warm-started incremental fit
//      vs. a cold refit of the grown sample (iteration counts show
//      where the win comes from).
//   2. Engine no-op refits: a SEMI-OPEN refit whose fit signature
//      matches the current epoch costs neither IPF cycles nor an
//      epoch swap.
//   3. Reader throughput through the query service while a writer
//      hammers SEMI-OPEN refits: readers run under the shared lock
//      against pinned epochs, so throughput no longer drops to zero
//      for the duration of every refit.
//
// Emits BENCH_weights.json into the working directory.
// MOSAIC_BENCH_FULL=1 scales the sample up (see bench_util.h).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/database.h"
#include "service/query_service.h"
#include "stats/ipf.h"
#include "stats/marginal.h"

namespace mosaic {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr size_t kNumRegions = 8;
constexpr size_t kNumGroups = 6;

std::string RegionName(size_t i) { return "region" + std::to_string(i); }
std::string GroupName(size_t i) { return "group" + std::to_string(i); }

/// A biased categorical sample: region/group frequencies drift away
/// from the population targets, so IPF has real raking to do. Every
/// cell keeps nonzero mass — the fit converges.
Table MakeBiasedSample(size_t rows, uint64_t seed) {
  Schema schema;
  Check(schema.AddColumn({"region", DataType::kString}), "schema");
  Check(schema.AddColumn({"grp", DataType::kString}), "schema");
  Table t(schema);
  t.Reserve(rows);
  Rng rng(seed);
  std::vector<double> region_bias(kNumRegions), group_bias(kNumGroups);
  for (size_t i = 0; i < kNumRegions; ++i) {
    region_bias[i] = 1.0 + 0.35 * static_cast<double>(i);
  }
  for (size_t i = 0; i < kNumGroups; ++i) {
    group_bias[i] = 1.0 + 0.5 * static_cast<double>(i % 3);
  }
  for (size_t r = 0; r < rows; ++r) {
    size_t region = rng.Categorical(region_bias);
    size_t group = rng.Categorical(group_bias);
    Check(t.AppendRow({Value(RegionName(region)), Value(GroupName(group))}),
          "append");
  }
  return t;
}

/// Population marginals: uniform targets over regions and groups.
std::vector<stats::Marginal> MakeMarginals(double population_size) {
  auto make = [&](const std::string& attr, size_t cells,
                  const std::string& prefix) {
    std::vector<Value> cats;
    std::vector<double> counts;
    for (size_t i = 0; i < cells; ++i) {
      cats.emplace_back(prefix + std::to_string(i));
      counts.push_back(population_size / static_cast<double>(cells));
    }
    return Unwrap(stats::Marginal::FromCounts(
                      {stats::AttributeBinning::Categorical(attr, cats)},
                      counts),
                  "marginal");
  };
  std::vector<stats::Marginal> out;
  out.push_back(make("region", kNumRegions, "region"));
  out.push_back(make("grp", kNumGroups, "group"));
  return out;
}

/// Engine + service world over the same biased data, built through
/// the SQL/programmatic surface so SEMI-OPEN queries work end to end.
void SetUpWorld(core::Database* db, size_t rows, double population_size) {
  auto ok = [db](const std::string& sql) {
    Check(db->Execute(sql).status(), sql.c_str());
  };
  ok("CREATE GLOBAL POPULATION People (region VARCHAR, grp VARCHAR)");
  // Metadata via aux tables, uniform targets as in MakeMarginals.
  ok("CREATE TABLE RegionReport (region VARCHAR, cnt DOUBLE)");
  ok("CREATE TABLE GroupReport (grp VARCHAR, cnt DOUBLE)");
  for (size_t i = 0; i < kNumRegions; ++i) {
    ok("INSERT INTO RegionReport VALUES ('" + RegionName(i) + "', " +
       std::to_string(population_size / kNumRegions) + ")");
  }
  for (size_t i = 0; i < kNumGroups; ++i) {
    ok("INSERT INTO GroupReport VALUES ('" + GroupName(i) + "', " +
       std::to_string(population_size / kNumGroups) + ")");
  }
  ok("CREATE METADATA People_M1 AS (SELECT region, cnt FROM RegionReport)");
  ok("CREATE METADATA People_M2 AS (SELECT grp, cnt FROM GroupReport)");
  ok("CREATE SAMPLE Panel AS (SELECT * FROM People)");
  Check(db->IngestSample("Panel", MakeBiasedSample(rows, /*seed=*/42)),
        "ingest");
}

struct FitNumbers {
  double cold_ms = 0.0;
  size_t cold_iterations = 0;
  double incremental_ms = 0.0;
  size_t incremental_iterations = 0;
  bool incremental_fell_back = false;
  double cold_after_ingest_ms = 0.0;
  size_t cold_after_ingest_iterations = 0;
};

FitNumbers BenchStatsLayer(size_t rows, size_t ingest_rows,
                           double population_size) {
  FitNumbers out;
  Table sample = MakeBiasedSample(rows, /*seed=*/42);
  std::vector<stats::Marginal> marginals = MakeMarginals(population_size);

  std::vector<double> fitted(rows, 1.0);
  auto start = Clock::now();
  auto cold = Unwrap(
      stats::IterativeProportionalFit(sample, marginals, &fitted),
      "cold fit");
  out.cold_ms = MsSince(start);
  out.cold_iterations = cold.iterations;

  // Grow the sample (a differently seeded batch, same bias family).
  Table batch = MakeBiasedSample(ingest_rows, /*seed=*/1042);
  Table grown = sample;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    Check(grown.AppendRow(batch.GetRow(r)), "grow");
  }

  // The regress threshold the ingest path sets: twice the outgoing
  // fit's error, plus the tolerance.
  const double threshold =
      2.0 * cold.max_l1_error + stats::IpfOptions().tolerance;
  std::vector<double> warm_weights;
  start = Clock::now();
  auto warm = Unwrap(stats::IncrementalProportionalFit(
                         grown, marginals, fitted, threshold, &warm_weights),
                     "incremental fit");
  out.incremental_ms = MsSince(start);
  out.incremental_iterations = warm.iterations;
  out.incremental_fell_back = warm.fell_back_to_cold;

  std::vector<double> cold_weights(grown.num_rows(), 1.0);
  start = Clock::now();
  auto cold2 = Unwrap(
      stats::IterativeProportionalFit(grown, marginals, &cold_weights),
      "cold refit");
  out.cold_after_ingest_ms = MsSince(start);
  out.cold_after_ingest_iterations = cold2.iterations;
  return out;
}

struct EngineNumbers {
  double first_refit_ms = 0.0;
  double noop_refit_ms = 0.0;
  uint64_t refits_skipped = 0;
  uint64_t refits_incremental = 0;
};

EngineNumbers BenchEngineLayer(size_t rows, size_t ingest_rows,
                               double population_size) {
  EngineNumbers out;
  core::Database db;
  SetUpWorld(&db, rows, population_size);

  auto start = Clock::now();
  Check(db.ReweightForPopulation("People").status(), "refit");
  out.first_refit_ms = MsSince(start);

  start = Clock::now();
  Check(db.ReweightForPopulation("People").status(), "noop refit");
  out.noop_refit_ms = MsSince(start);

  // Incremental ingest keeps the epoch fitted.
  Check(db.IngestSample("Panel", MakeBiasedSample(ingest_rows, 1042)),
        "ingest");
  Check(db.Execute("SELECT SEMI-OPEN COUNT(*) FROM People").status(),
        "semi-open after ingest");
  core::Database::WeightCounters c = db.WeightCountersSnapshot();
  out.refits_skipped = c.refits_skipped;
  out.refits_incremental = c.refits_incremental;
  return out;
}

struct ThroughputNumbers {
  double reader_qps_idle = 0.0;
  double reader_qps_during_refits = 0.0;
  uint64_t refits_in_window = 0;
};

ThroughputNumbers BenchReaderThroughput(size_t rows,
                                        double population_size,
                                        int reader_threads,
                                        double window_seconds) {
  ThroughputNumbers out;
  service::ServiceOptions opts;
  opts.num_request_threads = static_cast<size_t>(reader_threads) + 1;
  opts.num_generation_threads = 0;
  opts.result_cache_capacity = 0;  // measure execution, not caching
  service::QueryService service(opts);
  SetUpWorld(service.database(), rows, population_size);
  Check(service.Execute("SELECT SEMI-OPEN COUNT(*) FROM People").status(),
        "warm up weights");

  const std::string reader_query =
      "SELECT region, COUNT(*) AS c FROM Panel GROUP BY region";

  auto run_window = [&](bool with_refits) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};
    uint64_t refits_before =
        service.Stats().weight_refits_total;
    std::vector<std::thread> readers;
    for (int t = 0; t < reader_threads; ++t) {
      readers.emplace_back([&] {
        service::Session session = service.OpenSession();
        while (!stop.load(std::memory_order_relaxed)) {
          Check(session.Execute(reader_query).status(), "reader");
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::thread writer([&] {
      if (!with_refits) return;
      service::Session session = service.OpenSession();
      while (!stop.load(std::memory_order_relaxed)) {
        // The UPDATE clears the fit signature so every refit does
        // real IPF work instead of no-op skipping.
        Check(session.Execute("UPDATE Panel SET weight = 1").status(),
              "reset weights");
        Check(session.Execute("SELECT SEMI-OPEN COUNT(*) FROM People")
                  .status(),
              "refit");
      }
    });
    auto start = Clock::now();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(window_seconds));
    stop.store(true);
    writer.join();
    for (auto& r : readers) r.join();
    double elapsed_s = MsSince(start) / 1000.0;
    uint64_t refits =
        service.Stats().weight_refits_total - refits_before;
    return std::make_pair(
        static_cast<double>(reads.load()) / elapsed_s, refits);
  };

  auto idle = run_window(/*with_refits=*/false);
  auto churn = run_window(/*with_refits=*/true);
  out.reader_qps_idle = idle.first;
  out.reader_qps_during_refits = churn.first;
  out.refits_in_window = churn.second;
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace mosaic

int main() {
  using namespace mosaic;
  using namespace mosaic::bench;

  const bool full = FullScale();
  const size_t rows = full ? 200000 : 20000;
  const size_t ingest_rows = rows / 100;
  const double population_size = static_cast<double>(rows) * 25.0;
  const int reader_threads = 3;
  const double window_seconds = full ? 2.0 : 0.6;

  std::printf("bench_weights: %zu-row sample, %zu-row ingest batch\n", rows,
              ingest_rows);

  FitNumbers fit = BenchStatsLayer(rows, ingest_rows, population_size);
  std::printf(
      "  cold fit: %.2f ms (%zu iters); incremental after ingest: %.2f ms "
      "(%zu iters%s); cold after ingest: %.2f ms (%zu iters)\n",
      fit.cold_ms, fit.cold_iterations, fit.incremental_ms,
      fit.incremental_iterations,
      fit.incremental_fell_back ? ", fell back" : "",
      fit.cold_after_ingest_ms, fit.cold_after_ingest_iterations);

  EngineNumbers eng = BenchEngineLayer(rows, ingest_rows, population_size);
  std::printf(
      "  engine refit: %.2f ms first, %.4f ms no-op; skipped=%llu "
      "incremental=%llu\n",
      eng.first_refit_ms, eng.noop_refit_ms,
      (unsigned long long)eng.refits_skipped,
      (unsigned long long)eng.refits_incremental);

  ThroughputNumbers tp = BenchReaderThroughput(rows, population_size,
                                               reader_threads,
                                               window_seconds);
  std::printf(
      "  reader qps: %.0f idle vs %.0f during refit churn (%llu refits in "
      "window)\n",
      tp.reader_qps_idle, tp.reader_qps_during_refits,
      (unsigned long long)tp.refits_in_window);

  std::FILE* json = std::fopen("BENCH_weights.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_weights.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"sample_rows\": %zu,\n"
               "  \"ingest_batch_rows\": %zu,\n"
               "  \"cold_refit_ms\": %.3f,\n"
               "  \"cold_iterations\": %zu,\n"
               "  \"incremental_refit_ms\": %.3f,\n"
               "  \"incremental_iterations\": %zu,\n"
               "  \"incremental_fell_back\": %s,\n"
               "  \"cold_after_ingest_ms\": %.3f,\n"
               "  \"cold_after_ingest_iterations\": %zu,\n"
               "  \"engine_first_refit_ms\": %.3f,\n"
               "  \"engine_noop_refit_ms\": %.4f,\n"
               "  \"reader_threads\": %d,\n"
               "  \"reader_qps_idle\": %.1f,\n"
               "  \"reader_qps_during_refits\": %.1f,\n"
               "  \"refits_in_window\": %llu\n"
               "}\n",
               rows, ingest_rows, fit.cold_ms, fit.cold_iterations,
               fit.incremental_ms, fit.incremental_iterations,
               fit.incremental_fell_back ? "true" : "false",
               fit.cold_after_ingest_ms, fit.cold_after_ingest_iterations,
               eng.first_refit_ms, eng.noop_refit_ms, reader_threads,
               tp.reader_qps_idle, tp.reader_qps_during_refits,
               (unsigned long long)tp.refits_in_window);
  std::fclose(json);
  std::printf("wrote BENCH_weights.json\n");
  return 0;
}
