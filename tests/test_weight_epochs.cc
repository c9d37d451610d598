// Versioned copy-on-write sample weights (core/weights.h): store
// semantics, no-op refit detection, incremental IPF on ingest, and —
// the point of the whole design — snapshot isolation: concurrent
// readers racing a stream of SEMI-OPEN refits and weight UPDATEs must
// each observe a result bit-identical to *some* serialized weight
// epoch, never a torn mix of two. scripts/check.sh runs this suite
// under TSan; the row-path oracle shares the executor's pin-and-view
// route, so it needs no leg of its own.
#include "core/weights.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/database.h"
#include "service/query_service.h"
#include "sql/parser.h"
#include "stats/ipf.h"

namespace mosaic {
namespace core {
namespace {

// ---------------------------------------------------------------------------
// WeightStore semantics
// ---------------------------------------------------------------------------

TEST(WeightStore, PublishBumpsEpochMonotonically) {
  WeightStore store;
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.size(), 0u);
  bool published = false;
  store.Publish({1.0, 2.0}, WeightFitInfo(), &published);
  EXPECT_TRUE(published);
  EXPECT_EQ(store.epoch(), 1u);
  store.Publish({3.0}, WeightFitInfo(), &published);
  EXPECT_TRUE(published);
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(WeightStore, ValueIdenticalPublishIsNoOp) {
  WeightStore store;
  store.Publish({1.5, 2.5}, WeightFitInfo{"fit-sig", 1e-9, 0.0, true});
  WeightEpochPtr before = store.Pin();
  bool published = true;
  WeightEpochPtr after = store.Publish({1.5, 2.5}, WeightFitInfo(),
                                       &published);
  EXPECT_FALSE(published);
  EXPECT_EQ(after.get(), before.get());
  // The richer provenance of the existing epoch survives the no-op.
  EXPECT_EQ(after->fit_signature, "fit-sig");
  EXPECT_TRUE(after->fit_converged);
}

TEST(WeightStore, PinnedEpochSurvivesLaterPublications) {
  WeightStore store;
  store.Publish({1.0, 1.0, 1.0});
  WeightEpochPtr pinned = store.Pin();
  store.Publish({9.0, 9.0, 9.0});
  store.Publish({4.0, 4.0, 4.0});
  EXPECT_EQ(pinned->id, 1u);
  EXPECT_EQ(pinned->weights, (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_EQ(store.epoch(), 3u);
}

// ---------------------------------------------------------------------------
// Incremental IPF (stats/ipf.h)
// ---------------------------------------------------------------------------

Table TwoAttrSample(const std::vector<std::array<const char*, 2>>& rows) {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"a", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"b", DataType::kString}).ok());
  Table t(s);
  for (const auto& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value(r[0]), Value(r[1])}).ok());
  }
  return t;
}

stats::Marginal MarginalOver(
    const std::string& attr,
    std::vector<std::pair<const char*, double>> counts) {
  std::vector<Value> cats;
  std::vector<double> c;
  for (auto& [name, count] : counts) {
    cats.emplace_back(name);
    c.push_back(count);
  }
  auto m = stats::Marginal::FromCounts(
      {stats::AttributeBinning::Categorical(attr, cats)}, c);
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

/// A biased base sample plus the marginals it is fitted against.
struct IpfFixture {
  Table sample;
  std::vector<stats::Marginal> marginals;
};

IpfFixture MakeIpfFixture(size_t per_cell) {
  std::vector<std::array<const char*, 2>> rows;
  // Biased toward (x, p); targets pull toward y and q.
  for (size_t i = 0; i < 3 * per_cell; ++i) rows.push_back({"x", "p"});
  for (size_t i = 0; i < per_cell; ++i) rows.push_back({"x", "q"});
  for (size_t i = 0; i < per_cell; ++i) rows.push_back({"y", "p"});
  for (size_t i = 0; i < per_cell; ++i) rows.push_back({"y", "q"});
  IpfFixture f;
  f.sample = TwoAttrSample(rows);
  f.marginals.push_back(MarginalOver("a", {{"x", 40}, {"y", 60}}));
  f.marginals.push_back(MarginalOver("b", {{"p", 30}, {"q", 70}}));
  return f;
}

TEST(IncrementalIpf, WarmStartConvergesNoSlowerThanCold) {
  IpfFixture f = MakeIpfFixture(50);
  std::vector<double> fitted(f.sample.num_rows(), 1.0);
  auto cold = stats::IterativeProportionalFit(f.sample, f.marginals, &fitted);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold->converged);

  // Ingest a few rows and refit warm from the previous fit.
  Table grown = f.sample;
  ASSERT_TRUE(grown.AppendRow({Value("x"), Value("p")}).ok());
  ASSERT_TRUE(grown.AppendRow({Value("y"), Value("q")}).ok());
  // The threshold the ingest path sets: twice the outgoing error.
  const double threshold =
      2.0 * cold->max_l1_error + stats::IpfOptions().tolerance;
  std::vector<double> warm_weights;
  auto warm = stats::IncrementalProportionalFit(grown, f.marginals, fitted,
                                                threshold, &warm_weights);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started);
  EXPECT_FALSE(warm->fell_back_to_cold);
  EXPECT_TRUE(warm->converged);
  EXPECT_LE(warm->iterations, cold->iterations);
  // The warm fit satisfies the marginals as well as a cold one would.
  for (const auto& m : f.marginals) {
    auto err = m.L1Error(grown, warm_weights);
    ASSERT_TRUE(err.ok());
    EXPECT_LT(*err, 1e-4);
  }
}

TEST(IncrementalIpf, RegressThresholdFallsBackToColdBitIdentically) {
  IpfFixture f = MakeIpfFixture(10);
  std::vector<double> fitted(f.sample.num_rows(), 1.0);
  ASSERT_TRUE(stats::IterativeProportionalFit(f.sample, f.marginals, &fitted)
                  .ok());
  Table grown = f.sample;
  ASSERT_TRUE(grown.AppendRow({Value("x"), Value("q")}).ok());

  // An impossible regress threshold forces the fallback; the result
  // must be exactly what a cold fit computes.
  std::vector<double> warm_weights;
  auto report = stats::IncrementalProportionalFit(grown, f.marginals, fitted,
                                                  /*regress_threshold=*/1e-300,
                                                  &warm_weights);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->fell_back_to_cold);
  std::vector<double> cold_weights(grown.num_rows(), 1.0);
  ASSERT_TRUE(stats::IterativeProportionalFit(grown, f.marginals,
                                              &cold_weights, stats::IpfOptions())
                  .ok());
  EXPECT_EQ(warm_weights, cold_weights);
}

// ---------------------------------------------------------------------------
// Engine-level: refit skip, COW updates, incremental ingest
// ---------------------------------------------------------------------------

void SetUpWeightWorld(Database* db) {
  auto ok = [db](const std::string& sql) {
    auto r = db->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  ok("CREATE GLOBAL POPULATION Things (color VARCHAR, size VARCHAR)");
  ok("CREATE TABLE ColorReport (color VARCHAR, cnt INT)");
  ok("INSERT INTO ColorReport VALUES ('red', 60), ('blue', 40)");
  ok("CREATE TABLE SizeReport (size VARCHAR, cnt INT)");
  ok("INSERT INTO SizeReport VALUES ('S', 50), ('L', 50)");
  ok("CREATE METADATA Things_M1 AS (SELECT color, cnt FROM ColorReport)");
  ok("CREATE METADATA Things_M2 AS (SELECT size, cnt FROM SizeReport)");
  ok("CREATE SAMPLE RedSample AS (SELECT * FROM Things WHERE color = "
     "'red')");
  ok("INSERT INTO RedSample VALUES ('red','S'), ('red','S'), ('red','S'), "
     "('red','S'), ('red','S'), ('red','S'), ('red','L'), ('red','L')");
}

uint64_t SampleEpoch(Database* db, const std::string& name) {
  auto s = db->catalog()->GetSample(name);
  EXPECT_TRUE(s.ok());
  return (*s)->weights.epoch();
}

// The weight counts are per process; each case starts from zero.
class WeightEpochs : public ::testing::Test {
 protected:
  void SetUp() override { metrics::Registry::Global().ResetForTesting(); }
};

TEST_F(WeightEpochs, SecondRefitIsANoOp) {
  Database db;
  SetUpWeightWorld(&db);
  ASSERT_TRUE(db.ReweightForPopulation("Things").ok());
  auto c1 = db.WeightCountersSnapshot();
  EXPECT_EQ(c1.refits_total, 1u);
  EXPECT_EQ(c1.refits_skipped, 0u);
  uint64_t epoch = SampleEpoch(&db, "RedSample");

  // Same data, same marginals, same options: the signature matches
  // the current epoch, so nothing is recomputed or republished.
  ASSERT_TRUE(db.ReweightForPopulation("Things").ok());
  auto c2 = db.WeightCountersSnapshot();
  EXPECT_EQ(c2.refits_total, 1u);
  EXPECT_EQ(c2.refits_skipped, 1u);
  EXPECT_EQ(c2.epochs_published, c1.epochs_published);
  EXPECT_EQ(SampleEpoch(&db, "RedSample"), epoch);
}

TEST_F(WeightEpochs, ManualUpdateForcesTheNextRefit) {
  Database db;
  SetUpWeightWorld(&db);
  ASSERT_TRUE(db.ReweightForPopulation("Things").ok());
  uint64_t fitted_epoch = SampleEpoch(&db, "RedSample");

  // UPDATE publishes a manual (unfitted) epoch...
  ASSERT_TRUE(db.Execute("UPDATE RedSample SET weight = 2").ok());
  EXPECT_EQ(SampleEpoch(&db, "RedSample"), fitted_epoch + 1);

  // ...so the next refit really refits (and republishes).
  ASSERT_TRUE(db.ReweightForPopulation("Things").ok());
  auto c = db.WeightCountersSnapshot();
  EXPECT_EQ(c.refits_total, 2u);
  EXPECT_EQ(SampleEpoch(&db, "RedSample"), fitted_epoch + 2);
}

TEST_F(WeightEpochs, IngestAfterRefitRunsIncrementalIpf) {
  Database db;
  SetUpWeightWorld(&db);
  // Unfitted ingest stays cheap: no marginal fit before the first
  // refit ever runs.
  ASSERT_TRUE(
      db.Execute("INSERT INTO RedSample VALUES ('red','S')").ok());
  EXPECT_EQ(db.WeightCountersSnapshot().refits_total, 0u);

  ASSERT_TRUE(db.ReweightForPopulation("Things").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO RedSample VALUES ('red','S'), ('red','L')")
          .ok());
  auto c = db.WeightCountersSnapshot();
  EXPECT_EQ(c.refits_incremental, 1u);

  // The incremental fit published a converged GP-level epoch, so the
  // next SEMI-OPEN refit skips entirely.
  ASSERT_TRUE(db.Execute("SELECT SEMI-OPEN COUNT(*) FROM Things").ok());
  EXPECT_GE(db.WeightCountersSnapshot().refits_skipped, 1u);
}

TEST_F(WeightEpochs, IpfCyclesCounterCountsEveryFit) {
  metrics::Counter* cycles =
      metrics::Registry::Global().GetCounter("mosaic_ipf_cycles_total");
  Database db;
  SetUpWeightWorld(&db);
  const uint64_t start = cycles->Value();
  auto cold = db.ReweightForPopulation("Things");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_GT(cold->iterations, 0u);
  EXPECT_EQ(cycles->Value(), start + cold->iterations);

  // A skipped refit runs no cycles.
  ASSERT_TRUE(db.ReweightForPopulation("Things").ok());
  const uint64_t fitted = cycles->Value();
  EXPECT_EQ(fitted, start + cold->iterations);

  // An INSERT into the fitted sample re-runs the fit, warm-started.
  ASSERT_TRUE(db.Execute("INSERT INTO RedSample VALUES ('red','L')").ok());
  EXPECT_EQ(db.WeightCountersSnapshot().refits_incremental, 1u);
  const uint64_t after_insert = cycles->Value();
  EXPECT_GT(after_insert, fitted);

  auto listed = db.Execute(
      "SELECT value FROM system.metrics "
      "WHERE metric = 'mosaic_ipf_cycles_total'");
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed->num_rows(), 1u);
  EXPECT_EQ(listed->GetValue(0, 0).AsDouble(),
            static_cast<double>(after_insert));
}

TEST_F(WeightEpochs, PlateauedFitsCounterCountsUnconvergedFits) {
  metrics::Counter* plateaued = metrics::Registry::Global().GetCounter(
      "mosaic_ipf_plateaued_fits_total");
  // A converged fit is not counted.
  {
    Database db;
    SetUpWeightWorld(&db);
    const uint64_t start = plateaued->Value();
    auto fit = db.ReweightForPopulation("Things");
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    EXPECT_TRUE(fit->converged);
    EXPECT_EQ(plateaued->Value(), start);
  }
  // Every sampled red thing is small and every blue one large, but
  // the marginals want 60% red and 50% small: no reweighting meets
  // both, so the fit oscillates until the cycle budget runs out.
  Database db;
  for (const char* sql : {
           "CREATE GLOBAL POPULATION Things (color VARCHAR, size VARCHAR)",
           "CREATE TABLE ColorReport (color VARCHAR, cnt INT)",
           "INSERT INTO ColorReport VALUES ('red', 60), ('blue', 40)",
           "CREATE TABLE SizeReport (size VARCHAR, cnt INT)",
           "INSERT INTO SizeReport VALUES ('S', 50), ('L', 50)",
           "CREATE METADATA Things_M1 AS (SELECT color, cnt FROM ColorReport)",
           "CREATE METADATA Things_M2 AS (SELECT size, cnt FROM SizeReport)",
           "CREATE SAMPLE Pairs AS (SELECT * FROM Things)",
           "INSERT INTO Pairs VALUES ('red','S'), ('blue','L')",
       }) {
    ASSERT_TRUE(db.Execute(sql).ok()) << sql;
  }
  const uint64_t start = plateaued->Value();
  auto cold = db.ReweightForPopulation("Things");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->converged);
  EXPECT_EQ(cold->iterations, stats::IpfOptions().max_iterations);
  EXPECT_EQ(plateaued->Value(), start + 1);

  // The ingest refit plateaus too.
  ASSERT_TRUE(db.Execute("INSERT INTO Pairs VALUES ('red','S')").ok());
  EXPECT_EQ(plateaued->Value(), start + 2);

  auto listed = db.Execute(
      "SELECT value FROM system.metrics "
      "WHERE metric = 'mosaic_ipf_plateaued_fits_total'");
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed->num_rows(), 1u);
  EXPECT_EQ(listed->GetValue(0, 0).AsDouble(),
            static_cast<double>(plateaued->Value()));
}

TEST_F(WeightEpochs, PartiallyFailedInsertKeepsWeightsAndStampsConsistent) {
  Database db;
  SetUpWeightWorld(&db);
  uint64_t version_before = db.catalog_version();

  // Second row has the wrong arity: the first row lands, the
  // statement fails. The weight epoch must still cover the row that
  // landed and the catalog version must still move — a stale stamp
  // would keep serving the pre-insert cached answers.
  auto r = db.Execute("INSERT INTO RedSample VALUES ('red','S'), ('red')");
  EXPECT_FALSE(r.ok());
  EXPECT_GT(db.catalog_version(), version_before);

  auto count = db.Execute("SELECT COUNT(*) AS c, SUM(weight) AS w "
                          "FROM RedSample");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->GetValue(0, 0).AsInt64(), 9);
  // The landed row carries weight 1 like any fresh ingest.
  auto w = count->GetValue(0, 1).ToDouble();
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ(*w, 9.0);
}

TEST_F(WeightEpochs, SkippedRefitReportsTheEpochsFitMetrics) {
  Database db;
  SetUpWeightWorld(&db);
  auto first = db.ReweightForPopulation("Things");
  ASSERT_TRUE(first.ok());
  auto second = db.ReweightForPopulation("Things");
  ASSERT_TRUE(second.ok());
  // The skip reports the published epoch's metrics instead of
  // fabricating a perfect fit: RedSample covers no blue tuples, so
  // the uncovered target mass is genuinely nonzero.
  EXPECT_GT(first->uncovered_target_mass, 0.0);
  EXPECT_DOUBLE_EQ(second->uncovered_target_mass,
                   first->uncovered_target_mass);
  EXPECT_DOUBLE_EQ(second->max_l1_error, first->max_l1_error);
  EXPECT_EQ(second->converged, first->converged);
}

TEST_F(WeightEpochs, CacheStampTracksCatalogVersionAndEpoch) {
  Database db;
  SetUpWeightWorld(&db);
  auto parse = [](const std::string& sql) {
    auto p = sql::ParseStatement(sql);
    EXPECT_TRUE(p.ok());
    return std::move(p).value();
  };
  sql::Statement aux = parse("SELECT COUNT(*) FROM ColorReport");
  sql::Statement direct = parse("SELECT SUM(weight) FROM RedSample");

  Database::CacheStamp aux0 = db.StampFor(aux);
  Database::CacheStamp direct0 = db.StampFor(direct);
  ASSERT_TRUE(aux0.cacheable);
  ASSERT_TRUE(direct0.cacheable);

  // A refit moves the sample's epoch but not the catalog version:
  // the direct-sample stamp changes, the aux-table stamp does not.
  ASSERT_TRUE(db.ReweightForPopulation("Things").ok());
  Database::CacheStamp aux1 = db.StampFor(aux);
  Database::CacheStamp direct1 = db.StampFor(direct);
  EXPECT_EQ(aux1.catalog_version, aux0.catalog_version);
  EXPECT_EQ(aux1.weight_epoch, aux0.weight_epoch);
  EXPECT_GT(direct1.weight_epoch, direct0.weight_epoch);
  EXPECT_EQ(direct1.catalog_version, direct0.catalog_version);

  // DML moves the catalog version for everyone.
  ASSERT_TRUE(
      db.Execute("INSERT INTO ColorReport VALUES ('green', 1)").ok());
  EXPECT_GT(db.StampFor(aux).catalog_version, aux1.catalog_version);
}

// ---------------------------------------------------------------------------
// Snapshot isolation under concurrency
// ---------------------------------------------------------------------------

::testing::AssertionResult TablesEqual(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema())) {
    return ::testing::AssertionFailure() << "schemas differ";
  }
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.num_rows() << " vs " << b.num_rows();
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      if (!(a.GetValue(r, c) == b.GetValue(r, c))) {
        return ::testing::AssertionFailure()
               << "cell (" << r << "," << c
               << ") differs: " << a.GetValue(r, c).ToString() << " vs "
               << b.GetValue(r, c).ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Readers race a stream of SEMI-OPEN refits (shared lock) interleaved
// with weight UPDATEs (exclusive lock). Every weight state the stream
// can publish is precomputed on a serial reference engine; each
// concurrent reader result must be bit-identical to one of them. A
// reader observing a half-applied weight vector (the failure mode of
// in-place weight writes) matches none.
TEST(WeightEpochSnapshotIsolation, ReadersMatchSomeSerializedEpoch) {
  const std::vector<std::string> reader_queries = {
      "SELECT SUM(weight) AS s, COUNT(*) AS c FROM RedSample",
      "SELECT size, SUM(weight) AS s FROM RedSample GROUP BY size "
      "ORDER BY size",
  };
  // Exactly representable factors, so every serialized state is a
  // single bit pattern.
  const std::vector<std::string> update_values = {"1", "1.25", "1.5",
                                                  "1.75", "2"};

  // Serial reference: one result table per reachable weight state.
  std::vector<std::vector<Table>> allowed(reader_queries.size());
  Table semi_open_truth;
  {
    Database ref;
    SetUpWeightWorld(&ref);
    auto record = [&]() {
      for (size_t q = 0; q < reader_queries.size(); ++q) {
        auto r = ref.Execute(reader_queries[q]);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        allowed[q].push_back(std::move(r).value());
      }
    };
    for (const auto& v : update_values) {
      ASSERT_TRUE(
          ref.Execute("UPDATE RedSample SET weight = " + v).ok());
      record();
    }
    // The fitted state: cold IPF is deterministic, so every refit in
    // the concurrent run publishes this exact weight vector.
    auto semi = ref.Execute(
        "SELECT SEMI-OPEN size, COUNT(*) AS c FROM Things GROUP BY size "
        "ORDER BY size");
    ASSERT_TRUE(semi.ok());
    semi_open_truth = std::move(semi).value();
    record();
  }

  service::ServiceOptions opts;
  opts.num_request_threads = 4;
  opts.num_generation_threads = 0;
  opts.result_cache_capacity = 0;  // every read executes
  service::QueryService service(opts);
  SetUpWeightWorld(service.database());

  constexpr int kWriterIterations = 24;
  constexpr int kReaderThreads = 3;
  constexpr int kReadsPerThread = 48;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    service::Session session = service.OpenSession();
    for (int i = 0; i < kWriterIterations; ++i) {
      const std::string& v = update_values[i % update_values.size()];
      if (!session.Execute("UPDATE RedSample SET weight = " + v).ok()) {
        ++failures;
      }
      if (!session.Execute("SELECT SEMI-OPEN COUNT(*) FROM Things").ok()) {
        ++failures;
      }
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&, t] {
      service::Session session = service.OpenSession();
      for (int i = 0; i < kReadsPerThread; ++i) {
        // Mix direct-sample reads with SEMI-OPEN reads racing the
        // writer's refits.
        if ((t + i) % 3 == 2) {
          auto r = session.Execute(
              "SELECT SEMI-OPEN size, COUNT(*) AS c FROM Things GROUP BY "
              "size ORDER BY size");
          if (!r.ok()) {
            ++failures;
          } else if (!TablesEqual(semi_open_truth, *r)) {
            ++mismatches;
          }
          continue;
        }
        size_t q = static_cast<size_t>(t + i) % reader_queries.size();
        auto r = session.Execute(reader_queries[q]);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        bool matched = false;
        for (const Table& t_allowed : allowed[q]) {
          if (TablesEqual(t_allowed, *r)) {
            matched = true;
            break;
          }
        }
        if (!matched) ++mismatches;
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "a reader observed a weight state no serialized epoch produces";

  service::ServiceStats stats = service.Stats();
  EXPECT_GT(stats.weight_epochs_published, 0u);
  EXPECT_GT(stats.weight_refits_total, 0u);
}

}  // namespace
}  // namespace core
}  // namespace mosaic
