// Queryable system tables (`system.*`): resolution in the planner,
// row-oracle parity over a frozen query-log ring, service
// integration (every statement leaves a record), and the bounded
// ring's wraparound semantics.
#include "core/system_tables.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/query_log.h"
#include "core/database.h"
#include "oracle/row_oracle.h"
#include "service/query_service.h"
#include "sql/parser.h"

namespace mosaic {
namespace {

using core::Database;
using qlog::QueryLog;
using qlog::QueryRecord;

/// Freeze a deterministic ring: three records, one traced with a
/// two-span tree, one untraced, one failed.
void SeedQueryLog() {
  QueryLog::Global().ResetForTesting();

  QueryRecord traced;
  traced.session_id = 7;
  traced.trace_id = 0xabcdef0123456789ull;
  traced.sql = "SELECT CLOSED COUNT(*) FROM T";
  traced.status = "OK";
  traced.cache_hit = 0;
  traced.wall_us = 1800;
  traced.cpu_ns = 1500000;
  traced.rows_scanned = 100;
  traced.rows_produced = 1;
  traced.epoch_pins = 1;
  traced.simd_isa = "scalar";
  traced.spans.push_back({1, 0, "statement", 0, 1800, 1500000, ""});
  traced.spans.push_back({2, 1, "execute", 10, 1700, 1400000, "rows=1"});
  QueryLog::Global().Append(std::move(traced));

  QueryRecord untraced;
  untraced.session_id = 7;
  untraced.sql = "SHOW TABLES";
  untraced.status = "OK";
  untraced.wall_us = 90;
  untraced.simd_isa = "scalar";
  QueryLog::Global().Append(std::move(untraced));

  QueryRecord failed;
  failed.sql = "SELECT nope FROM nowhere";
  failed.status = "NOT_FOUND";
  failed.wall_us = 40;
  failed.simd_isa = "scalar";
  QueryLog::Global().Append(std::move(failed));
}

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
               << "cell (" << r << "," << c << ") differs: "
               << a.GetValue(r, c).ToString() << " vs " << b.GetValue(r, c).ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Resolution + builders
// ---------------------------------------------------------------------------

TEST(SystemTables, ReservedPrefixIsCaseInsensitive) {
  EXPECT_TRUE(Database::IsSystemRelation("system.queries"));
  EXPECT_TRUE(Database::IsSystemRelation("SYSTEM.QUERIES"));
  EXPECT_TRUE(Database::IsSystemRelation("System.Metrics"));
  EXPECT_FALSE(Database::IsSystemRelation("system"));
  EXPECT_FALSE(Database::IsSystemRelation("systematic"));
  EXPECT_FALSE(Database::IsSystemRelation("People"));
}

TEST(SystemTables, UnknownSystemTableNamesTheAlternatives) {
  Database db;
  auto r = db.Execute("SELECT * FROM system.bogus");
  ASSERT_FALSE(r.ok());
  // The error enumerates what IS available, so typos are self-serve.
  EXPECT_NE(r.status().ToString().find("queries"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("weight_epochs"), std::string::npos)
      << r.status().ToString();
}

TEST(SystemTables, QueriesTableExposesRecordsAndSpans) {
  SeedQueryLog();
  Database db;
  auto all = db.Execute("SELECT * FROM system.queries");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  // Record 1 contributes two span rows; records 2 and 3 one synthetic
  // "statement" row each.
  EXPECT_EQ(all->num_rows(), 4u);

  auto spans = db.Execute(
      "SELECT span, duration_us FROM system.queries "
      "WHERE span = 'execute'");
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  ASSERT_EQ(spans->num_rows(), 1u);
  EXPECT_EQ(spans->GetValue(0, 0).AsString(), "execute");
  EXPECT_EQ(spans->GetValue(0, 1).AsInt64(), 1700);

  auto traced = db.Execute(
      "SELECT trace_id, rows_scanned, epoch_pins FROM system.queries "
      "WHERE span = 'statement' AND trace_id = 'abcdef0123456789'");
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_EQ(traced->num_rows(), 1u);
  EXPECT_EQ(traced->GetValue(0, 1).AsInt64(), 100);
  EXPECT_EQ(traced->GetValue(0, 2).AsInt64(), 1);

  auto failed = db.Execute(
      "SELECT status FROM system.queries WHERE status = 'NOT_FOUND'");
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->num_rows(), 1u);
}

TEST(SystemTables, ShowMetricsIsSugarOverSystemMetrics) {
  Database db;
  auto via_select = db.Execute("SELECT * FROM system.metrics");
  ASSERT_TRUE(via_select.ok()) << via_select.status().ToString();
  auto via_show = db.Execute("SHOW METRICS");
  ASSERT_TRUE(via_show.ok()) << via_show.status().ToString();
  EXPECT_TRUE(via_select->schema() == via_show->schema());
  ASSERT_EQ(via_select->schema().num_columns(), 2u);
  EXPECT_EQ(via_select->schema().column(0).name, "metric");
  EXPECT_EQ(via_select->schema().column(1).name, "value");
}

TEST(SystemTables, StubTablesResolveEmptyWithoutAService) {
  Database db;
  for (const char* rel :
       {"system.sessions", "system.connections", "system.snapshots"}) {
    auto r = db.Execute(std::string("SELECT * FROM ") + rel);
    ASSERT_TRUE(r.ok()) << rel << ": " << r.status().ToString();
    EXPECT_EQ(r->num_rows(), 0u) << rel;
  }
}

TEST(SystemTables, WeightEpochsShowsEachSamplesFit) {
  Database db;
  for (const char* sql : {
           "CREATE GLOBAL POPULATION Things (color VARCHAR, size VARCHAR)",
           "CREATE TABLE ColorReport (color VARCHAR, cnt INT)",
           "INSERT INTO ColorReport VALUES ('red', 60), ('blue', 40)",
           "CREATE TABLE SizeReport (size VARCHAR, cnt INT)",
           "INSERT INTO SizeReport VALUES ('S', 50), ('L', 50)",
           "CREATE METADATA Things_M1 AS (SELECT color, cnt FROM ColorReport)",
           "CREATE METADATA Things_M2 AS (SELECT size, cnt FROM SizeReport)",
           "CREATE SAMPLE RedSample AS (SELECT * FROM Things WHERE color = "
           "'red')",
           "INSERT INTO RedSample VALUES ('red','S'), ('red','S'), "
           "('red','L')",
       }) {
    ASSERT_TRUE(db.Execute(sql).ok()) << sql;
  }
  const std::string query =
      "SELECT sample, epoch_id, rows, fit_kind, fit_error, fit_uncovered, "
      "converged FROM system.weight_epochs";

  // Before any SEMI-OPEN query the sample's epoch is unfitted.
  auto before = db.Execute(query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->num_rows(), 1u);
  EXPECT_EQ(before->GetValue(0, 0).AsString(), "RedSample");
  EXPECT_EQ(before->GetValue(0, 2).AsInt64(), 3);
  EXPECT_EQ(before->GetValue(0, 3).AsString(), "");
  EXPECT_EQ(before->GetValue(0, 6).AsInt64(), 0);

  // The refit a SEMI-OPEN query runs: a GP-level IPF fit. Blue is
  // uncovered, so the color marginal converges at its floor.
  auto report = db.ReweightForPopulation("Things");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->converged);
  auto after = db.Execute(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->num_rows(), 1u);
  EXPECT_GT(after->GetValue(0, 1).AsInt64(), before->GetValue(0, 1).AsInt64());
  EXPECT_EQ(after->GetValue(0, 2).AsInt64(), 3);
  EXPECT_EQ(after->GetValue(0, 3).AsString(), "ipf-gp");
  EXPECT_EQ(after->GetValue(0, 4).AsDouble(), report->max_l1_error);
  EXPECT_EQ(after->GetValue(0, 5).AsDouble(), report->uncovered_target_mass);
  EXPECT_EQ(after->GetValue(0, 6).AsInt64(), report->converged ? 1 : 0);
}

// ---------------------------------------------------------------------------
// Row oracle vs batch execution over a frozen ring
// ---------------------------------------------------------------------------

TEST(SystemTables, OracleAndBatchAgreeBitForBit) {
  SeedQueryLog();
  const std::vector<std::string> queries = {
      "SELECT * FROM system.queries",
      "SELECT span, duration_us FROM system.queries "
      "WHERE duration_us >= 50 ORDER BY span",
      "SELECT status, COUNT(*) AS n FROM system.queries "
      "GROUP BY status ORDER BY status",
      "SELECT sql, SUM(duration_us) AS total FROM system.queries "
      "GROUP BY sql ORDER BY total DESC LIMIT 2",
      "SELECT span FROM system.queries WHERE cpu_us >= 1 ORDER BY span",
  };
  auto snapshot = core::BuildQueriesTable(QueryLog::Global());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  for (const std::string& sql : queries) {
    Database db;
    auto batch = db.Execute(sql);
    ASSERT_TRUE(batch.ok()) << sql << " -> " << batch.status().ToString();

    auto stmt = sql::ParseStatement(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto row = oracle::ExecuteSelectRow(*snapshot,
                                        stmt->As<sql::SelectStmt>(), {});
    ASSERT_TRUE(row.ok()) << sql << " -> " << row.status().ToString();
    EXPECT_TRUE(TablesEqual(*row, *batch)) << "row oracle: " << sql;
  }
}

// ---------------------------------------------------------------------------
// Ring semantics
// ---------------------------------------------------------------------------

TEST(QueryLogRing, WraparoundKeepsTheNewestRecords) {
  QueryLog ring(4);
  for (int i = 1; i <= 10; ++i) {
    QueryRecord r;
    r.sql = "q" + std::to_string(i);
    ring.Append(std::move(r));
  }
  EXPECT_EQ(ring.total_appended(), 10u);
  auto snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-first, ids 7..10: the ring overwrote everything older.
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].query_id, 7 + i);
    EXPECT_EQ(snap[i].sql, "q" + std::to_string(7 + i));
  }
}

TEST(QueryLogRing, AppendAssignsMonotonicIds) {
  QueryLog ring(8);
  QueryRecord a, b;
  a.sql = "first";
  b.sql = "second";
  const uint64_t ida = ring.Append(std::move(a));
  const uint64_t idb = ring.Append(std::move(b));
  EXPECT_LT(ida, idb);
}

// ---------------------------------------------------------------------------
// Service integration
// ---------------------------------------------------------------------------

TEST(SystemTablesService, EveryStatementLeavesARecord) {
  QueryLog::Global().ResetForTesting();
  service::ServiceOptions opts;
  opts.trace_queries = true;
  opts.num_request_threads = 2;
  opts.num_generation_threads = 0;
  service::QueryService service(opts);
  auto session = service.OpenSession();

  ASSERT_TRUE(
      session.Execute("CREATE TABLE Nums (n INT, tag VARCHAR)").ok());
  ASSERT_TRUE(
      session
          .Execute("INSERT INTO Nums VALUES (1,'a'), (2,'b'), (3,'a')")
          .ok());
  auto read = session.Execute("SELECT tag, COUNT(*) AS c FROM Nums "
                              "GROUP BY tag ORDER BY tag");
  ASSERT_TRUE(read.ok());
  auto bad = session.Execute("SELECT FROM FROM");
  ASSERT_FALSE(bad.ok());

  // The query over system.queries sees everything before it.
  auto log = session.Execute(
      "SELECT sql, status FROM system.queries WHERE span = 'statement'");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_GE(log->num_rows(), 4u);
  bool saw_read = false, saw_error = false;
  for (size_t r = 0; r < log->num_rows(); ++r) {
    const std::string sql = log->GetValue(r, 0).AsString();
    const std::string status = log->GetValue(r, 1).AsString();
    if (sql.find("GROUP BY tag") != std::string::npos && status == "OK") {
      saw_read = true;
    }
    if (status != "OK") saw_error = true;
  }
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_error);

  // Live session registry: this session is visible with a non-zero
  // submission count.
  auto sessions = session.Execute(
      "SELECT session_id, queries_submitted FROM system.sessions");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  bool found = false;
  for (size_t r = 0; r < sessions->num_rows(); ++r) {
    if (sessions->GetValue(r, 0).AsInt64() ==
        static_cast<int64_t>(session.id())) {
      found = true;
      EXPECT_GT(sessions->GetValue(r, 1).AsInt64(), 0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SystemTablesService, SystemQueriesIsNeverServedFromTheResultCache) {
  QueryLog::Global().ResetForTesting();
  service::ServiceOptions opts;
  opts.num_request_threads = 1;
  opts.num_generation_threads = 0;
  service::QueryService service(opts);
  auto session = service.OpenSession();

  // Each Run appends a record, so a second identical SELECT must see a
  // bigger ring — a cached answer would repeat the first count.
  auto first = session.Execute("SELECT COUNT(*) AS c FROM system.queries");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = session.Execute("SELECT COUNT(*) AS c FROM system.queries");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->GetValue(0, 0).AsInt64(),
            first->GetValue(0, 0).AsInt64());
}

TEST(SystemTablesService, UntracedRunsStillRecordWallClockAndStatus) {
  // MOSAIC_TRACE=1 (check.sh's traced-parity legs) overrides
  // trace_queries=false at the service layer, so the untraced premise
  // of this test cannot be set up there.
  const char* env = std::getenv("MOSAIC_TRACE");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    GTEST_SKIP() << "tracing forced by MOSAIC_TRACE";
  }
  QueryLog::Global().ResetForTesting();
  service::ServiceOptions opts;
  opts.trace_queries = false;
  opts.num_request_threads = 1;
  opts.num_generation_threads = 0;
  service::QueryService service(opts);
  ASSERT_TRUE(service.Execute("CREATE TABLE T (x INT)").ok());

  auto snap = QueryLog::Global().Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].status, "OK");
  EXPECT_TRUE(snap[0].spans.empty());  // untraced: no span tree
  EXPECT_EQ(snap[0].trace_id, 0u);
}

TEST(SystemTablesService, SampledContextForcesSpanCollection) {
  QueryLog::Global().ResetForTesting();
  service::ServiceOptions opts;
  opts.trace_queries = false;  // tracing off by default...
  opts.num_request_threads = 1;
  opts.num_generation_threads = 0;
  service::QueryService service(opts);
  auto session = service.OpenSession();

  service::RequestContext ctx;
  ctx.trace_id = 0x1122334455667788ull;
  ctx.sampled = true;  // ...but the caller's context turns it on
  ASSERT_TRUE(session.Execute("CREATE TABLE U (x INT)", ctx).ok());

  auto snap = QueryLog::Global().Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].trace_id, 0x1122334455667788ull);
  ASSERT_FALSE(snap[0].spans.empty());
  EXPECT_EQ(snap[0].spans[0].name, "statement");
  // The statement span carries the caller-visible trace id.
  EXPECT_NE(snap[0].spans[0].note.find("trace_id=1122334455667788"),
            std::string::npos)
      << snap[0].spans[0].note;
}

TEST(SystemTablesService, ConcurrentIntrospectionReadersNeverDisturbResults) {
  // The check.sh observability leg (release + TSan): writer threads
  // run the same workload traced and untraced — results must stay
  // bit-identical — while reader threads hammer system.queries and
  // system.metrics the whole time. Introspection must never fail, race,
  // or perturb query answers.
  QueryLog::Global().ResetForTesting();
  service::ServiceOptions opts;
  opts.trace_queries = false;
  opts.num_request_threads = 4;
  opts.num_generation_threads = 0;
  service::QueryService service(opts);
  {
    auto setup = service.OpenSession();
    ASSERT_TRUE(setup.Execute("CREATE TABLE Load (n INT, tag VARCHAR)").ok());
    ASSERT_TRUE(setup
                    .Execute("INSERT INTO Load VALUES (1,'a'), (2,'b'), "
                             "(3,'a'), (4,'c'), (5,'b'), (6,'a')")
                    .ok());
  }
  const std::vector<std::string> workload = {
      "SELECT tag, COUNT(*) AS c FROM Load GROUP BY tag ORDER BY tag",
      "SELECT COUNT(*) AS c FROM Load WHERE n > 2",
      "SELECT n, tag FROM Load ORDER BY n LIMIT 3",
  };

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> reader_failures{0};

  constexpr int kWriters = 3;
  constexpr int kRoundsPerWriter = 40;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&service, &workload, &mismatches, w] {
      auto session = service.OpenSession();
      for (int i = 0; i < kRoundsPerWriter; ++i) {
        const std::string& sql = workload[(w + i) % workload.size()];
        auto untraced = session.Execute(sql);
        service::RequestContext ctx;
        ctx.trace_id = uint64_t(w + 1) << 32 | uint64_t(i + 1);
        ctx.sampled = true;
        auto traced = session.Execute(sql, ctx);
        if (!untraced.ok() || !traced.ok() ||
            !TablesEqual(*untraced, *traced)) {
          ++mismatches;
        }
      }
    });
  }
  constexpr int kReaders = 2;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&service, &stop, &reader_failures] {
      auto session = service.OpenSession();
      while (!stop.load(std::memory_order_relaxed)) {
        for (const char* sql :
             {"SELECT status, COUNT(*) AS c FROM system.queries "
              "WHERE span = 'statement' GROUP BY status",
              "SELECT span, duration_us FROM system.queries "
              "WHERE trace_id <> '' ORDER BY duration_us DESC LIMIT 5",
              "SELECT * FROM system.metrics", "SHOW METRICS",
              "SELECT session_id, queries_submitted FROM system.sessions"}) {
          if (!session.Execute(sql).ok()) ++reader_failures;
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(reader_failures.load(), 0);

  // Every traced writer round is in the ring with its trace id and a
  // span tree; the tail of the ring is consistent after the dust
  // settles.
  auto traced_count = service.Execute(
      "SELECT COUNT(*) AS c FROM system.queries "
      "WHERE span = 'statement' AND trace_id <> ''");
  ASSERT_TRUE(traced_count.ok()) << traced_count.status().ToString();
  EXPECT_GE(traced_count->GetValue(0, 0).AsInt64(),
            int64_t(kWriters) * kRoundsPerWriter);
}

}  // namespace
}  // namespace mosaic
