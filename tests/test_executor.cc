#include "exec/executor.h"

#include <gtest/gtest.h>

#include "oracle/row_oracle.h"
#include "sql/parser.h"

namespace mosaic {
namespace exec {
namespace {

Table FlightsMini() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"dist", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"weight", DataType::kDouble}).ok());
  Table t(s);
  auto add = [&](const char* c, int64_t d, double w) {
    EXPECT_TRUE(t.AppendRow({Value(c), Value(d), Value(w)}).ok());
  };
  add("WN", 100, 1.0);
  add("WN", 300, 3.0);
  add("AA", 200, 2.0);
  add("AA", 400, 2.0);
  add("US", 1000, 10.0);
  return t;
}

Result<Table> RunQuery(const Table& t, const std::string& query,
                  const std::string& weight_col = "") {
  auto stmt = sql::ParseStatement(query);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  ExecOptions opts;
  opts.weight_column = weight_col;
  return ExecuteSelect(t, stmt->As<sql::SelectStmt>(), opts);
}

Table MustRun(const Table& t, const std::string& query,
              const std::string& weight_col = "") {
  auto r = RunQuery(t, query, weight_col);
  EXPECT_TRUE(r.ok()) << query << ": " << r.status().ToString();
  return std::move(r).value();
}

TEST(Executor, SelectStarKeepsAllColumnsUnweighted) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT * FROM t");
  EXPECT_EQ(r.num_columns(), 3u);
  EXPECT_EQ(r.num_rows(), 5u);
}

TEST(Executor, SelectStarHidesWeightColumn) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT * FROM t", "weight");
  EXPECT_EQ(r.num_columns(), 2u);
  EXPECT_FALSE(r.schema().FindColumn("weight").has_value());
}

TEST(Executor, Projection) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT dist, carrier FROM t WHERE dist > 250");
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.schema().column(0).name, "dist");
  EXPECT_EQ(r.GetValue(0, 1).AsString(), "WN");
}

TEST(Executor, ComputedProjectionWithAlias) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT dist * 2 AS double_dist FROM t LIMIT 1");
  EXPECT_EQ(r.schema().column(0).name, "double_dist");
  EXPECT_EQ(r.GetValue(0, 0).AsInt64(), 200);
}

TEST(Executor, GlobalCountUnweighted) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT COUNT(*) FROM t");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetValue(0, 0).type(), DataType::kInt64);
  EXPECT_EQ(r.GetValue(0, 0).AsInt64(), 5);
}

TEST(Executor, GlobalCountWeightedBecomesSumOfWeights) {
  // The §5.3 rewrite: COUNT(*) -> SUM(weight).
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT COUNT(*) FROM t", "weight");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 0).AsDouble(), 18.0);
}

TEST(Executor, WeightedSumAndAvg) {
  Table t = FlightsMini();
  // SUM(dist) -> sum w*d = 100+900+400+800+10000 = 12200
  Table r = MustRun(t, "SELECT SUM(dist), AVG(dist) FROM t", "weight");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 0).AsDouble(), 12200.0);
  EXPECT_DOUBLE_EQ(r.GetValue(0, 1).AsDouble(), 12200.0 / 18.0);
}

TEST(Executor, UnweightedAvg) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT AVG(dist) FROM t");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 0).AsDouble(), 400.0);
}

TEST(Executor, MinMaxIgnoreWeights) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT MIN(dist), MAX(dist) FROM t", "weight");
  EXPECT_EQ(r.GetValue(0, 0).AsInt64(), 100);
  EXPECT_EQ(r.GetValue(0, 1).AsInt64(), 1000);
}

TEST(Executor, MinMaxOnStrings) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT MIN(carrier), MAX(carrier) FROM t");
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "AA");
  EXPECT_EQ(r.GetValue(0, 1).AsString(), "WN");
}

TEST(Executor, GroupByWithWeights) {
  Table t = FlightsMini();
  Table r = MustRun(
      t, "SELECT carrier, COUNT(*) AS c, AVG(dist) AS a FROM t "
         "GROUP BY carrier ORDER BY carrier",
      "weight");
  ASSERT_EQ(r.num_rows(), 3u);
  // AA: w=2+2, avg=(2*200+2*400)/4=300
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "AA");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 1).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(r.GetValue(0, 2).AsDouble(), 300.0);
  // US: single row
  EXPECT_EQ(r.GetValue(1, 0).AsString(), "US");
  EXPECT_DOUBLE_EQ(r.GetValue(1, 1).AsDouble(), 10.0);
  // WN: avg=(1*100+3*300)/4=250
  EXPECT_DOUBLE_EQ(r.GetValue(2, 2).AsDouble(), 250.0);
}

TEST(Executor, GroupByDeterministicOrder) {
  Table t = FlightsMini();
  Table r1 = MustRun(t, "SELECT carrier, COUNT(*) FROM t GROUP BY carrier");
  Table r2 = MustRun(t, "SELECT carrier, COUNT(*) FROM t GROUP BY carrier");
  ASSERT_EQ(r1.num_rows(), r2.num_rows());
  for (size_t i = 0; i < r1.num_rows(); ++i) {
    EXPECT_TRUE(r1.GetValue(i, 0) == r2.GetValue(i, 0));
  }
}

TEST(Executor, WhereThenGroup) {
  Table t = FlightsMini();
  Table r = MustRun(t,
                    "SELECT carrier, SUM(dist) AS s FROM t WHERE dist >= 300 "
                    "GROUP BY carrier ORDER BY carrier");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(r.GetValue(0, 1).AsDouble(), 400.0);   // AA
  EXPECT_DOUBLE_EQ(r.GetValue(1, 1).AsDouble(), 1000.0);  // US
  EXPECT_DOUBLE_EQ(r.GetValue(2, 1).AsDouble(), 300.0);   // WN
}

TEST(Executor, PostAggregationArithmetic) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT SUM(dist) / COUNT(*) AS manual_avg FROM t");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 0).AsDouble(), 400.0);
}

TEST(Executor, DuplicateAggregatesShareOneSlot) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT AVG(dist), AVG(dist) FROM t");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 0).AsDouble(),
                   r.GetValue(0, 1).AsDouble());
}

TEST(Executor, EmptyGroupByResult) {
  Table t = FlightsMini();
  Table r = MustRun(
      t, "SELECT carrier, COUNT(*) FROM t WHERE dist > 99999 GROUP BY "
         "carrier");
  EXPECT_EQ(r.num_rows(), 0u);
}

TEST(Executor, GlobalCountOverEmptyIsZero) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT COUNT(*) FROM t WHERE dist > 99999");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetValue(0, 0).AsInt64(), 0);
}

TEST(Executor, AvgOverEmptyFails) {
  Table t = FlightsMini();
  auto r = RunQuery(t, "SELECT AVG(dist) FROM t WHERE dist > 99999");
  EXPECT_FALSE(r.ok());
}

TEST(Executor, OrderByDescAndLimit) {
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT carrier, dist FROM t ORDER BY dist DESC "
                       "LIMIT 2");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetValue(0, 1).AsInt64(), 1000);
  EXPECT_EQ(r.GetValue(1, 1).AsInt64(), 400);
}

TEST(Executor, OrderByAliasedAggregate) {
  Table t = FlightsMini();
  Table r = MustRun(
      t, "SELECT carrier, SUM(dist) AS total FROM t GROUP BY carrier "
         "ORDER BY total DESC");
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "US");
}

TEST(Executor, BareColumnOutsideGroupByRejected) {
  Table t = FlightsMini();
  auto r = RunQuery(t, "SELECT dist, COUNT(*) FROM t GROUP BY carrier");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(Executor, GroupByWithoutAggregateRejected) {
  Table t = FlightsMini();
  auto r = RunQuery(t, "SELECT carrier FROM t GROUP BY carrier");
  EXPECT_FALSE(r.ok());
}

TEST(Executor, StarWithGroupByRejected) {
  Table t = FlightsMini();
  EXPECT_FALSE(RunQuery(t, "SELECT * FROM t GROUP BY carrier").ok());
}

TEST(Executor, AggregateInWhereRejected) {
  Table t = FlightsMini();
  auto r = RunQuery(t, "SELECT COUNT(*) FROM t WHERE COUNT(*) > 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(Executor, MissingWeightColumnRejected) {
  Table t = FlightsMini();
  auto r = RunQuery(t, "SELECT COUNT(*) FROM t", "no_such_weight");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(Executor, OrderByUnknownColumnRejected) {
  Table t = FlightsMini();
  EXPECT_FALSE(RunQuery(t, "SELECT carrier, dist FROM t ORDER BY nope").ok());
}

TEST(Executor, WeightedEquivalentToReplication) {
  // A weighted sample with integer weights must answer exactly like
  // the table with rows physically replicated weight times.
  Table weighted = FlightsMini();
  Schema s;
  ASSERT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"dist", DataType::kInt64}).ok());
  Table replicated(s);
  for (size_t r = 0; r < weighted.num_rows(); ++r) {
    int64_t w = static_cast<int64_t>(weighted.GetValue(r, 2).AsDouble());
    for (int64_t k = 0; k < w; ++k) {
      ASSERT_TRUE(replicated
                      .AppendRow({weighted.GetValue(r, 0),
                                  weighted.GetValue(r, 1)})
                      .ok());
    }
  }
  Table rw = MustRun(weighted,
                     "SELECT carrier, COUNT(*) AS c, AVG(dist) AS a, "
                     "SUM(dist) AS s FROM t GROUP BY carrier",
                     "weight");
  Table rr = MustRun(replicated,
                     "SELECT carrier, COUNT(*) AS c, AVG(dist) AS a, "
                     "SUM(dist) AS s FROM t GROUP BY carrier");
  ASSERT_EQ(rw.num_rows(), rr.num_rows());
  for (size_t i = 0; i < rw.num_rows(); ++i) {
    EXPECT_EQ(rw.GetValue(i, 0).AsString(), rr.GetValue(i, 0).AsString());
    EXPECT_DOUBLE_EQ(rw.GetValue(i, 1).AsDouble(),
                     static_cast<double>(rr.GetValue(i, 1).AsInt64()));
    EXPECT_DOUBLE_EQ(rw.GetValue(i, 2).AsDouble(),
                     rr.GetValue(i, 2).AsDouble());
    EXPECT_DOUBLE_EQ(rw.GetValue(i, 3).AsDouble(),
                     rr.GetValue(i, 3).AsDouble());
  }
}

TEST(Executor, OrderByLimitIsTopNSelection) {
  // ORDER BY + LIMIT runs top-N selection (partial_sort) in the
  // batch path rather than a full sort + truncate; it must still
  // return exactly the stable-sorted prefix, with ties in original
  // row order — on both paths.
  Schema s;
  ASSERT_TRUE(s.AddColumn({"k", DataType::kInt64}).ok());
  ASSERT_TRUE(s.AddColumn({"id", DataType::kInt64}).ok());
  Table t(s);
  // Many duplicate keys so ties cross the LIMIT boundary.
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i % 5), Value(i)}).ok());
  }
  auto stmt = sql::ParseStatement("SELECT k, id FROM t ORDER BY k LIMIT 7");
  ASSERT_TRUE(stmt.ok());
  const auto& select = stmt->As<sql::SelectStmt>();
  for (bool row_path : {false, true}) {
    auto r = row_path ? oracle::ExecuteSelectRow(t, select, {})
                      : ExecuteSelect(t, select);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->num_rows(), 7u);
    // k == 0 rows are ids 0, 5, 10, ... in original order.
    for (size_t i = 0; i < 7; ++i) {
      EXPECT_EQ(r->GetValue(i, 0).AsInt64(), 0) << "path=" << row_path;
      EXPECT_EQ(r->GetValue(i, 1).AsInt64(), static_cast<int64_t>(5 * i))
          << "path=" << row_path;
    }
  }
}

TEST(Executor, OrderByDescLimitMatchesFullSort) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table t(s);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(((i * 37) % 100) * 0.5)}).ok());
  }
  Table full = MustRun(t, "SELECT x FROM t ORDER BY x DESC");
  Table top = MustRun(t, "SELECT x FROM t ORDER BY x DESC LIMIT 10");
  ASSERT_EQ(top.num_rows(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(top.GetValue(i, 0).AsDouble(), full.GetValue(i, 0).AsDouble());
  }
}

TEST(Executor, OrderByUnprojectedColumnWithLimit) {
  // ORDER BY over a source column that is not projected pre-sorts the
  // selection; LIMIT then truncates it.
  Table t = FlightsMini();
  Table r = MustRun(t, "SELECT carrier FROM t ORDER BY dist DESC LIMIT 2");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "US");
  EXPECT_EQ(r.GetValue(1, 0).AsString(), "AA");
}

TEST(Executor, GroupByOrderByLimit) {
  Table t = FlightsMini();
  auto stmt = sql::ParseStatement(
      "SELECT carrier, COUNT(*) AS c FROM t GROUP BY carrier "
      "ORDER BY c DESC LIMIT 2");
  ASSERT_TRUE(stmt.ok());
  ExecOptions opts;
  opts.weight_column = "weight";
  const auto& select = stmt->As<sql::SelectStmt>();
  for (bool row_path : {false, true}) {
    auto r = row_path ? oracle::ExecuteSelectRow(t, select, opts)
                      : ExecuteSelect(t, select, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->num_rows(), 2u);
    EXPECT_EQ(r->GetValue(0, 0).AsString(), "US");  // weight 10
    EXPECT_EQ(r->GetValue(1, 0).AsString(), "AA");  // weight 4
  }
}

// Aggregates bind with their output types, so a string MIN/MAX
// compares as a string in HAVING (it used to bind as DOUBLE and fail
// with "cannot compare DOUBLE with VARCHAR").
TEST(Executor, HavingComparesStringMinMax) {
  Table t = FlightsMini();
  Table r = MustRun(t,
                    "SELECT carrier, COUNT(*) AS c FROM t GROUP BY carrier "
                    "HAVING MIN(carrier) = 'AA'");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "AA");
  EXPECT_EQ(r.GetValue(0, 1).AsInt64(), 2);

  Schema s;
  ASSERT_TRUE(s.AddColumn({"k", DataType::kInt64}).ok());
  ASSERT_TRUE(s.AddColumn({"g", DataType::kString}).ok());
  Table u(s);
  for (const auto& [k, g] : std::vector<std::pair<int64_t, const char*>>{
           {1, "apple"}, {1, "zebra"}, {2, "kiwi"}, {2, "lime"}, {3, "pear"}}) {
    ASSERT_TRUE(u.AppendRow({Value(k), Value(g)}).ok());
  }
  Table m = MustRun(u,
                    "SELECT k, MAX(g) AS hi FROM u GROUP BY k "
                    "HAVING MAX(g) > 'm' ORDER BY k");
  ASSERT_EQ(m.num_rows(), 2u);
  EXPECT_EQ(m.GetValue(0, 0).AsInt64(), 1);
  EXPECT_EQ(m.GetValue(0, 1).AsString(), "zebra");
  EXPECT_EQ(m.GetValue(1, 0).AsInt64(), 3);
  EXPECT_EQ(m.GetValue(1, 1).AsString(), "pear");
}

// Arithmetic over an unweighted COUNT or an int MIN/MAX stays INT64;
// a weighted COUNT (the §5.3 SUM(w)) stays DOUBLE. The oracle agrees
// on every type.
TEST(Executor, ArithmeticOverAggregatesKeepsTheirTypes) {
  Table t = FlightsMini();
  const std::string unweighted =
      "SELECT COUNT(*) + 1 AS c1, MAX(dist) - MIN(dist) AS span FROM t";
  Table r = MustRun(t, unweighted);
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.schema().column(0).type, DataType::kInt64);
  EXPECT_EQ(r.schema().column(1).type, DataType::kInt64);
  EXPECT_EQ(r.GetValue(0, 0).AsInt64(), 6);
  EXPECT_EQ(r.GetValue(0, 1).AsInt64(), 900);

  const std::string weighted = "SELECT COUNT(*) * 2 AS c2 FROM t";
  Table w = MustRun(t, weighted, "weight");
  EXPECT_EQ(w.schema().column(0).type, DataType::kDouble);
  EXPECT_EQ(w.GetValue(0, 0).AsDouble(), 36.0);  // 2 * (1+3+2+2+10)

  for (const auto& [sql, weight] :
       std::vector<std::pair<std::string, std::string>>{
           {unweighted, ""}, {weighted, "weight"}}) {
    ExecOptions opts;
    opts.weight_column = weight;
    auto stmt = sql::ParseStatement(sql);
    ASSERT_TRUE(stmt.ok());
    auto row = oracle::ExecuteSelectRow(t, stmt->As<sql::SelectStmt>(), opts);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    Table batch = MustRun(t, sql, weight);
    ASSERT_TRUE(row->schema() == batch.schema()) << sql;
  }
}

// EXPLAIN ANALYZE's view of a GROUP BY: one `aggregate` span whose
// phases are group_keys, accumulate and emit, in that order.
TEST(Executor, GroupByTraceShowsAggregatePhases) {
  Table t = FlightsMini();
  auto stmt = sql::ParseStatement(
      "SELECT carrier, COUNT(*) AS c FROM t GROUP BY carrier "
      "HAVING MIN(dist) > 150");
  ASSERT_TRUE(stmt.ok());
  trace::QueryTrace trace;
  ExecOptions opts;
  opts.trace = &trace;
  auto r = ExecuteSelect(t, stmt->As<sql::SelectStmt>(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 2u);  // AA and US; WN's MIN(dist) is 100
  uint32_t aggregate = 0;
  std::vector<std::string> phases;
  for (const trace::Span& span : trace.Spans()) {
    if (span.name == "aggregate") aggregate = span.id;
  }
  ASSERT_NE(aggregate, 0u);
  for (const trace::Span& span : trace.Spans()) {
    if (span.parent == aggregate) phases.push_back(span.name);
  }
  EXPECT_EQ(phases,
            (std::vector<std::string>{"group_keys", "accumulate", "emit"}));
}

// ---------------------------------------------------------------------------
// Golden cases for BindAggregate. The row oracle binds through the
// same function, so a binder bug would not show as a parity failure;
// these pin what the binder produces on their own.
// ---------------------------------------------------------------------------

/// g string, i int64, d double, s string, b bool, w double (weights).
/// Group A is rows 0, 1, 3; group B is row 2.
Table TypedMini() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"g", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"i", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"d", DataType::kDouble}).ok());
  EXPECT_TRUE(s.AddColumn({"s", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"b", DataType::kBool}).ok());
  EXPECT_TRUE(s.AddColumn({"w", DataType::kDouble}).ok());
  Table t(s);
  auto add = [&](const char* g, int64_t i, double d, const char* str,
                 bool b, double w) {
    EXPECT_TRUE(
        t.AppendRow({Value(g), Value(i), Value(d), Value(str), Value(b),
                     Value(w)})
            .ok());
  };
  add("A", 3, 1.5, "m", true, 2.0);
  add("A", -1, 0.25, "c", false, 1.0);
  add("B", 7, -2.0, "x", true, 0.5);
  add("A", 5, 4.0, "a", true, 4.0);
  return t;
}

Result<AggregatePlan> Bind(const Table& t, const std::string& query,
                           bool weighted) {
  auto stmt = sql::ParseStatement(query);
  EXPECT_TRUE(stmt.ok()) << query << ": " << stmt.status().ToString();
  return BindAggregate(t.schema(), stmt->As<sql::SelectStmt>(), weighted);
}

/// Column index of a bound column reference (fails the test otherwise).
size_t RefSlot(const BoundExpr& e) {
  EXPECT_EQ(e.kind, BoundExpr::Kind::kColumnRef);
  return e.column_index;
}

TEST(BindAggregate, OutputTypeByFunctionArgumentAndWeighting) {
  const Table t = TypedMini();
  struct Case {
    std::string agg;
    DataType unweighted;
    DataType weighted;
  };
  const std::vector<Case> cases = {
      {"COUNT(*)", DataType::kInt64, DataType::kDouble},
      {"COUNT(i)", DataType::kInt64, DataType::kDouble},
      {"COUNT(s)", DataType::kInt64, DataType::kDouble},
      {"SUM(i)", DataType::kDouble, DataType::kDouble},
      {"SUM(d)", DataType::kDouble, DataType::kDouble},
      {"SUM(b)", DataType::kDouble, DataType::kDouble},
      {"SUM(s)", DataType::kDouble, DataType::kDouble},
      {"AVG(i)", DataType::kDouble, DataType::kDouble},
      {"AVG(b)", DataType::kDouble, DataType::kDouble},
      {"MIN(i)", DataType::kInt64, DataType::kInt64},
      {"MAX(d)", DataType::kDouble, DataType::kDouble},
      {"MIN(s)", DataType::kString, DataType::kString},
      {"MAX(b)", DataType::kBool, DataType::kBool},
  };
  for (const Case& c : cases) {
    for (bool weighted : {false, true}) {
      const DataType want = weighted ? c.weighted : c.unweighted;
      auto plan = Bind(t, "SELECT " + c.agg + " FROM t", weighted);
      ASSERT_TRUE(plan.ok()) << c.agg << ": " << plan.status().ToString();
      ASSERT_EQ(plan->specs.size(), 1u) << c.agg;
      const AggSpec& spec = plan->specs[0];
      EXPECT_EQ(spec.rendering, c.agg);
      EXPECT_EQ(spec.is_star, c.agg == "COUNT(*)") << c.agg;
      EXPECT_EQ(spec.arg == nullptr, spec.is_star) << c.agg;
      EXPECT_EQ(AggOutputType(spec, weighted), want) << c.agg;
      // A global aggregate has no key slots: the aggregate is slot 0,
      // and the item is a plain reference to it.
      ASSERT_EQ(plan->group_schema.num_columns(), 1u) << c.agg;
      EXPECT_EQ(plan->group_schema.column(0).name, "$agg0");
      EXPECT_EQ(plan->group_schema.column(0).type, want) << c.agg;
      ASSERT_EQ(plan->items.size(), 1u);
      EXPECT_EQ(RefSlot(*plan->items[0]), 0u) << c.agg;
      EXPECT_EQ(plan->out_schema.column(0).type, want) << c.agg;
      EXPECT_EQ(plan->out_schema.column(0).name, c.agg);
    }
  }
}

TEST(BindAggregate, GroupSchemaSlotLayout) {
  const Table t = TypedMini();
  auto plan = Bind(t,
                   "SELECT g, SUM(d) AS sd, COUNT(*) + 1 AS c1, MIN(s) "
                   "FROM t GROUP BY g, b HAVING COUNT(*) > 1 AND MAX(i) > 0",
                   /*weighted=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->group_cols, (std::vector<size_t>{0, 4}));
  EXPECT_EQ(plan->key_cols, (std::vector<size_t>{0, 4}));
  // Keys first (source names and types), then one slot per distinct
  // aggregate in first-mention order: items left to right, then HAVING.
  const Schema& gs = plan->group_schema;
  ASSERT_EQ(gs.num_columns(), 6u);
  const std::vector<std::pair<std::string, DataType>> want = {
      {"g", DataType::kString},    {"b", DataType::kBool},
      {"$agg0", DataType::kDouble}, {"$agg1", DataType::kDouble},
      {"$agg2", DataType::kString}, {"$agg3", DataType::kInt64}};
  for (size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(gs.column(c).name, want[c].first) << c;
    EXPECT_EQ(gs.column(c).type, want[c].second) << c;
  }
  ASSERT_EQ(plan->specs.size(), 4u);
  EXPECT_EQ(plan->specs[0].rendering, "SUM(d)");
  EXPECT_EQ(plan->specs[1].rendering, "COUNT(*)");
  EXPECT_EQ(plan->specs[2].rendering, "MIN(s)");
  EXPECT_EQ(plan->specs[3].rendering, "MAX(i)");
  // Aggregate arguments bind against the source schema.
  EXPECT_EQ(RefSlot(*plan->specs[0].arg), 2u);
  EXPECT_EQ(RefSlot(*plan->specs[2].arg), 3u);
  EXPECT_EQ(RefSlot(*plan->specs[3].arg), 1u);
  // Items bind against the group schema.
  ASSERT_EQ(plan->items.size(), 4u);
  EXPECT_EQ(RefSlot(*plan->items[0]), 0u);
  EXPECT_EQ(RefSlot(*plan->items[1]), 2u);
  ASSERT_EQ(plan->items[2]->kind, BoundExpr::Kind::kBinary);
  EXPECT_EQ(RefSlot(*plan->items[2]->left), 3u);
  EXPECT_EQ(plan->items[2]->type, DataType::kDouble);
  EXPECT_EQ(RefSlot(*plan->items[3]), 4u);
  // HAVING reuses COUNT(*)'s slot and adds MAX(i)'s.
  ASSERT_NE(plan->having, nullptr);
  ASSERT_EQ(plan->having->kind, BoundExpr::Kind::kBinary);
  EXPECT_EQ(RefSlot(*plan->having->left->left), 3u);
  EXPECT_EQ(RefSlot(*plan->having->right->left), 5u);
  const Schema& out = plan->out_schema;
  ASSERT_EQ(out.num_columns(), 4u);
  EXPECT_EQ(out.column(0).name, "g");
  EXPECT_EQ(out.column(1).name, "sd");
  EXPECT_EQ(out.column(2).name, "c1");
  EXPECT_EQ(out.column(3).name, "MIN(s)");
  EXPECT_EQ(out.column(3).type, DataType::kString);
}

TEST(BindAggregate, RepeatedGroupByColumnIsOneKeySlot) {
  const Table t = TypedMini();
  auto plan = Bind(t, "SELECT g, COUNT(*) FROM t GROUP BY g, i, g",
                   /*weighted=*/false);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->group_cols, (std::vector<size_t>{0, 1, 0}));
  EXPECT_EQ(plan->key_cols, (std::vector<size_t>{0, 1}));
  ASSERT_EQ(plan->group_schema.num_columns(), 3u);
  EXPECT_EQ(plan->group_schema.column(2).type, DataType::kInt64);
  EXPECT_EQ(RefSlot(*plan->items[1]), 2u);

  // Executing it groups as GROUP BY g, i would.
  Table r = MustRun(t, "SELECT g, COUNT(*) AS c FROM t GROUP BY g, i, g");
  Table once = MustRun(t, "SELECT g, COUNT(*) AS c FROM t GROUP BY g, i");
  ASSERT_EQ(r.num_rows(), 4u);
  ASSERT_EQ(once.num_rows(), r.num_rows());
  for (size_t row = 0; row < r.num_rows(); ++row) {
    EXPECT_EQ(r.GetValue(row, 0).AsString(), once.GetValue(row, 0).AsString());
    EXPECT_EQ(r.GetValue(row, 1).AsInt64(), 1);
  }
}

TEST(BindAggregate, AggregateOnlyInHavingGetsASlotButNoColumn) {
  const Table t = TypedMini();
  auto plan = Bind(t, "SELECT g FROM t GROUP BY g HAVING AVG(d) > 1.0",
                   /*weighted=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->specs.size(), 1u);
  EXPECT_EQ(plan->specs[0].rendering, "AVG(d)");
  ASSERT_EQ(plan->group_schema.num_columns(), 2u);
  EXPECT_EQ(plan->group_schema.column(1).type, DataType::kDouble);
  ASSERT_EQ(plan->out_schema.num_columns(), 1u);
  EXPECT_EQ(plan->out_schema.column(0).name, "g");
  EXPECT_EQ(RefSlot(*plan->having->left), 1u);

  // Weighted AVG(d): A = 19.25 / 7 = 2.75, B = -2.0, so only A stays.
  Table r = MustRun(t, "SELECT g FROM t GROUP BY g HAVING AVG(d) > 1.0", "w");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.num_columns(), 1u);
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "A");
}

TEST(BindAggregate, BindErrors) {
  const Table t = TypedMini();
  EXPECT_EQ(Bind(t, "SELECT SUM(MAX(i)) FROM t", false).status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(Bind(t, "SELECT i, COUNT(*) FROM t GROUP BY g", false)
                .status()
                .code(),
            StatusCode::kBindError);
  EXPECT_EQ(Bind(t, "SELECT COUNT(*) FROM t GROUP BY nope", false)
                .status()
                .code(),
            StatusCode::kBindError);
  EXPECT_EQ(Bind(t, "SELECT g FROM t GROUP BY g HAVING COUNT(*)", false)
                .status()
                .code(),
            StatusCode::kTypeError);
}

// Hand-computed answers of every aggregate over every argument type,
// weighted and unweighted, grouped by g (rows: A then B).
TEST(BindAggregate, GoldenAnswersByTypeAndWeighting) {
  const Table t = TypedMini();
  struct Case {
    std::string agg;
    bool weighted;
    Value a;
    Value b;
  };
  const std::vector<Case> cases = {
      {"COUNT(*)", false, Value(int64_t{3}), Value(int64_t{1})},
      {"COUNT(d)", false, Value(int64_t{3}), Value(int64_t{1})},
      {"COUNT(*)", true, Value(7.0), Value(0.5)},
      {"COUNT(s)", true, Value(7.0), Value(0.5)},
      {"SUM(i)", false, Value(7.0), Value(7.0)},
      {"SUM(i)", true, Value(25.0), Value(3.5)},
      {"SUM(d)", false, Value(5.75), Value(-2.0)},
      {"SUM(d)", true, Value(19.25), Value(-1.0)},
      {"SUM(b)", false, Value(2.0), Value(1.0)},
      {"SUM(b)", true, Value(6.0), Value(0.5)},
      {"AVG(i)", false, Value(7.0 / 3.0), Value(7.0)},
      {"AVG(i)", true, Value(25.0 / 7.0), Value(7.0)},
      {"AVG(d)", false, Value(5.75 / 3.0), Value(-2.0)},
      {"AVG(d)", true, Value(2.75), Value(-2.0)},
      {"AVG(b)", true, Value(6.0 / 7.0), Value(1.0)},
      {"MIN(i)", false, Value(int64_t{-1}), Value(int64_t{7})},
      {"MAX(i)", true, Value(int64_t{5}), Value(int64_t{7})},
      {"MIN(d)", true, Value(0.25), Value(-2.0)},
      {"MAX(d)", false, Value(4.0), Value(-2.0)},
      {"MIN(s)", true, Value("a"), Value("x")},
      {"MAX(s)", false, Value("m"), Value("x")},
      {"MIN(b)", false, Value(false), Value(true)},
      {"MAX(b)", true, Value(true), Value(true)},
  };
  for (const Case& c : cases) {
    const std::string query =
        "SELECT g, " + c.agg + " AS v FROM t GROUP BY g ORDER BY g";
    const std::string what = query + (c.weighted ? " [weighted]" : "");
    Table r = MustRun(t, query, c.weighted ? "w" : "");
    ASSERT_EQ(r.num_rows(), 2u) << what;
    EXPECT_EQ(r.schema().column(1).type, c.a.type()) << what;
    for (size_t row = 0; row < 2; ++row) {
      const Value& want = row == 0 ? c.a : c.b;
      const Value got = r.GetValue(row, 1);
      ASSERT_EQ(got.type(), want.type()) << what;
      switch (want.type()) {
        case DataType::kInt64:
          EXPECT_EQ(got.AsInt64(), want.AsInt64()) << what;
          break;
        case DataType::kDouble:
          // Exact: each golden value is the same sequence of IEEE
          // operations the executor performs.
          EXPECT_EQ(got.AsDouble(), want.AsDouble()) << what;
          break;
        case DataType::kString:
          EXPECT_EQ(got.AsString(), want.AsString()) << what;
          break;
        case DataType::kBool:
          EXPECT_EQ(got.AsBool(), want.AsBool()) << what;
          break;
        default:
          ADD_FAILURE() << what;
      }
    }
  }
  // SUM over a string binds (as DOUBLE) but fails at execution.
  EXPECT_FALSE(RunQuery(t, "SELECT SUM(s) FROM t").ok());
  EXPECT_FALSE(RunQuery(t, "SELECT g, AVG(s) FROM t GROUP BY g", "w").ok());
}

}  // namespace
}  // namespace exec
}  // namespace mosaic
