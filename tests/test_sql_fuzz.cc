// Cross-path SQL parity fuzzer: randomized queries must be
// bit-identical between the test-only row oracle
// (tests/oracle/row_oracle.h) and the vectorized batch executor, traced
// and untraced. Two layers:
//
//   - executor-level: random schemas/tables/SELECTs straight through
//     exec::ExecuteSelect, weighted and unweighted, over whole tables
//     and over engine-shaped views (an external weight span plus a
//     selection vector), each checked against the oracle;
//   - engine-level: a fixed Mosaic world (a GP and a derived
//     population) queried at every visibility level (CLOSED /
//     SEMI-OPEN / OPEN, plus direct sample and auxiliary-table access)
//     through Database instances that differ only in tracing. Routing
//     is shared, so the oracle leg lives at the executor level, fed
//     the same view + selection shape the engine hands the executor.
//
// Queries that fail must fail identically (same status string) on
// every path.
//
// A third, front-end layer checks that the lex-once entry points
// (sql::ParseTokens, service::CanonicalizeTokens) agree with their
// string wrappers, and that respellings sharing a result-cache key
// parse alike and read the same cache subject.
#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/database.h"
#include "exec/executor.h"
#include "oracle/row_oracle.h"
#include "service/sql_canonical.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace mosaic {
namespace exec {
namespace {

constexpr const char* kStrings[] = {"aa", "bb", "cc", "dd", "ee", "zz"};

struct RandomRelation {
  Table table;
  std::vector<std::string> int_cols;
  std::vector<std::string> dbl_cols;
  std::vector<std::string> str_cols;
  std::vector<std::string> bool_cols;
  bool has_weight = false;

  std::vector<std::string> AllDataCols() const {
    std::vector<std::string> all;
    for (const auto& c : int_cols) all.push_back(c);
    for (const auto& c : dbl_cols) all.push_back(c);
    for (const auto& c : str_cols) all.push_back(c);
    for (const auto& c : bool_cols) all.push_back(c);
    return all;
  }
  std::vector<std::string> NumericCols() const {
    std::vector<std::string> all;
    for (const auto& c : int_cols) all.push_back(c);
    for (const auto& c : dbl_cols) all.push_back(c);
    return all;
  }
};

template <typename T>
const T& Pick(Rng* rng, const std::vector<T>& v) {
  return v[rng->UniformInt(uint64_t{v.size()})];
}

RandomRelation MakeRelation(Rng* rng) {
  RandomRelation rel;
  Schema schema;
  size_t n_int = 1 + rng->UniformInt(uint64_t{2});
  size_t n_dbl = 1 + rng->UniformInt(uint64_t{2});
  size_t n_str = 1 + rng->UniformInt(uint64_t{2});
  size_t n_bool = rng->UniformInt(uint64_t{2});
  for (size_t i = 0; i < n_int; ++i) {
    rel.int_cols.push_back("i" + std::to_string(i));
    EXPECT_TRUE(
        schema.AddColumn({rel.int_cols.back(), DataType::kInt64}).ok());
  }
  for (size_t i = 0; i < n_dbl; ++i) {
    rel.dbl_cols.push_back("d" + std::to_string(i));
    EXPECT_TRUE(
        schema.AddColumn({rel.dbl_cols.back(), DataType::kDouble}).ok());
  }
  for (size_t i = 0; i < n_str; ++i) {
    rel.str_cols.push_back("s" + std::to_string(i));
    EXPECT_TRUE(
        schema.AddColumn({rel.str_cols.back(), DataType::kString}).ok());
  }
  for (size_t i = 0; i < n_bool; ++i) {
    rel.bool_cols.push_back("b" + std::to_string(i));
    EXPECT_TRUE(
        schema.AddColumn({rel.bool_cols.back(), DataType::kBool}).ok());
  }
  rel.has_weight = rng->Bernoulli(0.5);
  if (rel.has_weight) {
    EXPECT_TRUE(schema.AddColumn({"w", DataType::kDouble}).ok());
  }
  rel.table = Table(schema);
  // 0..150 rows, empty tables included.
  size_t rows = rng->UniformInt(uint64_t{151});
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t i = 0; i < n_int; ++i) {
      row.emplace_back(rng->UniformInt(int64_t{-5}, int64_t{10}));
    }
    for (size_t i = 0; i < n_dbl; ++i) {
      // Small value set so GROUP BY over doubles collides.
      row.emplace_back(-2.5 + 1.25 * rng->UniformInt(int64_t{0}, int64_t{7}));
    }
    for (size_t i = 0; i < n_str; ++i) {
      row.emplace_back(kStrings[rng->UniformInt(uint64_t{6})]);
    }
    for (size_t i = 0; i < n_bool; ++i) {
      row.emplace_back(rng->Bernoulli(0.5));
    }
    if (rel.has_weight) {
      row.emplace_back(0.25 * (1 + rng->UniformInt(uint64_t{8})));
    }
    EXPECT_TRUE(rel.table.AppendRow(row).ok());
  }
  return rel;
}

std::string RandomLiteralFor(Rng* rng, const RandomRelation& rel,
                             const std::string& col) {
  for (const auto& c : rel.str_cols) {
    if (c == col) {
      if (rng->Bernoulli(0.2)) return "'nope'";  // dictionary miss
      return std::string("'") + kStrings[rng->UniformInt(uint64_t{6})] + "'";
    }
  }
  for (const auto& c : rel.bool_cols) {
    if (c == col) return rng->Bernoulli(0.5) ? "TRUE" : "FALSE";
  }
  for (const auto& c : rel.dbl_cols) {
    if (c == col) {
      return StrFormat("%.2f",
                       -2.5 + 1.25 * rng->UniformInt(int64_t{0}, int64_t{7}));
    }
  }
  return std::to_string(rng->UniformInt(int64_t{-5}, int64_t{10}));
}

std::string RandomPredicate(Rng* rng, const RandomRelation& rel, int depth) {
  if (depth > 0 && rng->Bernoulli(0.45)) {
    std::string l = RandomPredicate(rng, rel, depth - 1);
    switch (rng->UniformInt(uint64_t{3})) {
      case 0:
        return "(" + l + " AND " + RandomPredicate(rng, rel, depth - 1) + ")";
      case 1:
        return "(" + l + " OR " + RandomPredicate(rng, rel, depth - 1) + ")";
      default:
        return "NOT (" + l + ")";
    }
  }
  auto all = rel.AllDataCols();
  const std::string& col = Pick(rng, all);
  switch (rng->UniformInt(uint64_t{4})) {
    case 0: {
      static const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
      return col + " " + ops[rng->UniformInt(uint64_t{6})] + " " +
             RandomLiteralFor(rng, rel, col);
    }
    case 1: {
      std::string list = RandomLiteralFor(rng, rel, col);
      size_t extra = rng->UniformInt(uint64_t{3});
      for (size_t i = 0; i < extra; ++i) {
        list += ", " + RandomLiteralFor(rng, rel, col);
      }
      return col + " IN (" + list + ")";
    }
    case 2: {
      for (const auto& c : rel.NumericCols()) {
        if (c == col) {
          std::string lo = RandomLiteralFor(rng, rel, col);
          std::string hi = RandomLiteralFor(rng, rel, col);
          return col + " BETWEEN " + lo + " AND " + hi;
        }
      }
      return col + " = " + RandomLiteralFor(rng, rel, col);
    }
    default: {
      return col + " >= " + RandomLiteralFor(rng, rel, col);
    }
  }
}

std::string RandomScalarExpr(Rng* rng, const RandomRelation& rel) {
  auto nums = rel.NumericCols();
  const std::string& a = Pick(rng, nums);
  switch (rng->UniformInt(uint64_t{5})) {
    case 0:
      return a;
    case 1:
      return "(" + a + " + " + Pick(rng, nums) + ")";
    case 2:
      return "(" + a + " * 2)";
    case 3:
      // Division can raise runtime errors mid-batch; every path must
      // surface the identical failure.
      return "(" + a + " / " + Pick(rng, nums) + ")";
    default:
      return "(" + a + " - 1)";
  }
}

/// Arithmetic over aggregates, typed by the aggregates' output types
/// (INT64 over an unweighted COUNT or an int MIN/MAX, else DOUBLE).
/// The division fails on the empty global group (COUNT(*) = 0).
std::string RandomAggregateArithmetic(Rng* rng, const RandomRelation& rel) {
  auto nums = rel.NumericCols();
  const std::string& a = Pick(rng, nums);
  switch (rng->UniformInt(uint64_t{3})) {
    case 0:
      return "COUNT(*) + 1";
    case 1:
      return "MAX(" + a + ") - MIN(" + a + ")";
    default:
      return "SUM(" + a + ") / COUNT(*)";
  }
}

/// HAVING over a count, a string MIN/MAX, or arithmetic over
/// aggregates.
std::string RandomHaving(Rng* rng, const RandomRelation& rel) {
  switch (rng->UniformInt(uint64_t{3})) {
    case 0:
      return "COUNT(*) >= " +
             std::to_string(rng->UniformInt(int64_t{0}, int64_t{3}));
    case 1: {
      static const char* ops[] = {"=", "!=", "<", ">="};
      const std::string& s = Pick(rng, rel.str_cols);
      return std::string(rng->Bernoulli(0.5) ? "MIN(" : "MAX(") + s + ") " +
             ops[rng->UniformInt(uint64_t{4})] + " " +
             RandomLiteralFor(rng, rel, s);
    }
    default:
      return RandomAggregateArithmetic(rng, rel) + " > " +
             std::to_string(rng->UniformInt(int64_t{-2}, int64_t{6}));
  }
}

std::string RandomQuery(Rng* rng, const RandomRelation& rel) {
  std::string sql = "SELECT ";
  std::vector<std::string> group_by;
  const int form = static_cast<int>(rng->UniformInt(uint64_t{4}));
  if (form == 0) {
    sql += "*";
  } else if (form == 1) {
    size_t n_items = 1 + rng->UniformInt(uint64_t{3});
    for (size_t i = 0; i < n_items; ++i) {
      if (i > 0) sql += ", ";
      if (rng->Bernoulli(0.3)) {
        sql += RandomScalarExpr(rng, rel) + " AS e" + std::to_string(i);
      } else {
        auto all = rel.AllDataCols();
        sql += Pick(rng, all);
      }
    }
  } else {
    size_t n_groups = rng->UniformInt(uint64_t{3});
    auto all = rel.AllDataCols();
    for (size_t i = 0; i < n_groups && i < all.size(); ++i) {
      const std::string& g = Pick(rng, all);
      bool dup = false;
      for (const auto& existing : group_by) {
        if (existing == g) dup = true;
      }
      if (!dup) group_by.push_back(g);
    }
    std::vector<std::string> items = group_by;
    size_t n_aggs = 1 + rng->UniformInt(uint64_t{3});
    auto nums = rel.NumericCols();
    for (size_t i = 0; i < n_aggs; ++i) {
      switch (rng->UniformInt(uint64_t{7})) {
        case 0:
          items.push_back("COUNT(*)");
          break;
        case 1:
          items.push_back("COUNT(" + Pick(rng, nums) + ")");
          break;
        case 2:
          items.push_back("SUM(" + RandomScalarExpr(rng, rel) + ")");
          break;
        case 3:
          items.push_back("AVG(" + Pick(rng, nums) + ")");
          break;
        case 4: {
          auto cols = rel.AllDataCols();
          items.push_back("MIN(" + Pick(rng, cols) + ")");
          break;
        }
        case 5: {
          auto cols = rel.AllDataCols();
          items.push_back("MAX(" + Pick(rng, cols) + ")");
          break;
        }
        default:
          items.push_back(RandomAggregateArithmetic(rng, rel));
          break;
      }
    }
    sql += Join(items, ", ");
  }
  sql += " FROM t";
  if (rng->Bernoulli(0.7)) {
    sql += " WHERE " + RandomPredicate(rng, rel, 2);
  }
  if (!group_by.empty()) {
    sql += " GROUP BY " + Join(group_by, ", ");
    if (rng->Bernoulli(0.4)) sql += " HAVING " + RandomHaving(rng, rel);
  }
  if (rng->Bernoulli(0.5)) {
    std::vector<std::string> order_cols =
        form >= 2 ? group_by : rel.AllDataCols();
    if (!order_cols.empty()) {
      sql += " ORDER BY " + Pick(rng, order_cols);
      if (rng->Bernoulli(0.5)) sql += " DESC";
    }
  }
  if (rng->Bernoulli(0.4)) {
    sql += " LIMIT " + std::to_string(rng->UniformInt(uint64_t{8}));
  }
  return sql;
}

/// Bit-level value equality: same type and same exact payload.
bool ValuesIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case DataType::kDouble:
      return a.AsDouble() == b.AsDouble();
    case DataType::kBool:
      return a.AsBool() == b.AsBool();
    case DataType::kString:
      return a.AsString() == b.AsString();
    default:
      return true;
  }
}

void ExpectTablesIdentical(const Table& want, const Table& got,
                           const std::string& context) {
  ASSERT_TRUE(want.schema() == got.schema())
      << context << "\n want: " << want.schema().ToString()
      << "\n got: " << got.schema().ToString();
  ASSERT_EQ(want.num_rows(), got.num_rows()) << context;
  for (size_t r = 0; r < want.num_rows(); ++r) {
    for (size_t c = 0; c < want.num_columns(); ++c) {
      ASSERT_TRUE(ValuesIdentical(want.GetValue(r, c), got.GetValue(r, c)))
          << context << "\n at (" << r << ", " << c
          << "): want=" << want.GetValue(r, c).ToString()
          << " got=" << got.GetValue(r, c).ToString();
    }
  }
}

/// A relation in the engine's shape: the data columns as spans of the
/// table, the weight `w` as an external double span (the table's own
/// weights, or fresh ones for an unweighted table), and a random
/// selection standing in for a population restriction — what
/// core::Database hands the executor for a sample or population.
struct EngineShaped {
  std::vector<double> weights;
  TableView view;
  SelectionVector sel;
  Table materialized;  ///< view.Materialize(sel): the oracle's input
};

void MakeEngineShaped(Rng* rng, const RandomRelation& rel,
                      EngineShaped* out) {
  const Table& t = rel.table;
  const std::optional<size_t> w = t.schema().FindColumn("w");
  Schema schema;
  std::vector<ColumnSpan> spans;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (c == w) continue;
    ASSERT_TRUE(schema.AddColumn(t.schema().column(c)).ok());
    spans.push_back(ColumnSpan::FromColumn(t.column(c)));
  }
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out->weights.push_back(w ? t.GetValue(r, *w).AsDouble()
                             : 0.25 * (1 + rng->UniformInt(uint64_t{8})));
  }
  ASSERT_TRUE(schema.AddColumn({"w", DataType::kDouble}).ok());
  spans.push_back(
      ColumnSpan::FromDoubles(out->weights.data(), out->weights.size()));
  out->view = TableView::FromSpans(std::move(schema), std::move(spans),
                                   t.num_rows());
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    if (rng->Bernoulli(0.7)) rows.push_back(r);
  }
  out->sel = SelectionVector(rows);
  out->materialized = out->view.Materialize(out->sel);
}

/// The oracle's and a batch run's outcomes agree: identical tables or
/// identical failure statuses.
void ExpectSameOutcome(const Result<Table>& want, const Result<Table>& got,
                       const std::string& context) {
  EXPECT_EQ(want.ok(), got.ok())
      << context << "\n want: " << want.status().ToString()
      << "\n got: " << got.status().ToString();
  if (want.ok() && got.ok()) {
    ExpectTablesIdentical(*want, *got, context);
  } else if (!want.ok() && !got.ok()) {
    EXPECT_EQ(want.status().ToString(), got.status().ToString()) << context;
  }
}

/// Runs one statement on every path and checks bit-identity (or
/// identical failure). Returns true if the query executed OK.
bool CheckExecutorParity(const RandomRelation& rel,
                         const EngineShaped& engine, const std::string& sql) {
  auto parsed = sql::ParseStatement(sql);
  EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
  if (!parsed.ok()) return false;
  const auto& stmt = parsed->As<sql::SelectStmt>();
  const Table& table = rel.table;

  ExecOptions batch_opts;
  if (rel.has_weight) batch_opts.weight_column = "w";
  auto row_res = oracle::ExecuteSelectRow(table, stmt, batch_opts);
  auto batch_res = ExecuteSelect(table, stmt, batch_opts);
  ExpectSameOutcome(row_res, batch_res, "batch: " + sql);

  // Engine-shaped inputs: the batch path runs on the view + selection
  // directly, the oracle on their materialization.
  ExecOptions view_opts = batch_opts;
  view_opts.weight_column = "w";
  auto view_row_res =
      oracle::ExecuteSelectRow(engine.materialized, stmt, view_opts);
  ExpectSameOutcome(view_row_res,
                    ExecuteSelect(engine.view, engine.sel, stmt, view_opts),
                    "view+selection: " + sql);

  // Tracing must never change results: the batch path with a live
  // QueryTrace attached is bit-identical to the untraced run (or
  // fails with the identical status).
  {
    trace::QueryTrace query_trace;
    ExecOptions traced_opts = batch_opts;
    traced_opts.trace = &query_trace;
    auto traced_res = ExecuteSelect(table, stmt, traced_opts);
    EXPECT_EQ(batch_res.ok(), traced_res.ok())
        << sql << "\n batch: " << batch_res.status().ToString()
        << "\n traced: " << traced_res.status().ToString();
    if (batch_res.ok() && traced_res.ok()) {
      ExpectTablesIdentical(*batch_res, *traced_res, "traced: " + sql);
    } else if (!batch_res.ok() && !traced_res.ok()) {
      EXPECT_EQ(batch_res.status().ToString(),
                traced_res.status().ToString())
          << sql;
    }
  }
  return row_res.ok();
}

TEST(SqlFuzz, ExecutorPathsBitIdentical) {
  size_t oks = 0;
  size_t total = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(0x51ab1ec0ffee * (seed + 1) + 29);
    RandomRelation rel = MakeRelation(&rng);
    Rng view_rng(0x2545f4914f6cdd1d * (seed + 1) + 7);
    EngineShaped engine;
    MakeEngineShaped(&view_rng, rel, &engine);
    for (int q = 0; q < 40; ++q) {
      std::string sql = RandomQuery(&rng, rel);
      ++total;
      if (CheckExecutorParity(rel, engine, sql)) {
        ++oks;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The acceptance bar: at least 200 random queries executed OK and
  // bit-identical on every path.
  EXPECT_GE(oks, 200u) << "only " << oks << "/" << total
                       << " generated queries executed";
}

// ---------------------------------------------------------------------------
// Engine-level: all three visibility levels through core::Database
// ---------------------------------------------------------------------------

/// A small open-world setup: GP with two categorical attributes and
/// one numeric, color/size marginals, and a deterministic
/// pseudo-random sample. Identical across the three engines under
/// test.
void SetUpFuzzWorld(core::Database* db) {
  auto ok = [db](const std::string& sql) {
    auto r = db->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  ok("CREATE GLOBAL POPULATION Things (color VARCHAR, size VARCHAR, n INT)");
  ok("CREATE TABLE ColorReport (color VARCHAR, cnt INT)");
  ok("INSERT INTO ColorReport VALUES ('red', 55), ('blue', 45)");
  ok("CREATE TABLE SizeReport (size VARCHAR, cnt INT)");
  ok("INSERT INTO SizeReport VALUES ('S', 40), ('M', 30), ('L', 30)");
  ok("CREATE METADATA Things_M1 AS (SELECT color, cnt FROM ColorReport)");
  ok("CREATE METADATA Things_M2 AS (SELECT size, cnt FROM SizeReport)");
  ok("CREATE SAMPLE Snap AS (SELECT * FROM Things)");
  // A derived population without its own metadata: CLOSED restricts
  // the sample, SEMI-OPEN reweights the restriction to the GP
  // marginals, and OPEN filters GP-generated rows by the predicate.
  ok("CREATE POPULATION SmallThings AS "
     "(SELECT * FROM Things WHERE size = 'S')");
  // Biased-ish deterministic sample: reds over-represented.
  Rng rng(20260726);
  static const char* colors[] = {"red", "red", "red", "blue"};
  static const char* sizes[] = {"S", "S", "M", "L"};
  std::vector<std::string> tuples;
  for (int i = 0; i < 48; ++i) {
    tuples.push_back(StrFormat(
        "('%s', '%s', %d)", colors[rng.UniformInt(uint64_t{4})],
        sizes[rng.UniformInt(uint64_t{4})],
        static_cast<int>(rng.UniformInt(int64_t{0}, int64_t{9}))));
  }
  ok("INSERT INTO Snap VALUES " + Join(tuples, ", "));
  // Cheap deterministic OPEN training/generation budget, just large
  // enough that generated rows cover every size (so SmallThings' OPEN
  // restriction keeps some).
  auto* open = db->mutable_open_options();
  open->mswg.epochs = 6;
  open->mswg.steps_per_epoch = 8;
  open->mswg.batch_size = 32;
  open->mswg.num_projections = 16;
  open->mswg.projections_per_step = 4;
  open->mswg.hidden_layers = 1;
  open->mswg.hidden_nodes = 8;
  open->generated_rows = 48;
  open->num_generated_samples = 2;
}

/// Random query against the fuzz world. `kind` 0-5 = a population
/// (4-5 the derived SmallThings) with a random visibility, 6 = direct
/// sample access (weighted view), 7 = auxiliary table.
std::string RandomWorldQuery(Rng* rng, int* open_queries) {
  const int kind = static_cast<int>(rng->UniformInt(uint64_t{8}));
  std::string from = kind >= 4 && kind <= 5 ? "SmallThings" : "Things";
  std::string vis;
  std::vector<std::string> str_cols = {"color", "size"};
  std::vector<std::string> num_cols = {"n"};
  if (kind == 6) {
    from = "Snap";
    num_cols.push_back("weight");
  } else if (kind == 7) {
    from = "ColorReport";
    str_cols = {"color"};
    num_cols = {"cnt"};
  } else {
    switch (rng->UniformInt(uint64_t{4})) {
      case 0:
        break;  // default visibility (CLOSED)
      case 1:
        vis = "CLOSED ";
        break;
      case 2:
        vis = "SEMI-OPEN ";
        break;
      default:
        if (*open_queries >= 8) {
          vis = "SEMI-OPEN ";  // cap OPEN work; generation dominates
        } else {
          vis = "OPEN ";
          ++(*open_queries);
        }
        break;
    }
  }
  std::vector<std::string> all = str_cols;
  all.insert(all.end(), num_cols.begin(), num_cols.end());

  auto literal = [&](const std::string& col) -> std::string {
    if (col == "color") {
      static const char* v[] = {"'red'", "'blue'", "'green'"};
      return v[rng->UniformInt(uint64_t{3})];
    }
    if (col == "size") {
      static const char* v[] = {"'S'", "'M'", "'L'", "'XL'"};
      return v[rng->UniformInt(uint64_t{4})];
    }
    if (col == "weight") {
      return StrFormat("%.2f", rng->Uniform(0.0, 3.0));
    }
    return std::to_string(rng->UniformInt(int64_t{0}, int64_t{60}));
  };
  auto predicate = [&]() -> std::string {
    const std::string& col = Pick(rng, all);
    switch (rng->UniformInt(uint64_t{3})) {
      case 0: {
        static const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
        return col + " " + ops[rng->UniformInt(uint64_t{6})] + " " +
               literal(col);
      }
      case 1:
        return col + " IN (" + literal(col) + ", " + literal(col) + ")";
      default:
        for (const auto& c : num_cols) {
          if (c == col) {
            return col + " BETWEEN " + literal(col) + " AND " + literal(col);
          }
        }
        return col + " = " + literal(col);
    }
  };

  std::string sql = "SELECT " + vis;
  std::vector<std::string> group_by;
  const int form = static_cast<int>(rng->UniformInt(uint64_t{3}));
  if (form == 0) {
    sql += "*";
  } else if (form == 1) {
    size_t n_items = 1 + rng->UniformInt(uint64_t{2});
    std::vector<std::string> items;
    for (size_t i = 0; i < n_items; ++i) items.push_back(Pick(rng, all));
    sql += Join(items, ", ");
  } else {
    size_t n_groups = rng->UniformInt(uint64_t{2});
    for (size_t i = 0; i < n_groups; ++i) {
      const std::string& g = Pick(rng, str_cols);
      bool dup = false;
      for (const auto& existing : group_by) {
        if (existing == g) dup = true;
      }
      if (!dup) group_by.push_back(g);
    }
    std::vector<std::string> items = group_by;
    size_t n_aggs = 1 + rng->UniformInt(uint64_t{2});
    for (size_t i = 0; i < n_aggs; ++i) {
      switch (rng->UniformInt(uint64_t{5})) {
        case 0:
          items.push_back("COUNT(*)");
          break;
        case 1:
          items.push_back("SUM(" + Pick(rng, num_cols) + ")");
          break;
        case 2:
          items.push_back("AVG(" + Pick(rng, num_cols) + ")");
          break;
        case 3:
          items.push_back("MIN(" + Pick(rng, all) + ")");
          break;
        default:
          items.push_back("MAX(" + Pick(rng, all) + ")");
          break;
      }
    }
    sql += Join(items, ", ");
  }
  sql += " FROM " + from;
  if (rng->Bernoulli(0.6)) {
    std::string pred = predicate();
    if (rng->Bernoulli(0.4)) {
      pred = "(" + pred + (rng->Bernoulli(0.5) ? " AND " : " OR ") +
             predicate() + ")";
    }
    sql += " WHERE " + pred;
  }
  if (!group_by.empty()) {
    sql += " GROUP BY " + Join(group_by, ", ");
    if (rng->Bernoulli(0.3)) sql += " HAVING COUNT(*) >= 1";
  }
  if (form != 2 || !group_by.empty()) {
    if (rng->Bernoulli(0.5)) {
      const std::string& col = form == 2 ? group_by[0] : Pick(rng, all);
      sql += " ORDER BY " + col;
      if (rng->Bernoulli(0.5)) sql += " DESC";
    }
  }
  if (rng->Bernoulli(0.3)) {
    sql += " LIMIT " + std::to_string(rng->UniformInt(uint64_t{6}));
  }
  return sql;
}

TEST(SqlFuzz, VisibilityLevelsBitIdenticalAcrossPaths) {
  core::Database batch_db;
  core::Database traced_db;
  SetUpFuzzWorld(&batch_db);
  SetUpFuzzWorld(&traced_db);
  if (::testing::Test::HasFatalFailure()) return;

  Rng rng(77);
  int open_queries = 0;
  size_t oks = 0;
  constexpr int kQueries = 90;
  for (int q = 0; q < kQueries; ++q) {
    const std::string sql = RandomWorldQuery(&rng, &open_queries);
    auto batch_res = batch_db.Execute(sql);
    // Trace-enabled leg: the engine with a live QueryTrace collecting
    // spans (weight pins, training, executor phases) must stay
    // bit-identical to the untraced batch engine.
    auto traced_res = [&]() -> Result<Table> {
      auto parsed = sql::ParseStatement(sql);
      if (!parsed.ok()) return parsed.status();
      trace::QueryTrace query_trace;
      trace::ScopedSpan root(&query_trace, trace::kNoParent, "statement");
      return traced_db.ExecuteParsed(&*parsed, &query_trace, root.id());
    }();
    ASSERT_EQ(batch_res.ok(), traced_res.ok())
        << sql << "\n batch: " << batch_res.status().ToString()
        << "\n traced: " << traced_res.status().ToString();
    if (!batch_res.ok()) {
      EXPECT_EQ(batch_res.status().ToString(), traced_res.status().ToString())
          << sql;
      continue;
    }
    ++oks;
    ExpectTablesIdentical(*batch_res, *traced_res, "traced: " + sql);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(open_queries, 0);
  EXPECT_GE(oks, static_cast<size_t>(kQueries) / 2)
      << "generator produced too many failing queries";

  // Materialized OPEN generation applies the same restriction. The
  // generator covers the GP, so the predicate must drop some rows.
  auto small = batch_db.GenerateOpenWorldTable("SmallThings", 200, 7);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  ASSERT_TRUE(small->schema().FindColumn("weight").has_value());
  auto size_col = small->schema().FindColumn("size");
  ASSERT_TRUE(size_col.has_value());
  EXPECT_GT(small->num_rows(), 0u);
  EXPECT_LT(small->num_rows(), 200u);
  for (size_t r = 0; r < small->num_rows(); ++r) {
    ASSERT_EQ(small->GetValue(r, *size_col).AsString(), "S") << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// Front end: one lex serves the parser and the cache key
// ---------------------------------------------------------------------------

std::string Render(const Result<sql::Statement>& stmt) {
  if (!stmt.ok()) return stmt.status().ToString();
  if (stmt->Is<sql::SelectStmt>()) {
    return stmt->As<sql::SelectStmt>().ToString();
  }
  return "statement kind " + std::to_string(stmt->node.index());
}

/// Apply `edit` to every stretch of `sql` outside string literals.
std::string OutsideLiterals(const std::string& sql,
                            const std::function<std::string(char)>& edit) {
  std::string out;
  bool quoted = false;
  for (char c : sql) {
    if (c == '\'') quoted = !quoted;
    out += quoted || c == '\'' ? std::string(1, c) : edit(c);
  }
  return out;
}

/// Respellings of `sql` that keep its result-cache key: case,
/// whitespace, a `--` comment, trailing `;`, `[` for `(`, and `<>`
/// for `!=` (and back).
std::vector<std::string> Respellings(const std::string& sql, Rng* rng) {
  std::vector<std::string> out;
  out.push_back(OutsideLiterals(sql, [rng](char c) {
    const auto u = static_cast<unsigned char>(c);
    if (!rng->Bernoulli(0.5)) return std::string(1, c);
    return std::string(1, static_cast<char>(std::isupper(u) ? std::tolower(u)
                                                            : std::toupper(u)));
  }));
  out.push_back(OutsideLiterals(sql, [rng](char c) {
    static const char* kSpaces[] = {" ", "  ", "\n", "\t ", " \r\n"};
    return c == ' ' ? std::string(kSpaces[rng->UniformInt(uint64_t{5})])
                    : std::string(1, c);
  }));
  out.push_back("-- dashboard tile\n" + sql + " -- trailing note");
  out.push_back(sql + (rng->Bernoulli(0.5) ? ";" : " ; ;"));
  out.push_back(OutsideLiterals(sql, [](char c) {
    return std::string(1, c == '(' ? '[' : c == ')' ? ']' : c);
  }));
  std::string ne;
  for (size_t i = 0; i < sql.size(); ++i) {
    if (sql.compare(i, 2, "!=") == 0) {
      ne += "<>";
      ++i;
    } else if (sql.compare(i, 2, "<>") == 0) {
      ne += "!=";
      ++i;
    } else {
      ne += sql[i];
    }
  }
  out.push_back(ne);
  return out;
}

/// A generated statement, sometimes broken: an inner `;`, a cut, or a
/// stray character, so the failing paths are exercised too.
std::string Mangle(std::string sql, Rng* rng) {
  const size_t at = rng->UniformInt(uint64_t{sql.size() + 1});
  switch (rng->UniformInt(uint64_t{6})) {
    case 0:
      return sql.insert(at, " ; ");
    case 1:
      return sql.substr(0, at);
    case 2:
      return sql.insert(at, rng->Bernoulli(0.5) ? "!" : " '");
    default:
      return sql;
  }
}

TEST(SqlFuzz, LexOnceEntryPointsAgreeAndSharedKeysShareSubjects) {
  Rng rng(20261020);
  std::vector<std::string> pool = {
      "SHOW SAMPLES", "SHOW TABLES", "SHOW METRICS",
      "EXPLAIN ANALYZE SELECT CLOSED COUNT(*) FROM Things",
      "INSERT INTO t VALUES (1, 'a'), (2, 'b')",
      "SELECT * FROM system.queries LIMIT 1.0",
      "SELECT * FROM t LIMIT 1"};
  int open_queries = 0;
  for (int i = 0; i < 150; ++i) {
    pool.push_back(RandomWorldQuery(&rng, &open_queries));
  }
  for (uint64_t seed = 0; seed < 3; ++seed) {
    RandomRelation rel = MakeRelation(&rng);
    for (int i = 0; i < 50; ++i) pool.push_back(RandomQuery(&rng, rel));
  }
  size_t parsed = 0, rejected = 0, respelled = 0;
  for (const std::string& original : pool) {
    const std::string sql = Mangle(original, &rng);
    auto tokens = sql::Lex(sql);
    auto via_string = sql::ParseStatement(sql);
    auto key = service::CanonicalizeSql(sql);
    if (!tokens.ok()) {
      ASSERT_FALSE(via_string.ok()) << sql;
      EXPECT_EQ(via_string.status().ToString(), tokens.status().ToString());
      ASSERT_FALSE(key.ok()) << sql;
      continue;
    }
    auto canon = service::CanonicalizeTokens(*tokens);
    ASSERT_TRUE(key.ok() && canon.ok()) << sql;
    EXPECT_EQ(*canon, *key) << sql;
    auto via_tokens = sql::ParseTokens(std::move(*tokens));
    ASSERT_EQ(via_tokens.ok(), via_string.ok()) << sql;
    EXPECT_EQ(Render(via_tokens), Render(via_string)) << sql;
    (via_string.ok() ? parsed : rejected) += 1;
    // A broken statement that keys like its source must fail like it.
    auto original_key = service::CanonicalizeSql(original);
    if (original_key.ok() && *original_key == *key) {
      ASSERT_EQ(sql::ParseStatement(original).ok(), via_string.ok())
          << original << "\n mangled: " << sql;
    }

    for (const std::string& variant : Respellings(sql, &rng)) {
      auto variant_key = service::CanonicalizeSql(variant);
      ASSERT_TRUE(variant_key.ok()) << variant;
      ASSERT_EQ(*variant_key, *key) << sql << "\n respelled: " << variant;
      auto variant_stmt = sql::ParseStatement(variant);
      ASSERT_EQ(variant_stmt.ok(), via_string.ok())
          << sql << "\n respelled: " << variant;
      if (via_string.ok()) {
        const auto want = core::Database::SubjectOf(*via_string);
        const auto got = core::Database::SubjectOf(*variant_stmt);
        EXPECT_TRUE(got.kind == want.kind && got.from == want.from &&
                    got.visibility == want.visibility)
            << sql << "\n respelled: " << variant;
      }
      ++respelled;
    }
  }
  EXPECT_GE(parsed, 150u);
  EXPECT_GE(rejected, 50u);
  EXPECT_GE(respelled, 1200u);
}

}  // namespace
}  // namespace exec
}  // namespace mosaic
