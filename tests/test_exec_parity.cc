// Randomized row-vs-batch parity: the vectorized batch executor must
// be bit-identical to the test-only row-at-a-time oracle
// (tests/oracle/row_oracle.h) across generated schemas, tables, and
// SELECTs combining WHERE, GROUP BY, HAVING (string MIN/MAX and
// arithmetic over aggregates included), ORDER BY, and LIMIT — weighted
// and unweighted, over whole tables and over engine-shaped views (an
// external weight span plus a selection vector). A fixed table pins
// the numeric group-key edge cases (2^53 twins, NaN, -0.0).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "oracle/row_oracle.h"
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
  size_t rows = rng->UniformInt(uint64_t{121});  // 0..120, empty included
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
    if (rel.has_weight) row.emplace_back(0.25 * (1 + rng->UniformInt(uint64_t{8})));
    EXPECT_TRUE(rel.table.AppendRow(row).ok());
  }
  return rel;
}

std::string RandomLiteralFor(Rng* rng, const RandomRelation& rel,
                             const std::string& col) {
  for (const auto& c : rel.str_cols) {
    if (c == col) {
      // Occasionally a string absent from the data (dictionary miss).
      if (rng->Bernoulli(0.2)) return "'nope'";
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
      // Strings support the full comparison set too.
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
      // BETWEEN is numeric-only; fall back to a comparison for
      // string/bool columns.
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
  switch (rng->UniformInt(uint64_t{4})) {
    case 0:
      return a;
    case 1:
      return "(" + a + " + " + Pick(rng, nums) + ")";
    case 2:
      return "(" + a + " * 2)";
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
    // Aggregation, optionally grouped.
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
    std::vector<std::string> order_cols;
    if (form == 0) {
      order_cols = rel.AllDataCols();
    } else if (form == 1) {
      order_cols = rel.AllDataCols();  // may or may not be projected
    } else {
      order_cols = group_by;
    }
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

/// Bit-level value equality: same type and same exact payload (no
/// cross-type numeric laxity).
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

void ExpectTablesIdentical(const Table& row, const Table& batch,
                           const std::string& sql) {
  ASSERT_TRUE(row.schema() == batch.schema())
      << sql << "\n row: " << row.schema().ToString()
      << "\n batch: " << batch.schema().ToString();
  ASSERT_EQ(row.num_rows(), batch.num_rows()) << sql;
  for (size_t r = 0; r < row.num_rows(); ++r) {
    for (size_t c = 0; c < row.num_columns(); ++c) {
      ASSERT_TRUE(ValuesIdentical(row.GetValue(r, c), batch.GetValue(r, c)))
          << sql << "\n at (" << r << ", " << c
          << "): row=" << row.GetValue(r, c).ToString()
          << " batch=" << batch.GetValue(r, c).ToString();
    }
  }
}

/// The oracle's and the batch path's outcomes agree: identical tables
/// or identical failure statuses. Returns whether the oracle ran OK.
bool ExpectSameOutcome(const Result<Table>& row, const Result<Table>& batch,
                       const std::string& what) {
  EXPECT_EQ(row.ok(), batch.ok())
      << what << "\n row: " << row.status().ToString()
      << "\n batch: " << batch.status().ToString();
  if (row.ok() && batch.ok()) {
    ExpectTablesIdentical(*row, *batch, what);
  } else if (!row.ok() && !batch.ok()) {
    EXPECT_EQ(row.status().ToString(), batch.status().ToString()) << what;
  }
  return row.ok();
}

/// A relation in the engine's shape: the data columns as spans of the
/// table, the weight `w` as an external double span (the table's own
/// weights, or fresh ones for an unweighted table), and a random
/// selection standing in for a population restriction. The batch path
/// runs on the view directly; the oracle on view.Materialize(sel).
struct EngineShaped {
  std::vector<double> weights;
  TableView view;
  SelectionVector sel;
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
}

class ExecParity : public ::testing::TestWithParam<int> {};

TEST_P(ExecParity, RandomQueriesBitIdentical) {
  Rng rng(0x9e3779b9u * static_cast<uint64_t>(GetParam()) + 17);
  RandomRelation rel = MakeRelation(&rng);
  Rng view_rng(0x7f4a7c15u * static_cast<uint64_t>(GetParam()) + 3);
  EngineShaped engine;
  MakeEngineShaped(&view_rng, rel, &engine);
  const Table engine_rows = engine.view.Materialize(engine.sel);
  size_t errors = 0, oks = 0;
  for (int q = 0; q < 60; ++q) {
    std::string sql = RandomQuery(&rng, rel);
    auto parsed = sql::ParseStatement(sql);
    ASSERT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
    const auto& stmt = parsed->As<sql::SelectStmt>();
    ExecOptions opts;
    if (rel.has_weight) opts.weight_column = "w";
    if (ExpectSameOutcome(oracle::ExecuteSelectRow(rel.table, stmt, opts),
                          ExecuteSelect(rel.table, stmt, opts), sql)) {
      ++oks;
    } else {
      ++errors;
    }
    ExecOptions view_opts = opts;
    view_opts.weight_column = "w";
    ExpectSameOutcome(
        oracle::ExecuteSelectRow(engine_rows, stmt, view_opts),
        ExecuteSelect(engine.view, engine.sel, stmt, view_opts),
        "view+selection: " + sql);
    if (::testing::Test::HasFailure()) return;
  }
  // The generator must mostly produce executable queries.
  EXPECT_GT(oks, errors) << "generator produced too many failing queries";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecParity, ::testing::Range(0, 8));

// Weighted aggregates must agree between the paths including the
// §5.3 rewrite outputs (COUNT(*) as SUM(w) etc.) — pinned explicitly
// beside the randomized sweep.
TEST(ExecParity, WeightedAggregateRewrite) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"g", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"x", DataType::kInt64}).ok());
  ASSERT_TRUE(s.AddColumn({"w", DataType::kDouble}).ok());
  Table t(s);
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(kStrings[rng.UniformInt(uint64_t{6})]),
                             Value(rng.UniformInt(int64_t{0}, int64_t{50})),
                             Value(0.1 * (1 + rng.UniformInt(uint64_t{30}))),
                             })
                    .ok());
  }
  auto stmt = sql::ParseStatement(
      "SELECT g, COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t "
      "WHERE x BETWEEN 5 AND 45 GROUP BY g ORDER BY g");
  ASSERT_TRUE(stmt.ok());
  ExecOptions opts;
  opts.weight_column = "w";
  auto row_res =
      oracle::ExecuteSelectRow(t, stmt->As<sql::SelectStmt>(), opts);
  auto batch_res = ExecuteSelect(t, stmt->As<sql::SelectStmt>(), opts);
  ASSERT_TRUE(row_res.ok()) << row_res.status().ToString();
  ASSERT_TRUE(batch_res.ok()) << batch_res.status().ToString();
  ExpectTablesIdentical(*row_res, *batch_res, "weighted rewrite");
}

// Group keys whose packed code space passes 64 bits: five VARCHAR
// columns of 8192 distinct strings each span 8192^5 = 2^65 codes. The
// batch path densifies the packed prefix into first-seen ids and keeps
// packing, so it answers the plan itself and still matches the row
// oracle bit for bit.
TEST(ExecParity, WideGroupKeysStayOnBatchPath) {
  constexpr int64_t kRows = 8192;
  const std::vector<std::string> cols = {"a", "b", "c", "d", "e"};
  Schema s;
  for (const auto& c : cols) {
    ASSERT_TRUE(s.AddColumn({c, DataType::kString}).ok());
  }
  ASSERT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  ASSERT_TRUE(s.AddColumn({"w", DataType::kDouble}).ok());
  Table t(s);
  for (int64_t i = 0; i < kRows; ++i) {
    std::vector<Value> row;
    // Odd multipliers permute 0..kRows-1, so every column holds
    // kRows distinct strings in a different order.
    for (int64_t k = 0; k < 5; ++k) {
      row.emplace_back(cols[k] + std::to_string((i * (2 * k + 1)) % kRows));
    }
    row.emplace_back(0.25 * static_cast<double>(i % 97));
    row.emplace_back(0.5 + static_cast<double>(i % 7));
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  // The second statement repeats the keys (2^130 codes), so the
  // packed prefix is densified twice.
  for (const std::string sql :
       {"SELECT a, b, c, d, e, SUM(x) AS s FROM t GROUP BY a, b, c, d, e",
        "SELECT e, SUM(x) AS s FROM t GROUP BY a, b, c, d, e, a, b, c, d, e"}) {
    auto stmt = sql::ParseStatement(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    ExecOptions row_opts;
    row_opts.weight_column = "w";
    auto row_res =
        oracle::ExecuteSelectRow(t, stmt->As<sql::SelectStmt>(), row_opts);
    ASSERT_TRUE(row_res.ok()) << row_res.status().ToString();
    ASSERT_EQ(row_res->num_rows(), static_cast<size_t>(kRows));
    trace::QueryTrace trace;
    ExecOptions batch_opts;
    batch_opts.weight_column = "w";
    batch_opts.trace = &trace;
    auto batch_res = ExecuteSelect(t, stmt->As<sql::SelectStmt>(), batch_opts);
    ASSERT_TRUE(batch_res.ok()) << batch_res.status().ToString();
    ExpectTablesIdentical(*row_res, *batch_res, sql);
    bool aggregated = false;
    for (const trace::Span& span : trace.Spans()) {
      if (span.name == "aggregate") aggregated = true;
    }
    EXPECT_TRUE(aggregated) << sql;
  }
}

// Exact equality including the bit pattern of doubles, so NaN keys
// and -0.0 compare like any other payload.
bool BitsIdentical(const Value& a, const Value& b) {
  if (a.type() == DataType::kDouble && b.type() == DataType::kDouble) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return ValuesIdentical(a, b);
}

void ExpectTablesBitIdentical(const Table& want, const Table& got,
                              const std::string& what) {
  ASSERT_TRUE(want.schema() == got.schema()) << what;
  ASSERT_EQ(want.num_rows(), got.num_rows()) << what;
  for (size_t r = 0; r < want.num_rows(); ++r) {
    for (size_t c = 0; c < want.num_columns(); ++c) {
      ASSERT_TRUE(BitsIdentical(want.GetValue(r, c), got.GetValue(r, c)))
          << what << "\n at (" << r << ", " << c
          << "): want=" << want.GetValue(r, c).ToString()
          << " got=" << got.GetValue(r, c).ToString();
    }
  }
}

// A fixed 24-row table of numeric group-key edge cases:
//  - WHERE k >= 0 AND s != 'drop' drops rows 6..13 plus row 4;
//  - i holds 2^53 + 1 (row 2) and 2^53 (rows 3 and 22), equal through
//    double, so they form one group decoded as the first-seen
//    2^53 + 1;
//  - d holds NaN in rows 1, 14 and 19 (each its own group) and -0.0
//    / 0.0 (one group);
//  - i = 7, s = 'late' and d = 99.5 are first seen in the last rows.
Table GroupKeyEdgeTable() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"k", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"i", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"d", DataType::kDouble}).ok());
  EXPECT_TRUE(s.AddColumn({"s", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  EXPECT_TRUE(s.AddColumn({"w", DataType::kDouble}).ok());
  Table t(s);
  constexpr int64_t kBig = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int64_t r = 0; r < 24; ++r) {
    const int64_t k = (r >= 6 && r <= 13) ? -1 : r;
    int64_t i = r % 4;
    if (r == 2) i = kBig + 1;
    if (r == 3 || r == 22) i = kBig;
    if (r == 23) i = 7;
    double d = 0.5 * static_cast<double>(r % 3);
    if (r == 1 || r == 14 || r == 19) d = nan;
    if (r == 5) d = -0.0;
    if (r == 21) d = 99.5;
    std::string tag = r % 2 == 0 ? "bb" : "aa";
    if (r == 4) tag = "drop";
    if (r == 20) tag = "late";
    EXPECT_TRUE(t.AppendRow({Value(k), Value(i), Value(d), Value(tag),
                             Value(0.25 * static_cast<double>(r)),
                             Value(0.5 + static_cast<double>(r % 3))})
                    .ok());
  }
  return t;
}

TEST(ExecParity, NumericGroupKeyEdgeCases) {
  const Table t = GroupKeyEdgeTable();
  const std::string where = " FROM t WHERE k >= 0 AND s != 'drop'";
  const std::string by_i_sql =
      "SELECT i, COUNT(*) AS c, SUM(x) AS sx, MIN(s) AS lo, MAX(s) AS hi" +
      where + " GROUP BY i";
  // NaN keys make the row oracle's map moot, so this one is checked
  // by its answer only.
  const std::string by_d_sql =
      "SELECT d, COUNT(*) AS c, MIN(i) AS lo, MAX(i) AS hi" + where +
      " GROUP BY d";
  for (const std::string& sql :
       {by_i_sql,
        "SELECT s, i, AVG(x) AS ax, MIN(k) AS mk" + where +
            " AND x < 5.5 GROUP BY s, i ORDER BY s",
        "SELECT i, s, x" + where + " ORDER BY i DESC LIMIT 9"}) {
    auto parsed = sql::ParseStatement(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    const auto& stmt = parsed->As<sql::SelectStmt>();
    ExecOptions opts;
    opts.weight_column = "w";
    auto batch = ExecuteSelect(t, stmt, opts);
    ASSERT_TRUE(batch.ok()) << sql << ": " << batch.status().ToString();
    auto row = oracle::ExecuteSelectRow(t, stmt, opts);
    ASSERT_TRUE(row.ok()) << sql << ": " << row.status().ToString();
    ExpectTablesBitIdentical(*row, *batch, "row oracle: " + sql);
  }

  // The answers themselves: the 2^53 twins are one group decoded as
  // the first-seen 2^53 + 1, the late key has its group, and every
  // surviving NaN is a group of its own.
  auto by_i = ExecuteSelect(
      t, sql::ParseStatement(by_i_sql)->As<sql::SelectStmt>(),
      ExecOptions{});
  ASSERT_TRUE(by_i.ok());
  bool saw_first_twin = false, saw_late = false;
  for (size_t r = 0; r < by_i->num_rows(); ++r) {
    const int64_t i = by_i->GetValue(r, 0).AsInt64();
    EXPECT_NE(i, int64_t{1} << 53) << "decoded a later twin";
    if (i == (int64_t{1} << 53) + 1) {
      saw_first_twin = true;
      EXPECT_EQ(by_i->GetValue(r, 1).AsInt64(), 3);  // rows 2, 3, 22
    }
    if (i == 7) saw_late = true;
  }
  EXPECT_TRUE(saw_first_twin);
  EXPECT_TRUE(saw_late);
  auto by_d = ExecuteSelect(
      t, sql::ParseStatement(by_d_sql)->As<sql::SelectStmt>(), ExecOptions{});
  ASSERT_TRUE(by_d.ok());
  size_t nan_groups = 0;
  for (size_t r = 0; r < by_d->num_rows(); ++r) {
    if (std::isnan(by_d->GetValue(r, 0).AsDouble())) {
      ++nan_groups;
      EXPECT_EQ(by_d->GetValue(r, 1).AsInt64(), 1);
    }
  }
  EXPECT_EQ(nan_groups, 3u);  // rows 1, 14, 19
}

// A fixed 1,203-row table for the all-rows selection and the one-pass
// accumulate: more rows than two accumulate blocks, so block
// boundaries and kernel tails are crossed. Rows carry NaN and -0.0 in
// the argument x, -0.0 in d, int64 values beyond 2^53 in i, zero
// weights in w and all-zero weights in wz. (No NaN in filtered
// columns: the oracle keeps NaN under <=, >= and BETWEEN, the kernels
// do not.)
Table AllRowsTable() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"i", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"a", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"d", DataType::kDouble}).ok());
  EXPECT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  EXPECT_TRUE(s.AddColumn({"s", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"b", DataType::kBool}).ok());
  EXPECT_TRUE(s.AddColumn({"w", DataType::kDouble}).ok());
  EXPECT_TRUE(s.AddColumn({"wz", DataType::kDouble}).ok());
  Table t(s);
  constexpr int64_t kBig = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int64_t r = 0; r < 1203; ++r) {
    int64_t i = r % 11 - 3;
    if (r % 97 == 5) i = kBig + 1;
    if (r % 89 == 7) i = kBig;
    const int64_t a = r % 5;
    double d = 0.25 * static_cast<double>(r % 9) - 1.0;
    if (r % 7 == 2) d = -0.0;
    double x = 0.1 * static_cast<double>(r % 13) - 0.6;
    // Row 1 opens the b = false group, so its MIN/MAX(x) stay NaN.
    if (r == 1 || r == 600) x = nan;
    if (r % 17 == 4) x = -0.0;
    const std::string tag = kStrings[(r * 7) % 5];
    const double w = r % 10 == 0 ? 0.0 : 0.5 + 0.25 * static_cast<double>(r % 6);
    EXPECT_TRUE(t.AppendRow({Value(i), Value(a), Value(d), Value(x),
                             Value(tag), Value(r % 3 == 0), Value(w),
                             Value(0.0)})
                    .ok());
  }
  return t;
}

/// The oracle's and the batch path's outcomes agree bit for bit:
/// identical tables (NaN payloads and -0.0 included) or identical
/// failure statuses.
void ExpectSameOutcomeBits(const Result<Table>& want,
                           const Result<Table>& got, const std::string& what) {
  ASSERT_EQ(want.ok(), got.ok())
      << what << "\n oracle: " << want.status().ToString()
      << "\n batch: " << got.status().ToString();
  if (want.ok()) {
    ExpectTablesBitIdentical(*want, *got, what);
  } else {
    EXPECT_EQ(want.status().ToString(), got.status().ToString()) << what;
  }
}

// Global and grouped aggregates over an all-rows selection (no list is
// built) and over a sparse population selection, with no WHERE and
// with a WHERE whose first conjunct takes each kernel shape in turn,
// weighted, unweighted and over all-zero weights: bit-identical to the
// row oracle, failures included.
TEST(ExecParity, AllRowsSelectionFirstConjunctShapes) {
  const Table t = AllRowsTable();
  const TableView view(t);
  std::vector<uint32_t> sparse;
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    if (r % 3 != 1 && r % 7 != 3) sparse.push_back(r);
  }
  const SelectionVector sparse_sel(sparse);
  const Table sparse_rows = view.Materialize(sparse_sel);
  const std::vector<std::string> wheres = {
      "",
      " WHERE i > 3",
      " WHERE d <= 0.5",
      " WHERE i >= 9007199254740993",
      " WHERE i BETWEEN -2 AND 4",
      " WHERE i BETWEEN 2.5 AND 6.5",
      " WHERE i BETWEEN 9007199254740992 AND 9007199254740993",
      " WHERE d BETWEEN -0.75 AND 0.6",
      " WHERE s = 'bb'",
      " WHERE s != 'bb' AND i < 5",
      " WHERE s IN ('aa', 'cc', 'nope')",
      " WHERE s < 'cc'",
      " WHERE b",
      " WHERE NOT b AND d > -0.5",
      " WHERE a = 0 OR 10 / a > 3",
      " WHERE a != 0 AND 10 / a > 3",
      " WHERE (i > 3 AND s = 'aa') OR d < 0",
      " WHERE a + i > 3",
      " WHERE 1 / (a - a) > 0",
      " WHERE d > 1000",
  };
  const std::vector<std::string> selects = {
      "SELECT COUNT(*) AS c, SUM(x) AS sx, SUM(i) AS si, SUM(b) AS sb, "
      "SUM(a + 1) AS se FROM t",
      "SELECT AVG(x) AS ax, AVG(i) AS ai, AVG(d) AS ad, COUNT(*) AS c FROM t",
      "SELECT MIN(d) AS lo, MAX(i) AS hi, SUM(d) AS sd FROM t",
      "SELECT s, COUNT(*) AS c, SUM(x) AS sx, AVG(i) AS ai, SUM(b) AS sb, "
      "MIN(x) AS lo, MAX(a) AS hi FROM t",
      "SELECT b, COUNT(*) AS c, AVG(x) AS ax, SUM(a + 1) AS se FROM t",
      "SELECT s, b, SUM(d) AS sd, AVG(a) AS aa FROM t",
      "SELECT b, MIN(s) AS ls, MAX(s) AS hs, MIN(b) AS lb, MAX(b) AS hb, "
      "MIN(a + 1) AS le, MAX(a + 1) AS he, MIN(x) AS lx, MAX(x) AS hx, "
      "MIN('zz') AS ll, MAX(10 / a) AS hd FROM t",
      "SELECT MIN(s) AS ls, MAX(s) AS hs, MIN(b) AS lb, MAX(a + 1) AS he, "
      "MIN(x) AS lx, MAX(x) AS hx, MAX('zz') AS hl FROM t",
  };
  const std::vector<std::string> group_bys = {
      "", "", "", " GROUP BY s", " GROUP BY b", " GROUP BY s, b",
      " GROUP BY b", ""};
  size_t oks = 0;
  for (const std::string& where : wheres) {
    for (size_t q = 0; q < selects.size(); ++q) {
      const std::string sql = selects[q] + where + group_bys[q];
      auto parsed = sql::ParseStatement(sql);
      ASSERT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
      const auto& stmt = parsed->As<sql::SelectStmt>();
      for (const char* weight : {"", "w", "wz"}) {
        ExecOptions opts;
        opts.weight_column = weight;
        const std::string what = sql + " [weight '" + weight + "']";
        auto want = oracle::ExecuteSelectRow(t, stmt, opts);
        if (want.ok()) ++oks;
        ExpectSameOutcomeBits(want, ExecuteSelect(t, stmt, opts),
                              "table: " + what);
        ExpectSameOutcomeBits(
            want, ExecuteSelect(view, SelectionVector::All(t.num_rows()),
                                stmt, opts),
            "all-rows view: " + what);
        ExpectSameOutcomeBits(
            oracle::ExecuteSelectRow(sparse_rows, stmt, opts),
            ExecuteSelect(view, sparse_sel, stmt, opts),
            "sparse view: " + what);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(oks, wheres.size() * selects.size());
}

// An all-false filter leaves the global group empty: COUNT is 0 and
// AVG fails; all-zero weights make every weighted AVG fail the same
// way while the weighted COUNT is 0.
TEST(ExecParity, EmptyAndZeroWeightGlobalGroups) {
  const Table t = AllRowsTable();
  auto run = [&](const std::string& sql, const std::string& weight) {
    ExecOptions opts;
    opts.weight_column = weight;
    return ExecuteSelect(t, sql::ParseStatement(sql)->As<sql::SelectStmt>(),
                         opts);
  };
  auto count = run("SELECT COUNT(*) AS c, SUM(x) AS sx FROM t WHERE d > 1000",
                   "");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->GetValue(0, 0).AsInt64(), 0);
  EXPECT_EQ(count->GetValue(0, 1).AsDouble(), 0.0);
  auto avg = run("SELECT AVG(x) FROM t WHERE d > 1000", "w");
  ASSERT_FALSE(avg.ok());
  EXPECT_NE(avg.status().ToString().find("AVG over empty/zero-weight group"),
            std::string::npos)
      << avg.status().ToString();
  auto zero = run("SELECT COUNT(*) AS c FROM t", "wz");
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  EXPECT_EQ(zero->GetValue(0, 0).AsDouble(), 0.0);
  auto zero_avg = run("SELECT s, AVG(x) FROM t GROUP BY s", "wz");
  ASSERT_FALSE(zero_avg.ok());
  EXPECT_NE(
      zero_avg.status().ToString().find("AVG over empty/zero-weight group"),
      std::string::npos)
      << zero_avg.status().ToString();
}

}  // namespace
}  // namespace exec
}  // namespace mosaic
