// Binder and predicate semantics, checked on both evaluators: every
// filter runs through the batch evaluator (SelectRows) and the test-only
// row oracle (oracle::FilterRows), which must agree row for row and
// status for status.
#include "exec/expr_eval.h"

#include <gtest/gtest.h>

#include "exec/batch_eval.h"
#include "exec/executor.h"
#include "oracle/row_oracle.h"
#include "sql/parser.h"
#include "storage/table_view.h"

namespace mosaic {
namespace exec {
namespace {

Table MakeTable() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"elapsed", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"dist", DataType::kDouble}).ok());
  Table t(s);
  EXPECT_TRUE(
      t.AppendRow({Value("WN"), Value(int64_t{250}), Value(800.0)}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value("AA"), Value(int64_t{150}), Value(400.0)}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value("US"), Value(int64_t{90}), Value(200.0)}).ok());
  return t;
}

sql::ExprPtr ParseExpr(const std::string& text) {
  auto stmt = sql::ParseStatement("SELECT * FROM t WHERE " + text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return std::move(stmt->As<sql::SelectStmt>().where);
}

/// Rows where `predicate` holds, from the row oracle; the batch
/// evaluator must return the same rows or the same failure.
Result<std::vector<size_t>> Filter(const Table& t,
                                   const sql::Expr& predicate) {
  auto rows = oracle::FilterRows(t, predicate);
  auto batch = SelectRows(TableView(t), predicate);
  EXPECT_EQ(rows.status().ToString(), batch.status().ToString());
  if (rows.ok() && batch.ok()) {
    const AlignedVector<uint32_t>& kept = *batch->mutable_rows();
    EXPECT_EQ(*rows, std::vector<size_t>(kept.begin(), kept.end()));
  }
  return rows;
}

/// Row 0 of `SELECT <item> FROM t`; the executor and the oracle must
/// agree on its value and type.
Value FirstItem(const Table& t, const std::string& query) {
  auto stmt = sql::ParseStatement(query);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& select = stmt->As<sql::SelectStmt>();
  auto batch = ExecuteSelect(t, select);
  auto row = oracle::ExecuteSelectRow(t, select, {});
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(row.ok()) << row.status().ToString();
  if (!batch.ok() || !row.ok()) return Value::Null();
  EXPECT_TRUE(batch->schema() == row->schema()) << query;
  EXPECT_EQ(batch->GetValue(0, 0).ToString(), row->GetValue(0, 0).ToString());
  return batch->GetValue(0, 0);
}

std::vector<size_t> MustFilter(const Table& t, const std::string& pred) {
  auto expr = ParseExpr(pred);
  auto rows = Filter(t, *expr);
  EXPECT_TRUE(rows.ok()) << pred << ": " << rows.status().ToString();
  return std::move(rows).value();
}

TEST(ExprEval, Comparisons) {
  Table t = MakeTable();
  EXPECT_EQ(MustFilter(t, "elapsed > 200").size(), 1u);
  EXPECT_EQ(MustFilter(t, "elapsed >= 150").size(), 2u);
  EXPECT_EQ(MustFilter(t, "elapsed < 100").size(), 1u);
  EXPECT_EQ(MustFilter(t, "elapsed <= 150").size(), 2u);
  EXPECT_EQ(MustFilter(t, "elapsed = 150").size(), 1u);
  EXPECT_EQ(MustFilter(t, "elapsed <> 150").size(), 2u);
}

TEST(ExprEval, StringComparison) {
  Table t = MakeTable();
  EXPECT_EQ(MustFilter(t, "carrier = 'WN'").size(), 1u);
  EXPECT_EQ(MustFilter(t, "carrier <> 'WN'").size(), 2u);
  EXPECT_EQ(MustFilter(t, "carrier > 'AA'").size(), 2u);
}

TEST(ExprEval, CrossNumericTypeComparison) {
  Table t = MakeTable();
  // int column vs double literal.
  EXPECT_EQ(MustFilter(t, "elapsed > 149.5").size(), 2u);
  // double column vs int literal.
  EXPECT_EQ(MustFilter(t, "dist = 400").size(), 1u);
}

TEST(ExprEval, BooleanConnectives) {
  Table t = MakeTable();
  EXPECT_EQ(MustFilter(t, "elapsed > 100 AND dist < 500").size(), 1u);
  EXPECT_EQ(MustFilter(t, "elapsed > 200 OR carrier = 'US'").size(), 2u);
  EXPECT_EQ(MustFilter(t, "NOT carrier = 'WN'").size(), 2u);
}

TEST(ExprEval, InList) {
  Table t = MakeTable();
  EXPECT_EQ(MustFilter(t, "carrier IN ('WN', 'AA')").size(), 2u);
  EXPECT_EQ(MustFilter(t, "carrier NOT IN ('WN', 'AA')").size(), 1u);
  EXPECT_EQ(MustFilter(t, "elapsed IN (90, 150)").size(), 2u);
}

TEST(ExprEval, Between) {
  Table t = MakeTable();
  EXPECT_EQ(MustFilter(t, "elapsed BETWEEN 90 AND 150").size(), 2u);
  EXPECT_EQ(MustFilter(t, "dist BETWEEN 0 AND 10").size(), 0u);
}

TEST(ExprEval, Arithmetic) {
  Table t = MakeTable();
  // speed = dist / elapsed > 3 miles per minute.
  EXPECT_EQ(MustFilter(t, "dist / elapsed > 3").size(), 1u);
  EXPECT_EQ(MustFilter(t, "elapsed * 2 = 300").size(), 1u);
  EXPECT_EQ(MustFilter(t, "elapsed + 10 > 155").size(), 2u);
  EXPECT_EQ(MustFilter(t, "-elapsed < -100").size(), 2u);
}

TEST(ExprEval, DivisionByZeroFails) {
  Table t = MakeTable();
  auto expr = ParseExpr("dist / (elapsed - elapsed) > 1");
  EXPECT_FALSE(Filter(t, *expr).ok());
}

TEST(ExprEval, ShortCircuitAvoidsDivisionByZero) {
  Table t = MakeTable();
  // AND short-circuits: second conjunct never evaluated.
  EXPECT_EQ(MustFilter(t, "elapsed < 0 AND dist / 0 > 1").size(), 0u);
  // OR short-circuits when the first disjunct is true.
  EXPECT_EQ(MustFilter(t, "elapsed > 0 OR dist / 0 > 1").size(), 3u);
}

TEST(Binder, UnknownColumnIsBindError) {
  Table t = MakeTable();
  auto expr = ParseExpr("nope > 1");
  auto rows = Filter(t, *expr);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kBindError);
}

TEST(Binder, TypeErrors) {
  Table t = MakeTable();
  // string vs numeric comparison
  EXPECT_EQ(Filter(t, *ParseExpr("carrier > 1")).status().code(),
            StatusCode::kTypeError);
  // arithmetic on strings
  EXPECT_EQ(Filter(t, *ParseExpr("carrier + 1 > 0")).status().code(),
            StatusCode::kTypeError);
  // NOT on non-boolean
  EXPECT_EQ(
      Filter(t, *ParseExpr("NOT elapsed > 1 AND NOT dist")).status().code(),
      StatusCode::kTypeError);
  // BETWEEN over strings
  EXPECT_EQ(
      Filter(t, *ParseExpr("carrier BETWEEN 'A' AND 'B'")).status().code(),
      StatusCode::kTypeError);
}

TEST(Binder, NonBooleanPredicateRejected) {
  Table t = MakeTable();
  auto stmt = sql::ParseStatement("SELECT * FROM t WHERE elapsed + 1");
  ASSERT_TRUE(stmt.ok());
  auto rows = Filter(t, *stmt->As<sql::SelectStmt>().where);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kTypeError);
}

TEST(Binder, AggregateOutsideSelectListRejected) {
  Table t = MakeTable();
  auto expr = ParseExpr("elapsed > 1");  // valid filter first
  ASSERT_NE(expr, nullptr);
  // Build COUNT(*) > 1 by hand.
  auto agg = sql::Expr::MakeAggregate(sql::AggFunc::kCount, nullptr, true);
  auto cmp = sql::Expr::MakeBinary(sql::BinaryOp::kGt, std::move(agg),
                                   sql::Expr::MakeLiteral(Value(int64_t{1})));
  auto rows = Filter(t, *cmp);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kBindError);
}

TEST(ExprEval, IntArithmeticStaysInt) {
  Table t = MakeTable();
  Value v = FirstItem(t, "SELECT elapsed + 1 FROM t");
  EXPECT_EQ(v.type(), DataType::kInt64);
  EXPECT_EQ(v.AsInt64(), 251);
}

TEST(ExprEval, DivisionAlwaysDouble) {
  Table t = MakeTable();
  Value v = FirstItem(t, "SELECT elapsed / 2 FROM t");
  EXPECT_EQ(v.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 125.0);
}

TEST(ExprEval, InOverMixedIntAndDouble) {
  Table t = MakeTable();
  // Numeric IN lists may mix int and double literals; membership is
  // numeric equality (elapsed 150 matches 150.0, 90 matches 90).
  EXPECT_EQ(MustFilter(t, "elapsed IN (150.0, 90)").size(), 2u);
  EXPECT_EQ(MustFilter(t, "elapsed IN (149.5, 90.5)").size(), 0u);
  // Double subject against int literals.
  EXPECT_EQ(MustFilter(t, "dist IN (800, 200)").size(), 2u);
  // Empty-match list with one hit.
  EXPECT_EQ(MustFilter(t, "dist IN (400.0)").size(), 1u);
}

TEST(ExprEval, BetweenBoundsAreInclusive) {
  Table t = MakeTable();
  EXPECT_EQ(MustFilter(t, "elapsed BETWEEN 90 AND 250").size(), 3u);
  EXPECT_EQ(MustFilter(t, "elapsed BETWEEN 91 AND 249").size(), 1u);
  // Degenerate bounds: lo == hi selects exactly the boundary value.
  EXPECT_EQ(MustFilter(t, "elapsed BETWEEN 150 AND 150").size(), 1u);
  // Inverted bounds select nothing.
  EXPECT_EQ(MustFilter(t, "elapsed BETWEEN 250 AND 90").size(), 0u);
  // Mixed int/double bounds.
  EXPECT_EQ(MustFilter(t, "dist BETWEEN 199.5 AND 400").size(), 2u);
}

TEST(ExprEval, NotOverComparisons) {
  Table t = MakeTable();
  EXPECT_EQ(MustFilter(t, "NOT (elapsed > 200)").size(), 2u);
  EXPECT_EQ(MustFilter(t, "NOT (carrier = 'WN')").size(), 2u);
  EXPECT_EQ(MustFilter(t, "NOT (elapsed BETWEEN 90 AND 250)").size(), 0u);
  EXPECT_EQ(MustFilter(t, "NOT (carrier IN ('WN', 'AA'))").size(), 1u);
  // Double negation is the identity.
  EXPECT_EQ(MustFilter(t, "NOT (NOT (elapsed > 200))").size(), 1u);
}

TEST(ExprEval, SpecializedStringPredicatesCompareCodes) {
  Table t = MakeTable();
  Binder binder(&t.schema());
  // Equality against a present literal.
  auto expr = ParseExpr("carrier = 'AA'");
  auto bound = binder.Bind(*expr);
  ASSERT_TRUE(bound.ok());
  oracle::CodeSpecs specs;
  oracle::SpecializeStringPredicates(**bound, t, &specs);
  ASSERT_NE(specs.Find(bound->get()), nullptr);
  EXPECT_EQ(specs.Find(bound->get())->literal_code,
            t.column(0).dictionary().Find("AA"));
  // A literal absent from the dictionary can never match (=) and
  // always matches (!=).
  EXPECT_EQ(MustFilter(t, "carrier = 'ZZ'").size(), 0u);
  EXPECT_EQ(MustFilter(t, "carrier != 'ZZ'").size(), 3u);
  // IN keeps only codes present in the dictionary.
  auto in_expr = ParseExpr("carrier IN ('WN', 'ZZ', 'US')");
  auto in_bound = binder.Bind(*in_expr);
  ASSERT_TRUE(in_bound.ok());
  oracle::SpecializeStringPredicates(**in_bound, t, &specs);
  ASSERT_NE(specs.Find(in_bound->get()), nullptr);
  EXPECT_EQ(specs.Find(in_bound->get())->in_codes.size(), 2u);
  EXPECT_EQ(MustFilter(t, "carrier IN ('WN', 'ZZ', 'US')").size(), 2u);
}

}  // namespace
}  // namespace exec
}  // namespace mosaic
