#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/table.h"

namespace mosaic {
namespace {

Schema MakeSchema() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"id", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"name", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"score", DataType::kDouble}).ok());
  return s;
}

TEST(Schema, FindColumnCaseInsensitive) {
  Schema s = MakeSchema();
  EXPECT_EQ(*s.FindColumn("ID"), 0u);
  EXPECT_EQ(*s.FindColumn("Name"), 1u);
  EXPECT_FALSE(s.FindColumn("missing").has_value());
}

TEST(Schema, DuplicateColumnRejected) {
  Schema s = MakeSchema();
  EXPECT_EQ(s.AddColumn({"ID", DataType::kDouble}).code(),
            StatusCode::kAlreadyExists);
}

TEST(Schema, Project) {
  Schema s = MakeSchema();
  Schema p = s.Project({2, 0});
  ASSERT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.column(0).name, "score");
  EXPECT_EQ(p.column(1).name, "id");
}

TEST(Schema, ToString) {
  EXPECT_EQ(MakeSchema().ToString(), "id INT, name VARCHAR, score DOUBLE");
}

Table MakeTable() {
  Table t(MakeSchema());
  EXPECT_TRUE(
      t.AppendRow({Value(int64_t{1}), Value("alice"), Value(3.5)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{2}), Value("bob"), Value(1.5)}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value(int64_t{3}), Value("carol"), Value(2.5)}).ok());
  return t;
}

TEST(Table, AppendAndGet) {
  Table t = MakeTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.GetValue(1, 1).AsString(), "bob");
  EXPECT_DOUBLE_EQ(t.GetValue(2, 2).AsDouble(), 2.5);
}

TEST(Table, AppendCoercesTypes) {
  Table t = MakeTable();
  // double into int column, int into double column.
  EXPECT_TRUE(t.AppendRow({Value(4.0), Value("dee"), Value(int64_t{7})}).ok());
  EXPECT_EQ(t.GetValue(3, 0).AsInt64(), 4);
  EXPECT_DOUBLE_EQ(t.GetValue(3, 2).AsDouble(), 7.0);
}

TEST(Table, AppendWrongArityFails) {
  Table t = MakeTable();
  EXPECT_FALSE(t.AppendRow({Value(int64_t{1})}).ok());
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST(Table, AppendNullRejectedAtomically) {
  Table t = MakeTable();
  Status st = t.AppendRow({Value(int64_t{9}), Value(), Value(1.0)});
  EXPECT_FALSE(st.ok());
  // The failed row must not partially mutate any column.
  EXPECT_EQ(t.num_rows(), 3u);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(t.column(c).size(), 3u);
  }
}

TEST(Table, AppendNonCoercibleRejectedAtomically) {
  Table t = MakeTable();
  Status st = t.AppendRow({Value("notanint"), Value("x"), Value(1.0)});
  EXPECT_FALSE(st.ok());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(t.column(c).size(), 3u);
  }
}

TEST(Table, FilterSelectsRows) {
  Table t = MakeTable();
  Table f = t.Filter({2, 0});
  ASSERT_EQ(f.num_rows(), 2u);
  EXPECT_EQ(f.GetValue(0, 1).AsString(), "carol");
  EXPECT_EQ(f.GetValue(1, 1).AsString(), "alice");
}

TEST(Table, FilterSharesDictionary) {
  Table t = MakeTable();
  Table f = t.Filter({1});
  EXPECT_EQ(f.GetValue(0, 1).AsString(), "bob");
  // Dictionary is shared, not copied: same size even though the
  // filtered column holds one row.
  EXPECT_EQ(f.column(1).dictionary().size(), 3u);
}

TEST(Table, ProjectColumns) {
  Table t = MakeTable();
  Table p = t.Project({1});
  EXPECT_EQ(p.num_columns(), 1u);
  EXPECT_EQ(p.num_rows(), 3u);
  EXPECT_EQ(p.GetValue(0, 0).AsString(), "alice");
}

TEST(Table, ConcatMatchingSchemas) {
  Table a = MakeTable();
  Table b = MakeTable();
  ASSERT_TRUE(a.Concat(b).ok());
  EXPECT_EQ(a.num_rows(), 6u);
  EXPECT_EQ(a.GetValue(5, 1).AsString(), "carol");
}

TEST(Table, ConcatSchemaMismatch) {
  Table a = MakeTable();
  Schema other;
  ASSERT_TRUE(other.AddColumn({"id", DataType::kInt64}).ok());
  Table b(other);
  EXPECT_FALSE(a.Concat(b).ok());
}

TEST(Table, SelfConcatDoublesTheTable) {
  Table t = MakeTable();
  ASSERT_TRUE(t.Concat(t).ok());
  ASSERT_EQ(t.num_rows(), 6u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(t.GetValue(r + 3, c), t.GetValue(r, c));
    }
  }
  EXPECT_EQ(t.column(1).dictionary().size(), 3u);
}

// ---------------------------------------------------------------------------
// AppendColumns against a row-at-a-time AppendRow oracle
// ---------------------------------------------------------------------------

/// What appending `src` row by row through AppendRow does: destination
/// column c takes source column `map[c]`, and the first failing row
/// stops the loop with its status.
Status AppendRowsOracle(Table* dst, const Table& src,
                        const std::vector<size_t>& map) {
  for (size_t r = 0; r < src.num_rows(); ++r) {
    std::vector<Value> row;
    for (size_t s : map) row.push_back(src.GetValue(r, s));
    MOSAIC_RETURN_IF_ERROR(dst->AppendRow(row));
  }
  return Status::OK();
}

/// Same rows, same values, and the same dictionary codes in the same
/// order.
void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_TRUE(got.schema() == want.schema());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t c = 0; c < got.num_columns(); ++c) {
    ASSERT_EQ(got.column(c).size(), want.num_rows()) << "column " << c;
    if (got.column(c).type() == DataType::kString) {
      EXPECT_EQ(got.column(c).dictionary().values(),
                want.column(c).dictionary().values())
          << "column " << c;
    }
    for (size_t r = 0; r < got.num_rows(); ++r) {
      EXPECT_EQ(got.GetValue(r, c), want.GetValue(r, c))
          << "row " << r << " column " << c;
      if (got.column(c).type() == DataType::kString) {
        EXPECT_EQ(got.column(c).GetCode(r), want.column(c).GetCode(r));
      }
    }
  }
}

/// Append `src` to two fresh MakeTable()s, columnar and by the
/// oracle, and require identical tables and statuses.
void ExpectAppendMatchesOracle(const Table& src,
                               const std::vector<size_t>& map) {
  Table got = MakeTable();
  Table want = MakeTable();
  const Status got_st = got.AppendColumns(src, map);
  const Status want_st = AppendRowsOracle(&want, src, map);
  EXPECT_EQ(got_st.code(), want_st.code());
  EXPECT_EQ(got_st.ToString(), want_st.ToString());
  ExpectSameTable(got, want);
}

TEST(Table, AppendColumnsReordersSourceColumns) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"score", DataType::kDouble}).ok());
  ASSERT_TRUE(schema.AddColumn({"name", DataType::kString}).ok());
  ASSERT_TRUE(schema.AddColumn({"id", DataType::kInt64}).ok());
  Table src(schema);
  // New names first, an existing one in between, repeats after.
  for (const char* name : {"erin", "bob", "dave", "erin", "alice", "dave"}) {
    ASSERT_TRUE(src.AppendRow({Value(0.25), Value(name), Value(int64_t{9})})
                    .ok());
  }
  ExpectAppendMatchesOracle(src, {2, 1, 0});
}

TEST(Table, AppendColumnsCastsIntIntoDouble) {
  Schema schema;
  ASSERT_TRUE(schema.AddColumn({"id", DataType::kInt64}).ok());
  ASSERT_TRUE(schema.AddColumn({"name", DataType::kString}).ok());
  ASSERT_TRUE(schema.AddColumn({"score", DataType::kInt64}).ok());
  Table src(schema);
  ASSERT_TRUE(src.AppendRow({Value(int64_t{4}), Value("zed"),
                             Value(int64_t{7})}).ok());
  ASSERT_TRUE(src.AppendRow({Value(int64_t{5}), Value("bob"),
                             Value(int64_t{-3})}).ok());
  ExpectAppendMatchesOracle(src, {0, 1, 2});
  Table got = MakeTable();
  ASSERT_TRUE(got.AppendColumns(src, {0, 1, 2}).ok());
  EXPECT_EQ(got.GetValue(3, 2), Value(7.0));
}

Table StringSource(const std::vector<std::string>& ids,
                   const std::vector<std::string>& scores) {
  Schema schema;
  EXPECT_TRUE(schema.AddColumn({"id", DataType::kString}).ok());
  EXPECT_TRUE(schema.AddColumn({"name", DataType::kString}).ok());
  EXPECT_TRUE(schema.AddColumn({"score", DataType::kString}).ok());
  Table src(schema);
  for (size_t r = 0; r < ids.size(); ++r) {
    EXPECT_TRUE(src.AppendRow({Value(ids[r]), Value("n" + std::to_string(r)),
                               Value(scores[r])})
                    .ok());
  }
  return src;
}

TEST(Table, AppendColumnsFailedCastLandsTheRowsBeforeIt) {
  // score fails at row 2; id fails later, at row 3: the lower row
  // wins even though id is the lower column.
  const Table src =
      StringSource({"7", "8", "9", "x"}, {"1.5", "2", "oops", "4"});
  ExpectAppendMatchesOracle(src, {0, 1, 2});
  Table got = MakeTable();
  const Status st = got.AppendColumns(src, {0, 1, 2});
  EXPECT_EQ(st.ToString(),
            Status::TypeError("cannot cast 'oops' to DOUBLE").ToString());
  EXPECT_EQ(got.num_rows(), 5u);
  // Rows at and after the cut never touched a dictionary.
  EXPECT_EQ(got.column(1).dictionary().Find("n2"), -1);
}

TEST(Table, AppendColumnsFailedCastTieGoesToTheLowerColumn) {
  const Table src = StringSource({"7", "y", "9"}, {"1.5", "oops", "4"});
  ExpectAppendMatchesOracle(src, {0, 1, 2});
  Table got = MakeTable();
  const Status st = got.AppendColumns(src, {0, 1, 2});
  EXPECT_EQ(st.ToString(),
            Status::TypeError("cannot cast 'y' to INT").ToString());
  EXPECT_EQ(got.num_rows(), 4u);
}

TEST(Table, AppendColumnsBadMappingLandsNothing) {
  Table src = MakeTable();
  Table got = MakeTable();
  EXPECT_FALSE(got.AppendColumns(src, {0, 1}).ok());
  EXPECT_FALSE(got.AppendColumns(src, {0, 1, 3}).ok());
  ExpectSameTable(got, MakeTable());
}

TEST(Table, AppendColumnsEmptySource) {
  ExpectAppendMatchesOracle(Table(MakeSchema()), {0, 1, 2});
}

TEST(Table, AppendColumnsSharedDictionaryCopiesCodes) {
  Table got = MakeTable();
  Table want = MakeTable();
  // Filter shares the dictionary with its source table.
  const Table src = got.Filter({2, 0, 2});
  const Table want_src = want.Filter({2, 0, 2});
  ASSERT_TRUE(got.AppendColumns(src, {0, 1, 2}).ok());
  ASSERT_TRUE(AppendRowsOracle(&want, want_src, {0, 1, 2}).ok());
  ExpectSameTable(got, want);
  EXPECT_EQ(got.column(1).shared_dictionary(),
            src.column(1).shared_dictionary());
  EXPECT_EQ(got.column(1).dictionary().size(), 3u);
}

TEST(Table, AddColumn) {
  Table t = MakeTable();
  ASSERT_TRUE(t.AddColumn({"flag", DataType::kBool},
                          {Value(true), Value(false), Value(true)})
                  .ok());
  EXPECT_EQ(t.num_columns(), 4u);
  EXPECT_TRUE(t.GetValue(0, 3).AsBool());
}

TEST(Table, AddColumnSizeMismatch) {
  Table t = MakeTable();
  EXPECT_FALSE(t.AddColumn({"flag", DataType::kBool}, {Value(true)}).ok());
  // Schema must be rolled back.
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_FALSE(t.schema().FindColumn("flag").has_value());
}

TEST(Table, AddDoubleColumn) {
  Table t = MakeTable();
  ASSERT_TRUE(t.AddDoubleColumn("weight", {1.0, 2.0, 3.0}).ok());
  EXPECT_DOUBLE_EQ(t.GetValue(2, 3).AsDouble(), 3.0);
}

TEST(Table, SortIndices) {
  Table t = MakeTable();
  auto idx = t.SortIndices(2);  // by score: 1.5, 2.5, 3.5
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 2u);
  EXPECT_EQ(idx[2], 0u);
}

TEST(Table, ColumnByName) {
  Table t = MakeTable();
  auto col = t.ColumnByName("SCORE");
  ASSERT_TRUE(col.ok());
  EXPECT_DOUBLE_EQ(*(*col)->GetDouble(0), 3.5);
  EXPECT_FALSE(t.ColumnByName("nope").ok());
}

TEST(Table, ToStringLimit) {
  Table t = MakeTable();
  std::string s = t.ToString(2);
  EXPECT_NE(s.find("alice"), std::string::npos);
  EXPECT_EQ(s.find("carol"), std::string::npos);
  EXPECT_NE(s.find("3 rows total"), std::string::npos);
}

TEST(Column, ToDoubleVector) {
  Table t = MakeTable();
  auto scores = t.column(2).ToDoubleVector();
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_DOUBLE_EQ(scores[0], 3.5);
  // String columns expose their dictionary codes.
  auto codes = t.column(1).ToDoubleVector();
  EXPECT_DOUBLE_EQ(codes[0], 0.0);
  EXPECT_DOUBLE_EQ(codes[2], 2.0);
}

TEST(Column, GetDoubleOnStringFails) {
  Table t = MakeTable();
  EXPECT_FALSE(t.column(1).GetDouble(0).ok());
}

}  // namespace
}  // namespace mosaic
