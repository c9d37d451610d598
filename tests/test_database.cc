#include "core/database.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/csv.h"

namespace mosaic {
namespace core {
namespace {

/// A tiny two-attribute world: color in {red, blue}, size in {S, L}.
/// Population truth: red-S 40, red-L 20, blue-S 10, blue-L 30.
/// The sample only contains red tuples (selection bias on color).
class TinyWorld : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ok = [&](const std::string& sql) {
      auto r = db_.Execute(sql);
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
    // Biased sample: 6 red-S, 2 red-L (true red ratio is 40:20).
    ok("INSERT INTO RedSample VALUES ('red','S'), ('red','S'), ('red','S'), "
       "('red','S'), ('red','S'), ('red','S'), ('red','L'), ('red','L')");
  }

  Table Must(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return std::move(r).value();
  }

  Database db_;
};

TEST_F(TinyWorld, ClosedQueryUsesSampleDirectly) {
  Table r = Must("SELECT CLOSED color, COUNT(*) AS c FROM Things "
                 "GROUP BY color");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "red");
  EXPECT_EQ(r.GetValue(0, 1).AsInt64(), 8);
}

TEST_F(TinyWorld, DefaultVisibilityIsClosed) {
  Table r = Must("SELECT color, COUNT(*) AS c FROM Things GROUP BY color");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetValue(0, 1).AsInt64(), 8);
}

TEST_F(TinyWorld, SemiOpenReweightsToPopulationScale) {
  Table r = Must("SELECT SEMI-OPEN COUNT(*) AS c FROM Things");
  ASSERT_EQ(r.num_rows(), 1u);
  // IPF scales the sample to the population size (100).
  EXPECT_NEAR(r.GetValue(0, 0).AsDouble(), 100.0, 1.0);
}

TEST_F(TinyWorld, SemiOpenMatchesSizeMarginal) {
  Table r = Must("SELECT SEMI-OPEN size, COUNT(*) AS c FROM Things "
                 "GROUP BY size ORDER BY size");
  ASSERT_EQ(r.num_rows(), 2u);
  // Size marginal is 50/50; IPF must fix the sample's 6:2 skew.
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "L");
  EXPECT_NEAR(r.GetValue(0, 1).AsDouble(), 50.0, 1.0);
  EXPECT_NEAR(r.GetValue(1, 1).AsDouble(), 50.0, 1.0);
}

TEST_F(TinyWorld, SemiOpenHasFalseNegativesOnColor) {
  // §3.3: SEMI-OPEN cannot invent blue tuples (n false negatives, 0
  // false positives).
  Table r = Must("SELECT SEMI-OPEN color, COUNT(*) AS c FROM Things "
                 "GROUP BY color");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "red");
}

TEST_F(TinyWorld, SemiOpenPersistsWeightsOnSample) {
  (void)Must("SELECT SEMI-OPEN COUNT(*) FROM Things");
  // §3.2: weights are metadata on the sample, visible when querying
  // the sample directly.
  Table r = Must("SELECT SUM(weight) AS w FROM RedSample");
  EXPECT_NEAR(r.GetValue(0, 0).AsDouble(), 100.0, 1.0);
}

TEST_F(TinyWorld, OpenQueryGeneratesMissingColor) {
  auto* opts = db_.mutable_open_options();
  opts->mswg.epochs = 12;
  opts->mswg.steps_per_epoch = 25;
  opts->mswg.batch_size = 128;
  opts->mswg.hidden_layers = 2;
  opts->mswg.hidden_nodes = 32;
  opts->mswg.lambda = 1e-4;
  opts->generated_rows = 800;
  Table r = Must("SELECT OPEN color, COUNT(*) AS c FROM Things "
                 "GROUP BY color ORDER BY color");
  // The generator has a one-hot slot for blue (from the marginal) and
  // the marginal says 40% blue: blue tuples must appear.
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetValue(0, 0).AsString(), "blue");
  EXPECT_GT(r.GetValue(0, 1).AsDouble(), 5.0);
  // §5.3's uniform weights scale the generated rows to the population
  // size, so the generated counts sum to the marginals' total (100).
  const double total =
      r.GetValue(0, 1).AsDouble() + r.GetValue(1, 1).AsDouble();
  EXPECT_NEAR(total, 100.0, 1.0);
}

TEST_F(TinyWorld, UpdateSampleWeights) {
  auto st = db_.Execute("UPDATE RedSample SET weight = 2.5");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  Table r = Must("SELECT SUM(weight) AS w FROM RedSample");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 0).AsDouble(), 20.0);
}

TEST_F(TinyWorld, UpdateSampleWeightsWithPredicate) {
  ASSERT_TRUE(
      db_.Execute("UPDATE RedSample SET weight = 10 WHERE size = 'L'").ok());
  Table r = Must("SELECT size, SUM(weight) AS w FROM RedSample "
                 "GROUP BY size ORDER BY size");
  EXPECT_DOUBLE_EQ(r.GetValue(0, 1).AsDouble(), 20.0);  // L: 2 * 10
  EXPECT_DOUBLE_EQ(r.GetValue(1, 1).AsDouble(), 6.0);   // S: 6 * 1
}

TEST_F(TinyWorld, NegativeWeightRejected) {
  EXPECT_FALSE(db_.Execute("UPDATE RedSample SET weight = -1").ok());
}

TEST_F(TinyWorld, DerivedPopulationView) {
  ASSERT_TRUE(db_.Execute("CREATE POPULATION SmallThings AS "
                          "(SELECT * FROM Things WHERE size = 'S')")
                  .ok());
  // CLOSED over the derived population: sample tuples with size S.
  Table r = Must("SELECT CLOSED COUNT(*) FROM SmallThings");
  EXPECT_EQ(r.GetValue(0, 0).AsInt64(), 6);
  // SEMI-OPEN: reweights to GP (derived pop has no own metadata),
  // then applies the view -> about 50 (the S half of the population).
  Table r2 = Must("SELECT SEMI-OPEN COUNT(*) FROM SmallThings");
  EXPECT_NEAR(r2.GetValue(0, 0).AsDouble(), 50.0, 2.0);
}

TEST_F(TinyWorld, DerivedPopulationOwnMetadataPreferred) {
  ASSERT_TRUE(db_.Execute("CREATE POPULATION SmallThings AS "
                          "(SELECT * FROM Things WHERE size = 'S')")
                  .ok());
  // Attach metadata to the derived population directly: 80 S-things
  // split 45 red / 35 blue.
  ASSERT_TRUE(db_.Execute("CREATE TABLE SmallReport (color VARCHAR, "
                          "cnt INT)")
                  .ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO SmallReport VALUES ('red', 45), "
                          "('blue', 35)")
                  .ok());
  ASSERT_TRUE(db_.Execute("CREATE METADATA SmallThings_M1 AS "
                          "(SELECT color, cnt FROM SmallReport)")
                  .ok());
  Table r = Must("SELECT SEMI-OPEN COUNT(*) FROM SmallThings");
  EXPECT_NEAR(r.GetValue(0, 0).AsDouble(), 80.0, 1.0);
  // Fig. 3's bottom path reweights only the population's tuples: the
  // L-things outside it carry weight zero, and the S-things carry the
  // whole SEMI-OPEN count.
  Table outside = Must("SELECT SUM(weight) FROM RedSample WHERE size = 'L'");
  EXPECT_EQ(outside.GetValue(0, 0).AsDouble(), 0.0);
  Table inside = Must("SELECT SUM(weight) FROM RedSample WHERE size = 'S'");
  EXPECT_DOUBLE_EQ(inside.GetValue(0, 0).AsDouble(),
                   r.GetValue(0, 0).AsDouble());
}

TEST_F(TinyWorld, VisibilityOnAuxTableRejected) {
  EXPECT_FALSE(db_.Execute("SELECT CLOSED * FROM ColorReport").ok());
}

TEST_F(TinyWorld, OpenOnSampleRejected) {
  EXPECT_FALSE(db_.Execute("SELECT OPEN * FROM RedSample").ok());
}

TEST_F(TinyWorld, DropSampleThenPopulationQueryFails) {
  ASSERT_TRUE(db_.Execute("DROP SAMPLE RedSample").ok());
  EXPECT_FALSE(db_.Execute("SELECT CLOSED COUNT(*) FROM Things").ok());
}

TEST_F(TinyWorld, DropMetadataThenSemiOpenFails) {
  ASSERT_TRUE(db_.Execute("DROP METADATA Things_M1").ok());
  ASSERT_TRUE(db_.Execute("DROP METADATA Things_M2").ok());
  EXPECT_FALSE(db_.Execute("SELECT SEMI-OPEN COUNT(*) FROM Things").ok());
}

TEST(Database, CreateTableAndInsertSelect) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b VARCHAR)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").ok());
  auto r = db.Execute("SELECT b FROM t WHERE a = 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->GetValue(0, 0).AsString(), "y");
}

TEST(Database, DuplicateRelationNamesRejected) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(db.Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(
      db.Execute("CREATE GLOBAL POPULATION t (a INT)").ok());
}

TEST(Database, SecondGlobalPopulationRejected) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE GLOBAL POPULATION G1 (a INT)").ok());
  EXPECT_FALSE(db.Execute("CREATE GLOBAL POPULATION G2 (a INT)").ok());
}

TEST(Database, DerivedPopulationRequiresGlobalParent) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE GLOBAL POPULATION G (a INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE POPULATION D AS "
                         "(SELECT * FROM G WHERE a > 1)")
                  .ok());
  // Deriving from a non-global population is rejected.
  EXPECT_FALSE(db.Execute("CREATE POPULATION D2 AS "
                          "(SELECT * FROM D WHERE a > 2)")
                   .ok());
  // Missing AS clause is rejected.
  EXPECT_FALSE(db.Execute("CREATE POPULATION D3 (a INT)").ok());
}

TEST(Database, MetadataRequiresKnownPopulation) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE r (a VARCHAR, c INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO r VALUES ('x', 1)").ok());
  // Naming convention points to a population that does not exist.
  EXPECT_FALSE(db.Execute("CREATE METADATA Nope_M1 AS "
                          "(SELECT a, c FROM r)")
                   .ok());
  // No convention and no FOR clause.
  EXPECT_FALSE(db.Execute("CREATE METADATA plain AS "
                          "(SELECT a, c FROM r)")
                   .ok());
}

TEST(Database, CopyCsvIntoTable) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b VARCHAR)").ok());
  std::string path = testing::TempDir() + "/mosaic_copy_test.csv";
  Schema s;
  ASSERT_TRUE(s.AddColumn({"a", DataType::kInt64}).ok());
  ASSERT_TRUE(s.AddColumn({"b", DataType::kString}).ok());
  Table data(s);
  ASSERT_TRUE(data.AppendRow({Value(int64_t{5}), Value("hello")}).ok());
  ASSERT_TRUE(WriteCsvFile(data, path).ok());
  ASSERT_TRUE(db.Execute("COPY t FROM '" + path + "'").ok());
  auto r = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetValue(0, 0).AsInt64(), 1);
}

// ---------------------------------------------------------------------------
// IngestSample against a row-at-a-time AppendRow oracle
// ---------------------------------------------------------------------------

/// A sample S (x DOUBLE, tag VARCHAR, n INT) holding two rows.
class IngestWorld : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* sql :
         {"CREATE GLOBAL POPULATION P (x DOUBLE, tag VARCHAR, n INT)",
          "CREATE SAMPLE S AS (SELECT * FROM P)",
          "INSERT INTO S VALUES (0.5, 'b', 1), (1.5, 'a', 2)"}) {
      auto r = db_.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    }
  }

  const Table& Data() { return (*db_.catalog()->GetSample("S"))->data; }

  /// The sample's current rows rebuilt row by row, then `src` appended
  /// row by row through AppendRow with columns mapped by name.
  Table Oracle(const Table& src, Status* status) {
    const Table& data = Data();
    Table want(data.schema());
    for (size_t r = 0; r < data.num_rows(); ++r) {
      EXPECT_TRUE(want.AppendRow(data.GetRow(r)).ok());
    }
    *status = Status::OK();
    for (size_t r = 0; status->ok() && r < src.num_rows(); ++r) {
      std::vector<Value> row;
      for (const ColumnDef& def : want.schema().columns()) {
        auto idx = src.schema().ColumnIndex(def.name);
        if (!idx.ok()) {
          *status = idx.status();
          break;
        }
        row.push_back(src.GetValue(r, *idx));
      }
      if (status->ok()) *status = want.AppendRow(row);
    }
    return want;
  }

  /// IngestSample(src) must leave the sample exactly as the oracle
  /// does (values, codes, dictionary order) and return its status.
  void ExpectIngestMatchesOracle(const Table& src) {
    Status want_st;
    const Table want = Oracle(src, &want_st);
    const Status got_st = db_.IngestSample("S", src);
    EXPECT_EQ(got_st.ToString(), want_st.ToString());
    const Table& got = Data();
    ASSERT_EQ(got.num_rows(), want.num_rows());
    EXPECT_EQ(got.column(1).dictionary().values(),
              want.column(1).dictionary().values());
    for (size_t r = 0; r < got.num_rows(); ++r) {
      for (size_t c = 0; c < got.num_columns(); ++c) {
        EXPECT_EQ(got.GetValue(r, c), want.GetValue(r, c))
            << "row " << r << " column " << c;
      }
      EXPECT_EQ(got.column(1).GetCode(r), want.column(1).GetCode(r));
    }
    // The weight epoch always covers exactly the rows that landed.
    EXPECT_EQ((*db_.catalog()->GetSample("S"))->weights.Pin()->weights.size(),
              got.num_rows());
  }

  static Table Source(const std::vector<ColumnDef>& defs,
                      const std::vector<std::vector<Value>>& rows) {
    Schema schema;
    for (const ColumnDef& def : defs) {
      EXPECT_TRUE(schema.AddColumn(def).ok());
    }
    Table t(schema);
    for (const auto& row : rows) EXPECT_TRUE(t.AppendRow(row).ok());
    return t;
  }

  Database db_;
};

TEST_F(IngestWorld, ColumnsMapByNameInAnyOrder) {
  ExpectIngestMatchesOracle(Source(
      {{"n", DataType::kInt64}, {"tag", DataType::kString},
       {"x", DataType::kDouble}},
      {{Value(int64_t{3}), Value("c"), Value(2.5)},
       {Value(int64_t{4}), Value("a"), Value(3.5)},
       {Value(int64_t{5}), Value("c"), Value(4.5)}}));
  EXPECT_EQ(Data().num_rows(), 5u);
}

TEST_F(IngestWorld, IntSourceCastsIntoDoubleColumn) {
  ExpectIngestMatchesOracle(Source(
      {{"x", DataType::kInt64}, {"tag", DataType::kString},
       {"n", DataType::kInt64}},
      {{Value(int64_t{7}), Value("d"), Value(int64_t{1})}}));
  EXPECT_EQ(Data().GetValue(2, 0), Value(7.0));
}

TEST_F(IngestWorld, FailedCastLandsTheRowsBeforeIt) {
  ExpectIngestMatchesOracle(Source(
      {{"x", DataType::kString}, {"tag", DataType::kString},
       {"n", DataType::kInt64}},
      {{Value("2.5"), Value("e"), Value(int64_t{1})},
       {Value("3"), Value("f"), Value(int64_t{2})},
       {Value("nope"), Value("g"), Value(int64_t{3})},
       {Value("4"), Value("h"), Value(int64_t{4})}}));
  EXPECT_EQ(Data().num_rows(), 4u);
  EXPECT_EQ(Data().column(1).dictionary().Find("g"), -1);
}

TEST_F(IngestWorld, MissingColumnLandsNothing) {
  const Table src = Source({{"x", DataType::kDouble},
                            {"tag", DataType::kString}},
                           {{Value(2.5), Value("z")}});
  ExpectIngestMatchesOracle(src);
  EXPECT_EQ(db_.IngestSample("S", src).code(), StatusCode::kNotFound);
  EXPECT_EQ(Data().num_rows(), 2u);
}

TEST_F(IngestWorld, EmptySourceLandsNothing) {
  ExpectIngestMatchesOracle(Source(
      {{"x", DataType::kDouble}, {"tag", DataType::kString},
       {"n", DataType::kInt64}},
      {}));
  EXPECT_EQ(Data().num_rows(), 2u);
}

TEST_F(IngestWorld, SourceSharingTheDictionaryCopiesCodes) {
  // Filter shares the sample's dictionary: codes append as they are.
  const Table src = Data().Filter({1, 0, 1});
  ExpectIngestMatchesOracle(src);
  EXPECT_EQ(Data().column(1).dictionary().size(), 2u);
  EXPECT_EQ(Data().GetValue(2, 1), Value("a"));
}

TEST(Database, UpdateAuxTable) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 0), (2, 0)").ok());
  ASSERT_TRUE(db.Execute("UPDATE t SET b = a * 10 WHERE a > 1").ok());
  auto r = db.Execute("SELECT b FROM t ORDER BY a");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetValue(0, 0).AsInt64(), 0);
  EXPECT_EQ(r->GetValue(1, 0).AsInt64(), 20);

  // Two assignments in one statement both read the pre-update row.
  ASSERT_TRUE(db.Execute("UPDATE t SET a = b + 1, b = a WHERE a = 2").ok());
  r = db.Execute("SELECT a, b FROM t ORDER BY b");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->GetValue(0, 0).AsInt64(), 1);
  EXPECT_EQ(r->GetValue(0, 1).AsInt64(), 0);
  EXPECT_EQ(r->GetValue(1, 0).AsInt64(), 21);
  EXPECT_EQ(r->GetValue(1, 1).AsInt64(), 2);

  // A VARCHAR column, assigned only where the predicate holds.
  ASSERT_TRUE(db.Execute("CREATE TABLE s (k INT, name VARCHAR)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO s VALUES (1, 'x'), (2, 'y'), (3, 'z')").ok());
  ASSERT_TRUE(db.Execute("UPDATE s SET name = 'hit' WHERE k != 2").ok());
  r = db.Execute("SELECT name FROM s ORDER BY k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(r->GetValue(0, 0).AsString(), "hit");
  EXPECT_EQ(r->GetValue(1, 0).AsString(), "y");
  EXPECT_EQ(r->GetValue(2, 0).AsString(), "hit");

  // A failing expression rejects the whole statement and leaves the
  // table unchanged.
  auto bad = db.Execute("UPDATE t SET b = 1 / (a - a)");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("division by zero"),
            std::string::npos)
      << bad.status().ToString();
  r = db.Execute("SELECT a, b FROM t ORDER BY b");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->GetValue(0, 0).AsInt64(), 1);
  EXPECT_EQ(r->GetValue(0, 1).AsInt64(), 0);
  EXPECT_EQ(r->GetValue(1, 0).AsInt64(), 21);
  EXPECT_EQ(r->GetValue(1, 1).AsInt64(), 2);
}

TEST(Database, ExecuteScriptReturnsLastResult) {
  Database db;
  auto r = db.ExecuteScript(
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (7); "
      "SELECT a FROM t;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->GetValue(0, 0).AsInt64(), 7);
}

TEST(Database, UniformMechanismReweighting) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE GLOBAL POPULATION G (a VARCHAR)").ok());
  ASSERT_TRUE(db.Execute("CREATE SAMPLE S AS (SELECT * FROM G "
                         "USING MECHANISM UNIFORM PERCENT 10)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO S VALUES ('x'), ('y'), ('z')").ok());
  // Known mechanism: no metadata needed; each tuple represents 10.
  auto r = db.Execute("SELECT SEMI-OPEN COUNT(*) FROM G");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->GetValue(0, 0).AsDouble(), 30.0);
}

TEST(Database, StratifiedMechanismReweighting) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE GLOBAL POPULATION G (strat VARCHAR)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE R (strat VARCHAR, cnt INT)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO R VALUES ('a', 100), ('b', 300)").ok());
  ASSERT_TRUE(
      db.Execute("CREATE METADATA G_M1 AS (SELECT strat, cnt FROM R)").ok());
  ASSERT_TRUE(db.Execute("CREATE SAMPLE S AS (SELECT * FROM G "
                         "USING MECHANISM STRATIFIED ON strat PERCENT 1)")
                  .ok());
  // Equal allocation: 2 tuples per stratum.
  ASSERT_TRUE(
      db.Execute("INSERT INTO S VALUES ('a'), ('a'), ('b'), ('b')").ok());
  auto r = db.Execute(
      "SELECT SEMI-OPEN strat, COUNT(*) AS c FROM G GROUP BY strat "
      "ORDER BY strat");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->GetValue(0, 1).AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(r->GetValue(1, 1).AsDouble(), 300.0);
}

TEST(Database, UnknownRelationInSelect) {
  Database db;
  auto r = db.Execute("SELECT * FROM nothing");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Database, DropIfExistsTolerant) {
  Database db;
  EXPECT_TRUE(db.Execute("DROP TABLE IF EXISTS nope").ok());
  EXPECT_FALSE(db.Execute("DROP TABLE nope").ok());
}

}  // namespace
}  // namespace core
}  // namespace mosaic
