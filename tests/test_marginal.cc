#include "stats/marginal.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mosaic {
namespace stats {
namespace {

Table MetadataTable1D() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"cnt", DataType::kInt64}).ok());
  Table t(s);
  EXPECT_TRUE(t.AppendRow({Value("WN"), Value(int64_t{60})}).ok());
  EXPECT_TRUE(t.AppendRow({Value("AA"), Value(int64_t{30})}).ok());
  EXPECT_TRUE(t.AppendRow({Value("US"), Value(int64_t{10})}).ok());
  return t;
}

Table MetadataTable2D() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"elapsed", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"cnt", DataType::kDouble}).ok());
  Table t(s);
  EXPECT_TRUE(
      t.AppendRow({Value("WN"), Value(int64_t{100}), Value(40.0)}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value("WN"), Value(int64_t{300}), Value(20.0)}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value("AA"), Value(int64_t{100}), Value(25.0)}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value("AA"), Value(int64_t{300}), Value(15.0)}).ok());
  return t;
}

TEST(AttributeBinning, CategoricalLookup) {
  auto b = AttributeBinning::Categorical(
      "c", {Value("AA"), Value("US"), Value("WN")});
  EXPECT_EQ(b.num_bins(), 3u);
  EXPECT_EQ(*b.BinOf(Value("US")), 1u);
  EXPECT_FALSE(b.BinOf(Value("ZZ")).ok());
  EXPECT_TRUE(b.BinRepresentative(2) == Value("WN"));
}

TEST(AttributeBinning, CategoricalNumericCrossType) {
  auto b = AttributeBinning::Categorical(
      "e", {Value(int64_t{100}), Value(int64_t{200})});
  // A double value equal to an int category must match.
  EXPECT_EQ(*b.BinOf(Value(200.0)), 1u);
}

TEST(AttributeBinning, ContinuousBins) {
  auto b = AttributeBinning::Continuous("x", 0.0, 1.0, 4);
  EXPECT_EQ(b.num_bins(), 4u);
  EXPECT_EQ(*b.BinOf(Value(0.3)), 1u);
  EXPECT_EQ(*b.BinOf(Value(-5.0)), 0u);
  EXPECT_EQ(*b.BinOf(Value(5.0)), 3u);
  EXPECT_DOUBLE_EQ(b.BinLo(1), 0.25);
  EXPECT_DOUBLE_EQ(b.BinHi(1), 0.5);
  EXPECT_DOUBLE_EQ(b.BinRepresentative(0).AsDouble(), 0.125);
}

TEST(Marginal, FromMetadataTable1D) {
  auto m = Marginal::FromMetadataTable(MetadataTable1D());
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->arity(), 1u);
  EXPECT_EQ(m->NumCells(), 3u);
  EXPECT_DOUBLE_EQ(m->total(), 100.0);
  // Categories are sorted: AA, US, WN.
  EXPECT_DOUBLE_EQ(m->count(0), 30.0);
  EXPECT_DOUBLE_EQ(m->count(1), 10.0);
  EXPECT_DOUBLE_EQ(m->count(2), 60.0);
}

TEST(Marginal, FromMetadataTable2D) {
  auto m = Marginal::FromMetadataTable(MetadataTable2D());
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->arity(), 2u);
  EXPECT_EQ(m->NumCells(), 4u);
  EXPECT_DOUBLE_EQ(m->total(), 100.0);
}

TEST(Marginal, FromMetadataTableRejectsBadShapes) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"a", DataType::kString}).ok());
  Table one_col(s);
  ASSERT_TRUE(one_col.AppendRow({Value("x")}).ok());
  EXPECT_FALSE(Marginal::FromMetadataTable(one_col).ok());

  // Non-numeric count column.
  Schema s2;
  ASSERT_TRUE(s2.AddColumn({"a", DataType::kString}).ok());
  ASSERT_TRUE(s2.AddColumn({"b", DataType::kString}).ok());
  Table bad_count(s2);
  ASSERT_TRUE(bad_count.AppendRow({Value("x"), Value("y")}).ok());
  EXPECT_FALSE(Marginal::FromMetadataTable(bad_count).ok());
}

TEST(Marginal, FromMetadataTableAggregatesDuplicates) {
  Table t = MetadataTable1D();
  ASSERT_TRUE(t.AppendRow({Value("WN"), Value(int64_t{40})}).ok());
  auto m = Marginal::FromMetadataTable(t);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->count(2), 100.0);  // WN = 60 + 40
}

TEST(Marginal, FromCountsValidation) {
  auto attrs = std::vector<AttributeBinning>{
      AttributeBinning::Categorical("c", {Value("a"), Value("b")})};
  EXPECT_FALSE(Marginal::FromCounts(attrs, {1.0}).ok());        // wrong size
  EXPECT_FALSE(Marginal::FromCounts(attrs, {1.0, -2.0}).ok());  // negative
  EXPECT_FALSE(Marginal::FromCounts(attrs, {0.0, 0.0}).ok());   // zero mass
  EXPECT_TRUE(Marginal::FromCounts(attrs, {1.0, 2.0}).ok());
}

TEST(Marginal, CellIndexRoundTrip) {
  auto m = Marginal::FromMetadataTable(MetadataTable2D());
  ASSERT_TRUE(m.ok());
  for (size_t cell = 0; cell < m->NumCells(); ++cell) {
    EXPECT_EQ(m->CellIndex(m->CellCoords(cell)), cell);
  }
}

Table SampleRows() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"elapsed", DataType::kInt64}).ok());
  Table t(s);
  EXPECT_TRUE(t.AppendRow({Value("WN"), Value(int64_t{100})}).ok());
  EXPECT_TRUE(t.AppendRow({Value("AA"), Value(int64_t{300})}).ok());
  EXPECT_TRUE(t.AppendRow({Value("ZZ"), Value(int64_t{100})}).ok());
  return t;
}

TEST(Marginal, CellIdsMarksOutOfSupport) {
  auto m = Marginal::FromMetadataTable(MetadataTable2D());
  ASSERT_TRUE(m.ok());
  auto cells = m->CellIds(SampleRows());
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), 3u);
  EXPECT_GE((*cells)[0], 0);
  EXPECT_GE((*cells)[1], 0);
  EXPECT_EQ((*cells)[2], -1);  // carrier ZZ unseen
}

TEST(Marginal, CellIdsMissingColumnFails) {
  auto m = Marginal::FromMetadataTable(MetadataTable1D());
  ASSERT_TRUE(m.ok());
  Schema s;
  ASSERT_TRUE(s.AddColumn({"other", DataType::kInt64}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1})}).ok());
  EXPECT_FALSE(m->CellIds(t).ok());
}

// CellIds bins from column storage; CellOfRow bins one Value at a time.
// They must agree on every row, with -1 exactly where CellOfRow fails.
void ExpectCellIdsMatchCellOfRow(const Marginal& m, const Table& t) {
  auto cells = m.CellIds(t);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  ASSERT_EQ(cells->size(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    auto cell = m.CellOfRow(t, r);
    EXPECT_EQ((*cells)[r], cell.ok() ? static_cast<int64_t>(*cell) : -1)
        << m.ToString() << " row " << r;
  }
}

Marginal OneAttr(AttributeBinning binning) {
  std::vector<double> counts(binning.num_bins(), 1.0);
  auto m = Marginal::FromCounts({std::move(binning)}, std::move(counts));
  EXPECT_TRUE(m.ok());
  return std::move(m).value();
}

// Columns of every storage type, with values inside, at the edges of,
// and outside the binnings below.
Table MixedColumns() {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"name", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"count", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  EXPECT_TRUE(s.AddColumn({"flag", DataType::kBool}).ok());
  Table t(s);
  const char* names[] = {"b", "a", "zz", "b", "c", "a", "zz", "c"};
  const int64_t counts[] = {3, 7, 3, -1, 100, 7, 5, 0};
  const double xs[] = {0.5, -3.0, 10.0, 2.0, 9.99, 3.0, 0.0, 7.5};
  for (size_t r = 0; r < 8; ++r) {
    EXPECT_TRUE(t.AppendRow({Value(names[r]), Value(counts[r]),
                             Value(xs[r]), Value(r % 3 == 0)})
                    .ok());
  }
  return t;
}

TEST(Marginal, CellIdsMatchCellOfRowOnEveryColumnType) {
  const Table t = MixedColumns();
  const std::vector<Marginal> marginals = {
      // String categories; 'zz' is outside the support.
      OneAttr(AttributeBinning::Categorical(
          "name", {Value("a"), Value("b"), Value("c")})),
      // Int categories; -1, 5, 100 are outside the support.
      OneAttr(AttributeBinning::Categorical(
          "count", {Value(int64_t{0}), Value(int64_t{3}), Value(int64_t{7})})),
      // An integer category matched from a double column (3.0 -> 3),
      // and a double category matched from an int column (7 -> 7.0).
      OneAttr(AttributeBinning::Categorical(
          "x", {Value(int64_t{3}), Value(0.5), Value(int64_t{10})})),
      OneAttr(AttributeBinning::Categorical(
          "count", {Value(7.0), Value(int64_t{100})})),
      // Continuous over doubles: -3 and 10 clamp to the edge bins, 0
      // sits on lo, 9.99 just under hi.
      OneAttr(AttributeBinning::Continuous("x", 0.0, 10.0, 4)),
      // Continuous over ints, clamping -1 and 100.
      OneAttr(AttributeBinning::Continuous("count", 0.0, 8.0, 3)),
      // Continuous over strings: nothing is numeric, every row is -1.
      OneAttr(AttributeBinning::Continuous("name", 0.0, 1.0, 2)),
      // A NULL category matches no stored value (columns are
      // non-nullable), beside a string category that does.
      OneAttr(AttributeBinning::Categorical("name",
                                            {Value::Null(), Value("c")})),
      // Bool column against numeric categories (true == 1).
      OneAttr(AttributeBinning::Categorical("flag", {Value(int64_t{1})})),
      OneAttr(AttributeBinning::Continuous("flag", 0.0, 1.0, 2)),
  };
  for (const Marginal& m : marginals) ExpectCellIdsMatchCellOfRow(m, t);

  auto x_cells = marginals[4].CellIds(t);
  ASSERT_TRUE(x_cells.ok());
  EXPECT_EQ(*x_cells,
            (std::vector<int64_t>{0, 0, 3, 0, 3, 1, 0, 3}));
  auto null_cells = marginals[7].CellIds(t);
  ASSERT_TRUE(null_cells.ok());
  EXPECT_EQ(*null_cells,
            (std::vector<int64_t>{-1, -1, -1, -1, 1, -1, -1, 1}));
}

TEST(Marginal, CellIdsTwoDimensionalMatchCellOfRow) {
  const Table t = MixedColumns();
  std::vector<double> counts(3 * 4, 1.0);
  auto m = Marginal::FromCounts(
      {AttributeBinning::Categorical("name",
                                     {Value("a"), Value("b"), Value("c")}),
       AttributeBinning::Continuous("x", 0.0, 10.0, 4)},
      counts);
  ASSERT_TRUE(m.ok());
  ExpectCellIdsMatchCellOfRow(*m, t);
  // And with the out-of-support attribute second.
  auto swapped = Marginal::FromCounts(
      {AttributeBinning::Continuous("x", 0.0, 10.0, 4),
       AttributeBinning::Categorical("count", {Value(int64_t{3}),
                                               Value(int64_t{7})})},
      std::vector<double>(4 * 2, 1.0));
  ASSERT_TRUE(swapped.ok());
  ExpectCellIdsMatchCellOfRow(*swapped, t);
}

TEST(Marginal, CellIdsIndependentOfDictionaryCodes) {
  // Two tables whose dictionaries give the same strings different
  // codes must bin each string to the same cell.
  Schema s;
  ASSERT_TRUE(s.AddColumn({"name", DataType::kString}).ok());
  Table first(s), second(s);
  for (const char* v : {"a", "b", "zz", "c"}) {
    ASSERT_TRUE(first.AppendRow({Value(v)}).ok());
  }
  for (const char* v : {"c", "zz", "b", "a"}) {
    ASSERT_TRUE(second.AppendRow({Value(v)}).ok());
  }
  ASSERT_NE(first.column(0).GetCode(0), second.column(0).GetCode(3));
  const Marginal m = OneAttr(AttributeBinning::Categorical(
      "name", {Value("a"), Value("b"), Value("c")}));
  ExpectCellIdsMatchCellOfRow(m, first);
  ExpectCellIdsMatchCellOfRow(m, second);
  auto a = m.CellIds(first);
  auto b = m.CellIds(second);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, (std::vector<int64_t>{0, 1, -1, 2}));
  EXPECT_EQ(*b, (std::vector<int64_t>{2, -1, 1, 0}));
}

TEST(Marginal, L1ErrorIsL1ErrorOfCellIds) {
  const Table t = MixedColumns();
  const Marginal m = OneAttr(AttributeBinning::Categorical(
      "name", {Value("a"), Value("b"), Value("c")}));
  std::vector<double> w = {1.0, 2.0, 0.5, 4.0, 1.5, 3.0, 0.25, 2.0};
  auto cells = m.CellIds(t);
  auto err = m.L1Error(t, w);
  ASSERT_TRUE(cells.ok() && err.ok());
  EXPECT_EQ(*err, m.L1ErrorOfCells(*cells, w));
  // Rows outside the support ('zz') add their share to the error.
  EXPECT_GT(*err, 0.75 / 14.25);
}

TEST(Marginal, FromDataCategoricalAndContinuous) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"c", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"x", DataType::kDouble}).ok());
  Table t(s);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(i < 7 ? "a" : "b"), Value(i / 10.0)}).ok());
  }
  auto mc = Marginal::FromData(t, {"c"});
  ASSERT_TRUE(mc.ok());
  EXPECT_TRUE(mc->binning(0).is_categorical());
  EXPECT_DOUBLE_EQ(mc->count(0), 7.0);
  auto mx = Marginal::FromData(t, {"x"}, 3);
  ASSERT_TRUE(mx.ok());
  EXPECT_FALSE(mx->binning(0).is_categorical());
  EXPECT_EQ(mx->NumCells(), 3u);
  EXPECT_DOUBLE_EQ(mx->total(), 10.0);
}

TEST(Marginal, FromDataWeighted) {
  Schema s;
  ASSERT_TRUE(s.AddColumn({"c", DataType::kString}).ok());
  ASSERT_TRUE(s.AddColumn({"w", DataType::kDouble}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("a"), Value(3.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("b"), Value(7.0)}).ok());
  auto m = Marginal::FromData(t, {"c"}, 10, "w");
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->count(0), 3.0);
  EXPECT_DOUBLE_EQ(m->count(1), 7.0);
}

TEST(Marginal, SampleCellsFollowsCounts) {
  auto m = Marginal::FromMetadataTable(MetadataTable1D());
  ASSERT_TRUE(m.ok());
  Rng rng(5);
  auto cells = m->SampleCells(60000, &rng);
  std::vector<double> freq(3, 0.0);
  for (size_t c : cells) freq[c] += 1.0;
  // Expected: AA 0.3, US 0.1, WN 0.6.
  EXPECT_NEAR(freq[0] / 60000.0, 0.3, 0.01);
  EXPECT_NEAR(freq[1] / 60000.0, 0.1, 0.01);
  EXPECT_NEAR(freq[2] / 60000.0, 0.6, 0.01);
}

TEST(Marginal, L1ErrorZeroWhenMatching) {
  auto m = Marginal::FromMetadataTable(MetadataTable1D());
  ASSERT_TRUE(m.ok());
  Schema s;
  ASSERT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("WN")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("AA")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("US")}).ok());
  // Weights proportional to the marginal: 60/30/10.
  auto err = m->L1Error(t, {6.0, 3.0, 1.0});
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(*err, 0.0, 1e-12);
}

TEST(Marginal, L1ErrorCountsMismatch) {
  auto m = Marginal::FromMetadataTable(MetadataTable1D());
  ASSERT_TRUE(m.ok());
  Schema s;
  ASSERT_TRUE(s.AddColumn({"carrier", DataType::kString}).ok());
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("WN")}).ok());
  // All mass on WN (target 0.6): error = |0.6-1| + 0.3 + 0.1 = 0.8.
  auto err = m->L1Error(t, {1.0});
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(*err, 0.8, 1e-12);
}

TEST(Marginal, L1ErrorWrongWeightSizeFails) {
  auto m = Marginal::FromMetadataTable(MetadataTable1D());
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->L1Error(SampleRows(), {1.0}).ok());
}

}  // namespace
}  // namespace stats
}  // namespace mosaic
