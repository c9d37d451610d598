// Zero-copy columnar views: SelectionSlice over a selection's row
// vector (or the identity), SelectionVector with its list-free All
// form, ColumnSpan over every payload type, and TableView with an
// external weight span, read directly and materialized.
#include "storage/table_view.h"

#include <gtest/gtest.h>

#include <vector>

#include "storage/table.h"

namespace mosaic {
namespace {

Table MakeTable(size_t rows) {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"i", DataType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"d", DataType::kDouble}).ok());
  EXPECT_TRUE(s.AddColumn({"s", DataType::kString}).ok());
  EXPECT_TRUE(s.AddColumn({"b", DataType::kBool}).ok());
  Table t(s);
  static const char* strs[] = {"x", "y", "z"};
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(t.AppendRow({Value(static_cast<int64_t>(r)),
                             Value(0.5 * static_cast<double>(r)),
                             Value(strs[r % 3]), Value(r % 2 == 0)})
                    .ok());
  }
  return t;
}

TEST(SelectionSlice, ConvertsFromVector) {
  std::vector<uint32_t> rows{7, 9};
  SelectionSlice s = rows;
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[1], 9u);
  EXPECT_EQ(s.data(), rows.data());
}

TEST(SelectionSlice, AliasesASelectionsRows) {
  SelectionVector sel(std::vector<uint32_t>{4, 8, 15, 16, 23, 42});
  SelectionSlice all = sel.slice();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0], 4u);
  EXPECT_EQ(all[5], 42u);
  EXPECT_EQ(all.data(), sel.mutable_rows()->data());
  EXPECT_TRUE(SelectionVector().slice().empty());
}

TEST(SelectionSlice, NullDataIsTheIdentity) {
  SelectionSlice all(nullptr, 5);
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all.data(), nullptr);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(all[i], i);
  EXPECT_TRUE(SelectionSlice(nullptr, 0).empty());
}

TEST(SelectionVector, AllHoldsNoList) {
  SelectionVector sel = SelectionVector::All(1000);
  EXPECT_TRUE(sel.all());
  ASSERT_EQ(sel.size(), 1000u);
  EXPECT_FALSE(sel.empty());
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(sel[999], 999u);
  SelectionSlice slice = sel.slice();
  EXPECT_EQ(slice.data(), nullptr);
  EXPECT_EQ(slice.size(), 1000u);
  EXPECT_EQ(slice[731], 731u);
  EXPECT_TRUE(SelectionVector::All(0).empty());
  EXPECT_FALSE(SelectionVector(std::vector<uint32_t>{1, 2}).all());
}

TEST(SelectionVector, TruncateKeepsThePrefix) {
  SelectionVector all = SelectionVector::All(10);
  all.Truncate(4);
  EXPECT_TRUE(all.all());
  EXPECT_EQ(all.size(), 4u);
  all.Truncate(7);  // never grows
  EXPECT_EQ(all.size(), 4u);
  SelectionVector list(std::vector<uint32_t>{3, 5, 8});
  list.Truncate(2);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[1], 5u);
  list.Truncate(9);
  EXPECT_EQ(list.size(), 2u);
}

TEST(SelectionVector, MutableRowsWritesAllOut) {
  SelectionVector sel = SelectionVector::All(6);
  AlignedVector<uint32_t>* rows = sel.mutable_rows();
  EXPECT_EQ(*rows, (AlignedVector<uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_FALSE(sel.all());
  EXPECT_EQ(sel.slice().data(), rows->data());
  rows->pop_back();
  EXPECT_EQ(sel.size(), 5u);
}

TEST(ColumnSpan, ReadsEveryPayload) {
  Table t = MakeTable(10);
  TableView view(t);
  ASSERT_EQ(view.num_columns(), 4u);
  for (size_t c = 0; c < view.num_columns(); ++c) {
    const ColumnSpan& span = view.column(c);
    ASSERT_EQ(span.size, 10u);
    for (size_t r = 0; r < span.size; ++r) {
      EXPECT_TRUE(span.GetValue(r) == t.GetValue(r, c))
          << "col " << c << " row " << r;
    }
  }
}

TEST(ColumnSpan, StringSpanSharesDictionary) {
  Table t = MakeTable(6);
  TableView view(t);
  const ColumnSpan& span = view.column(2);
  EXPECT_EQ(span.dict.get(), t.column(2).shared_dictionary().get());
  EXPECT_EQ(span.GetValue(4).AsString(), "y");
  EXPECT_FALSE(span.GetDouble(0).ok());
}

TEST(TableView, ExternalWeightSpan) {
  Table t = MakeTable(9);
  std::vector<double> weights(9);
  for (size_t i = 0; i < 9; ++i) weights[i] = 0.1 * static_cast<double>(i);
  TableView view(t);
  ASSERT_TRUE(view.AddDoubleSpan("w", weights.data(), weights.size()).ok());
  ASSERT_EQ(view.num_columns(), 5u);
  EXPECT_DOUBLE_EQ(view.GetValue(4, 4).AsDouble(), 0.4);
  // Zero-copy: the span reads the caller's vector.
  EXPECT_EQ(view.column(4).f64, weights.data());
  // A size mismatch or a duplicate name is rejected.
  EXPECT_FALSE(view.AddDoubleSpan("w2", weights.data(), 8).ok());
  EXPECT_FALSE(view.AddDoubleSpan("w", weights.data(), 9).ok());
}

TEST(TableView, MaterializeAllRows) {
  Table t = MakeTable(7);
  TableView view(t);
  Table out = view.Materialize(SelectionVector::All(t.num_rows()));
  ASSERT_EQ(out.num_rows(), 7u);
  for (size_t r = 0; r < 7; ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_TRUE(out.GetValue(r, c) == t.GetValue(r, c));
    }
  }
}

TEST(TableView, MaterializeSelectedRows) {
  Table t = MakeTable(12);
  std::vector<double> weights(12, 2.0);
  TableView view(t);
  ASSERT_TRUE(view.AddDoubleSpan("w", weights.data(), weights.size()).ok());
  Table out = view.Materialize(SelectionVector(std::vector<uint32_t>{10, 3}));
  ASSERT_EQ(out.num_rows(), 2u);
  ASSERT_EQ(out.num_columns(), 5u);
  EXPECT_EQ(out.GetValue(0, 0).AsInt64(), 10);
  EXPECT_EQ(out.GetValue(1, 0).AsInt64(), 3);
  EXPECT_EQ(out.GetValue(0, 2).AsString(), "y");
  EXPECT_DOUBLE_EQ(out.GetValue(1, 4).AsDouble(), 2.0);
}

}  // namespace
}  // namespace mosaic
