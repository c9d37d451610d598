#include "storage/table_view.h"

#include <algorithm>
#include <cassert>

namespace mosaic {

Value ColumnSpan::GetValue(size_t row) const {
  switch (type) {
    case DataType::kInt64:
      return Value(i64[row]);
    case DataType::kDouble:
      return Value(f64[row]);
    case DataType::kBool:
      return Value(b8[row] != 0);
    case DataType::kString:
      return Value(dict->Decode(codes[row]));
    default:
      return Value::Null();
  }
}

Result<double> ColumnSpan::GetDouble(size_t row) const {
  switch (type) {
    case DataType::kInt64:
      return static_cast<double>(i64[row]);
    case DataType::kDouble:
      return f64[row];
    case DataType::kBool:
      return b8[row] != 0 ? 1.0 : 0.0;
    default:
      return Status::TypeError("string column has no numeric view");
  }
}

ColumnSpan ColumnSpan::FromColumn(const Column& column) {
  ColumnSpan span;
  span.type = column.type();
  span.size = column.size();
  span.i64 = column.raw_int64();
  span.f64 = column.raw_double();
  span.b8 = column.raw_bool();
  span.codes = column.raw_codes();
  if (span.type == DataType::kString) {
    span.dict = column.shared_dictionary();
  }
  return span;
}

ColumnSpan ColumnSpan::FromDoubles(const double* data, size_t n) {
  ColumnSpan span;
  span.type = DataType::kDouble;
  span.size = n;
  span.f64 = data;
  return span;
}

SelectionVector SelectionVector::All(size_t n) {
  SelectionVector sel;
  sel.all_ = true;
  sel.num_all_ = n;
  return sel;
}

void SelectionVector::Truncate(size_t n) {
  if (all_) {
    num_all_ = std::min(num_all_, n);
  } else if (n < rows_.size()) {
    rows_.resize(n);
  }
}

AlignedVector<uint32_t>* SelectionVector::mutable_rows() {
  if (all_) {
    rows_.resize(num_all_);
    for (size_t i = 0; i < num_all_; ++i) rows_[i] = static_cast<uint32_t>(i);
    all_ = false;
  }
  return &rows_;
}

TableView::TableView(const Table& table)
    : schema_(table.schema()), num_rows_(table.num_rows()) {
  spans_.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    spans_.push_back(ColumnSpan::FromColumn(table.column(c)));
  }
}

TableView TableView::FromSpans(Schema schema, std::vector<ColumnSpan> spans,
                               size_t num_rows) {
  TableView view;
  view.schema_ = std::move(schema);
  view.spans_ = std::move(spans);
  view.num_rows_ = num_rows;
  return view;
}

Status TableView::AddDoubleSpan(const std::string& name, const double* data,
                                size_t n) {
  if (!spans_.empty() && n != num_rows_) {
    return Status::InvalidArgument("span size does not match view rows");
  }
  MOSAIC_RETURN_IF_ERROR(schema_.AddColumn(ColumnDef{name, DataType::kDouble}));
  spans_.push_back(ColumnSpan::FromDoubles(data, n));
  if (spans_.size() == 1) num_rows_ = n;
  return Status::OK();
}

Value TableView::GetValue(size_t row, size_t col) const {
  return spans_[col].GetValue(row);
}

Table TableView::Materialize(const SelectionVector& sel) const {
  std::vector<Column> columns;
  columns.reserve(spans_.size());
  for (const ColumnSpan& span : spans_) {
    switch (span.type) {
      case DataType::kInt64: {
        AlignedVector<int64_t> data(sel.size());
        for (size_t i = 0; i < sel.size(); ++i) data[i] = span.i64[sel[i]];
        columns.push_back(Column::FromInt64(std::move(data)));
        break;
      }
      case DataType::kDouble: {
        AlignedVector<double> data(sel.size());
        for (size_t i = 0; i < sel.size(); ++i) data[i] = span.f64[sel[i]];
        columns.push_back(Column::FromDouble(std::move(data)));
        break;
      }
      case DataType::kBool: {
        AlignedVector<uint8_t> data(sel.size());
        for (size_t i = 0; i < sel.size(); ++i) data[i] = span.b8[sel[i]];
        columns.push_back(Column::FromBool(std::move(data)));
        break;
      }
      case DataType::kString: {
        AlignedVector<int32_t> data(sel.size());
        for (size_t i = 0; i < sel.size(); ++i) data[i] = span.codes[sel[i]];
        // Sharing a dictionary across columns is the storage layer's
        // existing contract (Column::Gather does the same); shedding
        // const here restores the owner's original mutability.
        columns.push_back(Column::FromCodes(
            std::const_pointer_cast<Dictionary>(span.dict), std::move(data)));
        break;
      }
      default:
        assert(false && "null column type in view");
        break;
    }
  }
  return Table(schema_, std::move(columns), sel.size());
}

}  // namespace mosaic
