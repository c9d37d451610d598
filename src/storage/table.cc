#include "storage/table.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/string_util.h"

namespace mosaic {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (const auto& def : schema_.columns()) {
    columns_.emplace_back(def.type);
  }
}

Table::Table(Schema schema, std::vector<Column> columns, size_t num_rows)
    : schema_(std::move(schema)),
      columns_(std::move(columns)),
      num_rows_(num_rows) {
  assert(schema_.num_columns() == columns_.size());
  for (const auto& col : columns_) {
    assert(col.size() == num_rows_);
    (void)col;
  }
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  MOSAIC_ASSIGN_OR_RETURN(size_t idx, schema_.ColumnIndex(name));
  return &columns_[idx];
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu values, table has %zu columns", row.size(),
                  columns_.size()));
  }
  // Validate all appends before mutating any column so a failed row
  // leaves the table consistent.
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) {
      return Status::InvalidArgument("NULL not allowed in column '" +
                                     schema_.column(i).name + "'");
    }
    auto cast = row[i].CastTo(schema_.column(i).type);
    if (!cast.ok()) return cast.status();
  }
  for (size_t i = 0; i < row.size(); ++i) {
    MOSAIC_RETURN_IF_ERROR(columns_[i].Append(row[i]));
  }
  ++num_rows_;
  return Status::OK();
}

Value Table::GetValue(size_t row, size_t col) const {
  return columns_[col].GetValue(row);
}

std::vector<Value> Table::GetRow(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col.GetValue(row));
  return out;
}

Table Table::Filter(const std::vector<size_t>& rows) const {
  Table out(schema_);
  out.columns_.clear();
  for (const auto& col : columns_) out.columns_.push_back(col.Gather(rows));
  out.num_rows_ = rows.size();
  return out;
}

Table Table::Project(const std::vector<size_t>& column_indices) const {
  Table out(schema_.Project(column_indices));
  out.columns_.clear();
  for (size_t i : column_indices) out.columns_.push_back(columns_[i]);
  out.num_rows_ = num_rows_;
  return out;
}

Status Table::Concat(const Table& other) {
  if (!(schema_ == other.schema_)) {
    return Status::InvalidArgument("Concat: schema mismatch (" +
                                   schema_.ToString() + " vs " +
                                   other.schema_.ToString() + ")");
  }
  std::vector<size_t> identity(columns_.size());
  std::iota(identity.begin(), identity.end(), size_t{0});
  return AppendColumns(other, identity);
}

Status Table::AppendColumns(const Table& src,
                            const std::vector<size_t>& src_col_of_dst) {
  if (src_col_of_dst.size() != columns_.size()) {
    return Status::InvalidArgument(
        StrFormat("AppendColumns: %zu source columns for %zu columns",
                  src_col_of_dst.size(), columns_.size()));
  }
  for (size_t s : src_col_of_dst) {
    if (s >= src.num_columns()) {
      return Status::InvalidArgument(
          StrFormat("AppendColumns: source column %zu of %zu", s,
                    src.num_columns()));
    }
  }
  // The rows that land. Read the source length once: `src` may be
  // this table.
  size_t cut = src.num_rows_;
  Status status = Status::OK();
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& from = src.columns_[src_col_of_dst[c]];
    const DataType type = columns_[c].type();
    if (from.type() == type) continue;
    // Only rows below the current cut: a later column failing at the
    // same row must not replace the lower column's status.
    for (size_t r = 0; r < cut; ++r) {
      Result<Value> cast = from.GetValue(r).CastTo(type);
      if (!cast.ok()) {
        cut = r;
        status = cast.status();
        break;
      }
    }
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& from = src.columns_[src_col_of_dst[c]];
    if (from.type() == columns_[c].type()) {
      columns_[c].AppendFrom(from, cut);
      continue;
    }
    for (size_t r = 0; r < cut; ++r) {
      Status st = columns_[c].Append(from.GetValue(r));
      assert(st.ok());  // every cast below the cut was checked above
      (void)st;
    }
  }
  num_rows_ += cut;
  return status;
}

Status Table::AddColumn(ColumnDef def, const std::vector<Value>& values) {
  if (num_rows_ != 0 && values.size() != num_rows_) {
    return Status::InvalidArgument(
        StrFormat("AddColumn: %zu values for %zu rows", values.size(),
                  num_rows_));
  }
  MOSAIC_RETURN_IF_ERROR(schema_.AddColumn(def));
  Column col(def.type);
  col.Reserve(values.size());
  for (const auto& v : values) {
    Status st = col.Append(v);
    if (!st.ok()) {
      // Roll back the schema change.
      std::vector<ColumnDef> defs = schema_.columns();
      defs.pop_back();
      schema_ = Schema(std::move(defs));
      return st;
    }
  }
  if (num_rows_ == 0) num_rows_ = values.size();
  columns_.push_back(std::move(col));
  return Status::OK();
}

Status Table::AddDoubleColumn(const std::string& name,
                              const std::vector<double>& values) {
  std::vector<Value> vals;
  vals.reserve(values.size());
  for (double v : values) vals.emplace_back(v);
  return AddColumn(ColumnDef{name, DataType::kDouble}, vals);
}

std::vector<size_t> Table::SortIndices(size_t col) const {
  std::vector<size_t> idx(num_rows_);
  std::iota(idx.begin(), idx.end(), size_t{0});
  const Column& c = columns_[col];
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return c.GetValue(a) < c.GetValue(b);
  });
  return idx;
}

std::string Table::ToString(size_t limit) const {
  std::vector<std::string> header;
  header.reserve(schema_.num_columns());
  for (const auto& def : schema_.columns()) header.push_back(def.name);
  std::vector<std::vector<std::string>> rows;
  size_t n = std::min(limit, num_rows_);
  for (size_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    row.reserve(columns_.size());
    for (const auto& col : columns_) {
      Value v = col.GetValue(r);
      // Strip quotes for display.
      row.push_back(v.type() == DataType::kString ? v.AsString()
                                                  : v.ToString());
    }
    rows.push_back(std::move(row));
  }
  std::string out = RenderTable(header, rows);
  if (num_rows_ > limit) {
    out += StrFormat("... (%zu rows total)\n", num_rows_);
  }
  return out;
}

void Table::Reserve(size_t n) {
  for (auto& col : columns_) col.Reserve(n);
}

}  // namespace mosaic
