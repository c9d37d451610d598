// In-memory columnar table: the storage unit behind every Mosaic
// relation kind (auxiliary tables, sample relations, materialized
// query results, generated open-world data).
#ifndef MOSAIC_STORAGE_TABLE_H_
#define MOSAIC_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace mosaic {

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  /// Assemble a table from pre-built columns (zero-copy
  /// materialization path used by the batch executor). Column types
  /// and sizes must match the schema and `num_rows`.
  Table(Schema schema, std::vector<Column> columns, size_t num_rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  Column* mutable_column(size_t i) { return &columns_[i]; }

  /// Column by name; NotFound if absent.
  [[nodiscard]] Result<const Column*> ColumnByName(const std::string& name) const;

  /// Append one row; values are coerced to column types.
  [[nodiscard]] Status AppendRow(const std::vector<Value>& row);

  /// Value at (row, col).
  Value GetValue(size_t row, size_t col) const;

  /// Whole row as Values.
  std::vector<Value> GetRow(size_t row) const;

  /// New table with only the given rows, in order.
  Table Filter(const std::vector<size_t>& rows) const;

  /// New table with only the given columns, in order.
  Table Project(const std::vector<size_t>& column_indices) const;

  /// Append every row of `other` (schemas must be equal). `other`
  /// may be this table: its length is read once, so the table doubles.
  [[nodiscard]] Status Concat(const Table& other);

  /// Append every row of `src`, column by column: destination column
  /// c takes source column `src_col_of_dst[c]`. Same-type columns
  /// append as one range (see Column::AppendFrom); a column whose type
  /// differs casts value by value (Value::CastTo). Casts are checked
  /// before anything mutates: the first failing row (lowest row, then
  /// lowest column) cuts the append, rows before it land, and its
  /// status is returned — what appending row by row would do.
  [[nodiscard]] Status AppendColumns(const Table& src,
                                     const std::vector<size_t>& src_col_of_dst);

  /// Add a column filled from `values` (size must equal num_rows, or
  /// table must be empty).
  [[nodiscard]] Status AddColumn(ColumnDef def, const std::vector<Value>& values);

  /// Add a double column from raw doubles (fast path used for weights).
  [[nodiscard]] Status AddDoubleColumn(const std::string& name,
                         const std::vector<double>& values);

  /// Row indices sorted by the given column ascending (stable).
  std::vector<size_t> SortIndices(size_t col) const;

  /// Pretty-print at most `limit` rows.
  std::string ToString(size_t limit = 20) const;

  /// Reserve row capacity in every column.
  void Reserve(size_t n);

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace mosaic

#endif  // MOSAIC_STORAGE_TABLE_H_
