// Zero-copy columnar views for the vectorized executor.
//
// A ColumnSpan exposes a column's raw typed storage (int64/double/bool
// arrays, or dictionary codes for strings); a TableView bundles spans
// with a schema; a SelectionVector names the rows of a view that a
// predicate kept. Together they let the execution layer filter,
// aggregate, and project population tables without materializing
// intermediate Table copies — e.g. a reweighted sample is just a view
// of the sample's columns plus an external span over its weight
// vector.
//
// Views are non-owning: the Table (and any external span) must outlive
// the view. Dictionaries are held by shared_ptr so result columns can
// share them.
#ifndef MOSAIC_STORAGE_TABLE_VIEW_H_
#define MOSAIC_STORAGE_TABLE_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/status.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace mosaic {

/// Typed, read-only view of one column's storage. Exactly one payload
/// pointer is set, matching `type` (strings expose dictionary codes —
/// predicates compare codes, never decoded strings).
struct ColumnSpan {
  DataType type = DataType::kNull;
  size_t size = 0;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const uint8_t* b8 = nullptr;
  const int32_t* codes = nullptr;
  std::shared_ptr<const Dictionary> dict;  ///< string columns only

  /// Boxed value at `row` (decodes strings). Boundary use only — the
  /// batch kernels read the typed pointers directly.
  Value GetValue(size_t row) const;

  /// Numeric view of a row; errors for string spans.
  [[nodiscard]] Result<double> GetDouble(size_t row) const;

  static ColumnSpan FromColumn(const Column& column);
  static ColumnSpan FromDoubles(const double* data, size_t n);
};

/// Non-owning view of a run of selected row ids. Converts implicitly
/// from a row vector (std or aligned) so the batch kernels take either
/// through one signature. A null `data` with a nonzero size stands for
/// the identity rows 0..size-1, exactly as the kernels read a null row
/// list (exec/simd.h). The owner must outlive the slice.
class SelectionSlice {
 public:
  SelectionSlice() = default;
  SelectionSlice(const uint32_t* data, size_t size)
      : data_(data), size_(size) {}
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design
  // so every row list shares one kernel signature.
  SelectionSlice(const std::vector<uint32_t>& rows)
      : data_(rows.data()), size_(rows.size()) {}
  // NOLINTNEXTLINE(google-explicit-constructor): same implicit-accept
  // contract as the std::vector overload above.
  SelectionSlice(const AlignedVector<uint32_t>& rows)
      : data_(rows.data()), size_(rows.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t operator[](size_t i) const {
    return data_ != nullptr ? data_[i] : static_cast<uint32_t>(i);
  }
  /// The row list, or null for the identity.
  const uint32_t* data() const { return data_; }

 private:
  const uint32_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Row indices into a view, ascending — the set of rows a predicate
/// kept. uint32 bounds tables at ~4B rows, which keeps selection
/// traffic half the size of size_t. A selection of every row (All)
/// holds no list: its slice is the identity, so the first WHERE kernel
/// reads the columns linearly and compacts survivors straight into a
/// fresh list.
class SelectionVector {
 public:
  SelectionVector() = default;
  explicit SelectionVector(AlignedVector<uint32_t> rows)
      : rows_(std::move(rows)) {}
  /// Convenience (copies into aligned storage) — test/boundary use;
  /// hot paths build AlignedVector row lists directly.
  explicit SelectionVector(const std::vector<uint32_t>& rows)
      : rows_(rows.begin(), rows.end()) {}

  /// Every row 0..n-1, held implicitly (nothing is allocated).
  static SelectionVector All(size_t n);

  bool all() const { return all_; }
  size_t size() const { return all_ ? num_all_ : rows_.size(); }
  bool empty() const { return size() == 0; }
  uint32_t operator[](size_t i) const {
    return all_ ? static_cast<uint32_t>(i) : rows_[i];
  }
  /// The rows as a kernel slice (null data for All).
  SelectionSlice slice() const {
    return all_ ? SelectionSlice(nullptr, num_all_) : SelectionSlice(rows_);
  }
  /// Keep the first min(n, size()) rows.
  void Truncate(size_t n);

  /// The explicit row list; an All selection writes it out first.
  AlignedVector<uint32_t>* mutable_rows();

 private:
  AlignedVector<uint32_t> rows_;
  bool all_ = false;
  size_t num_all_ = 0;
};

/// Schema + one span per column. Constructed over a Table, optionally
/// extended with external spans (the engine-managed weight column is
/// attached this way, without copying the sample).
class TableView {
 public:
  TableView() = default;
  explicit TableView(const Table& table);

  /// Assemble a view from pre-built spans (the executor's group-key
  /// output, or spans that point into storage other than a Table).
  /// Span count must match the schema; the span storage must outlive
  /// the view.
  static TableView FromSpans(Schema schema, std::vector<ColumnSpan> spans,
                             size_t num_rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return spans_.size(); }
  const ColumnSpan& column(size_t i) const { return spans_[i]; }

  /// Append an external double span as a named column (e.g. per-tuple
  /// weights living in a std::vector<double> beside the table).
  /// Errors on duplicate name or size mismatch against a non-empty
  /// view.
  [[nodiscard]] Status AddDoubleSpan(const std::string& name, const double* data,
                       size_t n);

  /// Boxed value at (row, col) — boundary/debug use.
  Value GetValue(size_t row, size_t col) const;

  /// Materialize the selected rows into a Table (used when a consumer
  /// genuinely needs an owning Table, e.g. IPF training input).
  Table Materialize(const SelectionVector& sel) const;

 private:
  Schema schema_;
  std::vector<ColumnSpan> spans_;
  size_t num_rows_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_STORAGE_TABLE_VIEW_H_
