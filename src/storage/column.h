// Columnar storage. A Column is a typed vector; string columns are
// dictionary-encoded (int32 codes + shared Dictionary). Columns are
// non-nullable: Mosaic's sample/population relations are fully
// materialized numeric/categorical data, and rejecting NULLs at append
// time keeps the stats and NN encoders branch-free.
#ifndef MOSAIC_STORAGE_COLUMN_H_
#define MOSAIC_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.h"
#include "common/status.h"
#include "storage/dictionary.h"
#include "storage/value.h"

namespace mosaic {

class Column {
 public:
  /// Empty column of the given type (kInt64, kDouble, kString, kBool).
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const;

  /// Append with coercion (int64 -> double column etc.). Errors on
  /// NULL or non-coercible values.
  [[nodiscard]] Status Append(const Value& v);

  /// Fast typed appends (require matching column type).
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendBool(bool v);
  void AppendString(const std::string& s);
  /// Append a pre-encoded dictionary code (string columns).
  void AppendCode(int32_t code);

  /// Append the first `n` values of `src`, which must have this
  /// column's type: one range copy for numeric and bool columns, and
  /// for string columns a copy of the codes when `src` shares this
  /// column's dictionary, else a remap through a per-source-code
  /// table, so each distinct string costs one dictionary insert, in
  /// row order of first appearance. `src` may be this column.
  void AppendFrom(const Column& src, size_t n);

  /// Zero-copy construction from pre-built storage (the batch
  /// executor materializes result columns this way instead of
  /// appending row by row). Takes AlignedVector so every column's
  /// allocation base is 64-byte aligned for the SIMD kernels.
  static Column FromInt64(AlignedVector<int64_t> values);
  static Column FromDouble(AlignedVector<double> values);
  static Column FromBool(AlignedVector<uint8_t> values);
  static Column FromCodes(std::shared_ptr<Dictionary> dict,
                          AlignedVector<int32_t> codes);

  /// Value at a row (decodes strings).
  Value GetValue(size_t row) const;

  /// Numeric view of a row; errors for string columns.
  [[nodiscard]] Result<double> GetDouble(size_t row) const;

  /// Dictionary code at a row (string columns only).
  int32_t GetCode(size_t row) const;

  /// Raw typed storage, valid while the column is alive and
  /// unmodified. Each is non-null only for the matching column type
  /// (string columns expose their dictionary codes). The batch
  /// executor reads these through ColumnSpan (storage/table_view.h).
  const int64_t* raw_int64() const {
    return type_ == DataType::kInt64 ? ints_.data() : nullptr;
  }
  const double* raw_double() const {
    return type_ == DataType::kDouble ? doubles_.data() : nullptr;
  }
  const uint8_t* raw_bool() const {
    return type_ == DataType::kBool ? bools_.data() : nullptr;
  }
  const int32_t* raw_codes() const {
    return type_ == DataType::kString ? codes_.data() : nullptr;
  }

  /// Dictionary (string columns only).
  const Dictionary& dictionary() const { return *dict_; }
  const std::shared_ptr<Dictionary>& shared_dictionary() const {
    return dict_;
  }

  /// Whole column as doubles; string columns yield their codes. Used
  /// by the stats and NN layers, which treat categorical codes as
  /// class indices.
  std::vector<double> ToDoubleVector() const;

  /// New column containing the given rows, in order. String columns
  /// share this column's dictionary.
  Column Gather(const std::vector<size_t>& rows) const;

  /// Reserve capacity for n rows.
  void Reserve(size_t n);

 private:
  DataType type_;
  AlignedVector<int64_t> ints_;
  AlignedVector<double> doubles_;
  AlignedVector<uint8_t> bools_;
  AlignedVector<int32_t> codes_;
  std::shared_ptr<Dictionary> dict_;
};

}  // namespace mosaic

#endif  // MOSAIC_STORAGE_COLUMN_H_
