// Runtime-typed scalar values. Tables are columnar and strongly typed;
// Value is the boundary type used by the SQL layer, expression
// evaluator, and row-at-a-time APIs.
#ifndef MOSAIC_STORAGE_VALUE_H_
#define MOSAIC_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace mosaic {

/// Column data types supported by Mosaic. Strings are
/// dictionary-encoded inside columns; the paper's categorical
/// attributes (e.g. flight carriers) map to kString.
enum class DataType { kNull, kInt64, kDouble, kString, kBool };

/// Name of a DataType ("INT", "DOUBLE", "VARCHAR", "BOOL", "NULL").
const char* DataTypeName(DataType type);

/// Parse a SQL type name (INT/INTEGER/BIGINT, DOUBLE/FLOAT/REAL,
/// VARCHAR/TEXT/STRING, BOOL/BOOLEAN). Case-insensitive.
[[nodiscard]] Result<DataType> ParseDataType(const std::string& name);

/// A dynamically typed scalar. Small enough to pass by value in
/// row-oriented code paths (parser literals, query results).
class Value {
 public:
  /// NULL value.
  Value() : type_(DataType::kNull) {}
  explicit Value(int64_t v) : type_(DataType::kInt64), data_(v) {}
  explicit Value(double v) : type_(DataType::kDouble), data_(v) {}
  explicit Value(std::string v)
      : type_(DataType::kString), data_(std::move(v)) {}
  explicit Value(const char* v)
      : type_(DataType::kString), data_(std::string(v)) {}
  explicit Value(bool v) : type_(DataType::kBool), data_(v) {}

  Value(const Value&) = default;
  Value(Value&&) noexcept = default;
  Value& operator=(const Value&) = default;
  /// Out of line: inlined into `row[i] = Value(...)`, the variant's
  /// move-assign visits every alternative of the temporary, and GCC 12
  /// then reports its never-built string as maybe-uninitialized.
  Value& operator=(Value&& other) noexcept;
  ~Value() = default;

  static Value Null() { return Value(); }

  DataType type() const { return type_; }
  bool is_null() const { return type_ == DataType::kNull; }

  /// Typed accessors. Require the matching type.
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  bool AsBool() const { return std::get<bool>(data_); }

  /// Numeric view: int64/double/bool coerced to double. Errors on
  /// strings and NULL.
  [[nodiscard]] Result<double> ToDouble() const;

  /// Lossless-ish coercion to the target type (int<->double,
  /// anything->string via formatting). Errors when not representable.
  [[nodiscard]] Result<Value> CastTo(DataType target) const;

  /// SQL-ish rendering: NULL, 42, 1.5, 'abc', TRUE.
  std::string ToString() const;

  /// Total ordering within the same type; NULL sorts first; numeric
  /// types compare by value across int64/double.
  bool operator==(const Value& other) const;
  bool operator<(const Value& other) const;

 private:
  DataType type_;
  std::variant<std::monostate, int64_t, double, std::string, bool> data_;
};

}  // namespace mosaic

#endif  // MOSAIC_STORAGE_VALUE_H_
