#include "storage/value.h"

#include <cmath>

#include "common/string_util.h"

namespace mosaic {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt64:
      return "INT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "VARCHAR";
    case DataType::kBool:
      return "BOOL";
  }
  return "?";
}

[[nodiscard]] Result<DataType> ParseDataType(const std::string& name) {
  std::string up = ToUpper(name);
  if (up == "INT" || up == "INTEGER" || up == "BIGINT" || up == "SMALLINT") {
    return DataType::kInt64;
  }
  if (up == "DOUBLE" || up == "FLOAT" || up == "REAL" || up == "DECIMAL" ||
      up == "NUMERIC") {
    return DataType::kDouble;
  }
  if (up == "VARCHAR" || up == "TEXT" || up == "STRING" || up == "CHAR") {
    return DataType::kString;
  }
  if (up == "BOOL" || up == "BOOLEAN") {
    return DataType::kBool;
  }
  return Status::TypeError("unknown type name: " + name);
}

Result<double> Value::ToDouble() const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<double>(AsInt64());
    case DataType::kDouble:
      return AsDouble();
    case DataType::kBool:
      return AsBool() ? 1.0 : 0.0;
    default:
      return Status::TypeError("cannot convert " + ToString() + " to double");
  }
}

Result<Value> Value::CastTo(DataType target) const {
  if (type_ == target) return *this;
  if (is_null()) return Value::Null();
  switch (target) {
    case DataType::kInt64: {
      if (type_ == DataType::kDouble) {
        double d = AsDouble();
        return Value(static_cast<int64_t>(std::llround(d)));
      }
      if (type_ == DataType::kBool) return Value(int64_t{AsBool() ? 1 : 0});
      if (type_ == DataType::kString) {
        try {
          size_t pos = 0;
          int64_t v = std::stoll(AsString(), &pos);
          if (pos == AsString().size()) return Value(v);
        } catch (...) {
        }
        return Status::TypeError("cannot cast '" + AsString() + "' to INT");
      }
      break;
    }
    case DataType::kDouble: {
      if (type_ == DataType::kInt64) {
        return Value(static_cast<double>(AsInt64()));
      }
      if (type_ == DataType::kBool) return Value(AsBool() ? 1.0 : 0.0);
      if (type_ == DataType::kString) {
        try {
          size_t pos = 0;
          double v = std::stod(AsString(), &pos);
          if (pos == AsString().size()) return Value(v);
        } catch (...) {
        }
        return Status::TypeError("cannot cast '" + AsString() + "' to DOUBLE");
      }
      break;
    }
    case DataType::kString: {
      if (type_ == DataType::kInt64) {
        return Value(std::to_string(AsInt64()));
      }
      if (type_ == DataType::kDouble) return Value(FormatDouble(AsDouble()));
      if (type_ == DataType::kBool) {
        return Value(std::string(AsBool() ? "true" : "false"));
      }
      break;
    }
    case DataType::kBool: {
      if (type_ == DataType::kInt64) return Value(AsInt64() != 0);
      if (type_ == DataType::kDouble) return Value(AsDouble() != 0.0);
      break;
    }
    case DataType::kNull:
      return Value::Null();
  }
  return Status::TypeError(std::string("cannot cast ") +
                           DataTypeName(type_) + " to " +
                           DataTypeName(target));
}

std::string Value::ToString() const {
  switch (type_) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt64:
      return std::to_string(AsInt64());
    case DataType::kDouble:
      return FormatDouble(AsDouble());
    case DataType::kString:
      return "'" + AsString() + "'";
    case DataType::kBool:
      return AsBool() ? "TRUE" : "FALSE";
  }
  return "?";
}

namespace {
bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kBool;
}
}  // namespace

Value& Value::operator=(Value&& other) noexcept = default;

bool Value::operator==(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    return *ToDouble() == *other.ToDouble();
  }
  if (type_ != other.type_) return false;
  return data_ == other.data_;
}

bool Value::operator<(const Value& other) const {
  if (is_null()) return !other.is_null();
  if (other.is_null()) return false;
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    return *ToDouble() < *other.ToDouble();
  }
  if (type_ == DataType::kString && other.type_ == DataType::kString) {
    return AsString() < other.AsString();
  }
  // Heterogeneous non-numeric comparison: order by type tag for a
  // stable total order (needed by GROUP BY key maps).
  return static_cast<int>(type_) < static_cast<int>(other.type_);
}

}  // namespace mosaic
