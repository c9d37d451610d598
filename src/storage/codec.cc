#include "storage/codec.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "common/aligned.h"
#include "storage/column.h"

namespace mosaic {

namespace {

[[nodiscard]] Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated input: ") + what);
}

/// Highest valid DataType tag, for decoding.
constexpr uint8_t kMaxDataTypeTag = static_cast<uint8_t>(DataType::kBool);

/// One fixed-width column's row array, copied in bulk.
template <typename T>
[[nodiscard]] Status ReadColumnArray(ByteReader* r, size_t rows,
                                     AlignedVector<T>* out) {
  MOSAIC_RETURN_IF_ERROR(r->CheckCount(rows, sizeof(T), "row"));
  out->resize(rows);
  return r->ReadBytes(out->data(), rows * sizeof(T));
}

}  // namespace

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

void ByteWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(s.data(), s.size());
}

void ByteWriter::PutBytes(const void* data, size_t n) {
  if (n != 0) out_.append(static_cast<const char*>(data), n);
}

void ByteWriter::PatchU32(size_t offset, uint32_t v) {
  assert(offset + sizeof(v) <= out_.size());
  std::memcpy(&out_[offset], &v, sizeof(v));
}

template <typename T>
Result<T> ByteReader::ReadFixed(const char* what) {
  if (remaining() < sizeof(T)) return Truncated(what);
  T v;
  std::memcpy(&v, &data_[pos_], sizeof(T));
  pos_ += sizeof(T);
  return v;
}

Result<uint8_t> ByteReader::ReadU8() { return ReadFixed<uint8_t>("u8"); }

Result<bool> ByteReader::ReadBool() {
  MOSAIC_ASSIGN_OR_RETURN(uint8_t v, ReadU8());
  return v != 0;
}

Result<uint32_t> ByteReader::ReadU32() { return ReadFixed<uint32_t>("u32"); }
Result<uint64_t> ByteReader::ReadU64() { return ReadFixed<uint64_t>("u64"); }
Result<int64_t> ByteReader::ReadI64() { return ReadFixed<int64_t>("i64"); }
Result<double> ByteReader::ReadDouble() { return ReadFixed<double>("f64"); }

Result<std::string> ByteReader::ReadString() {
  MOSAIC_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  // The declared length must be covered by bytes already present —
  // never allocate on the strength of an unverified prefix.
  if (remaining() < len) return Truncated("string body");
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

Status ByteReader::ReadBytes(void* dst, size_t n) {
  if (remaining() < n) return Truncated("bytes");
  if (n != 0) std::memcpy(dst, &data_[pos_], n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::CheckCount(uint64_t count, size_t min_bytes,
                              const char* what) const {
  if (count > remaining() / min_bytes) {
    return Status::InvalidArgument(std::string(what) +
                                   " count exceeds payload");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

void EncodeValue(const Value& v, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kInt64:
      w->PutI64(v.AsInt64());
      break;
    case DataType::kDouble:
      w->PutDouble(v.AsDouble());
      break;
    case DataType::kString:
      w->PutString(v.AsString());
      break;
    case DataType::kBool:
      w->PutBool(v.AsBool());
      break;
  }
}

[[nodiscard]] Result<Value> DecodeValue(ByteReader* r) {
  MOSAIC_ASSIGN_OR_RETURN(uint8_t tag, r->ReadU8());
  if (tag > kMaxDataTypeTag) {
    return Status::InvalidArgument("unknown value type tag " +
                                   std::to_string(tag));
  }
  switch (static_cast<DataType>(tag)) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kInt64: {
      MOSAIC_ASSIGN_OR_RETURN(int64_t v, r->ReadI64());
      return Value(v);
    }
    case DataType::kDouble: {
      MOSAIC_ASSIGN_OR_RETURN(double v, r->ReadDouble());
      return Value(v);
    }
    case DataType::kString: {
      MOSAIC_ASSIGN_OR_RETURN(std::string v, r->ReadString());
      return Value(std::move(v));
    }
    case DataType::kBool: {
      MOSAIC_ASSIGN_OR_RETURN(bool v, r->ReadBool());
      return Value(v);
    }
  }
  return Status::Internal("unreachable value tag");
}

// ---------------------------------------------------------------------------
// Schema / Dictionary
// ---------------------------------------------------------------------------

void EncodeSchema(const Schema& s, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(s.num_columns()));
  for (const ColumnDef& col : s.columns()) {
    w->PutString(col.name);
    w->PutU8(static_cast<uint8_t>(col.type));
  }
}

[[nodiscard]] Result<Schema> DecodeSchema(ByteReader* r) {
  MOSAIC_ASSIGN_OR_RETURN(uint32_t num_columns, r->ReadU32());
  // Each column costs at least 5 bytes (empty name + type).
  MOSAIC_RETURN_IF_ERROR(r->CheckCount(num_columns, 5, "column"));
  Schema schema;
  for (uint32_t c = 0; c < num_columns; ++c) {
    MOSAIC_ASSIGN_OR_RETURN(std::string name, r->ReadString());
    MOSAIC_ASSIGN_OR_RETURN(uint8_t tag, r->ReadU8());
    if (tag == static_cast<uint8_t>(DataType::kNull) ||
        tag > kMaxDataTypeTag) {
      return Status::InvalidArgument("invalid column type tag " +
                                     std::to_string(tag));
    }
    MOSAIC_RETURN_IF_ERROR(
        schema.AddColumn({std::move(name), static_cast<DataType>(tag)}));
  }
  return schema;
}

void EncodeDictionary(const Dictionary& d, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(d.size()));
  for (const std::string& s : d.values()) w->PutString(s);
}

[[nodiscard]] Result<std::shared_ptr<Dictionary>> DecodeDictionary(
    ByteReader* r) {
  MOSAIC_ASSIGN_OR_RETURN(uint32_t size, r->ReadU32());
  MOSAIC_RETURN_IF_ERROR(r->CheckCount(size, 4, "dictionary entry"));
  auto dict = std::make_shared<Dictionary>();
  for (uint32_t d = 0; d < size; ++d) {
    MOSAIC_ASSIGN_OR_RETURN(std::string s, r->ReadString());
    if (dict->GetOrInsert(s) != static_cast<int32_t>(d)) {
      return Status::InvalidArgument("duplicate dictionary entry '" + s +
                                     "'");
    }
  }
  return dict;
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

void EncodeTable(const Table& t, ByteWriter* w) {
  EncodeSchema(t.schema(), w);
  const size_t rows = t.num_rows();
  w->PutU64(rows);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    switch (col.type()) {
      case DataType::kInt64:
        w->PutBytes(col.raw_int64(), rows * sizeof(int64_t));
        break;
      case DataType::kDouble:
        w->PutBytes(col.raw_double(), rows * sizeof(double));
        break;
      case DataType::kBool:
        w->PutBytes(col.raw_bool(), rows * sizeof(uint8_t));
        break;
      case DataType::kString:
        EncodeDictionary(col.dictionary(), w);
        w->PutBytes(col.raw_codes(), rows * sizeof(int32_t));
        break;
      case DataType::kNull:
        break;  // unreachable: columns are always concretely typed
    }
  }
}

[[nodiscard]] Result<Table> DecodeTable(ByteReader* r) {
  MOSAIC_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(r));
  MOSAIC_ASSIGN_OR_RETURN(uint64_t num_rows, r->ReadU64());
  if (schema.num_columns() == 0) {
    if (num_rows > 0) {
      return Status::InvalidArgument("rows declared for zero columns");
    }
  } else {
    // Every row costs at least one byte per column.
    MOSAIC_RETURN_IF_ERROR(r->CheckCount(num_rows, 1, "row"));
  }
  const size_t rows = static_cast<size_t>(num_rows);
  std::vector<Column> columns;
  columns.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    switch (schema.column(c).type) {
      case DataType::kInt64: {
        AlignedVector<int64_t> values;
        MOSAIC_RETURN_IF_ERROR(ReadColumnArray(r, rows, &values));
        columns.push_back(Column::FromInt64(std::move(values)));
        break;
      }
      case DataType::kDouble: {
        AlignedVector<double> values;
        MOSAIC_RETURN_IF_ERROR(ReadColumnArray(r, rows, &values));
        columns.push_back(Column::FromDouble(std::move(values)));
        break;
      }
      case DataType::kBool: {
        AlignedVector<uint8_t> values;
        MOSAIC_RETURN_IF_ERROR(ReadColumnArray(r, rows, &values));
        columns.push_back(Column::FromBool(std::move(values)));
        break;
      }
      case DataType::kString: {
        MOSAIC_ASSIGN_OR_RETURN(std::shared_ptr<Dictionary> dict,
                                DecodeDictionary(r));
        AlignedVector<int32_t> codes;
        MOSAIC_RETURN_IF_ERROR(ReadColumnArray(r, rows, &codes));
        const auto dict_size = static_cast<int32_t>(dict->size());
        for (const int32_t code : codes) {
          if (code < 0 || code >= dict_size) {
            return Status::InvalidArgument(
                "dictionary code " + std::to_string(code) +
                " out of range (dictionary has " +
                std::to_string(dict_size) + " entries)");
          }
        }
        columns.push_back(Column::FromCodes(std::move(dict),
                                            std::move(codes)));
        break;
      }
      case DataType::kNull:
        return Status::Internal("unreachable column type");
    }
  }
  return Table(std::move(schema), std::move(columns), rows);
}

}  // namespace mosaic
