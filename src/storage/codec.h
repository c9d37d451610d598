// Binary codec shared by the wire protocol (net/protocol.h) and the
// durable formats (storage/durable): one byte writer, one bounds-
// checked byte reader, and the Value / Schema / Table encodings that
// RESULT frames, WAL records and snapshot segments all carry.
//
// Encoding
//   Integers are little-endian fixed width; doubles are IEEE-754 bit
//   patterns in a uint64; strings are a uint32 length plus raw bytes;
//   bools are one byte.
//   Value:  DataType tag byte, then the payload (NULL is the tag alone).
//   Schema: uint32 column count, then (name string, DataType byte) per
//           column.
//   Table:  Schema, uint64 row count, then each column in order:
//           int64/double/bool as raw row arrays; strings as a
//           Dictionary (uint32 entry count + strings) and one int32
//           code per row, so a categorical column costs 4 bytes/row.
//
// Decoding never reads past its input and never allocates on a count
// the remaining bytes cannot hold (ByteReader::CheckCount). Truncated,
// oversized or malformed input fails with an InvalidArgument Status.
#ifndef MOSAIC_STORAGE_CODEC_H_
#define MOSAIC_STORAGE_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "storage/dictionary.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace mosaic {

// Multi-byte fields are written and read with memcpy: whole column
// arrays as one copy, the snapshot's column sections copied straight
// out of the file bytes, and the WAL and snapshot frame length/CRC
// fields. All of that is the little-endian layout only on a
// little-endian host.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the binary codec assumes a little-endian host");

/// Append-only byte buffer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v) { PutBytes(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutBytes(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutBytes(&v, sizeof(v)); }
  void PutDouble(double v) { PutBytes(&v, sizeof(v)); }
  /// uint32 length + raw bytes.
  void PutString(std::string_view s);
  /// Raw bytes, no length prefix. `data` may be null when `n` is 0.
  void PutBytes(const void* data, size_t n);
  /// Overwrite four already-written bytes at `offset`: a frame header
  /// reserves its length/CRC slots and fills them in once the body is
  /// encoded.
  void PatchU32(size_t offset, uint32_t v);

  void Reserve(size_t n) { out_.reserve(n); }
  size_t size() const { return out_.size(); }
  const std::string& buffer() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked sequential reader over a non-owning byte view.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data), size) {}

  [[nodiscard]] Result<uint8_t> ReadU8();
  [[nodiscard]] Result<bool> ReadBool();
  [[nodiscard]] Result<uint32_t> ReadU32();
  [[nodiscard]] Result<uint64_t> ReadU64();
  [[nodiscard]] Result<int64_t> ReadI64();
  [[nodiscard]] Result<double> ReadDouble();
  /// Rejects declared lengths exceeding the bytes actually present.
  [[nodiscard]] Result<std::string> ReadString();
  /// Copy the next `n` bytes into `dst` (may be null when `n` is 0).
  [[nodiscard]] Status ReadBytes(void* dst, size_t n);

  /// The one guard for count-driven allocation: `count` elements of at
  /// least `min_bytes` encoded bytes each must fit in what remains.
  /// Call it before sizing anything from a decoded count.
  [[nodiscard]] Status CheckCount(uint64_t count, size_t min_bytes,
                                  const char* what) const;

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return remaining() == 0; }
  /// The unread bytes (does not advance).
  std::string_view rest() const { return data_.substr(pos_); }

 private:
  /// One little-endian fixed-width field.
  template <typename T>
  [[nodiscard]] Result<T> ReadFixed(const char* what);

  std::string_view data_;
  size_t pos_ = 0;
};

void EncodeValue(const Value& v, ByteWriter* w);
[[nodiscard]] Result<Value> DecodeValue(ByteReader* r);

/// Column names are unique and no column is NULL-typed.
void EncodeSchema(const Schema& s, ByteWriter* w);
[[nodiscard]] Result<Schema> DecodeSchema(ByteReader* r);

/// A string column's dictionary: entry count + strings, in code order.
/// Decoding rejects duplicate entries (codes would be ambiguous).
void EncodeDictionary(const Dictionary& d, ByteWriter* w);
[[nodiscard]] Result<std::shared_ptr<Dictionary>> DecodeDictionary(
    ByteReader* r);

/// Columnar table (schema, row count, column payloads). Decoding
/// rejects row counts the payload cannot hold, rows without columns
/// and dictionary codes outside their dictionary.
void EncodeTable(const Table& t, ByteWriter* w);
[[nodiscard]] Result<Table> DecodeTable(ByteReader* r);

}  // namespace mosaic

#endif  // MOSAIC_STORAGE_CODEC_H_
