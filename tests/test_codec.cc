// Shared binary codec (storage/codec.h): Value, Schema and Table
// round-trips, and hostile input — truncated, oversized, mutated and
// random bytes must come back as Status errors, never crash, over-read
// or allocate on a count the input cannot hold. The byte layout itself
// is pinned by tests/test_codec_golden.cc.
#include "storage/codec.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "storage/table.h"

namespace mosaic {
namespace {

Table MakeSampleTable() {
  Schema schema({{"name", DataType::kString},
                 {"count", DataType::kInt64},
                 {"score", DataType::kDouble},
                 {"flag", DataType::kBool}});
  Table t(schema);
  const char* names[] = {"red", "blue", "red", "green", "blue", "red"};
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(names[i]), Value(int64_t(i * 7 - 3)),
                             Value(i * 0.25 - 1.0), Value(i % 2 == 0)})
                    .ok());
  }
  return t;
}

Table MixedTable() {
  Schema schema;
  EXPECT_TRUE(schema.AddColumn(ColumnDef{"i", DataType::kInt64}).ok());
  EXPECT_TRUE(schema.AddColumn(ColumnDef{"d", DataType::kDouble}).ok());
  EXPECT_TRUE(schema.AddColumn(ColumnDef{"s", DataType::kString}).ok());
  EXPECT_TRUE(schema.AddColumn(ColumnDef{"b", DataType::kBool}).ok());
  Table t(schema);
  EXPECT_TRUE(
      t.AppendRow({Value(int64_t{42}), Value(3.25), Value(std::string("x")),
                   Value(true)})
          .ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{-7}), Value(-0.5),
                           Value(std::string("hello, world")), Value(false)})
                  .ok());
  EXPECT_TRUE(
      t.AppendRow({Value(int64_t{0}), Value(1e300), Value(std::string("x")),
                   Value(true)})
          .ok());
  return t;
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_TRUE(a.schema() == b.schema()) << "schemas differ";
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      EXPECT_TRUE(a.GetValue(r, c) == b.GetValue(r, c))
          << "cell (" << r << "," << c << "): "
          << a.GetValue(r, c).ToString() << " vs "
          << b.GetValue(r, c).ToString();
    }
  }
}

/// Decode `bytes` as a table and require an InvalidArgument.
void ExpectTableRejected(const std::string& bytes, const char* why) {
  ByteReader r(bytes);
  auto decoded = DecodeTable(&r);
  ASSERT_FALSE(decoded.ok()) << why;
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
      << why << ": " << decoded.status().ToString();
}

/// Schema prefix of a one-column table of `type`.
ByteWriter OneColumnPrefix(DataType type) {
  ByteWriter w;
  w.PutU32(1);
  w.PutString("c");
  w.PutU8(static_cast<uint8_t>(type));
  return w;
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(Codec, ValueRoundTripsEveryTypeIncludingNull) {
  const std::vector<Value> values = {
      Value::Null(),        Value(int64_t(-42)), Value(int64_t(0)),
      Value(3.14159),       Value(-0.0),         Value(std::string("hello")),
      Value(std::string("")), Value(true),       Value(false),
  };
  for (const Value& v : values) {
    ByteWriter w;
    EncodeValue(v, &w);
    ByteReader r(w.buffer());
    auto decoded = DecodeValue(&r);
    ASSERT_TRUE(decoded.ok()) << v.ToString();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(v.type(), decoded->type());
    if (!v.is_null()) {
      EXPECT_TRUE(v == *decoded) << v.ToString();
    }
  }
}

TEST(Codec, ValueRejectsUnknownTagAndTruncation) {
  ByteReader bad_tag(std::string_view("\x09", 1));
  EXPECT_FALSE(DecodeValue(&bad_tag).ok());

  ByteWriter w;
  EncodeValue(Value(std::string("abcdef")), &w);
  // Truncate at every prefix length: must error, never crash.
  for (size_t cut = 0; cut < w.buffer().size(); ++cut) {
    ByteReader r(std::string_view(w.buffer().data(), cut));
    EXPECT_FALSE(DecodeValue(&r).ok()) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Codec, TableRoundTripsAllColumnTypesBitExactly) {
  for (const Table& t : {MakeSampleTable(), MixedTable()}) {
    ByteWriter w;
    EncodeTable(t, &w);
    ByteReader r(w.buffer());
    auto decoded = DecodeTable(&r);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(r.AtEnd());
    ExpectTablesIdentical(t, *decoded);
    ByteWriter again;
    EncodeTable(*decoded, &again);
    EXPECT_EQ(again.buffer(), w.buffer());
  }
}

TEST(Codec, TableRoundTripsEmptyAndZeroRowTables) {
  {
    ByteWriter w;
    EncodeTable(Table(), &w);
    ByteReader r(w.buffer());
    auto decoded = DecodeTable(&r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->num_rows(), 0u);
    EXPECT_EQ(decoded->num_columns(), 0u);
  }
  {
    Table t(Schema({{"s", DataType::kString}, {"x", DataType::kInt64}}));
    ByteWriter w;
    EncodeTable(t, &w);
    ByteReader r(w.buffer());
    auto decoded = DecodeTable(&r);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectTablesIdentical(t, *decoded);
  }
  {
    Schema schema;
    ASSERT_TRUE(schema.AddColumn(ColumnDef{"v", DataType::kDouble}).ok());
    Table original(schema);
    ByteWriter buf;
    EncodeTable(original, &buf);
    ByteReader in(buf.buffer());
    auto decoded = DecodeTable(&in);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->num_rows(), 0u);
    EXPECT_EQ(decoded->num_columns(), 1u);
  }
}

TEST(Codec, TableRejectsHostileDeclaredSizes) {
  // Row count far beyond the payload must fail before allocating.
  ByteWriter w;
  w.PutU32(1);
  w.PutString("c");
  w.PutU8(static_cast<uint8_t>(DataType::kInt64));
  w.PutU64(uint64_t(1) << 40);  // a terabyte of rows, no bytes behind it
  ByteReader r(w.buffer());
  EXPECT_FALSE(DecodeTable(&r).ok());

  // Column count beyond the payload too.
  ByteWriter w2;
  w2.PutU32(0xffffffffu);
  ByteReader r2(w2.buffer());
  EXPECT_FALSE(DecodeTable(&r2).ok());

  // Dictionary code out of range.
  ByteWriter w3;
  w3.PutU32(1);
  w3.PutString("s");
  w3.PutU8(static_cast<uint8_t>(DataType::kString));
  w3.PutU64(1);
  w3.PutU32(1);      // dict size 1
  w3.PutString("a");
  w3.PutU32(7);      // code 7 out of range
  ByteReader r3(w3.buffer());
  EXPECT_FALSE(DecodeTable(&r3).ok());

  // Row counts for which rows * sizeof(element) wraps to 0 or a small
  // number: the count itself is what must be held against the payload.
  for (const DataType type : {DataType::kInt64, DataType::kDouble,
                              DataType::kBool, DataType::kString}) {
    for (const uint64_t rows : {uint64_t{1} << 61, uint64_t{1} << 62,
                                ~uint64_t{0}}) {
      ByteWriter w4 = OneColumnPrefix(type);
      w4.PutU64(rows);
      if (type == DataType::kString) w4.PutU32(0);  // empty dictionary
      for (int i = 0; i < 16; ++i) w4.PutU8(0);
      ExpectTableRejected(w4.buffer(), DataTypeName(type));
    }
  }
}

TEST(Codec, TableRejectsMalformedColumnsAndDictionaries) {
  {
    // kNull is not a column type.
    ByteWriter w = OneColumnPrefix(DataType::kNull);
    w.PutU64(0);
    ExpectTableRejected(w.buffer(), "NULL column tag");
  }
  {
    // Tags past kBool are unknown.
    ByteWriter w;
    w.PutU32(1);
    w.PutString("c");
    w.PutU8(9);
    w.PutU64(0);
    ExpectTableRejected(w.buffer(), "unknown column tag");
  }
  {
    // Duplicate dictionary entries would make codes ambiguous.
    ByteWriter w = OneColumnPrefix(DataType::kString);
    w.PutU64(1);
    w.PutU32(2);
    w.PutString("a");
    w.PutString("a");
    w.PutU32(0);
    ExpectTableRejected(w.buffer(), "duplicate dictionary entry");
  }
  {
    // Negative codes are out of range too.
    ByteWriter w = OneColumnPrefix(DataType::kString);
    w.PutU64(1);
    w.PutU32(1);
    w.PutString("a");
    w.PutU32(0xffffffffu);
    ExpectTableRejected(w.buffer(), "negative code");
  }
  {
    // Dictionary size beyond the payload.
    ByteWriter w = OneColumnPrefix(DataType::kString);
    w.PutU64(0);
    w.PutU32(0x40000000u);
    ExpectTableRejected(w.buffer(), "dictionary size");
  }
  {
    // Rows without any column to carry them.
    ByteWriter w;
    w.PutU32(0);
    w.PutU64(3);
    ExpectTableRejected(w.buffer(), "rows for zero columns");
  }
}

TEST(Codec, TableTruncationsAlwaysError) {
  for (const Table& t : {MakeSampleTable(), MixedTable()}) {
    ByteWriter w;
    EncodeTable(t, &w);
    const std::string& full = w.buffer();
    for (size_t cut = 0; cut < full.size(); ++cut) {
      ByteReader r(std::string_view(full.data(), cut));
      EXPECT_FALSE(DecodeTable(&r).ok()) << "cut=" << cut;
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized fuzz
// ---------------------------------------------------------------------------

TEST(CodecFuzz, MutatedTablesAndValuesNeverCrash) {
  std::mt19937 rng(20261018);
  ByteWriter table_bytes;
  EncodeTable(MixedTable(), &table_bytes);
  ByteWriter value_bytes;
  EncodeValue(Value(std::string("payload")), &value_bytes);
  EncodeValue(Value(2.5), &value_bytes);

  auto mutate = [&rng](std::string s) {
    if (s.empty()) return s;
    const int op = static_cast<int>(rng() % 3);
    if (op == 0) {
      s.resize(rng() % s.size());  // truncate
    } else if (op == 1) {
      s[rng() % s.size()] = static_cast<char>(rng());  // flip a byte
    } else {
      for (int i = 0; i < 8 && !s.empty(); ++i) {
        s[rng() % s.size()] = static_cast<char>(rng());
      }
    }
    return s;
  };
  for (int trial = 0; trial < 1000; ++trial) {
    // A mutation can stay valid; the decoders must terminate with
    // either a value or a Status.
    const std::string t = mutate(table_bytes.buffer());
    ByteReader tr(t);
    (void)DecodeTable(&tr);
    const std::string v = mutate(value_bytes.buffer());
    ByteReader vr(v);
    while (DecodeValue(&vr).ok() && !vr.AtEnd()) {
    }
  }
  for (int trial = 0; trial < 500; ++trial) {
    std::string junk(rng() % 200, '\0');
    for (char& c : junk) c = static_cast<char>(rng());
    ByteReader tr(junk);
    (void)DecodeTable(&tr);
    ByteReader sr(junk);
    (void)DecodeSchema(&sr);
  }
}

}  // namespace
}  // namespace mosaic
