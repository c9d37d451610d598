// Golden bytes for the binary Value/Table codec. Result tables reach
// clients inside RESULT frames and reach disk inside WAL records; both
// carry the same encoding, and these literals pin it byte for byte so
// neither format can move without this test changing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"
#include "durable_test_util.h"
#include "net/protocol.h"
#include "storage/durable/engine.h"
#include "storage/durable/wal.h"
#include "storage/table.h"

namespace mosaic {
namespace {

/// Little-endian fixed-width append, the layout every integer uses.
void PutLe(std::string* out, uint64_t v, int bytes) {
  for (int b = 0; b < bytes; ++b) {
    out->push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  }
}

void PutLeString(std::string* out, const std::string& s) {
  PutLe(out, s.size(), 4);
  out->append(s);
}

struct GoldenTable {
  const char* label;
  Table table;
  std::string bytes;
};

/// int64, double, bool and string columns over three rows; the string
/// column repeats a value so the codes reuse a dictionary entry.
GoldenTable MixedGolden() {
  Table t(Schema({{"i", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"b", DataType::kBool},
                  {"s", DataType::kString}}));
  EXPECT_TRUE(t.AppendRow({Value(int64_t{7}), Value(0.5), Value(true),
                           Value(std::string("x"))})
                  .ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{-1}), Value(-2.0), Value(false),
                           Value(std::string("yz"))})
                  .ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{256}), Value(1.5), Value(true),
                           Value(std::string("x"))})
                  .ok());
  std::string g;
  PutLe(&g, 4, 4);  // column count
  PutLeString(&g, "i");
  PutLe(&g, 1, 1);  // DataType::kInt64
  PutLeString(&g, "d");
  PutLe(&g, 2, 1);  // DataType::kDouble
  PutLeString(&g, "b");
  PutLe(&g, 4, 1);  // DataType::kBool
  PutLeString(&g, "s");
  PutLe(&g, 3, 1);  // DataType::kString
  PutLe(&g, 3, 8);  // row count
  PutLe(&g, 7, 8);
  PutLe(&g, 0xFFFFFFFFFFFFFFFFull, 8);
  PutLe(&g, 256, 8);
  PutLe(&g, 0x3FE0000000000000ull, 8);  // 0.5
  PutLe(&g, 0xC000000000000000ull, 8);  // -2.0
  PutLe(&g, 0x3FF8000000000000ull, 8);  // 1.5
  PutLe(&g, 1, 1);
  PutLe(&g, 0, 1);
  PutLe(&g, 1, 1);
  PutLe(&g, 2, 4);  // dictionary size
  PutLeString(&g, "x");
  PutLeString(&g, "yz");
  PutLe(&g, 0, 4);  // codes
  PutLe(&g, 1, 4);
  PutLe(&g, 0, 4);
  return {"mixed", std::move(t), std::move(g)};
}

GoldenTable ZeroRowGolden() {
  Table t(Schema({{"v", DataType::kDouble}, {"s", DataType::kString}}));
  std::string g;
  PutLe(&g, 2, 4);
  PutLeString(&g, "v");
  PutLe(&g, 2, 1);
  PutLeString(&g, "s");
  PutLe(&g, 3, 1);
  PutLe(&g, 0, 8);  // row count
  PutLe(&g, 0, 4);  // empty dictionary, no codes
  return {"zero-row", std::move(t), std::move(g)};
}

GoldenTable ZeroColumnGolden() {
  std::string g;
  PutLe(&g, 0, 4);
  PutLe(&g, 0, 8);
  return {"zero-column", Table(), std::move(g)};
}

std::vector<GoldenTable> GoldenTables() {
  std::vector<GoldenTable> out;
  out.push_back(MixedGolden());
  out.push_back(ZeroRowGolden());
  out.push_back(ZeroColumnGolden());
  return out;
}

TEST(CodecGolden, ValueOfEveryTag) {
  auto expect_bytes = [](const Value& value, const std::string& golden) {
    net::WireWriter w;
    // Unqualified: the Value codec is found through the writer's type.
    EncodeValue(value, &w);
    EXPECT_EQ(w.Take(), golden) << value.ToString();
  };
  std::string null_bytes, int_bytes, double_bytes, string_bytes, bool_bytes;
  PutLe(&null_bytes, 0, 1);
  expect_bytes(Value::Null(), null_bytes);
  PutLe(&int_bytes, 1, 1);
  PutLe(&int_bytes, 0xFFFFFFFFFFFFFFFEull, 8);  // -2
  expect_bytes(Value(int64_t{-2}), int_bytes);
  PutLe(&double_bytes, 2, 1);
  PutLe(&double_bytes, 0x400C000000000000ull, 8);  // 3.5
  expect_bytes(Value(3.5), double_bytes);
  PutLe(&string_bytes, 3, 1);
  PutLeString(&string_bytes, "ab");
  expect_bytes(Value(std::string("ab")), string_bytes);
  PutLe(&bool_bytes, 4, 1);
  PutLe(&bool_bytes, 1, 1);
  expect_bytes(Value(true), bool_bytes);
}

TEST(CodecGolden, TableBytes) {
  for (const GoldenTable& g : GoldenTables()) {
    net::WireWriter w;
    net::EncodeTable(g.table, &w);
    EXPECT_EQ(w.Take(), g.bytes) << g.label;
  }
}

TEST(CodecGolden, ResultPayloadCarriesTableBytes) {
  for (const GoldenTable& g : GoldenTables()) {
    // RESULT payload: u8 ok flag, then the table.
    const std::string payload =
        net::EncodeResultReply(net::QueryOutcome{Status::OK(), g.table});
    EXPECT_EQ(payload, std::string(1, '\x01') + g.bytes) << g.label;
    auto decoded = net::DecodeResultReply(payload);
    ASSERT_TRUE(decoded.ok()) << g.label << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(net::EncodeResultReply(*decoded), payload) << g.label;
  }
}

TEST(CodecGolden, WalTableAppendBodyCarriesTableBytes) {
  const std::string dir = durable::testutil::MakeTempDir();
  ASSERT_FALSE(dir.empty());
  core::Database db;
  auto engine = durable::StorageEngine::Open(dir);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->Recover(&db).ok());
  const std::vector<GoldenTable> tables = GoldenTables();
  for (const GoldenTable& g : tables) {
    ASSERT_TRUE((*engine)->LogTableAppend("t", g.table).ok()) << g.label;
  }
  auto wal = durable::ReadWal(dir + "/" + durable::WalFileName(1));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_EQ(wal->records.size(), tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    // kTableAppend body: the table name, then the table.
    std::string body;
    PutLeString(&body, "t");
    body += tables[i].bytes;
    EXPECT_EQ(wal->records[i].type, durable::WalRecordType::kTableAppend);
    EXPECT_EQ(wal->records[i].body, body) << tables[i].label;
  }
}

}  // namespace
}  // namespace mosaic
