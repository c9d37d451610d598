// Durable storage formats (storage/durable): CRC, serde round-trips,
// WAL framing + torn-tail policy, and snapshot build/load.
// Crash-recovery end-to-end scenarios live in
// tests/test_durable_recovery.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/database.h"
#include "durable_test_util.h"
#include "sql/parser.h"
#include "stats/marginal.h"
#include "storage/durable/crc32.h"
#include "storage/durable/engine.h"
#include "storage/durable/io.h"
#include "storage/durable/serde.h"
#include "storage/durable/snapshot.h"
#include "storage/durable/wal.h"

namespace mosaic {
namespace durable {
namespace {

using testutil::MakeTempDir;

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

// The byte-at-a-time table CRC: the oracle the slicing-by-16 kernel
// must match bit for bit.
uint32_t ReferenceCrc32(const void* data, size_t n, uint32_t seed = 0) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// Deterministic pseudo-random bytes (xorshift64).
std::vector<uint8_t> SeededBytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  uint64_t x = seed;
  for (uint8_t& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x >> 24);
  }
  return out;
}

TEST(Crc32, MatchesReferenceCheckValue) {
  // The CRC-32/ISO-HDLC check value ("123456789" -> 0xCBF43926) pins
  // the exact polynomial + reflection + init/final-xor combination;
  // any change would silently invalidate every file on disk.
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32, SeedChainsAcrossSplits) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t first = Crc32(data.data(), split);
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split, first), whole);
  }
}

TEST(Crc32, MatchesByteLoopAtEveryLengthAndOffset) {
  // Every tail length around the 16-byte step, from every alignment.
  const std::vector<uint8_t> buf = SeededBytes(300 + 16, 1);
  for (const uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t len = 0; len <= 300; ++len) {
        ASSERT_EQ(Crc32(buf.data() + offset, len, seed),
                  ReferenceCrc32(buf.data() + offset, len, seed))
            << "offset " << offset << " len " << len << " seed " << seed;
      }
    }
  }
}

TEST(Crc32, MatchesByteLoopOverOneMiB) {
  const std::vector<uint8_t> buf = SeededBytes(1 << 20, 7);
  EXPECT_EQ(Crc32(buf.data(), buf.size()),
            ReferenceCrc32(buf.data(), buf.size()));
  EXPECT_EQ(Crc32(buf.data(), buf.size(), 0xDEADBEEFu),
            ReferenceCrc32(buf.data(), buf.size(), 0xDEADBEEFu));
  // Chained over uneven splits, as a WAL reader verifying in pieces
  // would.
  const uint32_t whole = ReferenceCrc32(buf.data(), buf.size());
  for (const size_t split : {size_t{1}, size_t{15}, size_t{17},
                             size_t{4093}, size_t{1 << 19}}) {
    const uint32_t first = Crc32(buf.data(), split);
    EXPECT_EQ(Crc32(buf.data() + split, buf.size() - split, first), whole)
        << "split " << split;
  }
}

// ---------------------------------------------------------------------------
// Serde round-trips
// ---------------------------------------------------------------------------

TEST(Serde, ExprRoundTrips) {
  auto parsed = sql::ParseStatement(
      "SELECT * FROM t WHERE (a > 3 AND b = 'x') OR c BETWEEN 1 AND 5 OR "
      "d IN ('p', 'q') OR NOT e");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sql::Expr* where = parsed->As<sql::SelectStmt>().where.get();
  ASSERT_NE(where, nullptr);
  ByteWriter buf;
  EncodeExpr(where, &buf);
  ByteReader in(buf.buffer());
  auto decoded = DecodeExpr(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_NE(decoded->get(), nullptr);
  ByteWriter again;
  EncodeExpr(decoded->get(), &again);
  EXPECT_EQ(buf.buffer(), again.buffer());

  // Null expressions (absent predicates) survive too.
  ByteWriter null_buf;
  EncodeExpr(nullptr, &null_buf);
  ByteReader null_in(null_buf.buffer());
  auto null_decoded = DecodeExpr(&null_in);
  ASSERT_TRUE(null_decoded.ok());
  EXPECT_EQ(null_decoded->get(), nullptr);
}

TEST(Serde, MarginalRoundTrips) {
  std::vector<Value> categories;
  categories.emplace_back(std::string("gmail"));
  categories.emplace_back(std::string("yahoo"));
  categories.emplace_back(std::string("aol"));
  std::vector<stats::AttributeBinning> attrs = {
      stats::AttributeBinning::Categorical("email", std::move(categories)),
      stats::AttributeBinning::Continuous("age", 0.0, 100.0, 4)};
  auto marginal = stats::Marginal::FromCounts(
      std::move(attrs),
      std::vector<double>{10, 20, 30, 40, 1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_TRUE(marginal.ok()) << marginal.status().ToString();
  ByteWriter buf;
  EncodeMarginal(*marginal, &buf);
  ByteReader in(buf.buffer());
  auto decoded = DecodeMarginal(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ByteWriter again;
  EncodeMarginal(*decoded, &again);
  EXPECT_EQ(buf.buffer(), again.buffer());
  EXPECT_EQ(decoded->arity(), 2u);
  EXPECT_EQ(decoded->counts(), marginal->counts());
}

TEST(Serde, WeightEpochKeepsFitProvenance) {
  core::WeightEpoch epoch;
  epoch.id = 17;
  epoch.weights = {1.5, 0.0, 2.25};
  epoch.fit_signature = "ipf-gp|n=3|mv=4|it=100|tol=x|scale=1";
  epoch.fit_error = 1e-7;
  epoch.fit_uncovered = 0.25;
  epoch.fit_converged = true;
  ByteWriter buf;
  EncodeWeightEpoch(epoch, &buf);
  ByteReader in(buf.buffer());
  auto decoded = DecodeWeightEpoch(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, epoch.id);
  EXPECT_EQ(decoded->weights, epoch.weights);
  EXPECT_EQ(decoded->fit_signature, epoch.fit_signature);
  EXPECT_EQ(decoded->fit_error, epoch.fit_error);
  EXPECT_EQ(decoded->fit_uncovered, epoch.fit_uncovered);
  EXPECT_EQ(decoded->fit_converged, epoch.fit_converged);
}

// Counts the bytes behind them cannot hold: each decoder must answer
// InvalidArgument before sizing anything from them (2^61 doubles is
// what wraps `n * sizeof(double)` to 0).
TEST(Serde, HostileCountsReturnInvalidArgument) {
  constexpr uint64_t kHuge = uint64_t{1} << 61;
  auto expect_invalid = [](const Status& status, const char* what) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << what << ": " << status.ToString();
  };
  {
    ByteWriter w;
    w.PutU64(1);      // epoch id
    w.PutU64(kHuge);  // weight count
    w.PutDouble(1.0);
    ByteReader r(w.buffer());
    expect_invalid(DecodeWeightEpoch(&r).status(), "weight count");
  }
  {
    ByteWriter w;
    w.PutU32(0xffffffffu);  // marginal attributes
    w.PutString("a");
    ByteReader r(w.buffer());
    expect_invalid(DecodeMarginal(&r).status(), "marginal attributes");
  }
  {
    ByteWriter w;
    w.PutU32(1);
    w.PutString("a");
    w.PutU8(1);             // categorical
    w.PutU32(0xffffffffu);  // categories
    EncodeValue(Value(int64_t{1}), &w);
    ByteReader r(w.buffer());
    expect_invalid(DecodeMarginal(&r).status(), "categories");
  }
  {
    ByteWriter w;
    w.PutU32(1);
    w.PutString("a");
    w.PutU8(1);
    w.PutU32(1);
    EncodeValue(Value(int64_t{1}), &w);
    w.PutU64(kHuge);  // counts
    w.PutDouble(1.0);
    ByteReader r(w.buffer());
    expect_invalid(DecodeMarginal(&r).status(), "marginal counts");
  }
  {
    ByteWriter w;
    w.PutU8(1);  // present
    w.PutU8(0);  // kind
    EncodeValue(Value::Null(), &w);
    w.PutString("");
    w.PutU8(0);  // unary op
    w.PutU8(0);  // binary op
    for (int child = 0; child < 5; ++child) w.PutU8(0);  // absent
    w.PutU32(0xffffffffu);  // IN-list length
    w.PutU8(0);
    w.PutU8(0);
    ByteReader r(w.buffer());
    expect_invalid(DecodeExpr(&r).status(), "IN list");
  }
}

TEST(Serde, ContinuousBinningMustBeNonEmpty) {
  // lo >= hi or zero bins cannot form a binning; decoding must say so
  // rather than build one.
  for (const auto& [lo, hi, bins] :
       {std::tuple<double, double, uint64_t>{1.0, 1.0, 4},
        std::tuple<double, double, uint64_t>{2.0, 1.0, 4},
        std::tuple<double, double, uint64_t>{0.0, 1.0, 0}}) {
    ByteWriter w;
    w.PutU32(1);
    w.PutString("age");
    w.PutU8(0);  // continuous
    w.PutDouble(lo);
    w.PutDouble(hi);
    w.PutU64(bins);
    w.PutU64(bins);
    for (uint64_t i = 0; i < bins; ++i) w.PutDouble(1.0);
    ByteReader r(w.buffer());
    EXPECT_FALSE(DecodeMarginal(&r).ok()) << lo << " " << hi << " " << bins;
  }
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

WalRecord MakeRecord(uint8_t tag, const std::string& body) {
  WalRecord r;
  r.type = static_cast<WalRecordType>(tag);
  r.catalog_version = 100 + tag;
  r.metadata_version = 200 + tag;
  r.body = body;
  return r;
}

TEST(Wal, FileNamesRoundTrip) {
  EXPECT_EQ(WalFileName(42), "wal-000042.log");
  auto seq = ParseWalFileName("wal-000042.log");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 42u);
  EXPECT_FALSE(ParseWalFileName("snapshot-000042.snap").ok());
  EXPECT_FALSE(ParseWalFileName("wal-000042.log.tmp").ok());
}

TEST(Wal, AppendReadRoundTrip) {
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  const std::string path = dir + "/" + WalFileName(3);
  auto writer = WalWriter::Create(path, 3);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<WalRecord> written = {
      MakeRecord(1, "first"), MakeRecord(6, std::string(10000, 'x')),
      MakeRecord(9, "")};
  for (const auto& r : written) {
    ASSERT_TRUE((*writer)->Append(r, /*sync=*/true).ok());
  }
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->seq, 3u);
  EXPECT_FALSE(read->tail_truncated);
  ASSERT_EQ(read->records.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(read->records[i].type, written[i].type);
    EXPECT_EQ(read->records[i].catalog_version, written[i].catalog_version);
    EXPECT_EQ(read->records[i].metadata_version,
              written[i].metadata_version);
    EXPECT_EQ(read->records[i].body, written[i].body);
  }
}

TEST(Wal, FrameCrcMatchesByteLoopOverPayload) {
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  const std::string path = dir + "/" + WalFileName(1);
  auto writer = WalWriter::Create(path, 1);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::vector<uint8_t> raw = SeededBytes(1000, 3);
  const std::string body(raw.begin(), raw.end());
  ASSERT_TRUE((*writer)->Append(MakeRecord(6, body), /*sync=*/false).ok());
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  // 16-byte file header, then u32 len | u32 crc | payload.
  ByteReader frame(bytes->data() + 16, 8);
  auto len = frame.ReadU32();
  auto crc = frame.ReadU32();
  ASSERT_TRUE(len.ok() && crc.ok());
  ASSERT_EQ(bytes->size(), 16 + 8 + *len);
  EXPECT_EQ(*len, 1 + 8 + 8 + body.size());
  EXPECT_EQ(*crc, ReferenceCrc32(bytes->data() + 16 + 8, *len));
}

TEST(Wal, CreateRefusesExistingFile) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/" + WalFileName(1);
  ASSERT_TRUE(WalWriter::Create(path, 1).ok());
  EXPECT_FALSE(WalWriter::Create(path, 1).ok());
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

void WriteBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

TEST(Wal, TornTailAtEveryByteOffsetTruncates) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/" + WalFileName(1);
  {
    auto writer = WalWriter::Create(path, 1);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord(1, "alpha"), true).ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord(8, "beta-rows"), true).ok());
  }
  const std::string full = FileBytes(path);
  // Find where the last record starts: re-read after writing only the
  // first record.
  const std::string probe = dir + "/probe.log";
  WriteBytes(probe, full);
  auto whole = ReadWal(probe);
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole->records.size(), 2u);
  const uint64_t full_valid = whole->valid_bytes;
  ASSERT_EQ(full_valid, full.size());

  // Chop the file at every byte inside the last record's frame: each
  // prefix must recover exactly the first record and report the torn
  // tail, with valid_bytes at the start of the damage.
  uint64_t last_start = 0;
  {
    std::string one = full;
    // Binary-search-free: the first record ends where a 1-record read
    // of a truncated file says it does.
    for (uint64_t cut = full.size() - 1;; --cut) {
      WriteBytes(probe, full.substr(0, cut));
      auto r = ReadWal(probe);
      ASSERT_TRUE(r.ok()) << "cut " << cut << ": " << r.status().ToString();
      if (r->records.size() == 1) {
        last_start = r->valid_bytes;
        break;
      }
      ASSERT_GT(cut, 0u);
    }
  }
  // A cut exactly on the record boundary is a clean (not torn) file.
  WriteBytes(probe, full.substr(0, last_start));
  {
    auto r = ReadWal(probe);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->records.size(), 1u);
    EXPECT_FALSE(r->tail_truncated);
  }
  for (uint64_t cut = last_start + 1; cut < full.size(); ++cut) {
    WriteBytes(probe, full.substr(0, cut));
    auto r = ReadWal(probe);
    ASSERT_TRUE(r.ok()) << "cut " << cut << ": " << r.status().ToString();
    ASSERT_EQ(r->records.size(), 1u) << "cut " << cut;
    EXPECT_EQ(r->records[0].body, "alpha");
    EXPECT_TRUE(r->tail_truncated) << "cut " << cut;
    EXPECT_EQ(r->valid_bytes, last_start) << "cut " << cut;
  }
}

TEST(Wal, CorruptLastRecordTruncatesButMidLogCorruptionFails) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/" + WalFileName(1);
  {
    auto writer = WalWriter::Create(path, 1);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord(1, "alpha"), true).ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord(6, "beta"), true).ok());
  }
  const std::string full = FileBytes(path);

  // Bit-flip inside the LAST record's payload: indistinguishable from
  // a torn append, so it truncates to the first record.
  {
    std::string bytes = full;
    bytes[bytes.size() - 2] = static_cast<char>(bytes[bytes.size() - 2] ^ 0x40);
    const std::string probe = dir + "/tail.log";
    WriteBytes(probe, bytes);
    auto r = ReadWal(probe);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->records.size(), 1u);
    EXPECT_TRUE(r->tail_truncated);
  }

  // Bit-flip inside the FIRST record with a valid record after it:
  // silent mid-log corruption — recovery must fail, not truncate away
  // acknowledged writes.
  {
    std::string bytes = full;
    bytes[20] = static_cast<char>(bytes[20] ^ 0x01);  // in record 1's frame
    const std::string probe = dir + "/mid.log";
    WriteBytes(probe, bytes);
    auto r = ReadWal(probe);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  }
}

TEST(Wal, BadHeaderOrWrongMagicFails) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/" + WalFileName(1);
  WriteBytes(path, "NOTAWAL!");
  EXPECT_FALSE(ReadWal(path).ok());
  WriteBytes(path, "MOS");
  EXPECT_FALSE(ReadWal(path).ok());
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

void BuildSmallWorld(core::Database* db) {
  auto exec = [db](const std::string& sql) {
    auto r = db->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  };
  exec("CREATE GLOBAL POPULATION People (email VARCHAR, device VARCHAR)");
  exec("CREATE TABLE EmailReport (email VARCHAR, cnt INT)");
  exec("INSERT INTO EmailReport VALUES ('gmail', 550), ('yahoo', 300), "
       "('aol', 150)");
  exec("CREATE TABLE DeviceReport (device VARCHAR, cnt INT)");
  exec("INSERT INTO DeviceReport VALUES ('phone', 600), ('laptop', 400)");
  exec("CREATE METADATA People_M1 AS (SELECT email, cnt FROM EmailReport)");
  exec("CREATE METADATA People_M2 AS "
       "(SELECT device, cnt FROM DeviceReport)");
  exec("CREATE SAMPLE Panel AS (SELECT * FROM People WHERE email = "
       "'gmail')");
  exec("INSERT INTO Panel VALUES ('gmail','phone'), ('gmail','phone'), "
       "('gmail','phone'), ('gmail','phone'), ('gmail','laptop'), "
       "('gmail','laptop')");
  // Publish a fitted (IPF) epoch so the snapshot carries non-trivial
  // weights and fit provenance.
  exec("SELECT SEMI-OPEN COUNT(*) AS c FROM People");
}

TEST(Snapshot, BuildLoadRoundTripsWholeState) {
  core::Database db;
  BuildSmallWorld(&db);
  auto image = BuildSnapshotImage(&db, /*next_wal_seq=*/7);
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  const std::string dir = MakeTempDir();
  const std::string path = dir + "/" + SnapshotFileName(7);
  ASSERT_TRUE(AtomicWriteFile(path, *image).ok());

  auto state = LoadSnapshot(path);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->next_wal_seq, 7u);
  EXPECT_EQ(state->catalog_version, db.catalog_version());
  EXPECT_EQ(state->metadata_version, db.metadata_version());
  EXPECT_EQ(state->tables.size(), 2u);
  EXPECT_EQ(state->populations.size(), 1u);
  ASSERT_EQ(state->samples.size(), 1u);

  const auto& sample = state->samples[0];
  core::SampleInfo* live = *db.catalog()->GetSample("Panel");
  EXPECT_EQ(sample.info.name, live->name);
  EXPECT_EQ(sample.info.data.num_rows(), live->data.num_rows());
  core::WeightEpochPtr live_epoch = live->weights.Pin();
  EXPECT_EQ(sample.epoch.id, live_epoch->id);
  EXPECT_EQ(sample.epoch.weights, live_epoch->weights);
  EXPECT_EQ(sample.epoch.fit_signature, live_epoch->fit_signature);

  ByteWriter a, b;
  EncodeTable(sample.info.data, &a);
  EncodeTable(live->data, &b);
  EXPECT_EQ(a.buffer(), b.buffer());
}

TEST(Snapshot, CorruptHeaderOrSegmentFailsLoudly) {
  core::Database db;
  BuildSmallWorld(&db);
  auto image = BuildSnapshotImage(&db, 1);
  ASSERT_TRUE(image.ok());
  const std::string dir = MakeTempDir();

  // Header CRC.
  {
    std::string bytes = *image;
    bytes[9] = static_cast<char>(bytes[9] ^ 0x01);
    const std::string path = dir + "/h.snap";
    ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
    EXPECT_FALSE(LoadSnapshot(path).ok());
  }
  // Segment payload (section A).
  {
    std::string bytes = *image;
    bytes[60] = static_cast<char>(bytes[60] ^ 0x01);
    const std::string path = dir + "/a.snap";
    ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
    EXPECT_FALSE(LoadSnapshot(path).ok());
  }
  // Column bytes (section B, last byte of the file is inside — or
  // padding after — the last column; flip a byte a little earlier to
  // land inside data protected by a column CRC).
  {
    std::string bytes = *image;
    bytes[bytes.size() - 70] =
        static_cast<char>(bytes[bytes.size() - 70] ^ 0x01);
    const std::string path = dir + "/b.snap";
    ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
    EXPECT_FALSE(LoadSnapshot(path).ok());
  }
  // Truncation at any point fails (sampled across the file).
  for (size_t cut = 0; cut < image->size(); cut += 97) {
    const std::string path = dir + "/t.snap";
    WriteBytes(path, image->substr(0, cut));
    EXPECT_FALSE(LoadSnapshot(path).ok()) << "cut " << cut;
  }
}

TEST(Snapshot, FileNamesRoundTrip) {
  EXPECT_EQ(SnapshotFileName(7), "snapshot-000007.snap");
  auto seq = ParseSnapshotFileName("snapshot-000007.snap");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 7u);
  EXPECT_FALSE(ParseSnapshotFileName("wal-000007.log").ok());
}

// ---------------------------------------------------------------------------
// Randomized fuzz: mutated durable payloads through every decoder
// ---------------------------------------------------------------------------

/// Truncate, flip one byte, or flip up to eight (the wire fuzz's
/// mutations).
std::string Mutate(std::mt19937* rng, std::string s) {
  if (s.empty()) return s;
  const int op = static_cast<int>((*rng)() % 3);
  if (op == 0) {
    s.resize((*rng)() % s.size());
  } else if (op == 1) {
    s[(*rng)() % s.size()] = static_cast<char>((*rng)());
  } else {
    for (int i = 0; i < 8 && !s.empty(); ++i) {
      s[(*rng)() % s.size()] = static_cast<char>((*rng)());
    }
  }
  return s;
}

TEST(SerdeFuzz, MutatedStateObjectsNeverCrash) {
  core::Database db;
  BuildSmallWorld(&db);
  core::PopulationInfo* population = *db.catalog()->GetPopulation("People");
  core::SampleInfo* sample = *db.catalog()->GetSample("Panel");
  auto parsed = sql::ParseStatement(
      "SELECT * FROM t WHERE (a > 3 AND b = 'x') OR c BETWEEN 1 AND 5 OR "
      "d IN ('p', 2, 3.5, TRUE) OR NOT e");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_FALSE(population->marginals.empty());

  ByteWriter expr, marginal, epoch, pop, header;
  EncodeExpr(parsed->As<sql::SelectStmt>().where.get(), &expr);
  EncodeMarginal(population->marginals[0], &marginal);
  EncodeWeightEpoch(*sample->weights.Pin(), &epoch);
  EncodePopulation(*population, &pop);
  EncodeSampleHeader(*sample, &header);

  std::mt19937 rng(20261018);
  for (int trial = 0; trial < 500; ++trial) {
    // Outcomes don't matter (a mutation can stay valid); each decoder
    // must terminate with a value or a Status.
    const std::string e = Mutate(&rng, expr.buffer());
    ByteReader er(e);
    (void)DecodeExpr(&er);
    const std::string m = Mutate(&rng, marginal.buffer());
    ByteReader mr(m);
    (void)DecodeMarginal(&mr);
    const std::string w = Mutate(&rng, epoch.buffer());
    ByteReader wr(w);
    (void)DecodeWeightEpoch(&wr);
    const std::string p = Mutate(&rng, pop.buffer());
    ByteReader pr(p);
    (void)DecodePopulation(&pr);
    const std::string h = Mutate(&rng, header.buffer());
    ByteReader hr(h);
    (void)DecodeSampleHeader(&hr);
  }
}

TEST(SerdeFuzz, MutatedWalRecordBodiesNeverCrashRecovery) {
  // Log a world that writes every record type, then replay mutated
  // copies of each record.
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());
  {
    core::Database db;
    auto engine = StorageEngine::Open(dir);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->Recover(&db).ok());
    BuildSmallWorld(&db);
    for (const char* sql :
         {"CREATE TABLE Doomed (x INT)", "DROP TABLE Doomed",
          "UPDATE EmailReport SET cnt = 551 WHERE email = 'gmail'"}) {
      auto r = db.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    }
  }
  auto wal = ReadWal(dir + "/" + WalFileName(1));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  for (uint8_t type = static_cast<uint8_t>(WalRecordType::kCreateTable);
       type <= static_cast<uint8_t>(WalRecordType::kPublishEpoch); ++type) {
    EXPECT_TRUE(std::any_of(wal->records.begin(), wal->records.end(),
                            [type](const WalRecord& r) {
                              return static_cast<uint8_t>(r.type) == type;
                            }))
        << "no WAL record of type " << int{type};
  }

  // Each mutated record is replayed on top of the unmutated records
  // before it, as recovery would, so decoded-but-odd payloads meet
  // the catalog state they name.
  std::mt19937 rng(777);
  for (size_t i = 0; i < wal->records.size(); ++i) {
    for (int trial = 0; trial < 100; ++trial) {
      core::Database db;
      for (size_t k = 0; k < i; ++k) {
        ASSERT_TRUE(StorageEngine::ApplyWalRecord(&db, wal->records[k]).ok());
      }
      WalRecord record = wal->records[i];
      record.body = Mutate(&rng, record.body);
      (void)StorageEngine::ApplyWalRecord(&db, record);
    }
  }
}

TEST(SerdeFuzz, MutatedSnapshotSegmentsNeverCrashLoad) {
  core::Database db;
  BuildSmallWorld(&db);
  auto image = BuildSnapshotImage(&db, 1);
  ASSERT_TRUE(image.ok());
  // Section A: 40-byte header, then segments of u8 type | u32 len |
  // u32 crc | payload up to the end segment.
  struct Segment {
    size_t offset;
    uint32_t len;
  };
  std::vector<Segment> segments;
  size_t off = 40;
  for (;;) {
    ASSERT_LE(off + 9, image->size());
    const uint8_t type = static_cast<uint8_t>((*image)[off]);
    if (type == 0xFF) break;
    uint32_t len = 0;
    std::memcpy(&len, image->data() + off + 1, 4);
    segments.push_back({off, len});
    off += 9 + len;
  }
  ASSERT_EQ(segments.size(), 4u);  // 2 tables, 1 population, 1 sample

  const std::string dir = MakeTempDir();
  const std::string path = dir + "/fuzz.snap";
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    // Mutate one segment's payload and re-seal it with a matching
    // length and CRC, so the bytes reach the decoders.
    const Segment& seg = segments[rng() % segments.size()];
    const std::string payload =
        Mutate(&rng, image->substr(seg.offset + 9, seg.len));
    ByteWriter frame;
    frame.PutU8(static_cast<uint8_t>((*image)[seg.offset]));
    frame.PutU32(static_cast<uint32_t>(payload.size()));
    frame.PutU32(Crc32(payload.data(), payload.size()));
    frame.PutBytes(payload.data(), payload.size());
    const std::string mutated = image->substr(0, seg.offset) +
                                frame.buffer() +
                                image->substr(seg.offset + 9 + seg.len);
    WriteBytes(path, mutated);
    (void)LoadSnapshot(path);
  }
}

}  // namespace
}  // namespace durable
}  // namespace mosaic
