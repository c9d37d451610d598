// Wire-protocol codec tests: round-trips for every payload type, and
// fuzz-style hostile-input coverage — truncated, oversized, bit-
// flipped, and random frames must come back as Status errors, never
// crash, over-read, or allocate unbounded memory.
#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "storage/table.h"

namespace mosaic {
namespace net {
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

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(FrameReader, RoundTripsAndReassemblesPartialReads) {
  const std::string f1 = EncodeFrame(MessageType::kQuery, "SELECT 1");
  const std::string f2 = EncodeFrame(MessageType::kClose, "");
  const std::string stream = f1 + f2;

  // Feed one byte at a time: frames must pop exactly when complete.
  FrameReader reader;
  std::vector<Frame> frames;
  for (char c : stream) {
    reader.Feed(&c, 1);
    Frame frame;
    auto got = reader.Next(&frame);
    ASSERT_TRUE(got.ok());
    if (*got) frames.push_back(std::move(frame));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MessageType::kQuery);
  EXPECT_EQ(frames[0].payload, "SELECT 1");
  EXPECT_EQ(frames[1].type, MessageType::kClose);
  EXPECT_EQ(frames[1].payload, "");
  EXPECT_EQ(reader.buffered(), 0u);

  // And both at once.
  FrameReader bulk;
  bulk.Feed(stream.data(), stream.size());
  Frame frame;
  ASSERT_TRUE(*bulk.Next(&frame));
  EXPECT_EQ(frame.payload, "SELECT 1");
  ASSERT_TRUE(*bulk.Next(&frame));
  EXPECT_EQ(frame.type, MessageType::kClose);
  EXPECT_FALSE(*bulk.Next(&frame));
}

TEST(FrameReader, RejectsOversizedAndZeroLengthFrames) {
  // Length prefix beyond kMaxFrameBytes: rejected before buffering.
  FrameReader reader;
  const uint32_t huge = kMaxFrameBytes + 1;
  char prefix[4];
  std::memcpy(prefix, &huge, 4);  // little-endian host assumed in tests
  reader.Feed(prefix, 4);
  Frame frame;
  auto got = reader.Next(&frame);
  ASSERT_FALSE(got.ok());
  // The stream stays poisoned.
  reader.Feed("xxxx", 4);
  EXPECT_FALSE(reader.Next(&frame).ok());

  FrameReader zero;
  const char zeros[4] = {0, 0, 0, 0};
  zero.Feed(zeros, 4);
  EXPECT_FALSE(zero.Next(&frame).ok());
}

TEST(FrameReader, SurvivesRandomGarbage) {
  std::mt19937 rng(20260726);
  for (int trial = 0; trial < 200; ++trial) {
    FrameReader reader;
    const size_t len = rng() % 300;
    std::string junk(len, '\0');
    for (char& c : junk) c = static_cast<char>(rng());
    reader.Feed(junk.data(), junk.size());
    // Drain: every outcome (frame, need-more, error) is acceptable;
    // the invariant is no crash and termination.
    for (int i = 0; i < 64; ++i) {
      Frame frame;
      auto got = reader.Next(&frame);
      if (!got.ok() || !*got) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Primitive + object codecs
// ---------------------------------------------------------------------------

TEST(WireCodec, ValueRoundTripsEveryTypeIncludingNull) {
  const std::vector<Value> values = {
      Value::Null(),        Value(int64_t(-42)), Value(int64_t(0)),
      Value(3.14159),       Value(-0.0),         Value(std::string("hello")),
      Value(std::string("")), Value(true),       Value(false),
  };
  for (const Value& v : values) {
    WireWriter w;
    EncodeValue(v, &w);
    WireReader r(w.buffer());
    auto decoded = DecodeValue(&r);
    ASSERT_TRUE(decoded.ok()) << v.ToString();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(v.type(), decoded->type());
    if (!v.is_null()) EXPECT_TRUE(v == *decoded) << v.ToString();
  }
}

TEST(WireCodec, ValueRejectsUnknownTagAndTruncation) {
  WireReader bad_tag(std::string_view("\x09", 1));
  EXPECT_FALSE(DecodeValue(&bad_tag).ok());

  WireWriter w;
  EncodeValue(Value(std::string("abcdef")), &w);
  // Truncate at every prefix length: must error, never crash.
  for (size_t cut = 0; cut < w.buffer().size(); ++cut) {
    WireReader r(std::string_view(w.buffer().data(), cut));
    EXPECT_FALSE(DecodeValue(&r).ok()) << "cut=" << cut;
  }
}

TEST(WireCodec, StatusRoundTripsAndRejectsUnknownCode) {
  const Status s = Status::ExecutionError("division by zero");
  WireWriter w;
  EncodeStatus(s, &w);
  WireReader r(w.buffer());
  Status decoded;
  ASSERT_TRUE(DecodeStatus(&r, &decoded).ok());
  EXPECT_TRUE(s == decoded);

  WireReader bad(std::string_view("\xff\x00\x00\x00\x00", 5));
  Status out;
  EXPECT_FALSE(DecodeStatus(&bad, &out).ok());
}

TEST(WireCodec, TableRoundTripsAllColumnTypes) {
  const Table t = MakeSampleTable();
  WireWriter w;
  EncodeTable(t, &w);
  WireReader r(w.buffer());
  auto decoded = DecodeTable(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  ExpectTablesIdentical(t, *decoded);
}

TEST(WireCodec, TableRoundTripsEmptyAndZeroRowTables) {
  {
    WireWriter w;
    EncodeTable(Table(), &w);
    WireReader r(w.buffer());
    auto decoded = DecodeTable(&r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->num_rows(), 0u);
    EXPECT_EQ(decoded->num_columns(), 0u);
  }
  {
    Table t(Schema({{"s", DataType::kString}, {"x", DataType::kInt64}}));
    WireWriter w;
    EncodeTable(t, &w);
    WireReader r(w.buffer());
    auto decoded = DecodeTable(&r);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectTablesIdentical(t, *decoded);
  }
}

TEST(WireCodec, TableRejectsHostileDeclaredSizes) {
  // Row count far beyond the payload must fail before allocating.
  WireWriter w;
  w.PutU32(1);
  w.PutString("c");
  w.PutU8(static_cast<uint8_t>(DataType::kInt64));
  w.PutU64(uint64_t(1) << 40);  // a terabyte of rows, no bytes behind it
  WireReader r(w.buffer());
  EXPECT_FALSE(DecodeTable(&r).ok());

  // Column count beyond the payload too.
  WireWriter w2;
  w2.PutU32(0xffffffffu);
  WireReader r2(w2.buffer());
  EXPECT_FALSE(DecodeTable(&r2).ok());

  // Dictionary code out of range.
  WireWriter w3;
  w3.PutU32(1);
  w3.PutString("s");
  w3.PutU8(static_cast<uint8_t>(DataType::kString));
  w3.PutU64(1);
  w3.PutU32(1);      // dict size 1
  w3.PutString("a");
  w3.PutU32(7);      // code 7 out of range
  WireReader r3(w3.buffer());
  EXPECT_FALSE(DecodeTable(&r3).ok());
}

TEST(WireCodec, TableTruncationsAlwaysError) {
  WireWriter w;
  EncodeTable(MakeSampleTable(), &w);
  const std::string& full = w.buffer();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WireReader r(std::string_view(full.data(), cut));
    EXPECT_FALSE(DecodeTable(&r).ok()) << "cut=" << cut;
  }
}

TEST(WireCodec, QueryOutcomeRoundTripsBothArms) {
  {
    QueryOutcome ok{Status::OK(), MakeSampleTable()};
    auto decoded = DecodeResultReply(EncodeResultReply(ok));
    ASSERT_TRUE(decoded.ok());
    ASSERT_TRUE(decoded->ok());
    ExpectTablesIdentical(ok.table, decoded->table);
  }
  {
    QueryOutcome failed{Status::ParseError("unexpected token"), Table()};
    auto decoded = DecodeResultReply(EncodeResultReply(failed));
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(decoded->ok());
    EXPECT_TRUE(decoded->status == failed.status);
  }
}

TEST(WireCodec, MessagesRoundTrip) {
  HelloRequest hello{kProtocolVersion, "unit-test"};
  auto hello2 = DecodeHelloRequest(EncodeHelloRequest(hello));
  ASSERT_TRUE(hello2.ok());
  EXPECT_EQ(hello2->version, hello.version);
  EXPECT_EQ(hello2->client_name, hello.client_name);

  HelloReply reply{kProtocolVersion, 17, "mosaic"};
  auto reply2 = DecodeHelloReply(EncodeHelloReply(reply));
  ASSERT_TRUE(reply2.ok());
  EXPECT_EQ(reply2->session_id, 17u);

  const std::vector<std::string> sqls = {"SELECT 1", "", "SHOW TABLES"};
  auto batch2 = DecodeBatchRequest(EncodeBatchRequest(sqls));
  ASSERT_TRUE(batch2.ok());
  EXPECT_EQ(batch2->sqls, sqls);
  EXPECT_TRUE(batch2->trace.empty());

  StatsSnapshot stats;
  stats.queries_total = 101;
  stats.protocol_errors = 3;
  stats.connections_active = 2;
  stats.weight_epochs_published = 9;
  stats.weight_refits_skipped = 4;
  auto stats2 = DecodeStatsReply(EncodeStatsReply(stats));
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->queries_total, 101u);
  EXPECT_EQ(stats2->protocol_errors, 3u);
  EXPECT_EQ(stats2->connections_active, 2u);
  // Appended tail fields (weight-store counters) round-trip too.
  EXPECT_EQ(stats2->weight_epochs_published, 9u);
  EXPECT_EQ(stats2->weight_refits_skipped, 4u);

  Status carried;
  ASSERT_TRUE(DecodeErrorReply(
                  EncodeErrorReply(Status::InvalidArgument("nope")),
                  &carried)
                  .ok());
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
}

TEST(WireCodec, BatchRequestRejectsHostileCount) {
  WireWriter w;
  w.PutU32(0xfffffff0u);
  EXPECT_FALSE(DecodeBatchRequest(w.buffer()).ok());
}

// ---------------------------------------------------------------------------
// Randomized fuzz: mutated real frames through every decoder
// ---------------------------------------------------------------------------

TEST(WireCodecFuzz, MutatedPayloadsNeverCrashDecoders) {
  std::mt19937 rng(987654321);
  // Seed corpus: one valid payload per decoder.
  const std::string result_payload =
      EncodeResultReply({Status::OK(), MakeSampleTable()});
  const std::string batch_payload = EncodeBatchResultReply(
      {{Status::OK(), MakeSampleTable()},
       {Status::ExecutionError("boom"), Table()}});
  const std::string hello_payload =
      EncodeHelloRequest({kProtocolVersion, "fuzz"});
  const std::string stats_payload = EncodeStatsReply(StatsSnapshot{});

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

  for (int trial = 0; trial < 500; ++trial) {
    // Outcomes don't matter (a mutation can stay valid); the decoders
    // must terminate with either a value or a Status.
    (void)DecodeResultReply(mutate(result_payload));
    (void)DecodeBatchResultReply(mutate(batch_payload));
    (void)DecodeHelloRequest(mutate(hello_payload));
    (void)DecodeStatsReply(mutate(stats_payload));
    (void)DecodeBatchRequest(mutate(batch_payload));
    (void)DecodeQueryRequest(mutate(hello_payload));
  }

  // Pure-random payloads as well.
  for (int trial = 0; trial < 500; ++trial) {
    std::string junk(rng() % 200, '\0');
    for (char& c : junk) c = static_cast<char>(rng());
    (void)DecodeResultReply(junk);
    (void)DecodeBatchResultReply(junk);
    (void)DecodeHelloRequest(junk);
    (void)DecodeStatsReply(junk);
    Status out;
    (void)DecodeErrorReply(junk, &out);
  }
}

// ---------------------------------------------------------------------------
// Protocol minor 1: STATS histograms + appended counters
// ---------------------------------------------------------------------------

StatsSnapshot MakeExtendedStats() {
  StatsSnapshot stats;
  stats.queries_total = 101;
  stats.connections_closed = 7;
  stats.malformed_frames = 2;
  stats.inflight_highwater = 13;
  metrics::Histogram lat;
  for (uint64_t v = 1; v <= 1000; ++v) lat.Record(v);
  stats.histograms.push_back({"mosaic_query_latency_us", lat.Snapshot()});
  metrics::Histogram reads;
  reads.Record(0);
  reads.Record(50);
  stats.histograms.push_back({"mosaic_read_latency_us", reads.Snapshot()});
  return stats;
}

TEST(WireCodec, StatsReplyRoundTripsMinorOneExtensions) {
  const StatsSnapshot stats = MakeExtendedStats();
  auto decoded = DecodeStatsReply(EncodeStatsReply(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->queries_total, 101u);
  EXPECT_EQ(decoded->connections_closed, 7u);
  EXPECT_EQ(decoded->malformed_frames, 2u);
  EXPECT_EQ(decoded->inflight_highwater, 13u);
  ASSERT_EQ(decoded->histograms.size(), 2u);
  EXPECT_EQ(decoded->histograms[0].name, "mosaic_query_latency_us");
  EXPECT_EQ(decoded->histograms[0].histogram.count, 1000u);
  EXPECT_EQ(decoded->histograms[0].histogram.sum,
            stats.histograms[0].histogram.sum);
  EXPECT_EQ(decoded->histograms[0].histogram.buckets,
            stats.histograms[0].histogram.buckets);
  // Quantiles computed from the decoded buckets match the original's.
  EXPECT_DOUBLE_EQ(decoded->histograms[0].histogram.Quantile(0.95),
                   stats.histograms[0].histogram.Quantile(0.95));
  EXPECT_EQ(decoded->histograms[1].histogram.count, 2u);
}

TEST(WireCodec, StatsReplyGoldenBytes) {
  // The i-th field in protocol order carries i + 1, so the payload
  // pins both the field count and the wire order that kStatsFields
  // owns: u32 24, u64 1..24, then an empty histogram section (u32 0).
  StatsSnapshot stats;
  stats.queries_total = 1;
  stats.queries_failed = 2;
  stats.reads = 3;
  stats.writes = 4;
  stats.sessions_opened = 5;
  stats.sessions_closed = 6;
  stats.result_cache_hits = 7;
  stats.result_cache_misses = 8;
  stats.result_cache_entries = 9;
  stats.model_cache_hits = 10;
  stats.model_cache_insertions = 11;
  stats.connections_opened = 12;
  stats.connections_active = 13;
  stats.connections_rejected = 14;
  stats.frames_received = 15;
  stats.frames_sent = 16;
  stats.protocol_errors = 17;
  stats.weight_epochs_published = 18;
  stats.weight_refits_total = 19;
  stats.weight_refits_skipped = 20;
  stats.weight_refits_incremental = 21;
  stats.connections_closed = 22;
  stats.malformed_frames = 23;
  stats.inflight_highwater = 24;
  std::string golden;
  auto put_le = [&golden](uint64_t v, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      golden.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
    }
  };
  put_le(24, 4);
  for (uint64_t v = 1; v <= 24; ++v) put_le(v, 8);
  put_le(0, 4);
  EXPECT_EQ(EncodeStatsReply(stats), golden);
  auto decoded = DecodeStatsReply(golden);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  for (const StatsField& f : kStatsFields) {
    EXPECT_EQ((*decoded).*f.member, stats.*f.member) << f.name;
  }
}

TEST(WireCodec, StatsReplyDecodesMinorZeroPayload) {
  // A minor-0 server's STATS_RESULT: 21 uint64 fields, no histogram
  // section. The decoder must leave the appended fields zero and the
  // histogram list empty rather than demanding the new bytes.
  WireWriter w;
  w.PutU32(21);
  for (uint64_t i = 1; i <= 21; ++i) w.PutU64(i * 10);
  auto decoded = DecodeStatsReply(w.buffer());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->queries_total, 10u);
  EXPECT_EQ(decoded->weight_refits_incremental, 210u);
  EXPECT_EQ(decoded->connections_closed, 0u);
  EXPECT_EQ(decoded->malformed_frames, 0u);
  EXPECT_EQ(decoded->inflight_highwater, 0u);
  EXPECT_TRUE(decoded->histograms.empty());
}

TEST(WireCodec, StatsReplyOldClientIgnoresAppendedTail) {
  // A minor-0 client reads the declared field count and stops; the
  // histogram section trailing the uint64 list must decode cleanly as
  // exactly the fields it knows. Simulated by decoding the full
  // payload and checking the prefix fields carry the same values an
  // old decoder would have read.
  const StatsSnapshot stats = MakeExtendedStats();
  const std::string payload = EncodeStatsReply(stats);
  WireReader r(payload);
  auto count = r.ReadU32();
  ASSERT_TRUE(count.ok());
  ASSERT_GE(*count, 21u);
  // First field is queries_total, exactly as in minor 0.
  auto first = r.ReadU64();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 101u);
}

TEST(WireCodec, HelloReplyMinorVersionCompat) {
  HelloReply reply{kProtocolVersion, 17, "mosaic", kProtocolMinorVersion};
  const std::string payload = EncodeHelloReply(reply);
  auto decoded = DecodeHelloReply(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->minor_version, kProtocolMinorVersion);
  // A minor-0 server's HELLO_OK ends after server_name.
  auto old = DecodeHelloReply(
      std::string_view(payload).substr(0, payload.size() - 4));
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old->session_id, 17u);
  EXPECT_EQ(old->minor_version, 0u);
}

TEST(WireCodecFuzz, TruncatedExtendedStatsNeverCrash) {
  const std::string payload = EncodeStatsReply(MakeExtendedStats());
  // Every prefix: decode must terminate with a value or a Status,
  // never crash or over-read.
  for (size_t len = 0; len <= payload.size(); ++len) {
    (void)DecodeStatsReply(std::string_view(payload).substr(0, len));
  }
  // And mutated payloads, biased at the histogram section.
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 500; ++trial) {
    std::string s = payload;
    const int op = static_cast<int>(rng() % 3);
    if (op == 0) {
      s.resize(rng() % s.size());
    } else {
      for (int i = 0; i < 8; ++i) {
        s[rng() % s.size()] = static_cast<char>(rng());
      }
    }
    (void)DecodeStatsReply(s);
  }
}

// ---------------------------------------------------------------------------
// Protocol minor 2: trace context appended to QUERY / BATCH
// ---------------------------------------------------------------------------

TEST(WireCodec, QueryRequestRoundTripsTraceContext) {
  TraceContext ctx;
  ctx.trace_id = 0xdeadbeefcafef00dull;
  ctx.parent_span_id = 42;
  ctx.sampled = true;
  auto decoded =
      DecodeQueryRequest(EncodeQueryRequest(QueryRequest{"SELECT 1", ctx}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sql, "SELECT 1");
  EXPECT_EQ(decoded->trace.trace_id, ctx.trace_id);
  EXPECT_EQ(decoded->trace.parent_span_id, 42u);
  EXPECT_TRUE(decoded->trace.sampled);

  TraceContext none;
  auto plain =
      DecodeQueryRequest(EncodeQueryRequest(QueryRequest{"SELECT 2", none}));
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->trace.empty());
}

TEST(WireCodec, BatchRequestRoundTripsTraceContext) {
  TraceContext ctx;
  ctx.trace_id = 0x1122334455667788ull;
  ctx.sampled = true;
  const std::vector<std::string> sqls = {"SELECT 1", "SHOW TABLES"};
  auto decoded =
      DecodeBatchRequest(EncodeBatchRequest(BatchRequest{sqls, ctx}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sqls, sqls);
  EXPECT_EQ(decoded->trace.trace_id, ctx.trace_id);
  EXPECT_EQ(decoded->trace.parent_span_id, 0u);
  EXPECT_TRUE(decoded->trace.sampled);
}

TEST(WireCodec, OldClientQueryPayloadDecodesWithEmptyTrace) {
  // A minor-<2 client encodes just the SQL string — the legacy
  // overload produces exactly those bytes. A minor-2 server must
  // accept it and see an absent (all-default) trace context.
  const std::string legacy = EncodeQueryRequest(std::string("SELECT 1"));
  auto decoded = DecodeQueryRequest(legacy);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sql, "SELECT 1");
  EXPECT_TRUE(decoded->trace.empty());

  const std::vector<std::string> sqls = {"SELECT 1"};
  auto batch = DecodeBatchRequest(EncodeBatchRequest(sqls));
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->trace.empty());

  // The legacy and the empty-context encodings are byte-identical:
  // a minor-2 client talking to a minor-<2 server sends frames that
  // old server already understands.
  EXPECT_EQ(legacy, EncodeQueryRequest(QueryRequest{"SELECT 1", {}}));
}

TEST(WireCodec, PartialTraceContextTailIsRejected) {
  TraceContext ctx;
  ctx.trace_id = 0xabc;
  ctx.sampled = true;
  const std::string full =
      EncodeQueryRequest(QueryRequest{"SELECT 1", ctx});
  // Dropping 1..kTraceContextBytes-1 tail bytes leaves a torn context:
  // neither absent nor complete. That is a framing error, not a
  // silent fallback.
  for (size_t drop = 1; drop < kTraceContextBytes; ++drop) {
    auto decoded = DecodeQueryRequest(
        std::string_view(full).substr(0, full.size() - drop));
    EXPECT_FALSE(decoded.ok()) << "drop=" << drop;
  }
  // Dropping the whole tail reproduces a legacy frame: accepted.
  auto legacy = DecodeQueryRequest(
      std::string_view(full).substr(0, full.size() - kTraceContextBytes));
  ASSERT_TRUE(legacy.ok());
  EXPECT_TRUE(legacy->trace.empty());
}

TEST(WireCodec, ExtraTailBeyondTraceContextIsIgnored) {
  // A hypothetical minor-3 client may append more fields after the
  // trace context; a minor-2 server reads what it knows and ignores
  // the rest.
  TraceContext ctx;
  ctx.trace_id = 99;
  std::string payload = EncodeQueryRequest(QueryRequest{"SELECT 1", ctx});
  payload += std::string(11, '\x5a');
  auto decoded = DecodeQueryRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sql, "SELECT 1");
  EXPECT_EQ(decoded->trace.trace_id, 99u);
}

TEST(WireCodecFuzz, MutatedTracedRequestsNeverCrash) {
  std::mt19937 rng(424242);
  TraceContext ctx;
  ctx.trace_id = 0xfeedface;
  ctx.parent_span_id = 7;
  ctx.sampled = true;
  const std::string query_payload =
      EncodeQueryRequest(QueryRequest{"SELECT a FROM t WHERE x > 1", ctx});
  const std::string batch_payload = EncodeBatchRequest(
      BatchRequest{{"SELECT 1", "SELECT 2", "EXPLAIN ANALYZE SELECT 3"},
                   ctx});
  auto mutate = [&rng](std::string s) {
    if (s.empty()) return s;
    const int op = static_cast<int>(rng() % 3);
    if (op == 0) {
      s.resize(rng() % s.size());  // truncate (tears the trace tail)
    } else if (op == 1) {
      s[rng() % s.size()] = static_cast<char>(rng());  // flip a byte
    } else {
      for (int i = 0; i < 8 && !s.empty(); ++i) {
        s[rng() % s.size()] = static_cast<char>(rng());
      }
    }
    return s;
  };
  for (int trial = 0; trial < 500; ++trial) {
    (void)DecodeQueryRequest(mutate(query_payload));
    (void)DecodeBatchRequest(mutate(batch_payload));
  }
  // Exhaustive truncation sweep as well.
  for (size_t len = 0; len <= query_payload.size(); ++len) {
    (void)DecodeQueryRequest(std::string_view(query_payload).substr(0, len));
  }
  for (size_t len = 0; len <= batch_payload.size(); ++len) {
    (void)DecodeBatchRequest(std::string_view(batch_payload).substr(0, len));
  }
}

}  // namespace
}  // namespace net
}  // namespace mosaic
