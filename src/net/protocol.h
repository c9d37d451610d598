// Mosaic wire protocol v1: the versioned binary boundary between the
// TCP server (net/server.h) and clients (net/client.h).
//
// Framing
//   Every message is one length-prefixed frame:
//
//     | bytes | field                                        |
//     |-------|----------------------------------------------|
//     | 4     | frame length N, uint32 little-endian         |
//     | 1     | message type tag (MessageType)               |
//     | N - 1 | payload, message-type specific               |
//
//   N counts everything after the length field (tag + payload), so an
//   empty-payload message has N = 1. Frames larger than
//   kMaxFrameBytes are a protocol error: the decoder rejects the
//   length prefix without buffering (a hostile 4 GiB length can never
//   trigger an allocation).
//
// Conversation
//   client: HELLO  -> server: HELLO_OK       (version handshake)
//   client: QUERY  -> server: RESULT         (one statement)
//   client: BATCH  -> server: BATCH_RESULT   (fan-out on the pool)
//   client: STATS  -> server: STATS_RESULT   (service + server view)
//   client: CLOSE  -> server: GOODBYE        (then the socket closes)
//   server: ERROR                            (protocol violation; the
//                                             connection closes after)
//
//   Requests may be pipelined; the server answers in request order.
//
// Encoding
//   Integers are little-endian fixed width; doubles are IEEE-754 bit
//   patterns in a uint64; strings are a uint32 length plus raw bytes;
//   bools are one byte. Result tables travel columnar: schema, row
//   count, then per-column payloads — string columns ship their
//   dictionary once plus int32 codes, so a 1M-row categorical column
//   costs 4 bytes/row, not a string each. Every decoder is
//   bounds-checked and returns Status on truncated, oversized, or
//   malformed input; decoding never reads past the payload and never
//   trusts a declared size it has not verified against the bytes
//   actually present (tests/test_net_protocol.cc fuzzes this).
#ifndef MOSAIC_NET_PROTOCOL_H_
#define MOSAIC_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/table.h"
#include "storage/value.h"

namespace mosaic {
namespace net {

/// Protocol revision spoken by this build. HELLO carries the client's
/// version; the server refuses mismatches with an ERROR frame so old
/// clients fail loudly instead of misparsing.
constexpr uint32_t kProtocolVersion = 1;

/// Backwards-compatible revision within kProtocolVersion. Minor 1
/// appends histogram snapshots and extra counters to STATS_RESULT and
/// the server's minor version to HELLO_OK — all strictly appended, so
/// a minor-0 peer decodes the prefix it knows and ignores the tail
/// (decoders never require the appended bytes to be present). Minor 2
/// appends a trace context (trace_id, parent_span_id, sample flag) to
/// QUERY and BATCH under the same rule: an absent tail decodes as "no
/// trace context", a partially present one is a protocol error.
constexpr uint32_t kProtocolMinorVersion = 2;

/// Upper bound on one frame's length field. Limits both directions:
/// decoders reject bigger prefixes before allocating, encoders refuse
/// to produce unreadable frames.
constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Bytes of the length prefix preceding every frame.
constexpr size_t kFrameLengthBytes = 4;

enum class MessageType : uint8_t {
  // Client -> server.
  kHello = 0x01,
  kQuery = 0x02,
  kBatch = 0x03,
  kStats = 0x04,
  kClose = 0x05,
  // Server -> client (high bit set).
  kHelloOk = 0x81,
  kResult = 0x82,
  kBatchResult = 0x83,
  kStatsResult = 0x84,
  kGoodbye = 0x85,
  kError = 0x86,
};

/// True for tags this protocol revision understands.
bool IsKnownMessageType(uint8_t tag);

/// Debug name ("QUERY", "RESULT", ...); "UNKNOWN" for foreign tags.
const char* MessageTypeName(MessageType type);

/// One decoded frame: the tag plus its raw payload bytes.
struct Frame {
  MessageType type = MessageType::kError;
  std::string payload;
};

/// Serialize one frame (length prefix + tag + payload).
std::string EncodeFrame(MessageType type, std::string_view payload);

/// Incremental frame decoder for a byte stream. Feed whatever the
/// socket produced — any split, down to one byte at a time — and pop
/// complete frames. A malformed length prefix poisons the stream
/// (every later Next returns the same error), matching the server's
/// close-on-protocol-error behaviour.
class FrameReader {
 public:
  /// Append raw bytes from the transport.
  void Feed(const char* data, size_t n);

  /// Pop the next complete frame into `*frame`. Returns true when a
  /// frame was produced, false when more bytes are needed; Status on
  /// an oversized or corrupt length prefix.
  [[nodiscard]] Result<bool> Next(Frame* frame);

  /// Bytes buffered but not yet returned as frames.
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  Status error_;
};

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

/// Append-only payload builder.
class WireWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  /// uint32 length + raw bytes.
  void PutString(std::string_view s);

  const std::string& buffer() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked payload reader over a non-owning byte view.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  [[nodiscard]] Result<uint8_t> ReadU8();
  [[nodiscard]] Result<bool> ReadBool();
  [[nodiscard]] Result<uint32_t> ReadU32();
  [[nodiscard]] Result<uint64_t> ReadU64();
  [[nodiscard]] Result<int64_t> ReadI64();
  [[nodiscard]] Result<double> ReadDouble();
  /// Rejects declared lengths exceeding the bytes actually present.
  [[nodiscard]] Result<std::string> ReadString();

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return remaining() == 0; }

 private:
  [[nodiscard]] Status Need(size_t n, const char* what);

  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Mosaic object codecs
// ---------------------------------------------------------------------------

/// Scalar Value: one type tag byte + payload; NULL is the tag alone.
void EncodeValue(const Value& v, WireWriter* w);
[[nodiscard]] Result<Value> DecodeValue(WireReader* r);

/// Status: code byte + message string. (Decode uses an out-parameter
/// because Result<Status> would be ill-formed.)
void EncodeStatus(const Status& s, WireWriter* w);
[[nodiscard]] Status DecodeStatus(WireReader* r, Status* out);

/// Columnar table codec (schema, row count, column payloads; string
/// columns as dictionary + codes).
void EncodeTable(const Table& t, WireWriter* w);
[[nodiscard]] Result<Table> DecodeTable(WireReader* r);

/// Outcome of one statement as it travels the wire: `table` is
/// meaningful iff `status.ok()`.
struct QueryOutcome {
  Status status;
  Table table;

  bool ok() const { return status.ok(); }
};

void EncodeQueryOutcome(const QueryOutcome& o, WireWriter* w);
/// The same bytes from a status and a table the caller keeps (read
/// only when `status.ok()`), so a server can send a shared cached
/// table without copying it.
void EncodeQueryOutcome(const Status& status, const Table& table,
                        WireWriter* w);
[[nodiscard]] Result<QueryOutcome> DecodeQueryOutcome(WireReader* r);

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

struct HelloRequest {
  uint32_t version = kProtocolVersion;
  std::string client_name;
};

struct HelloReply {
  uint32_t version = kProtocolVersion;
  uint64_t session_id = 0;
  std::string server_name;
  /// Appended in minor 1; decodes as 0 from a minor-0 server.
  uint32_t minor_version = kProtocolMinorVersion;
};

/// Combined service + network counters answered to STATS. Encoded as
/// a field-count-prefixed list of uint64s so a newer server can append
/// counters without breaking older clients (they skip the tail). The
/// counters are per process: they come from the metrics registry
/// (kStatsFields says which metric backs each one).
struct StatsSnapshot {
  uint64_t queries_total = 0;
  uint64_t queries_failed = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t result_cache_entries = 0;
  uint64_t model_cache_hits = 0;
  uint64_t model_cache_insertions = 0;
  uint64_t connections_opened = 0;
  uint64_t connections_active = 0;
  uint64_t connections_rejected = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t protocol_errors = 0;  ///< framing, state and payload errors
  uint64_t weight_epochs_published = 0;
  uint64_t weight_refits_total = 0;
  uint64_t weight_refits_skipped = 0;
  uint64_t weight_refits_incremental = 0;
  uint64_t connections_closed = 0;
  uint64_t malformed_frames = 0;    ///< payloads that failed to decode
  /// Deepest per-connection pipeline of frames waiting on the
  /// request pool.
  uint64_t inflight_highwater = 0;

  /// Named latency histograms, appended in minor 1 AFTER the uint64
  /// list: a minor-0 client's decoder stops at the declared field
  /// count and never sees them; a minor-1 decoder treats an absent
  /// section (minor-0 server) as empty.
  struct HistogramEntry {
    std::string name;
    metrics::HistogramSnapshot histogram;
  };
  std::vector<HistogramEntry> histograms;
};

/// One uint64 field of STATS_RESULT. Its registry metric is
/// "mosaic_" + name: a counter, or a gauge for the three levels.
struct StatsField {
  enum Kind { kCounter, kGauge };
  const char* name;
  uint64_t StatsSnapshot::*member;
  Kind kind = kCounter;
};

/// Every STATS field, in wire order: the only list of them. The codec,
/// net::Server::Snapshot and `mosaic_client --stats` iterate it. New
/// fields are only ever appended (older peers skip the tail; decoders
/// leave fields an older server did not send zero).
inline constexpr StatsField kStatsFields[] = {
    {"queries_total", &StatsSnapshot::queries_total},
    {"queries_failed", &StatsSnapshot::queries_failed},
    {"reads", &StatsSnapshot::reads},
    {"writes", &StatsSnapshot::writes},
    {"sessions_opened", &StatsSnapshot::sessions_opened},
    {"sessions_closed", &StatsSnapshot::sessions_closed},
    {"result_cache_hits", &StatsSnapshot::result_cache_hits},
    {"result_cache_misses", &StatsSnapshot::result_cache_misses},
    {"result_cache_entries", &StatsSnapshot::result_cache_entries,
     StatsField::kGauge},
    {"model_cache_hits", &StatsSnapshot::model_cache_hits},
    {"model_cache_insertions", &StatsSnapshot::model_cache_insertions},
    {"connections_opened", &StatsSnapshot::connections_opened},
    {"connections_active", &StatsSnapshot::connections_active,
     StatsField::kGauge},
    {"connections_rejected", &StatsSnapshot::connections_rejected},
    {"frames_received", &StatsSnapshot::frames_received},
    {"frames_sent", &StatsSnapshot::frames_sent},
    {"protocol_errors", &StatsSnapshot::protocol_errors},
    {"weight_epochs_published", &StatsSnapshot::weight_epochs_published},
    {"weight_refits_total", &StatsSnapshot::weight_refits_total},
    {"weight_refits_skipped", &StatsSnapshot::weight_refits_skipped},
    {"weight_refits_incremental", &StatsSnapshot::weight_refits_incremental},
    {"connections_closed", &StatsSnapshot::connections_closed},
    {"malformed_frames", &StatsSnapshot::malformed_frames},
    {"inflight_highwater", &StatsSnapshot::inflight_highwater,
     StatsField::kGauge},
};

/// (name, decimal value) for every STATS field, in wire order.
std::vector<std::pair<std::string, std::string>> StatsFieldStrings(
    const StatsSnapshot& s);

std::string EncodeHelloRequest(const HelloRequest& m);
[[nodiscard]] Result<HelloRequest> DecodeHelloRequest(std::string_view payload);

std::string EncodeHelloReply(const HelloReply& m);
[[nodiscard]] Result<HelloReply> DecodeHelloReply(std::string_view payload);

/// Distributed-trace context appended (minor 2) to QUERY and BATCH.
/// All-zero means "no context"; `sampled` asks the server to collect
/// spans for the statement even when it does not trace by default.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool sampled = false;

  bool empty() const {
    return trace_id == 0 && parent_span_id == 0 && !sampled;
  }
};

/// Encoded size of a TraceContext tail (two u64 + one bool).
constexpr size_t kTraceContextBytes = 17;

/// QUERY payload: the SQL text, then (minor 2) the trace context.
struct QueryRequest {
  std::string sql;
  TraceContext trace;
};

/// BATCH payload: uint32 count + SQL strings, then (minor 2) one
/// trace context covering every statement in the batch.
struct BatchRequest {
  std::vector<std::string> sqls;
  TraceContext trace;
};

/// Legacy (minor 0/1) shape: SQL only, no trace tail. Kept for wire
/// compatibility tests and old-client emulation.
std::string EncodeQueryRequest(const std::string& sql);
std::string EncodeQueryRequest(const QueryRequest& m);
[[nodiscard]] Result<QueryRequest> DecodeQueryRequest(std::string_view payload);

std::string EncodeBatchRequest(const std::vector<std::string>& sqls);
std::string EncodeBatchRequest(const BatchRequest& m);
[[nodiscard]] Result<BatchRequest> DecodeBatchRequest(std::string_view payload);

/// RESULT payload: one QueryOutcome.
std::string EncodeResultReply(const QueryOutcome& outcome);
[[nodiscard]] Result<QueryOutcome> DecodeResultReply(std::string_view payload);

/// BATCH_RESULT payload: uint32 count + outcomes, in request order.
std::string EncodeBatchResultReply(const std::vector<QueryOutcome>& outcomes);
[[nodiscard]] Result<std::vector<QueryOutcome>> DecodeBatchResultReply(
    std::string_view payload);

std::string EncodeStatsReply(const StatsSnapshot& m);
[[nodiscard]] Result<StatsSnapshot> DecodeStatsReply(std::string_view payload);

/// ERROR payload: the Status that killed the conversation.
std::string EncodeErrorReply(const Status& status);
[[nodiscard]] Status DecodeErrorReply(std::string_view payload, Status* out);

}  // namespace net
}  // namespace mosaic

#endif  // MOSAIC_NET_PROTOCOL_H_
