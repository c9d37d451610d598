#include "net/protocol.h"

#include <cstring>
#include <iterator>

#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/schema.h"

namespace mosaic {
namespace net {

namespace {

[[nodiscard]] Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated frame: ") + what);
}

/// Highest valid StatusCode, for decoding.
constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(
    StatusCode::kNotConverged);

/// Highest valid DataType tag, for decoding.
constexpr uint8_t kMaxDataTypeTag = static_cast<uint8_t>(DataType::kBool);

}  // namespace

bool IsKnownMessageType(uint8_t tag) {
  switch (static_cast<MessageType>(tag)) {
    case MessageType::kHello:
    case MessageType::kQuery:
    case MessageType::kBatch:
    case MessageType::kStats:
    case MessageType::kClose:
    case MessageType::kHelloOk:
    case MessageType::kResult:
    case MessageType::kBatchResult:
    case MessageType::kStatsResult:
    case MessageType::kGoodbye:
    case MessageType::kError:
      return true;
  }
  return false;
}

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kHello:
      return "HELLO";
    case MessageType::kQuery:
      return "QUERY";
    case MessageType::kBatch:
      return "BATCH";
    case MessageType::kStats:
      return "STATS";
    case MessageType::kClose:
      return "CLOSE";
    case MessageType::kHelloOk:
      return "HELLO_OK";
    case MessageType::kResult:
      return "RESULT";
    case MessageType::kBatchResult:
      return "BATCH_RESULT";
    case MessageType::kStatsResult:
      return "STATS_RESULT";
    case MessageType::kGoodbye:
      return "GOODBYE";
    case MessageType::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

std::string EncodeFrame(MessageType type, std::string_view payload) {
  const uint32_t length = static_cast<uint32_t>(payload.size() + 1);
  std::string out;
  out.reserve(kFrameLengthBytes + length);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((length >> (8 * i)) & 0xff));
  }
  out.push_back(static_cast<char>(type));
  out.append(payload.data(), payload.size());
  return out;
}

void FrameReader::Feed(const char* data, size_t n) {
  // Compact lazily: drop consumed bytes once they dominate the buffer
  // so long-lived connections do not grow without bound.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

Result<bool> FrameReader::Next(Frame* frame) {
  if (!error_.ok()) return error_;
  if (buffered() < kFrameLengthBytes) return false;
  // This *is* the bounds-checked cursor: buffered() was tested
  // against kFrameLengthBytes above.
  const unsigned char* p = reinterpret_cast<const unsigned char*>(
      buf_.data() + pos_);  // lint:allow wire-pointer-arith: see above
  const uint32_t length = static_cast<uint32_t>(p[0]) |
                          (static_cast<uint32_t>(p[1]) << 8) |
                          (static_cast<uint32_t>(p[2]) << 16) |
                          (static_cast<uint32_t>(p[3]) << 24);
  if (length == 0) {
    error_ = Status::InvalidArgument("frame length 0: missing type tag");
    return error_;
  }
  if (length > kMaxFrameBytes) {
    error_ = Status::InvalidArgument(
        "frame length " + std::to_string(length) + " exceeds limit " +
        std::to_string(kMaxFrameBytes));
    return error_;
  }
  if (buffered() < kFrameLengthBytes + length) return false;
  frame->type =
      static_cast<MessageType>(buf_[pos_ + kFrameLengthBytes]);
  frame->payload.assign(buf_, pos_ + kFrameLengthBytes + 1, length - 1);
  pos_ += kFrameLengthBytes + length;
  return true;
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

void WireWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

Status WireReader::Need(size_t n, const char* what) {
  if (remaining() < n) return Truncated(what);
  return Status::OK();
}

Result<uint8_t> WireReader::ReadU8() {
  MOSAIC_RETURN_IF_ERROR(Need(1, "u8"));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<bool> WireReader::ReadBool() {
  MOSAIC_ASSIGN_OR_RETURN(uint8_t v, ReadU8());
  return v != 0;
}

Result<uint32_t> WireReader::ReadU32() {
  MOSAIC_RETURN_IF_ERROR(Need(4, "u32"));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> WireReader::ReadU64() {
  MOSAIC_RETURN_IF_ERROR(Need(8, "u64"));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> WireReader::ReadI64() {
  MOSAIC_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> WireReader::ReadDouble() {
  MOSAIC_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> WireReader::ReadString() {
  MOSAIC_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  // The declared length must be covered by bytes already present —
  // never allocate on the strength of an unverified prefix.
  MOSAIC_RETURN_IF_ERROR(Need(len, "string body"));
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

// ---------------------------------------------------------------------------
// Value / Status
// ---------------------------------------------------------------------------

void EncodeValue(const Value& v, WireWriter* w) {
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

[[nodiscard]] Result<Value> DecodeValue(WireReader* r) {
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

void EncodeStatus(const Status& s, WireWriter* w) {
  w->PutU8(static_cast<uint8_t>(s.code()));
  w->PutString(s.message());
}

[[nodiscard]] Status DecodeStatus(WireReader* r, Status* out) {
  MOSAIC_ASSIGN_OR_RETURN(uint8_t code, r->ReadU8());
  if (code > kMaxStatusCode) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(code));
  }
  MOSAIC_ASSIGN_OR_RETURN(std::string msg, r->ReadString());
  *out = Status(static_cast<StatusCode>(code), std::move(msg));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

void EncodeTable(const Table& t, WireWriter* w) {
  const Schema& schema = t.schema();
  w->PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    w->PutString(schema.column(c).name);
    w->PutU8(static_cast<uint8_t>(schema.column(c).type));
  }
  w->PutU64(t.num_rows());
  const size_t n = t.num_rows();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const Column& col = t.column(c);
    switch (col.type()) {
      case DataType::kInt64:
        for (size_t i = 0; i < n; ++i) w->PutI64(col.raw_int64()[i]);
        break;
      case DataType::kDouble:
        for (size_t i = 0; i < n; ++i) w->PutDouble(col.raw_double()[i]);
        break;
      case DataType::kBool:
        for (size_t i = 0; i < n; ++i) w->PutU8(col.raw_bool()[i]);
        break;
      case DataType::kString: {
        const Dictionary& dict = col.dictionary();
        w->PutU32(static_cast<uint32_t>(dict.size()));
        for (const std::string& s : dict.values()) w->PutString(s);
        for (size_t i = 0; i < n; ++i) {
          w->PutU32(static_cast<uint32_t>(col.raw_codes()[i]));
        }
        break;
      }
      case DataType::kNull:
        break;  // unreachable: columns are typed
    }
  }
}

[[nodiscard]] Result<Table> DecodeTable(WireReader* r) {
  MOSAIC_ASSIGN_OR_RETURN(uint32_t num_columns, r->ReadU32());
  // Each declared column costs at least 5 bytes (empty name + type),
  // so a count the payload cannot hold is rejected up front.
  if (num_columns > r->remaining() / 5) {
    return Status::InvalidArgument("column count exceeds payload");
  }
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
  MOSAIC_ASSIGN_OR_RETURN(uint64_t num_rows, r->ReadU64());
  // No row can be narrower than one byte per column, so anything the
  // remaining payload cannot possibly cover is malformed — this keeps
  // hostile row counts from driving the resize calls below.
  if (num_columns > 0 && num_rows > r->remaining()) {
    return Status::InvalidArgument("row count exceeds payload");
  }
  if (num_columns == 0 && num_rows > 0) {
    return Status::InvalidArgument("rows declared for zero columns");
  }
  const size_t n = static_cast<size_t>(num_rows);
  std::vector<Column> columns;
  columns.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    switch (schema.column(c).type) {
      case DataType::kInt64: {
        if (r->remaining() < n * 8) return Truncated("int64 column");
        AlignedVector<int64_t> vals(n);
        for (size_t i = 0; i < n; ++i) {
          MOSAIC_ASSIGN_OR_RETURN(vals[i], r->ReadI64());
        }
        columns.push_back(Column::FromInt64(std::move(vals)));
        break;
      }
      case DataType::kDouble: {
        if (r->remaining() < n * 8) return Truncated("double column");
        AlignedVector<double> vals(n);
        for (size_t i = 0; i < n; ++i) {
          MOSAIC_ASSIGN_OR_RETURN(vals[i], r->ReadDouble());
        }
        columns.push_back(Column::FromDouble(std::move(vals)));
        break;
      }
      case DataType::kBool: {
        if (r->remaining() < n) return Truncated("bool column");
        AlignedVector<uint8_t> vals(n);
        for (size_t i = 0; i < n; ++i) {
          MOSAIC_ASSIGN_OR_RETURN(vals[i], r->ReadU8());
        }
        columns.push_back(Column::FromBool(std::move(vals)));
        break;
      }
      case DataType::kString: {
        MOSAIC_ASSIGN_OR_RETURN(uint32_t dict_size, r->ReadU32());
        if (dict_size > r->remaining() / 4) {
          return Status::InvalidArgument("dictionary size exceeds payload");
        }
        auto dict = std::make_shared<Dictionary>();
        for (uint32_t d = 0; d < dict_size; ++d) {
          MOSAIC_ASSIGN_OR_RETURN(std::string s, r->ReadString());
          if (dict->GetOrInsert(s) != static_cast<int32_t>(d)) {
            return Status::InvalidArgument(
                "duplicate dictionary entry '" + s + "'");
          }
        }
        if (r->remaining() < n * 4) return Truncated("string codes");
        AlignedVector<int32_t> codes(n);
        for (size_t i = 0; i < n; ++i) {
          MOSAIC_ASSIGN_OR_RETURN(uint32_t code, r->ReadU32());
          if (code >= dict_size) {
            return Status::InvalidArgument(
                "dictionary code " + std::to_string(code) +
                " out of range (dictionary has " +
                std::to_string(dict_size) + " entries)");
          }
          codes[i] = static_cast<int32_t>(code);
        }
        columns.push_back(Column::FromCodes(std::move(dict),
                                            std::move(codes)));
        break;
      }
      case DataType::kNull:
        return Status::Internal("unreachable column type");
    }
  }
  return Table(std::move(schema), std::move(columns), n);
}

void EncodeQueryOutcome(const QueryOutcome& o, WireWriter* w) {
  EncodeQueryOutcome(o.status, o.table, w);
}

void EncodeQueryOutcome(const Status& status, const Table& table,
                        WireWriter* w) {
  w->PutBool(status.ok());
  if (status.ok()) {
    EncodeTable(table, w);
  } else {
    EncodeStatus(status, w);
  }
}

[[nodiscard]] Result<QueryOutcome> DecodeQueryOutcome(WireReader* r) {
  MOSAIC_ASSIGN_OR_RETURN(bool ok, r->ReadBool());
  QueryOutcome outcome;
  if (ok) {
    MOSAIC_ASSIGN_OR_RETURN(outcome.table, DecodeTable(r));
  } else {
    MOSAIC_RETURN_IF_ERROR(DecodeStatus(r, &outcome.status));
    if (outcome.status.ok()) {
      return Status::InvalidArgument("failed outcome carries OK status");
    }
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

std::string EncodeHelloRequest(const HelloRequest& m) {
  WireWriter w;
  w.PutU32(m.version);
  w.PutString(m.client_name);
  return w.Take();
}

[[nodiscard]] Result<HelloRequest> DecodeHelloRequest(std::string_view payload) {
  WireReader r(payload);
  HelloRequest m;
  MOSAIC_ASSIGN_OR_RETURN(m.version, r.ReadU32());
  MOSAIC_ASSIGN_OR_RETURN(m.client_name, r.ReadString());
  return m;
}

std::string EncodeHelloReply(const HelloReply& m) {
  WireWriter w;
  w.PutU32(m.version);
  w.PutU64(m.session_id);
  w.PutString(m.server_name);
  w.PutU32(m.minor_version);
  return w.Take();
}

[[nodiscard]] Result<HelloReply> DecodeHelloReply(std::string_view payload) {
  WireReader r(payload);
  HelloReply m;
  MOSAIC_ASSIGN_OR_RETURN(m.version, r.ReadU32());
  MOSAIC_ASSIGN_OR_RETURN(m.session_id, r.ReadU64());
  MOSAIC_ASSIGN_OR_RETURN(m.server_name, r.ReadString());
  // Minor-0 servers end the payload here.
  m.minor_version = 0;
  if (r.remaining() >= 4) {
    MOSAIC_ASSIGN_OR_RETURN(m.minor_version, r.ReadU32());
  }
  return m;
}

namespace {

/// An empty context encodes as no tail at all, so untraced minor-2
/// frames are byte-identical to what a minor-0/1 client sends — old
/// servers accept them unchanged.
void PutTraceContext(const TraceContext& ctx, WireWriter* w) {
  if (ctx.empty()) return;
  w->PutU64(ctx.trace_id);
  w->PutU64(ctx.parent_span_id);
  w->PutBool(ctx.sampled);
}

/// Minor-2 tail rule: nothing after the prefix means "no trace
/// context" (a minor-0/1 peer sent the frame); a partial tail is a
/// protocol error, never silently zero-filled.
[[nodiscard]] Status ReadTraceContextTail(WireReader* r, TraceContext* out) {
  if (r->AtEnd()) {
    *out = TraceContext();
    return Status::OK();
  }
  if (r->remaining() < kTraceContextBytes) {
    return Status::InvalidArgument("truncated trace context tail");
  }
  MOSAIC_ASSIGN_OR_RETURN(out->trace_id, r->ReadU64());
  MOSAIC_ASSIGN_OR_RETURN(out->parent_span_id, r->ReadU64());
  MOSAIC_ASSIGN_OR_RETURN(out->sampled, r->ReadBool());
  // Anything further is a future minor's appended tail: ignored.
  return Status::OK();
}

}  // namespace

std::string EncodeQueryRequest(const std::string& sql) {
  WireWriter w;
  w.PutString(sql);
  return w.Take();
}

std::string EncodeQueryRequest(const QueryRequest& m) {
  WireWriter w;
  w.PutString(m.sql);
  PutTraceContext(m.trace, &w);
  return w.Take();
}

[[nodiscard]] Result<QueryRequest> DecodeQueryRequest(std::string_view payload) {
  WireReader r(payload);
  QueryRequest m;
  MOSAIC_ASSIGN_OR_RETURN(m.sql, r.ReadString());
  MOSAIC_RETURN_IF_ERROR(ReadTraceContextTail(&r, &m.trace));
  return m;
}

std::string EncodeBatchRequest(const std::vector<std::string>& sqls) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(sqls.size()));
  for (const auto& sql : sqls) w.PutString(sql);
  return w.Take();
}

std::string EncodeBatchRequest(const BatchRequest& m) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(m.sqls.size()));
  for (const auto& sql : m.sqls) w.PutString(sql);
  PutTraceContext(m.trace, &w);
  return w.Take();
}

[[nodiscard]] Result<BatchRequest> DecodeBatchRequest(std::string_view payload) {
  WireReader r(payload);
  MOSAIC_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  if (count > r.remaining() / 4) {
    return Status::InvalidArgument("batch count exceeds payload");
  }
  BatchRequest m;
  m.sqls.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    MOSAIC_ASSIGN_OR_RETURN(std::string sql, r.ReadString());
    m.sqls.push_back(std::move(sql));
  }
  MOSAIC_RETURN_IF_ERROR(ReadTraceContextTail(&r, &m.trace));
  return m;
}

std::string EncodeResultReply(const QueryOutcome& outcome) {
  WireWriter w;
  EncodeQueryOutcome(outcome, &w);
  return w.Take();
}

[[nodiscard]] Result<QueryOutcome> DecodeResultReply(std::string_view payload) {
  WireReader r(payload);
  return DecodeQueryOutcome(&r);
}

std::string EncodeBatchResultReply(
    const std::vector<QueryOutcome>& outcomes) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(outcomes.size()));
  for (const auto& o : outcomes) EncodeQueryOutcome(o, &w);
  return w.Take();
}

[[nodiscard]] Result<std::vector<QueryOutcome>> DecodeBatchResultReply(
    std::string_view payload) {
  WireReader r(payload);
  MOSAIC_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  if (count > r.remaining()) {
    return Status::InvalidArgument("batch result count exceeds payload");
  }
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    MOSAIC_ASSIGN_OR_RETURN(QueryOutcome o, DecodeQueryOutcome(&r));
    outcomes.push_back(std::move(o));
  }
  return outcomes;
}

namespace {

/// Histogram codec (name + sum + buckets; the sample count is derived
/// from the bucket totals on decode).
void EncodeHistogramSnapshot(const std::string& name,
                             const metrics::HistogramSnapshot& h,
                             WireWriter* w) {
  w->PutString(name);
  w->PutU64(h.sum);
  w->PutU32(static_cast<uint32_t>(h.buckets.size()));
  for (uint64_t b : h.buckets) w->PutU64(b);
}

[[nodiscard]] Result<StatsSnapshot::HistogramEntry> DecodeHistogramSnapshot(
    WireReader* r) {
  StatsSnapshot::HistogramEntry e;
  MOSAIC_ASSIGN_OR_RETURN(e.name, r->ReadString());
  MOSAIC_ASSIGN_OR_RETURN(e.histogram.sum, r->ReadU64());
  MOSAIC_ASSIGN_OR_RETURN(uint32_t num_buckets, r->ReadU32());
  if (static_cast<uint64_t>(num_buckets) * 8 > r->remaining()) {
    return Status::InvalidArgument("histogram bucket count exceeds payload");
  }
  e.histogram.buckets.resize(num_buckets);
  e.histogram.count = 0;
  for (uint32_t i = 0; i < num_buckets; ++i) {
    MOSAIC_ASSIGN_OR_RETURN(e.histogram.buckets[i], r->ReadU64());
    // The total is derived, never trusted from the wire: a hostile
    // count cannot contradict the buckets it claims to summarize.
    e.histogram.count += e.histogram.buckets[i];
  }
  return e;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> StatsFieldStrings(
    const StatsSnapshot& s) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const StatsField& f : kStatsFields) {
    out.emplace_back(f.name, std::to_string(s.*f.member));
  }
  return out;
}

std::string EncodeStatsReply(const StatsSnapshot& m) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(std::size(kStatsFields)));
  for (const StatsField& f : kStatsFields) w.PutU64(m.*f.member);
  // Histogram section (minor 1), after the uint64 list: a minor-0
  // decoder reads its declared field count and ignores the rest.
  w.PutU32(static_cast<uint32_t>(m.histograms.size()));
  for (const auto& e : m.histograms) {
    EncodeHistogramSnapshot(e.name, e.histogram, &w);
  }
  return w.Take();
}

[[nodiscard]] Result<StatsSnapshot> DecodeStatsReply(std::string_view payload) {
  WireReader r(payload);
  MOSAIC_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  if (static_cast<uint64_t>(count) * 8 > r.remaining()) {
    return Status::InvalidArgument("stats field count exceeds payload");
  }
  StatsSnapshot m;
  for (uint32_t i = 0; i < count; ++i) {
    MOSAIC_ASSIGN_OR_RETURN(uint64_t v, r.ReadU64());
    // Unknown trailing fields from a newer server are skipped.
    if (i < std::size(kStatsFields)) m.*kStatsFields[i].member = v;
  }
  // Histogram section: absent entirely from a minor-0 server.
  if (r.AtEnd()) return m;
  MOSAIC_ASSIGN_OR_RETURN(uint32_t num_histograms, r.ReadU32());
  // Each histogram costs at least 16 bytes (empty name + sum +
  // bucket count), so a count the payload cannot hold is rejected
  // before any allocation.
  if (num_histograms > r.remaining() / 16) {
    return Status::InvalidArgument("histogram count exceeds payload");
  }
  m.histograms.reserve(num_histograms);
  for (uint32_t i = 0; i < num_histograms; ++i) {
    MOSAIC_ASSIGN_OR_RETURN(StatsSnapshot::HistogramEntry e,
                            DecodeHistogramSnapshot(&r));
    m.histograms.push_back(std::move(e));
  }
  return m;
}

std::string EncodeErrorReply(const Status& status) {
  WireWriter w;
  EncodeStatus(status, &w);
  return w.Take();
}

[[nodiscard]] Status DecodeErrorReply(std::string_view payload, Status* out) {
  WireReader r(payload);
  return DecodeStatus(&r, out);
}

}  // namespace net
}  // namespace mosaic
