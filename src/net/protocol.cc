#include "net/protocol.h"

#include <iterator>

namespace mosaic {
namespace net {

namespace {

/// Highest valid StatusCode, for decoding.
constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(
    StatusCode::kNotConverged);

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
  ByteWriter w;
  w.Reserve(kFrameLengthBytes + length);
  w.PutU32(length);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutBytes(payload.data(), payload.size());
  return w.Take();
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
  ByteReader prefix(std::string_view(buf_).substr(pos_, kFrameLengthBytes));
  MOSAIC_ASSIGN_OR_RETURN(const uint32_t length, prefix.ReadU32());
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
// Status / QueryOutcome
// ---------------------------------------------------------------------------

void EncodeStatus(const Status& s, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(s.code()));
  w->PutString(s.message());
}

[[nodiscard]] Status DecodeStatus(ByteReader* r, Status* out) {
  MOSAIC_ASSIGN_OR_RETURN(uint8_t code, r->ReadU8());
  if (code > kMaxStatusCode) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(code));
  }
  MOSAIC_ASSIGN_OR_RETURN(std::string msg, r->ReadString());
  *out = Status(static_cast<StatusCode>(code), std::move(msg));
  return Status::OK();
}

void EncodeQueryOutcome(const QueryOutcome& o, ByteWriter* w) {
  EncodeQueryOutcome(o.status, o.table, w);
}

void EncodeQueryOutcome(const Status& status, const Table& table,
                        ByteWriter* w) {
  w->PutBool(status.ok());
  if (status.ok()) {
    EncodeTable(table, w);
  } else {
    EncodeStatus(status, w);
  }
}

[[nodiscard]] Result<QueryOutcome> DecodeQueryOutcome(ByteReader* r) {
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
  ByteWriter w;
  w.PutU32(m.version);
  w.PutString(m.client_name);
  return w.Take();
}

[[nodiscard]] Result<HelloRequest> DecodeHelloRequest(std::string_view payload) {
  ByteReader r(payload);
  HelloRequest m;
  MOSAIC_ASSIGN_OR_RETURN(m.version, r.ReadU32());
  MOSAIC_ASSIGN_OR_RETURN(m.client_name, r.ReadString());
  return m;
}

std::string EncodeHelloReply(const HelloReply& m) {
  ByteWriter w;
  w.PutU32(m.version);
  w.PutU64(m.session_id);
  w.PutString(m.server_name);
  w.PutU32(m.minor_version);
  return w.Take();
}

[[nodiscard]] Result<HelloReply> DecodeHelloReply(std::string_view payload) {
  ByteReader r(payload);
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
void PutTraceContext(const TraceContext& ctx, ByteWriter* w) {
  if (ctx.empty()) return;
  w->PutU64(ctx.trace_id);
  w->PutU64(ctx.parent_span_id);
  w->PutBool(ctx.sampled);
}

/// Minor-2 tail rule: nothing after the prefix means "no trace
/// context" (a minor-0/1 peer sent the frame); a partial tail is a
/// protocol error, never silently zero-filled.
[[nodiscard]] Status ReadTraceContextTail(ByteReader* r, TraceContext* out) {
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
  ByteWriter w;
  w.PutString(sql);
  return w.Take();
}

std::string EncodeQueryRequest(const QueryRequest& m) {
  ByteWriter w;
  w.PutString(m.sql);
  PutTraceContext(m.trace, &w);
  return w.Take();
}

[[nodiscard]] Result<QueryRequest> DecodeQueryRequest(std::string_view payload) {
  ByteReader r(payload);
  QueryRequest m;
  MOSAIC_ASSIGN_OR_RETURN(m.sql, r.ReadString());
  MOSAIC_RETURN_IF_ERROR(ReadTraceContextTail(&r, &m.trace));
  return m;
}

std::string EncodeBatchRequest(const std::vector<std::string>& sqls) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(sqls.size()));
  for (const auto& sql : sqls) w.PutString(sql);
  return w.Take();
}

std::string EncodeBatchRequest(const BatchRequest& m) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(m.sqls.size()));
  for (const auto& sql : m.sqls) w.PutString(sql);
  PutTraceContext(m.trace, &w);
  return w.Take();
}

[[nodiscard]] Result<BatchRequest> DecodeBatchRequest(std::string_view payload) {
  ByteReader r(payload);
  MOSAIC_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  MOSAIC_RETURN_IF_ERROR(r.CheckCount(count, 4, "batch"));
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
  ByteWriter w;
  EncodeQueryOutcome(outcome, &w);
  return w.Take();
}

[[nodiscard]] Result<QueryOutcome> DecodeResultReply(std::string_view payload) {
  ByteReader r(payload);
  return DecodeQueryOutcome(&r);
}

std::string EncodeBatchResultReply(
    const std::vector<QueryOutcome>& outcomes) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(outcomes.size()));
  for (const auto& o : outcomes) EncodeQueryOutcome(o, &w);
  return w.Take();
}

[[nodiscard]] Result<std::vector<QueryOutcome>> DecodeBatchResultReply(
    std::string_view payload) {
  ByteReader r(payload);
  MOSAIC_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  MOSAIC_RETURN_IF_ERROR(r.CheckCount(count, 1, "batch result"));
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
                             ByteWriter* w) {
  w->PutString(name);
  w->PutU64(h.sum);
  w->PutU32(static_cast<uint32_t>(h.buckets.size()));
  for (uint64_t b : h.buckets) w->PutU64(b);
}

[[nodiscard]] Result<StatsSnapshot::HistogramEntry> DecodeHistogramSnapshot(
    ByteReader* r) {
  StatsSnapshot::HistogramEntry e;
  MOSAIC_ASSIGN_OR_RETURN(e.name, r->ReadString());
  MOSAIC_ASSIGN_OR_RETURN(e.histogram.sum, r->ReadU64());
  MOSAIC_ASSIGN_OR_RETURN(uint32_t num_buckets, r->ReadU32());
  MOSAIC_RETURN_IF_ERROR(r->CheckCount(num_buckets, 8, "histogram bucket"));
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
  ByteWriter w;
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
  ByteReader r(payload);
  MOSAIC_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  MOSAIC_RETURN_IF_ERROR(r.CheckCount(count, 8, "stats field"));
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
  // bucket count).
  MOSAIC_RETURN_IF_ERROR(r.CheckCount(num_histograms, 16, "histogram"));
  m.histograms.reserve(num_histograms);
  for (uint32_t i = 0; i < num_histograms; ++i) {
    MOSAIC_ASSIGN_OR_RETURN(StatsSnapshot::HistogramEntry e,
                            DecodeHistogramSnapshot(&r));
    m.histograms.push_back(std::move(e));
  }
  return m;
}

std::string EncodeErrorReply(const Status& status) {
  ByteWriter w;
  EncodeStatus(status, &w);
  return w.Take();
}

[[nodiscard]] Status DecodeErrorReply(std::string_view payload, Status* out) {
  ByteReader r(payload);
  return DecodeStatus(&r, out);
}

}  // namespace net
}  // namespace mosaic
