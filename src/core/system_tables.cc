#include "core/system_tables.h"

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/semi_open.h"

namespace mosaic {
namespace core {

namespace {

std::string TraceIdHex(uint64_t trace_id) {
  if (trace_id == 0) return "";
  return StrFormat("%016llx", static_cast<unsigned long long>(trace_id));
}

}  // namespace

[[nodiscard]] Result<Table> BuildQueriesTable(const qlog::QueryLog& log) {
  // The system tables' schemas are fixed, with column names distinct by
  // construction.
  Table out(Schema({{"query_id", DataType::kInt64},
                    {"session_id", DataType::kInt64},
                    {"trace_id", DataType::kString},
                    {"sql", DataType::kString},
                    {"status", DataType::kString},
                    {"cache_hit", DataType::kInt64},
                    {"wall_us", DataType::kInt64},
                    {"cpu_us", DataType::kInt64},
                    {"rows_scanned", DataType::kInt64},
                    {"rows_produced", DataType::kInt64},
                    {"epoch_pins", DataType::kInt64},
                    {"simd_isa", DataType::kString},
                    {"span", DataType::kString},
                    {"span_id", DataType::kInt64},
                    {"parent_id", DataType::kInt64},
                    {"start_us", DataType::kInt64},
                    {"duration_us", DataType::kInt64},
                    {"span_cpu_us", DataType::kInt64},
                    {"detail", DataType::kString}}));
  for (const qlog::QueryRecord& rec : log.Snapshot()) {
    auto append_span = [&](const std::string& span, int64_t span_id,
                           int64_t parent_id, int64_t start_us,
                           int64_t duration_us, int64_t span_cpu_us,
                           const std::string& detail) {
      return out.AppendRow(
          {Value(static_cast<int64_t>(rec.query_id)),
           Value(static_cast<int64_t>(rec.session_id)),
           Value(TraceIdHex(rec.trace_id)), Value(rec.sql),
           Value(rec.status), Value(static_cast<int64_t>(rec.cache_hit)),
           Value(static_cast<int64_t>(rec.wall_us)),
           Value(static_cast<int64_t>(rec.cpu_ns / 1000)),
           Value(static_cast<int64_t>(rec.rows_scanned)),
           Value(static_cast<int64_t>(rec.rows_produced)),
           Value(static_cast<int64_t>(rec.epoch_pins)), Value(rec.simd_isa),
           Value(span), Value(span_id), Value(parent_id), Value(start_us),
           Value(duration_us), Value(span_cpu_us), Value(detail)});
    };
    if (rec.spans.empty()) {
      // Untraced: one synthetic row carrying the statement totals.
      MOSAIC_RETURN_IF_ERROR(append_span(
          "statement", 0, 0, 0, static_cast<int64_t>(rec.wall_us),
          static_cast<int64_t>(rec.cpu_ns / 1000), ""));
      continue;
    }
    for (const qlog::RecordSpan& span : rec.spans) {
      MOSAIC_RETURN_IF_ERROR(append_span(
          span.name, static_cast<int64_t>(span.id),
          static_cast<int64_t>(span.parent),
          static_cast<int64_t>(span.start_us),
          static_cast<int64_t>(span.duration_us),
          static_cast<int64_t>(span.cpu_ns / 1000), span.note));
    }
  }
  return out;
}

[[nodiscard]] Result<Table> BuildMetricsTable() {
  Table out(
      Schema({{"metric", DataType::kString}, {"value", DataType::kDouble}}));
  auto& registry = metrics::Registry::Global();
  for (const auto& [name, value] : registry.CounterValues()) {
    MOSAIC_RETURN_IF_ERROR(
        out.AppendRow({Value(name), Value(static_cast<double>(value))}));
  }
  for (const auto& [name, value] : registry.GaugeValues()) {
    MOSAIC_RETURN_IF_ERROR(
        out.AppendRow({Value(name), Value(static_cast<double>(value))}));
  }
  for (const auto& [name, snap] : registry.HistogramSnapshots()) {
    MOSAIC_RETURN_IF_ERROR(out.AppendRow(
        {Value(name + "_count"), Value(static_cast<double>(snap.count))}));
    MOSAIC_RETURN_IF_ERROR(
        out.AppendRow({Value(name + "_mean"), Value(snap.Mean())}));
    MOSAIC_RETURN_IF_ERROR(out.AppendRow(
        {Value(name + "_p50"), Value(snap.Quantile(0.50))}));
    MOSAIC_RETURN_IF_ERROR(out.AppendRow(
        {Value(name + "_p95"), Value(snap.Quantile(0.95))}));
    MOSAIC_RETURN_IF_ERROR(out.AppendRow(
        {Value(name + "_p99"), Value(snap.Quantile(0.99))}));
  }
  return out;
}

[[nodiscard]] Result<Table> BuildWeightEpochsTable(Catalog* catalog) {
  Table out(Schema({{"sample", DataType::kString},
                    {"epoch_id", DataType::kInt64},
                    {"rows", DataType::kInt64},
                    {"fit_kind", DataType::kString},
                    {"fit_error", DataType::kDouble},
                    {"fit_uncovered", DataType::kDouble},
                    {"converged", DataType::kInt64}}));
  for (const std::string& name : catalog->SampleNames()) {
    MOSAIC_ASSIGN_OR_RETURN(SampleInfo* sample, catalog->GetSample(name));
    const WeightEpochPtr epoch = sample->weights.Pin();
    const WeightEpoch& e = *epoch;
    MOSAIC_RETURN_IF_ERROR(out.AppendRow(
        {Value(name), Value(static_cast<int64_t>(e.id)),
         Value(static_cast<int64_t>(e.weights.size())),
         Value(FitKind(e.fit_signature)),
         Value(e.fit_error), Value(e.fit_uncovered),
         Value(static_cast<int64_t>(e.fit_converged ? 1 : 0))}));
  }
  return out;
}

[[nodiscard]] Result<Table> EmptySessionsTable() {
  return Table(Schema({{"session_id", DataType::kInt64},
                       {"queries_submitted", DataType::kInt64}}));
}

[[nodiscard]] Result<Table> EmptyConnectionsTable() {
  return Table(Schema({{"conn_id", DataType::kInt64},
                       {"session_id", DataType::kInt64},
                       {"inflight", DataType::kInt64}}));
}

[[nodiscard]] Result<Table> EmptySnapshotsTable() {
  return Table(Schema({{"file", DataType::kString},
                       {"next_wal_seq", DataType::kInt64},
                       {"bytes", DataType::kInt64}}));
}

}  // namespace core
}  // namespace mosaic
