// Builders for the `system.*` introspection tables. Each builder
// materializes a point-in-time snapshot of live engine state as a
// plain Table; the planner (core::Database::ExecuteSelect) then runs
// the ordinary executor over a zero-copy view of it, so system tables
// get WHERE/GROUP BY/ORDER BY for free.
//
// The builders for state that lives above core (service sessions, net
// connections, durable snapshots) are registered at startup via
// Database::RegisterSystemTable; this header only fixes their schemas
// so the tables exist (empty) even in a bare in-process Database.
#ifndef MOSAIC_CORE_SYSTEM_TABLES_H_
#define MOSAIC_CORE_SYSTEM_TABLES_H_

#include "common/query_log.h"
#include "common/status.h"
#include "core/catalog.h"
#include "storage/table.h"

namespace mosaic {
namespace core {

/// `system.queries`: the query log, denormalized one row per recorded
/// span (an untraced query contributes a single synthetic "statement"
/// row carrying its totals), so span-level SQL like
/// `SELECT span, duration_us FROM system.queries` works directly.
/// Per-query resource totals repeat on each of the query's rows.
[[nodiscard]] Result<Table> BuildQueriesTable(const qlog::QueryLog& log);

/// `system.metrics`: one row per registry metric, name-sorted;
/// histograms expand to _count/_mean/_p50/_p95/_p99 rows. SHOW
/// METRICS is sugar over this.
[[nodiscard]] Result<Table> BuildMetricsTable();

/// `system.weight_epochs`: one row per sample of `catalog`, read from
/// the epoch it pins — sample, epoch_id, rows (weights in the epoch),
/// fit_kind (the fit signature's prefix: ipf-gp, ipf-pop,
/// mech-uniform, mech-strat, or empty for an unfitted epoch),
/// fit_error (max normalized L1 marginal error at exit),
/// fit_uncovered (averaged uncovered target mass) and converged (0/1).
/// The caller keeps the sample set fixed while it runs.
[[nodiscard]] Result<Table> BuildWeightEpochsTable(Catalog* catalog);

/// Empty tables fixing the schemas of the externally-provided
/// system tables (overridden by the service and network layers).
[[nodiscard]] Result<Table> EmptySessionsTable();
[[nodiscard]] Result<Table> EmptyConnectionsTable();
[[nodiscard]] Result<Table> EmptySnapshotsTable();

}  // namespace core
}  // namespace mosaic

#endif  // MOSAIC_CORE_SYSTEM_TABLES_H_
