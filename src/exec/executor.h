// SELECT execution over a single in-memory table, with optional
// per-tuple weights.
//
// Weighted aggregation implements the paper's §5.3 rewrite: "To run
// the aggregate queries over a weighted sample, we simply modify the
// aggregate to be over a weight attribute (e.g. COUNT(*) becomes
// SUM(weight))":
//
//   COUNT(*)  -> SUM(w)
//   COUNT(e)  -> SUM(w)            (columns are non-nullable)
//   SUM(e)    -> SUM(w * e)
//   AVG(e)    -> SUM(w * e) / SUM(w)
//   MIN/MAX   -> unchanged (weights do not affect extrema)
//
// The engine-managed weight column is hidden from `SELECT *`.
//
// Production runs one pipeline; a test-only oracle checks it:
//
//   batch — vectorized columnar pipeline over TableView +
//     SelectionVector: WHERE predicates refine selection vectors in
//     typed kernels (dictionary-code compares for strings), GROUP BY
//     is a flat hash aggregation keyed on packed per-column group
//     codes (densified into first-seen ids whenever the packed code
//     space would pass 2^62, so every plan runs here), aggregates
//     accumulate over selected spans in tight loops, and ORDER BY
//     sorts precomputed typed keys (partial_sort when LIMIT is
//     present). Every step is a per-morsel body plus an in-order
//     merge (exec/morsel.h): with ExecOptions::morsels off the
//     selection is one morsel and nothing merges; with it on, the
//     selection splits into fixed-size morsels run on a shared
//     thread pool, bit-identical at every morsel size and thread
//     count (enforced by tests/test_sql_fuzz.cc).
//   row (parity oracle) — the original Value-at-a-time interpreter,
//     reached only through ExecOptions::use_row_path, which tests and
//     the executor bench set for differential checks
//     (tests/test_exec_parity.cc). Bit-identical to the batch path.
//
// Thread-safety contract: every function here is a pure function of
// its inputs — no globals, no caches — so concurrent calls over
// tables that no writer is mutating are safe. The query service's
// shared-lock read path and the parallel OPEN generation tasks both
// depend on this.
#ifndef MOSAIC_EXEC_EXECUTOR_H_
#define MOSAIC_EXEC_EXECUTOR_H_

#include <string>

#include "common/status.h"
#include "common/trace.h"
#include "exec/morsel.h"
#include "sql/ast.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace mosaic {
namespace exec {

struct ExecOptions {
  /// Name of the weight column in the source table; empty = every
  /// tuple has weight 1 (plain SQL).
  std::string weight_column;
  /// Run the legacy row-at-a-time interpreter instead of the batch
  /// pipeline. Results are bit-identical; the row path is the parity
  /// oracle for tests and never runs otherwise.
  bool use_row_path = false;
  /// Morsel split of the batch pipeline: when morsels.morsel_size > 0
  /// the selection vector is split into morsels whose WHERE kernels,
  /// expression evaluation, and exact aggregate partials run per
  /// morsel (on morsels.pool when set) and merge in deterministic
  /// morsel order; 0 runs the selection as one morsel. Results are
  /// bit-identical at every morsel size and thread count; float sums
  /// reduce serially in selection order to keep the rounding
  /// independent of the split (see exec/morsel.h).
  MorselOptions morsels;
  /// Per-query trace to record execution spans (filter, aggregate,
  /// sort, materialize, per-morsel work) into; null = tracing off,
  /// and the instrumented paths cost two branches and no clock read.
  /// Tracing never changes results — enforced by the fuzzer's traced
  /// leg (scripts/check.sh).
  trace::QueryTrace* trace = nullptr;
  /// Span id the executor's spans hang under (kNoParent when the
  /// caller has no enclosing span).
  uint32_t trace_parent = 0;
};

/// Execute `stmt` against `source`. `stmt.from` is ignored — the
/// caller has already resolved the relation (Mosaic's core engine
/// routes population queries to reweighted/generated tables first).
[[nodiscard]] Result<Table> ExecuteSelect(const Table& source, const sql::SelectStmt& stmt,
                            const ExecOptions& opts = {});

/// Execute `stmt` against a zero-copy view restricted to `sel` —
/// the core engine answers population queries this way without
/// materializing the restricted (or weight-extended) relation. WHERE
/// further refines `sel` (taken by value: move it in).
[[nodiscard]] Result<Table> ExecuteSelect(const TableView& view, SelectionVector sel,
                            const sql::SelectStmt& stmt,
                            const ExecOptions& opts = {});

/// Total weight of the table (sum of the weight column, or row count
/// when `weight_column` is empty).
[[nodiscard]] Result<double> TotalWeight(const Table& table,
                           const std::string& weight_column);

}  // namespace exec
}  // namespace mosaic

#endif  // MOSAIC_EXEC_EXECUTOR_H_
