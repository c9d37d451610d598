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
// One pipeline, vectorized and columnar over TableView +
// SelectionVector: WHERE predicates refine selection vectors in typed
// kernels (dictionary-code compares for strings; an all-rows selection
// holds no list, so the first conjunct scans the columns linearly),
// GROUP BY is a flat hash aggregation keyed on packed per-column group
// codes (densified into first-seen ids whenever the packed code space
// would pass 2^62, so every plan runs here), aggregates (MIN/MAX
// included) accumulate in one blocked pass over the selection that
// reads weights and column arguments in place and finalize in bulk
// into one typed group table, over which HAVING and the SELECT items
// run through the same batch evaluator as any projection. ORDER BY
// sorts precomputed typed keys (partial_sort when LIMIT is present). A
// statement runs start to finish on its calling thread; parallelism is
// across statements (the query service's request pool) and across OPEN
// generations.
//
// A test-only row-at-a-time interpreter (tests/oracle/row_oracle.h)
// checks this pipeline bit for bit (tests/test_exec_parity.cc,
// tests/test_sql_fuzz.cc); production code never links it.
//
// Thread-safety contract: every function here is a pure function of
// its inputs — no globals, no caches — so concurrent calls over
// tables that no writer is mutating are safe. The query service's
// shared-lock read path and the parallel OPEN generation tasks both
// depend on this.
#ifndef MOSAIC_EXEC_EXECUTOR_H_
#define MOSAIC_EXEC_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "exec/expr_eval.h"
#include "sql/ast.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace mosaic {
namespace exec {

struct ExecOptions {
  /// Name of the weight column in the source table; empty = every
  /// tuple has weight 1 (plain SQL).
  std::string weight_column;
  /// Per-query trace to record execution spans (filter, aggregate,
  /// sort, materialize) into; null = tracing off,
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

/// One aggregate call of an aggregate SELECT. Calls are deduplicated
/// by their rendering, so `COUNT(*)` in the SELECT list and in HAVING
/// is one call.
struct AggSpec {
  sql::AggFunc func;
  bool is_star = false;
  BoundExprPtr arg;       ///< over the source schema; null for COUNT(*)
  std::string rendering;  ///< dedup key, e.g. "AVG(distance)"
};

/// Output type of an aggregate: COUNT is DOUBLE when weighted (the
/// §5.3 rewrite makes it SUM(w)) and INT64 when not; SUM and AVG are
/// DOUBLE; MIN and MAX take their argument's type.
DataType AggOutputType(const AggSpec& spec, bool weighted);

/// An aggregate SELECT, bound in two layers. Aggregate arguments bind
/// against the source schema. HAVING and the SELECT items bind against
/// `group_schema` — one column per distinct GROUP BY column, then one
/// column per aggregate typed by AggOutputType — where an aggregate is
/// an ordinary column reference. Shared with the test-only row oracle,
/// so both answer bind errors identically.
struct AggregatePlan {
  std::vector<size_t> group_cols;  ///< source column of each GROUP BY entry
  /// Distinct group_cols in first-mention order: group_schema columns
  /// [0, key_cols.size()).
  std::vector<size_t> key_cols;
  /// specs[a] is group_schema column key_cols.size() + a.
  std::vector<AggSpec> specs;
  Schema group_schema;
  std::vector<BoundExprPtr> items;  ///< over group_schema
  BoundExprPtr having;              ///< over group_schema; null if absent
  Schema out_schema;                ///< one named, typed column per item
};

/// Bind an aggregate SELECT (one whose items or HAVING aggregate)
/// against the source schema. `weighted` types COUNT (see
/// AggOutputType).
[[nodiscard]] Result<AggregatePlan> BindAggregate(const Schema& source,
                                                  const sql::SelectStmt& stmt,
                                                  bool weighted);

}  // namespace exec
}  // namespace mosaic

#endif  // MOSAIC_EXEC_EXECUTOR_H_
