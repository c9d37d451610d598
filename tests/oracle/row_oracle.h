// Test-only row-at-a-time SELECT interpreter: the parity oracle for
// the batch executor (exec/executor.h).
//
// It answers a SELECT one boxed Value at a time — WHERE row by row,
// GROUP BY through a std::map over key Values, aggregates in
// per-group accumulators — so it shares none of the batch pipeline's
// kernels, selection vectors, group ids or sort keys. It shares the
// binder (exec/expr_eval.h) and the aggregate plan (BindAggregate), so
// both paths reject a statement with the same status. Results must be
// bit-identical to exec::ExecuteSelect, failures included
// (tests/test_exec_parity.cc, tests/test_sql_fuzz.cc).
//
// Linked only by tests and bench/bench_executor.cpp; nothing under
// src/ may include it (scripts/lint.py enforces this).
#ifndef MOSAIC_TESTS_ORACLE_ROW_ORACLE_H_
#define MOSAIC_TESTS_ORACLE_ROW_ORACLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/executor.h"
#include "exec/expr_eval.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace mosaic {
namespace oracle {

/// A string =/!=/IN node evaluated on dictionary codes instead of
/// decoded strings.
struct CodeSpec {
  bool code_pair = false;     ///< =/!=: both sides are same-dict columns
  int32_t literal_code = -1;  ///< =/!=: the literal's code in the dict
  std::vector<int32_t> in_codes;  ///< IN: list codes present in the dict
};

/// Code specializations of one bound expression tree, by node. A
/// predicate has a handful, so a flat list is the fastest lookup.
struct CodeSpecs {
  std::vector<std::pair<const exec::BoundExpr*, CodeSpec>> nodes;

  /// The specialization of `node`, or null.
  const CodeSpec* Find(const exec::BoundExpr* node) const {
    for (const auto& [n, spec] : nodes) {
      if (n == node) return &spec;
    }
    return nullptr;
  }
  CodeSpec* Add(const exec::BoundExpr* node) {
    nodes.emplace_back(node, CodeSpec{});
    return &nodes.back().second;
  }
};

/// Record code specializations for the string =/!=/IN nodes of `expr`
/// against `table`'s columns: literals are resolved through the
/// column's dictionary once (absent strings can never match), and
/// same-dictionary column pairs compare codes directly.
void SpecializeStringPredicates(const exec::BoundExpr& expr,
                                const Table& table, CodeSpecs* specs);

/// Evaluate a bound expression for one row of `table`; `codes` (from
/// SpecializeStringPredicates over the same table) may be null.
[[nodiscard]] Result<Value> EvaluateExpr(const exec::BoundExpr& expr,
                                         const Table& table, size_t row,
                                         const CodeSpecs* codes = nullptr);

/// Rows where the aggregate-free boolean `predicate` holds.
[[nodiscard]] Result<std::vector<size_t>> FilterRows(
    const Table& table, const sql::Expr& predicate);

/// Stable ORDER BY over result columns, then LIMIT. `skip_order`
/// when the rows were already sorted by source columns.
[[nodiscard]] Status ApplyOrderByAndLimit(const sql::SelectStmt& stmt,
                                          Table* out,
                                          bool skip_order = false);

/// Execute `stmt` against `source` one row at a time. Honors
/// `opts.weight_column` (the §5.3 rewrite); ignores the trace.
[[nodiscard]] Result<Table> ExecuteSelectRow(const Table& source,
                                             const sql::SelectStmt& stmt,
                                             const exec::ExecOptions& opts);

}  // namespace oracle
}  // namespace mosaic

#endif  // MOSAIC_TESTS_ORACLE_ROW_ORACLE_H_
