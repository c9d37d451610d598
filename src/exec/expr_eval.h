// Bound expressions.
//
// The binder resolves AST column names to column indices against a
// schema and computes static result types. The batch evaluator
// (batch_eval.h) runs bound expressions over column spans; the
// test-only row oracle (tests/oracle/row_oracle.h) interprets the same
// trees one row at a time. Aggregates never appear inside bound
// expressions: the executor binds each aggregate call to a column of
// its group table (see BindAggregate in executor.h), so after grouping
// an aggregate is an ordinary column reference.
#ifndef MOSAIC_EXEC_EXPR_EVAL_H_
#define MOSAIC_EXEC_EXPR_EVAL_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace mosaic {
namespace exec {

struct BoundExpr;
using BoundExprPtr = std::unique_ptr<BoundExpr>;

struct BoundExpr {
  enum class Kind {
    kLiteral,
    kColumnRef,
    kUnary,
    kBinary,
    kIn,
    kBetween,
  };

  Kind kind;
  DataType type = DataType::kNull;  ///< static result type

  Value literal;                      // kLiteral
  size_t column_index = 0;            // kColumnRef
  sql::UnaryOp unary_op = sql::UnaryOp::kNot;
  sql::BinaryOp binary_op = sql::BinaryOp::kEq;
  BoundExprPtr child;
  BoundExprPtr left;
  BoundExprPtr right;
  BoundExprPtr between_lo;
  BoundExprPtr between_hi;
  std::vector<Value> in_list;
};

/// Binds scalar expressions against a schema.
class Binder {
 public:
  explicit Binder(const Schema* schema) : schema_(schema) {}

  /// Bind an expression. Errors on aggregates unless an aggregate
  /// mapper is installed via set_aggregate_mapper.
  [[nodiscard]] Result<BoundExprPtr> Bind(const sql::Expr& expr);

  /// Install a callback that maps an aggregate AST node to a column of
  /// the bound schema; the aggregate then binds as a reference to that
  /// column. The callback may append the column to the schema first
  /// (the executor grows its group-table schema this way).
  using AggregateMapper = Result<size_t> (*)(const sql::Expr&, void*);
  void set_aggregate_mapper(AggregateMapper mapper, void* ctx) {
    agg_mapper_ = mapper;
    agg_ctx_ = ctx;
  }

 private:
  const Schema* schema_;
  AggregateMapper agg_mapper_ = nullptr;
  void* agg_ctx_ = nullptr;
};

}  // namespace exec
}  // namespace mosaic

#endif  // MOSAIC_EXEC_EXPR_EVAL_H_
