#include "oracle/row_oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <string>

namespace mosaic {
namespace oracle {

using exec::BoundExpr;
using exec::BoundExprPtr;

namespace {

/// Column name for an output select item.
std::string OutputName(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == sql::Expr::Kind::kColumnRef) {
    return item.expr->column;
  }
  return item.expr->ToString();
}

/// Add an output column, suffixing "_2", "_3", ... on name collisions.
[[nodiscard]] Status AddOutputColumn(Schema* schema, std::string name,
                                     DataType type) {
  if (!schema->FindColumn(name)) {
    return schema->AddColumn(ColumnDef{std::move(name), type});
  }
  for (int suffix = 2;; ++suffix) {
    std::string candidate = name + "_" + std::to_string(suffix);
    if (!schema->FindColumn(candidate)) {
      return schema->AddColumn(ColumnDef{std::move(candidate), type});
    }
  }
}

/// One aggregate's accumulator within one group.
struct AggAccum {
  double sum_w = 0.0;
  double sum_wx = 0.0;
  int64_t count_n = 0;
  Value vmin;
  Value vmax;
  bool any = false;
};

[[nodiscard]] Result<Value> Finalize(const exec::AggSpec& spec,
                                     const AggAccum& acc, bool weighted) {
  switch (spec.func) {
    case sql::AggFunc::kCount:
      if (weighted) return Value(acc.sum_w);
      return Value(acc.count_n);
    case sql::AggFunc::kSum:
      return Value(acc.sum_wx);
    case sql::AggFunc::kAvg:
      if (acc.sum_w == 0.0) {
        return Status::ExecutionError("AVG over empty/zero-weight group");
      }
      return Value(acc.sum_wx / acc.sum_w);
    case sql::AggFunc::kMin:
      if (!acc.any) return Status::ExecutionError("MIN over empty group");
      return acc.vmin;
    case sql::AggFunc::kMax:
      if (!acc.any) return Status::ExecutionError("MAX over empty group");
      return acc.vmax;
  }
  return Status::Internal("unreachable aggregate func");
}

/// Stable sort of `rows` of `table` by (column, descending) keys under
/// Value ordering.
void StableSortRows(const Table& table,
                    const std::vector<std::pair<size_t, bool>>& keys,
                    std::vector<size_t>* rows) {
  std::stable_sort(rows->begin(), rows->end(), [&](size_t a, size_t b) {
    for (const auto& [col, desc] : keys) {
      Value va = table.GetValue(a, col);
      Value vb = table.GetValue(b, col);
      if (va < vb) return !desc;
      if (vb < va) return desc;
    }
    return false;
  });
}

}  // namespace

void SpecializeStringPredicates(const BoundExpr& expr, const Table& table,
                                CodeSpecs* specs) {
  if (expr.kind == BoundExpr::Kind::kBinary &&
      (expr.binary_op == sql::BinaryOp::kEq ||
       expr.binary_op == sql::BinaryOp::kNe) &&
      expr.left->type == DataType::kString &&
      expr.right->type == DataType::kString) {
    const BoundExpr& l = *expr.left;
    const BoundExpr& r = *expr.right;
    const bool l_col = l.kind == BoundExpr::Kind::kColumnRef;
    const bool r_col = r.kind == BoundExpr::Kind::kColumnRef;
    if (l_col && r.kind == BoundExpr::Kind::kLiteral) {
      specs->Add(&expr)->literal_code = table.column(l.column_index)
                                            .dictionary()
                                            .Find(r.literal.AsString());
      return;
    }
    if (r_col && l.kind == BoundExpr::Kind::kLiteral) {
      specs->Add(&expr)->literal_code = table.column(r.column_index)
                                            .dictionary()
                                            .Find(l.literal.AsString());
      return;
    }
    if (l_col && r_col &&
        table.column(l.column_index).shared_dictionary() ==
            table.column(r.column_index).shared_dictionary()) {
      specs->Add(&expr)->code_pair = true;
      return;
    }
  }
  if (expr.kind == BoundExpr::Kind::kIn &&
      expr.child->kind == BoundExpr::Kind::kColumnRef &&
      expr.child->type == DataType::kString) {
    const Dictionary& dict =
        table.column(expr.child->column_index).dictionary();
    CodeSpec* spec = specs->Add(&expr);
    for (const Value& item : expr.in_list) {
      const int32_t code = dict.Find(item.AsString());
      if (code >= 0) spec->in_codes.push_back(code);
    }
    return;
  }
  for (const BoundExpr* child :
       {expr.child.get(), expr.left.get(), expr.right.get(),
        expr.between_lo.get(), expr.between_hi.get()}) {
    if (child != nullptr) SpecializeStringPredicates(*child, table, specs);
  }
}

[[nodiscard]] Result<Value> EvaluateExpr(const BoundExpr& expr,
                                         const Table& table, size_t row,
                                         const CodeSpecs* codes) {
  switch (expr.kind) {
    case BoundExpr::Kind::kLiteral:
      return expr.literal;
    case BoundExpr::Kind::kColumnRef:
      return table.GetValue(row, expr.column_index);
    case BoundExpr::Kind::kUnary: {
      MOSAIC_ASSIGN_OR_RETURN(Value v,
                              EvaluateExpr(*expr.child, table, row, codes));
      if (expr.unary_op == sql::UnaryOp::kNot) return Value(!v.AsBool());
      MOSAIC_ASSIGN_OR_RETURN(double d, v.ToDouble());
      if (expr.type == DataType::kInt64) {
        return Value(static_cast<int64_t>(-v.AsInt64()));
      }
      return Value(-d);
    }
    case BoundExpr::Kind::kBinary: {
      // Short-circuit logic ops.
      if (expr.binary_op == sql::BinaryOp::kAnd) {
        MOSAIC_ASSIGN_OR_RETURN(Value l,
                                EvaluateExpr(*expr.left, table, row, codes));
        if (!l.AsBool()) return Value(false);
        return EvaluateExpr(*expr.right, table, row, codes);
      }
      if (expr.binary_op == sql::BinaryOp::kOr) {
        MOSAIC_ASSIGN_OR_RETURN(Value l,
                                EvaluateExpr(*expr.left, table, row, codes));
        if (l.AsBool()) return Value(true);
        return EvaluateExpr(*expr.right, table, row, codes);
      }
      const CodeSpec* code_spec =
          codes != nullptr ? codes->Find(&expr) : nullptr;
      if (code_spec != nullptr) {
        bool eq;
        if (code_spec->code_pair) {
          eq = table.column(expr.left->column_index).GetCode(row) ==
               table.column(expr.right->column_index).GetCode(row);
        } else {
          const BoundExpr& col =
              expr.left->kind == BoundExpr::Kind::kColumnRef ? *expr.left
                                                             : *expr.right;
          eq = table.column(col.column_index).GetCode(row) ==
               code_spec->literal_code;
        }
        return Value(expr.binary_op == sql::BinaryOp::kEq ? eq : !eq);
      }
      MOSAIC_ASSIGN_OR_RETURN(Value l,
                              EvaluateExpr(*expr.left, table, row, codes));
      MOSAIC_ASSIGN_OR_RETURN(Value r,
                              EvaluateExpr(*expr.right, table, row, codes));
      switch (expr.binary_op) {
        case sql::BinaryOp::kEq:
          return Value(l == r);
        case sql::BinaryOp::kNe:
          return Value(!(l == r));
        case sql::BinaryOp::kLt:
          return Value(l < r);
        case sql::BinaryOp::kLe:
          return Value(!(r < l));
        case sql::BinaryOp::kGt:
          return Value(r < l);
        case sql::BinaryOp::kGe:
          return Value(!(l < r));
        case sql::BinaryOp::kAdd:
        case sql::BinaryOp::kSub:
        case sql::BinaryOp::kMul:
        case sql::BinaryOp::kDiv: {
          MOSAIC_ASSIGN_OR_RETURN(double lv, l.ToDouble());
          MOSAIC_ASSIGN_OR_RETURN(double rv, r.ToDouble());
          double result;
          switch (expr.binary_op) {
            case sql::BinaryOp::kAdd:
              result = lv + rv;
              break;
            case sql::BinaryOp::kSub:
              result = lv - rv;
              break;
            case sql::BinaryOp::kMul:
              result = lv * rv;
              break;
            default:
              if (rv == 0.0) {
                return Status::ExecutionError("division by zero");
              }
              result = lv / rv;
              break;
          }
          if (expr.type == DataType::kInt64) {
            return Value(static_cast<int64_t>(std::llround(result)));
          }
          return Value(result);
        }
        default:
          return Status::Internal("unreachable binary op");
      }
    }
    case BoundExpr::Kind::kIn: {
      const CodeSpec* code_spec =
          codes != nullptr ? codes->Find(&expr) : nullptr;
      if (code_spec != nullptr) {
        const int32_t code =
            table.column(expr.child->column_index).GetCode(row);
        for (int32_t c : code_spec->in_codes) {
          if (c == code) return Value(true);
        }
        return Value(false);
      }
      MOSAIC_ASSIGN_OR_RETURN(Value v,
                              EvaluateExpr(*expr.child, table, row, codes));
      for (const auto& item : expr.in_list) {
        if (v == item) return Value(true);
      }
      return Value(false);
    }
    case BoundExpr::Kind::kBetween: {
      MOSAIC_ASSIGN_OR_RETURN(Value v,
                              EvaluateExpr(*expr.child, table, row, codes));
      MOSAIC_ASSIGN_OR_RETURN(
          Value lo, EvaluateExpr(*expr.between_lo, table, row, codes));
      MOSAIC_ASSIGN_OR_RETURN(
          Value hi, EvaluateExpr(*expr.between_hi, table, row, codes));
      return Value(!(v < lo) && !(hi < v));
    }
  }
  return Status::Internal("unreachable bound expression kind");
}

[[nodiscard]] Result<std::vector<size_t>> FilterRows(
    const Table& table, const sql::Expr& predicate) {
  exec::Binder binder(&table.schema());
  MOSAIC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(predicate));
  if (bound->type != DataType::kBool) {
    return Status::TypeError("WHERE predicate must be boolean, got " +
                             std::string(DataTypeName(bound->type)));
  }
  CodeSpecs codes;
  SpecializeStringPredicates(*bound, table, &codes);
  std::vector<size_t> rows;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    MOSAIC_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*bound, table, r, &codes));
    if (v.AsBool()) rows.push_back(r);
  }
  return rows;
}

[[nodiscard]] Status ApplyOrderByAndLimit(const sql::SelectStmt& stmt,
                                          Table* out, bool skip_order) {
  if (!stmt.order_by.empty() && !skip_order) {
    std::vector<std::pair<size_t, bool>> keys;  // (col, desc)
    for (const auto& o : stmt.order_by) {
      auto idx = out->schema().FindColumn(o.column);
      if (!idx) {
        return Status::BindError("ORDER BY column '" + o.column +
                                 "' not in result set");
      }
      keys.emplace_back(*idx, o.descending);
    }
    std::vector<size_t> order(out->num_rows());
    std::iota(order.begin(), order.end(), size_t{0});
    StableSortRows(*out, keys, &order);
    *out = out->Filter(order);
  }
  if (stmt.limit && static_cast<size_t>(*stmt.limit) < out->num_rows()) {
    std::vector<size_t> head(static_cast<size_t>(*stmt.limit));
    std::iota(head.begin(), head.end(), size_t{0});
    *out = out->Filter(head);
  }
  return Status::OK();
}

[[nodiscard]] Result<Table> ExecuteSelectRow(const Table& source,
                                             const sql::SelectStmt& stmt,
                                             const exec::ExecOptions& opts) {
  const Schema& schema = source.schema();
  const bool weighted = !opts.weight_column.empty();
  std::optional<size_t> weight_idx;
  if (weighted) {
    auto idx = schema.FindColumn(opts.weight_column);
    if (!idx) {
      return Status::BindError("weight column '" + opts.weight_column +
                               "' not found");
    }
    weight_idx = *idx;
  }

  // --- WHERE ---------------------------------------------------------------
  std::vector<size_t> rows;
  if (stmt.where != nullptr) {
    if (stmt.where->ContainsAggregate()) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    MOSAIC_ASSIGN_OR_RETURN(rows, FilterRows(source, *stmt.where));
  } else {
    rows.resize(source.num_rows());
    std::iota(rows.begin(), rows.end(), size_t{0});
  }

  // --- Detect aggregation --------------------------------------------------
  bool has_aggregates = false;
  for (const auto& item : stmt.items) {
    if (item.expr->ContainsAggregate()) has_aggregates = true;
  }
  if (stmt.having != nullptr && stmt.having->ContainsAggregate()) {
    has_aggregates = true;
  }
  if (stmt.select_star && (has_aggregates || !stmt.group_by.empty())) {
    return Status::BindError("SELECT * cannot be combined with aggregation");
  }
  if (!stmt.group_by.empty() && !has_aggregates) {
    return Status::BindError("GROUP BY requires aggregates in SELECT list");
  }

  // --- Projection ----------------------------------------------------------
  if (!has_aggregates) {
    exec::Binder binder(&schema);
    std::vector<BoundExprPtr> bound_items;
    Schema out_schema;
    if (stmt.select_star) {
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        if (weight_idx && c == *weight_idx) continue;  // hide weight
        auto e = std::make_unique<BoundExpr>();
        e->kind = BoundExpr::Kind::kColumnRef;
        e->column_index = c;
        e->type = schema.column(c).type;
        bound_items.push_back(std::move(e));
        MOSAIC_RETURN_IF_ERROR(out_schema.AddColumn(schema.column(c)));
      }
    } else {
      for (const auto& item : stmt.items) {
        MOSAIC_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*item.expr));
        MOSAIC_RETURN_IF_ERROR(
            AddOutputColumn(&out_schema, OutputName(item), bound->type));
        bound_items.push_back(std::move(bound));
      }
    }
    // ORDER BY may reference source columns that are not projected:
    // then the selected rows are sorted by source columns first.
    bool presorted = false;
    if (!stmt.order_by.empty()) {
      bool all_in_output = true;
      for (const auto& o : stmt.order_by) {
        if (!out_schema.FindColumn(o.column)) all_in_output = false;
      }
      if (!all_in_output) {
        std::vector<std::pair<size_t, bool>> keys;
        for (const auto& o : stmt.order_by) {
          auto idx = schema.FindColumn(o.column);
          if (!idx) {
            return Status::BindError("ORDER BY column '" + o.column +
                                     "' not found");
          }
          keys.emplace_back(*idx, o.descending);
        }
        StableSortRows(source, keys, &rows);
        presorted = true;
      }
    }
    Table out(out_schema);
    out.Reserve(rows.size());
    std::vector<Value> row(bound_items.size());
    for (size_t r : rows) {
      for (size_t c = 0; c < bound_items.size(); ++c) {
        MOSAIC_ASSIGN_OR_RETURN(row[c],
                                EvaluateExpr(*bound_items[c], source, r));
      }
      MOSAIC_RETURN_IF_ERROR(out.AppendRow(row));
    }
    MOSAIC_RETURN_IF_ERROR(ApplyOrderByAndLimit(stmt, &out, presorted));
    return out;
  }

  // --- Aggregation ---------------------------------------------------------
  MOSAIC_ASSIGN_OR_RETURN(exec::AggregatePlan plan,
                          exec::BindAggregate(schema, stmt, weighted));
  // std::map over key Values gives the sorted group order; each group
  // keeps the key of its first row.
  std::map<std::vector<Value>, std::vector<AggAccum>> groups;
  for (size_t r : rows) {
    std::vector<Value> key;
    key.reserve(plan.key_cols.size());
    for (size_t c : plan.key_cols) key.push_back(source.GetValue(r, c));
    auto [it, inserted] = groups.try_emplace(
        std::move(key), std::vector<AggAccum>(plan.specs.size()));
    double w = 1.0;
    if (weight_idx) {
      MOSAIC_ASSIGN_OR_RETURN(w, source.column(*weight_idx).GetDouble(r));
    }
    for (size_t a = 0; a < plan.specs.size(); ++a) {
      AggAccum& acc = it->second[a];
      const exec::AggSpec& spec = plan.specs[a];
      acc.sum_w += w;
      acc.count_n += 1;
      if (spec.arg == nullptr) continue;
      MOSAIC_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*spec.arg, source, r));
      if (spec.func == sql::AggFunc::kSum ||
          spec.func == sql::AggFunc::kAvg) {
        MOSAIC_ASSIGN_OR_RETURN(double x, v.ToDouble());
        acc.sum_wx += w * x;
      }
      if (!acc.any || v < acc.vmin) acc.vmin = v;
      if (!acc.any || acc.vmax < v) acc.vmax = v;
      acc.any = true;
    }
  }
  // GROUP BY over no rows yields no groups; a global aggregate yields
  // one row even over zero rows.
  if (groups.empty() && stmt.group_by.empty()) {
    groups.emplace(std::vector<Value>{},
                   std::vector<AggAccum>(plan.specs.size()));
  }

  // The group table: key values, then one finalized value per
  // aggregate. HAVING and the items were bound against its schema.
  Table group_table(plan.group_schema);
  for (const auto& [key, accs] : groups) {
    std::vector<Value> row = key;
    for (size_t a = 0; a < plan.specs.size(); ++a) {
      MOSAIC_ASSIGN_OR_RETURN(Value v,
                              Finalize(plan.specs[a], accs[a], weighted));
      row.push_back(std::move(v));
    }
    MOSAIC_RETURN_IF_ERROR(group_table.AppendRow(row));
  }
  Table out(plan.out_schema);
  std::vector<Value> out_row(plan.items.size());
  for (size_t g = 0; g < group_table.num_rows(); ++g) {
    if (plan.having != nullptr) {
      MOSAIC_ASSIGN_OR_RETURN(Value keep,
                              EvaluateExpr(*plan.having, group_table, g));
      if (!keep.AsBool()) continue;
    }
    for (size_t c = 0; c < plan.items.size(); ++c) {
      MOSAIC_ASSIGN_OR_RETURN(out_row[c],
                              EvaluateExpr(*plan.items[c], group_table, g));
    }
    MOSAIC_RETURN_IF_ERROR(out.AppendRow(out_row));
  }
  MOSAIC_RETURN_IF_ERROR(ApplyOrderByAndLimit(stmt, &out));
  return out;
}

}  // namespace oracle
}  // namespace mosaic
