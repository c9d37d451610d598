#include "exec/expr_eval.h"

#include <string>

namespace mosaic {
namespace exec {

namespace {

bool IsNumericType(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kBool;
}

/// Static result type of an arithmetic binary op.
[[nodiscard]] Result<DataType> ArithmeticType(sql::BinaryOp op, DataType lhs,
                                DataType rhs) {
  if (!IsNumericType(lhs) || !IsNumericType(rhs)) {
    return Status::TypeError("arithmetic requires numeric operands");
  }
  if (op == sql::BinaryOp::kDiv) return DataType::kDouble;
  if (lhs == DataType::kInt64 && rhs == DataType::kInt64) {
    return DataType::kInt64;
  }
  return DataType::kDouble;
}

}  // namespace

Result<BoundExprPtr> Binder::Bind(const sql::Expr& expr) {
  auto out = std::make_unique<BoundExpr>();
  switch (expr.kind) {
    case sql::Expr::Kind::kLiteral: {
      out->kind = BoundExpr::Kind::kLiteral;
      out->literal = expr.literal;
      out->type = expr.literal.type();
      return out;
    }
    case sql::Expr::Kind::kColumnRef: {
      auto idx = schema_->FindColumn(expr.column);
      if (!idx) {
        return Status::BindError("unknown column '" + expr.column + "'");
      }
      out->kind = BoundExpr::Kind::kColumnRef;
      out->column_index = *idx;
      out->type = schema_->column(*idx).type;
      return out;
    }
    case sql::Expr::Kind::kUnary: {
      MOSAIC_ASSIGN_OR_RETURN(out->child, Bind(*expr.child));
      out->kind = BoundExpr::Kind::kUnary;
      out->unary_op = expr.unary_op;
      if (expr.unary_op == sql::UnaryOp::kNot) {
        if (out->child->type != DataType::kBool) {
          return Status::TypeError("NOT requires a boolean operand");
        }
        out->type = DataType::kBool;
      } else {
        if (!IsNumericType(out->child->type)) {
          return Status::TypeError("unary '-' requires a numeric operand");
        }
        out->type = out->child->type == DataType::kInt64 ? DataType::kInt64
                                                         : DataType::kDouble;
      }
      return out;
    }
    case sql::Expr::Kind::kBinary: {
      MOSAIC_ASSIGN_OR_RETURN(out->left, Bind(*expr.left));
      MOSAIC_ASSIGN_OR_RETURN(out->right, Bind(*expr.right));
      out->kind = BoundExpr::Kind::kBinary;
      out->binary_op = expr.binary_op;
      switch (expr.binary_op) {
        case sql::BinaryOp::kAnd:
        case sql::BinaryOp::kOr:
          if (out->left->type != DataType::kBool ||
              out->right->type != DataType::kBool) {
            return Status::TypeError("AND/OR require boolean operands");
          }
          out->type = DataType::kBool;
          break;
        case sql::BinaryOp::kEq:
        case sql::BinaryOp::kNe:
        case sql::BinaryOp::kLt:
        case sql::BinaryOp::kLe:
        case sql::BinaryOp::kGt:
        case sql::BinaryOp::kGe: {
          DataType lt = out->left->type, rt = out->right->type;
          bool ok = (IsNumericType(lt) && IsNumericType(rt)) ||
                    (lt == DataType::kString && rt == DataType::kString);
          if (!ok) {
            return Status::TypeError(
                std::string("cannot compare ") + DataTypeName(lt) + " with " +
                DataTypeName(rt));
          }
          out->type = DataType::kBool;
          break;
        }
        case sql::BinaryOp::kAdd:
        case sql::BinaryOp::kSub:
        case sql::BinaryOp::kMul:
        case sql::BinaryOp::kDiv: {
          MOSAIC_ASSIGN_OR_RETURN(
              out->type,
              ArithmeticType(expr.binary_op, out->left->type,
                             out->right->type));
          break;
        }
      }
      return out;
    }
    case sql::Expr::Kind::kIn: {
      MOSAIC_ASSIGN_OR_RETURN(out->child, Bind(*expr.child));
      out->kind = BoundExpr::Kind::kIn;
      out->in_list = expr.in_list;
      for (const auto& v : expr.in_list) {
        bool ok = (IsNumericType(out->child->type) &&
                   IsNumericType(v.type())) ||
                  (out->child->type == DataType::kString &&
                   v.type() == DataType::kString);
        if (!ok) {
          return Status::TypeError("IN list value " + v.ToString() +
                                   " does not match subject type");
        }
      }
      out->type = DataType::kBool;
      return out;
    }
    case sql::Expr::Kind::kBetween: {
      MOSAIC_ASSIGN_OR_RETURN(out->child, Bind(*expr.child));
      MOSAIC_ASSIGN_OR_RETURN(out->between_lo, Bind(*expr.between_lo));
      MOSAIC_ASSIGN_OR_RETURN(out->between_hi, Bind(*expr.between_hi));
      if (!IsNumericType(out->child->type) ||
          !IsNumericType(out->between_lo->type) ||
          !IsNumericType(out->between_hi->type)) {
        return Status::TypeError("BETWEEN requires numeric operands");
      }
      out->kind = BoundExpr::Kind::kBetween;
      out->type = DataType::kBool;
      return out;
    }
    case sql::Expr::Kind::kAggregate: {
      if (agg_mapper_ == nullptr) {
        return Status::BindError(
            "aggregate " + expr.ToString() +
            " not allowed here (only in SELECT list)");
      }
      MOSAIC_ASSIGN_OR_RETURN(out->column_index, agg_mapper_(expr, agg_ctx_));
      out->kind = BoundExpr::Kind::kColumnRef;
      out->type = schema_->column(out->column_index).type;
      return out;
    }
  }
  return Status::Internal("unreachable expression kind");
}

}  // namespace exec
}  // namespace mosaic
