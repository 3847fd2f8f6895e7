#include "sql/expr_eval.h"

#include <cmath>

#include "common/time_util.h"
#include "sql/functions.h"

namespace just::sql {

namespace {

bool IsNumericType(exec::DataType t) {
  return t == exec::DataType::kBool || t == exec::DataType::kInt ||
         t == exec::DataType::kDouble || t == exec::DataType::kTimestamp;
}

/// Per-evaluation context: the schema, the row, and (optionally) the
/// bound-offset table a BoundExpr resolved at plan time. When `offsets` is
/// set, column references cost one pointer-keyed hash lookup instead of a
/// case-insensitive string scan of the schema per row.
struct EvalCtx {
  const exec::Schema* schema;
  const exec::Row* row;
  const std::unordered_map<const Expr*, int>* offsets = nullptr;
};

Result<exec::Value> EvalBinary(const Expr& expr, const EvalCtx& ctx);

Result<exec::Value> Eval(const Expr& expr, const EvalCtx& ctx) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kStar:
      return Status::InvalidArgument("'*' is not a value expression");
    case Expr::Kind::kColumn: {
      int idx;
      if (ctx.offsets != nullptr) {
        auto it = ctx.offsets->find(&expr);
        idx = it == ctx.offsets->end() ? -1 : it->second;
      } else {
        idx = ctx.schema->IndexOf(expr.column);
      }
      if (idx < 0) {
        return Status::InvalidArgument("no such column: " + expr.column);
      }
      if (static_cast<size_t>(idx) >= ctx.row->size()) {
        return Status::Internal("row narrower than schema");
      }
      return (*ctx.row)[idx];
    }
    case Expr::Kind::kBinary:
      return EvalBinary(expr, ctx);
    case Expr::Kind::kCall: {
      const ScalarFunction* fn = FindScalarFunction(expr.call_name);
      if (fn == nullptr) {
        return Status::InvalidArgument("unknown function: " + expr.call_name);
      }
      std::vector<exec::Value> args;
      args.reserve(expr.args.size());
      for (const auto& arg : expr.args) {
        JUST_ASSIGN_OR_RETURN(auto v, Eval(*arg, ctx));
        args.push_back(std::move(v));
      }
      return fn->fn(args);
    }
  }
  return Status::Internal("bad expression kind");
}

Result<bool> EvalBool(const Expr& expr, const EvalCtx& ctx) {
  JUST_ASSIGN_OR_RETURN(auto v, Eval(expr, ctx));
  if (v.type() == exec::DataType::kBool) return v.bool_value();
  if (v.is_null()) return false;
  return Status::InvalidArgument("expected boolean, got " + v.ToString());
}

Result<exec::Value> EvalBinary(const Expr& expr, const EvalCtx& ctx) {
  switch (expr.op) {
    case BinaryOp::kAnd: {
      JUST_ASSIGN_OR_RETURN(bool lhs, EvalBool(*expr.args[0], ctx));
      if (!lhs) return exec::Value::Bool(false);
      JUST_ASSIGN_OR_RETURN(bool rhs, EvalBool(*expr.args[1], ctx));
      return exec::Value::Bool(rhs);
    }
    case BinaryOp::kOr: {
      JUST_ASSIGN_OR_RETURN(bool lhs, EvalBool(*expr.args[0], ctx));
      if (lhs) return exec::Value::Bool(true);
      JUST_ASSIGN_OR_RETURN(bool rhs, EvalBool(*expr.args[1], ctx));
      return exec::Value::Bool(rhs);
    }
    case BinaryOp::kBetween: {
      JUST_ASSIGN_OR_RETURN(auto v, Eval(*expr.args[0], ctx));
      JUST_ASSIGN_OR_RETURN(auto lo, Eval(*expr.args[1], ctx));
      JUST_ASSIGN_OR_RETURN(auto hi, Eval(*expr.args[2], ctx));
      return exec::Value::Bool(v.Compare(lo) >= 0 && v.Compare(hi) <= 0);
    }
    case BinaryOp::kWithin: {
      JUST_ASSIGN_OR_RETURN(auto g, Eval(*expr.args[0], ctx));
      JUST_ASSIGN_OR_RETURN(auto region, Eval(*expr.args[1], ctx));
      if (region.type() != exec::DataType::kGeometry) {
        return Status::InvalidArgument("WITHIN expects a geometry region");
      }
      geo::Mbr box = region.geometry_value().Bounds();
      if (g.type() == exec::DataType::kGeometry) {
        return exec::Value::Bool(g.geometry_value().Within(box));
      }
      if (g.type() == exec::DataType::kTrajectory &&
          g.trajectory_value() != nullptr) {
        return exec::Value::Bool(box.Intersects(g.trajectory_value()->Bounds()));
      }
      return Status::InvalidArgument("WITHIN expects a geometry value");
    }
    case BinaryOp::kIn:
      // `geom IN st_KNN(...)` is handled by the physical planner; reaching
      // the generic evaluator means the query shape was unsupported.
      return Status::NotSupported(
          "IN is only supported as 'geom IN st_KNN(...)'");
    default:
      break;
  }

  JUST_ASSIGN_OR_RETURN(auto lhs, Eval(*expr.args[0], ctx));
  JUST_ASSIGN_OR_RETURN(auto rhs, Eval(*expr.args[1], ctx));
  switch (expr.op) {
    case BinaryOp::kEq:
      return exec::Value::Bool(lhs.Equals(rhs));
    case BinaryOp::kNe:
      return exec::Value::Bool(!lhs.Equals(rhs));
    case BinaryOp::kLt:
      return exec::Value::Bool(lhs.Compare(rhs) < 0);
    case BinaryOp::kLe:
      return exec::Value::Bool(lhs.Compare(rhs) <= 0);
    case BinaryOp::kGt:
      return exec::Value::Bool(lhs.Compare(rhs) > 0);
    case BinaryOp::kGe:
      return exec::Value::Bool(lhs.Compare(rhs) >= 0);
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (!IsNumericType(lhs.type()) || !IsNumericType(rhs.type())) {
        return Status::InvalidArgument("arithmetic needs numeric operands");
      }
      bool ints = lhs.type() == exec::DataType::kInt &&
                  rhs.type() == exec::DataType::kInt;
      double a = lhs.AsDouble().value();
      double b = rhs.AsDouble().value();
      double result;
      switch (expr.op) {
        case BinaryOp::kAdd:
          result = a + b;
          break;
        case BinaryOp::kSub:
          result = a - b;
          break;
        case BinaryOp::kMul:
          result = a * b;
          break;
        default:
          if (b == 0) return Status::InvalidArgument("division by zero");
          result = a / b;
          ints = ints && std::fmod(a, b) == 0;
          break;
      }
      if (ints) return exec::Value::Int(static_cast<int64_t>(result));
      return exec::Value::Double(result);
    }
    default:
      return Status::Internal("unhandled binary operator");
  }
}

}  // namespace

Result<exec::Value> EvaluateExpr(const Expr& expr, const exec::Schema& schema,
                                 const exec::Row& row) {
  return Eval(expr, EvalCtx{&schema, &row});
}

Result<exec::Value> EvaluateConstant(const Expr& expr) {
  static const exec::Schema* kEmpty = new exec::Schema();
  static const exec::Row* kNoRow = new exec::Row();
  return Eval(expr, EvalCtx{kEmpty, kNoRow});
}

namespace {

Status BindColumns(const Expr& expr, const exec::Schema& schema,
                   std::unordered_map<const Expr*, int>* out) {
  switch (expr.kind) {
    case Expr::Kind::kColumn: {
      int idx = schema.IndexOf(expr.column);
      if (idx < 0) {
        return Status::InvalidArgument("no such column: " + expr.column);
      }
      (*out)[&expr] = idx;
      return Status::OK();
    }
    case Expr::Kind::kBinary:
    case Expr::Kind::kCall:
      for (const auto& arg : expr.args) {
        JUST_RETURN_NOT_OK(BindColumns(*arg, schema, out));
      }
      return Status::OK();
    default:
      return Status::OK();
  }
}

}  // namespace

Result<BoundExpr> BoundExpr::Bind(const Expr& expr,
                                  const exec::Schema& schema) {
  BoundExpr bound;
  bound.expr_ = &expr;
  JUST_RETURN_NOT_OK(BindColumns(expr, schema, &bound.offsets_));
  return bound;
}

Result<exec::Value> BoundExpr::Eval(const exec::Row& row) const {
  // The schema is never consulted once offsets are bound; pass a dummy.
  static const exec::Schema* kEmpty = new exec::Schema();
  return sql::Eval(*expr_, EvalCtx{kEmpty, &row, &offsets_});
}

Result<bool> BoundExpr::EvalBool(const exec::Row& row) const {
  static const exec::Schema* kEmpty = new exec::Schema();
  return sql::EvalBool(*expr_, EvalCtx{kEmpty, &row, &offsets_});
}

bool IsConstantExpr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return true;
    case Expr::Kind::kColumn:
    case Expr::Kind::kStar:
      return false;
    case Expr::Kind::kBinary: {
      // IN needs the planner; never fold it.
      if (expr.op == BinaryOp::kIn) return false;
      for (const auto& arg : expr.args) {
        if (!IsConstantExpr(*arg)) return false;
      }
      return true;
    }
    case Expr::Kind::kCall: {
      if (FindScalarFunction(expr.call_name) == nullptr) return false;
      for (const auto& arg : expr.args) {
        if (!IsConstantExpr(*arg)) return false;
      }
      return true;
    }
  }
  return false;
}

bool CoerceLiteral(exec::DataType column_type, exec::Value* value) {
  if (column_type != exec::DataType::kTimestamp) return true;
  if (value->type() == exec::DataType::kTimestamp) return true;
  if (value->type() == exec::DataType::kInt) {
    *value = exec::Value::Timestamp(value->int_value());
    return true;
  }
  if (value->type() == exec::DataType::kString) {
    auto parsed = ParseTimestamp(value->string_value());
    if (!parsed.ok()) return false;
    *value = exec::Value::Timestamp(parsed.value());
    return true;
  }
  return false;
}

void CoerceTimeLiterals(Expr* expr, const exec::Schema& schema) {
  for (auto& arg : expr->args) CoerceTimeLiterals(arg.get(), schema);
  if (expr->kind != Expr::Kind::kBinary) return;
  auto is_time_column = [&](const Expr& e) {
    if (e.kind != Expr::Kind::kColumn) return false;
    int idx = schema.IndexOf(e.column);
    return idx >= 0 && schema.field(static_cast<size_t>(idx)).type ==
                           exec::DataType::kTimestamp;
  };
  auto coerce = [](Expr* e) {
    if (e->kind == Expr::Kind::kLiteral &&
        e->literal.type() == exec::DataType::kString) {
      CoerceLiteral(exec::DataType::kTimestamp, &e->literal);
    }
  };
  switch (expr->op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      if (is_time_column(*expr->args[0])) coerce(expr->args[1].get());
      if (is_time_column(*expr->args[1])) coerce(expr->args[0].get());
      return;
    case BinaryOp::kBetween:
      if (is_time_column(*expr->args[0])) {
        coerce(expr->args[1].get());
        coerce(expr->args[2].get());
      }
      return;
    default:
      return;
  }
}

Result<exec::DataType> InferType(const Expr& expr,
                                 const exec::Schema& schema) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal.type();
    case Expr::Kind::kStar:
      return Status::InvalidArgument("'*' has no type");
    case Expr::Kind::kColumn: {
      int idx = schema.IndexOf(expr.column);
      if (idx < 0) {
        return Status::InvalidArgument("no such column: " + expr.column);
      }
      return schema.field(idx).type;
    }
    case Expr::Kind::kBinary:
      switch (expr.op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
        case BinaryOp::kWithin:
        case BinaryOp::kBetween:
        case BinaryOp::kIn:
          // Validate operands (field-name verification, Section VI "SQL
          // Parse"). The rhs of `IN st_KNN(...)` is planner-handled, so
          // only its arguments are checked.
          for (const auto& arg : expr.args) {
            if (expr.op == BinaryOp::kIn &&
                arg->kind == Expr::Kind::kCall &&
                arg->call_name == "st_knn") {
              for (const auto& knn_arg : arg->args) {
                JUST_RETURN_NOT_OK(InferType(*knn_arg, schema).status());
              }
              continue;
            }
            JUST_RETURN_NOT_OK(InferType(*arg, schema).status());
          }
          return exec::DataType::kBool;
        default: {
          JUST_ASSIGN_OR_RETURN(auto lt, InferType(*expr.args[0], schema));
          JUST_ASSIGN_OR_RETURN(auto rt, InferType(*expr.args[1], schema));
          if (lt == exec::DataType::kInt && rt == exec::DataType::kInt) {
            return exec::DataType::kInt;
          }
          return exec::DataType::kDouble;
        }
      }
    case Expr::Kind::kCall: {
      const ScalarFunction* fn = FindScalarFunction(expr.call_name);
      if (fn != nullptr) {
        // Validate argument columns exist.
        for (const auto& arg : expr.args) {
          if (arg->kind != Expr::Kind::kStar) {
            JUST_RETURN_NOT_OK(InferType(*arg, schema).status());
          }
        }
        return fn->return_type;
      }
      exec::AggFunc agg;
      if (FindAggregateFunction(expr.call_name, &agg)) {
        return agg == exec::AggFunc::kCount ? exec::DataType::kInt
                                            : exec::DataType::kDouble;
      }
      if (FindTableFunction(expr.call_name) != nullptr ||
          FindPartitionFunction(expr.call_name) != nullptr) {
        return exec::DataType::kNull;  // produces its own schema
      }
      return Status::InvalidArgument("unknown function: " + expr.call_name);
    }
  }
  return Status::Internal("bad expression kind");
}

void CollectColumns(const Expr& expr, std::vector<std::string>* out) {
  switch (expr.kind) {
    case Expr::Kind::kColumn:
      out->push_back(expr.column);
      return;
    case Expr::Kind::kBinary:
    case Expr::Kind::kCall:
      for (const auto& arg : expr.args) CollectColumns(*arg, out);
      return;
    default:
      return;
  }
}

}  // namespace just::sql
