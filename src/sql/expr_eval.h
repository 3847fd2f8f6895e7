#ifndef JUST_SQL_EXPR_EVAL_H_
#define JUST_SQL_EXPR_EVAL_H_

#include <unordered_map>

#include "common/status.h"
#include "exec/dataframe.h"
#include "sql/ast.h"

namespace just::sql {

/// Evaluates an expression against one row. Column references resolve
/// through `schema` (case-insensitive). Prefer BoundExpr in per-row loops:
/// this variant re-runs Schema::IndexOf (a case-insensitive string scan)
/// for every column reference on every row.
Result<exec::Value> EvaluateExpr(const Expr& expr, const exec::Schema& schema,
                                 const exec::Row& row);

/// An expression with its column references resolved against one schema at
/// plan/bind time: evaluation looks offsets up in a per-node table instead
/// of string-matching the schema per row. Borrows `expr`; the expression
/// (and the schema's shape) must outlive the binding.
class BoundExpr {
 public:
  BoundExpr() = default;

  /// Resolves every column node of `expr` against `schema`. Fails when a
  /// referenced column is absent, which surfaces bad plans at bind time
  /// instead of per-row.
  static Result<BoundExpr> Bind(const Expr& expr, const exec::Schema& schema);

  Result<exec::Value> Eval(const exec::Row& row) const;
  /// Boolean evaluation with the filter convention: NULL is false.
  Result<bool> EvalBool(const exec::Row& row) const;

  const Expr* expr() const { return expr_; }

 private:
  const Expr* expr_ = nullptr;
  /// Column node -> row offset, resolved once.
  std::unordered_map<const Expr*, int> offsets_;
};

/// Evaluates a constant (column-free) expression; used by the optimizer's
/// constant-folding rule (Section VI: "calculate constant expressions").
Result<exec::Value> EvaluateConstant(const Expr& expr);

/// True when the expression references no columns (and only pure scalar
/// functions), i.e. it is foldable.
bool IsConstantExpr(const Expr& expr);

/// Coerces a literal into a column's value domain: a string or integer
/// compared with a timestamp column becomes a timestamp. False when the
/// literal cannot be coerced (an unparsable date string); other column
/// types pass through unchanged.
bool CoerceLiteral(exec::DataType column_type, exec::Value* value);

/// Rewrites, in place, every string literal that `expr` compares (=, !=,
/// <, <=, >, >=, BETWEEN) with a timestamp column of `schema` into a
/// timestamp literal, so evaluation compares instants instead of falling
/// back to type order. Run once at plan or bind time; unparsable strings
/// are left as they are.
void CoerceTimeLiterals(Expr* expr, const exec::Schema& schema);

/// Infers the static result type of an expression against a schema.
Result<exec::DataType> InferType(const Expr& expr, const exec::Schema& schema);

/// Collects the column names an expression references into `out`.
void CollectColumns(const Expr& expr, std::vector<std::string>* out);

}  // namespace just::sql

#endif  // JUST_SQL_EXPR_EVAL_H_
