#include "sql/predicate_program.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "obs/metrics.h"

namespace just::sql {

namespace {

using Clock = std::chrono::steady_clock;

bool IsNumericType(exec::DataType t) {
  return t == exec::DataType::kBool || t == exec::DataType::kInt ||
         t == exec::DataType::kDouble || t == exec::DataType::kTimestamp;
}

// Flattens an AND tree into conjuncts (borrowed pointers).
void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr->kind == Expr::Kind::kBinary && expr->op == BinaryOp::kAnd) {
    SplitConjuncts(expr->args[0].get(), out);
    SplitConjuncts(expr->args[1].get(), out);
    return;
  }
  out->push_back(expr);
}

}  // namespace

/// Builds one Step per conjunct; shares the private Step type.
struct PredicateCompiler {
  using Step = PredicateProgram::Step;
  using CmpKind = PredicateProgram::CmpKind;
  using Op = Step::Op;

  const exec::Schema& schema;

  static CmpKind FlipCmp(CmpKind cmp) {
    switch (cmp) {
      case CmpKind::kLt:
        return CmpKind::kGt;
      case CmpKind::kLe:
        return CmpKind::kGe;
      case CmpKind::kGt:
        return CmpKind::kLt;
      case CmpKind::kGe:
        return CmpKind::kLe;
      default:
        return cmp;  // eq / ne are symmetric
    }
  }

  static bool BinaryCmpKind(BinaryOp op, CmpKind* out) {
    switch (op) {
      case BinaryOp::kEq:
        *out = CmpKind::kEq;
        return true;
      case BinaryOp::kNe:
        *out = CmpKind::kNe;
        return true;
      case BinaryOp::kLt:
        *out = CmpKind::kLt;
        return true;
      case BinaryOp::kLe:
        *out = CmpKind::kLe;
        return true;
      case BinaryOp::kGt:
        *out = CmpKind::kGt;
        return true;
      case BinaryOp::kGe:
        *out = CmpKind::kGe;
        return true;
      default:
        return false;
    }
  }

  /// Folds a column-free subtree to its constant Value. ok=false when the
  /// subtree is not constant; an error Status means the constant *errors*
  /// (division by zero and friends), which in filter context drops rows.
  static bool FoldConstant(const Expr& e, Result<exec::Value>* out) {
    if (!IsConstantExpr(e)) return false;
    *out = EvaluateConstant(e);
    return true;
  }

  /// A step that drops every row — what an always-false or always-erroring
  /// conjunct does under the filter convention (error == not matched).
  static Step ConstFalse() {
    Step step;
    step.op = Op::kConstFalse;
    step.cost = 0;
    return step;
  }

  Step Fallback(const Expr& conjunct) const {
    Step step;
    step.fallback = conjunct.Clone();
    CoerceTimeLiterals(step.fallback.get(), schema);
    auto bound = BoundExpr::Bind(*step.fallback, schema);
    if (!bound.ok()) {
      // Unknown column: interpreted evaluation errors on every row.
      return ConstFalse();
    }
    step.op = Op::kFallback;
    step.bound = std::move(bound.value());
    step.cost = 100;
    return step;
  }

  /// col CMP const. Picks the tightest kernel the types allow.
  Step ColumnCmpConst(int col, CmpKind cmp, exec::Value constant) const {
    exec::DataType col_type = schema.field(static_cast<size_t>(col)).type;
    // A date string against a timestamp column compares as the instant it
    // names: coerced once here, not per row (unparsable strings stay).
    CoerceLiteral(col_type, &constant);
    Step step;
    step.cmp = cmp;
    step.col = col;
    if (IsNumericType(col_type) && IsNumericType(constant.type())) {
      step.op = Op::kNumericCmp;
      step.num_lo = constant.AsDouble().value();
      step.cost = 1;
      return step;
    }
    if (col_type == exec::DataType::kString &&
        constant.type() == exec::DataType::kString) {
      step.op = Op::kStringCmp;
      step.str_const = constant.string_value();
      step.cost = 4;
      return step;
    }
    // Mixed / null / geometry constants: generic Value::Compare kernel —
    // still a flat loop, no tree walk.
    step.op = Op::kValueCmp;
    step.value_lo = std::move(constant);
    step.cost = 6;
    return step;
  }

  Step Compile(const Expr& conjunct) const {
    // Constant conjunct: fold it away entirely.
    Result<exec::Value> folded = exec::Value::Null();
    if (FoldConstant(conjunct, &folded)) {
      if (folded.ok() && folded->type() == exec::DataType::kBool &&
          folded->bool_value()) {
        Step step;  // always true: cost-0 no-op, dropped by the caller
        step.op = Op::kConstFalse;
        step.col = -2;  // sentinel: "const true", see Compile() below
        return step;
      }
      return ConstFalse();
    }
    if (conjunct.kind != Expr::Kind::kBinary) return Fallback(conjunct);

    CmpKind cmp;
    if (BinaryCmpKind(conjunct.op, &cmp)) {
      const Expr& lhs = *conjunct.args[0];
      const Expr& rhs = *conjunct.args[1];
      Result<exec::Value> c = exec::Value::Null();
      if (lhs.kind == Expr::Kind::kColumn && FoldConstant(rhs, &c)) {
        int col = schema.IndexOf(lhs.column);
        if (col < 0) return ConstFalse();
        if (!c.ok()) return ConstFalse();  // erroring constant drops rows
        return ColumnCmpConst(col, cmp, std::move(c.value()));
      }
      if (rhs.kind == Expr::Kind::kColumn && FoldConstant(lhs, &c)) {
        int col = schema.IndexOf(rhs.column);
        if (col < 0) return ConstFalse();
        if (!c.ok()) return ConstFalse();
        return ColumnCmpConst(col, FlipCmp(cmp), std::move(c.value()));
      }
      if (lhs.kind == Expr::Kind::kColumn && rhs.kind == Expr::Kind::kColumn) {
        int col = schema.IndexOf(lhs.column);
        int col2 = schema.IndexOf(rhs.column);
        if (col < 0 || col2 < 0) return ConstFalse();
        Step step;
        step.op = Op::kColumnCmp;
        step.cmp = cmp;
        step.col = col;
        step.col2 = col2;
        step.cost = 6;
        return step;
      }
      return Fallback(conjunct);
    }

    if (conjunct.op == BinaryOp::kBetween &&
        conjunct.args[0]->kind == Expr::Kind::kColumn) {
      Result<exec::Value> lo = exec::Value::Null();
      Result<exec::Value> hi = exec::Value::Null();
      if (!FoldConstant(*conjunct.args[1], &lo) ||
          !FoldConstant(*conjunct.args[2], &hi)) {
        return Fallback(conjunct);
      }
      if (!lo.ok() || !hi.ok()) return ConstFalse();
      int col = schema.IndexOf(conjunct.args[0]->column);
      if (col < 0) return ConstFalse();
      Step step;
      step.col = col;
      exec::DataType col_type = schema.field(static_cast<size_t>(col)).type;
      CoerceLiteral(col_type, &lo.value());
      CoerceLiteral(col_type, &hi.value());
      if (IsNumericType(col_type) && IsNumericType(lo->type()) &&
          IsNumericType(hi->type())) {
        step.op = Op::kNumericBetween;
        step.num_lo = lo->AsDouble().value();
        step.num_hi = hi->AsDouble().value();
        step.cost = 2;
      } else {
        step.op = Op::kValueBetween;
        step.value_lo = std::move(lo.value());
        step.value_hi = std::move(hi.value());
        step.cost = 6;
      }
      return step;
    }

    if (conjunct.op == BinaryOp::kWithin &&
        conjunct.args[0]->kind == Expr::Kind::kColumn) {
      Result<exec::Value> region = exec::Value::Null();
      if (!FoldConstant(*conjunct.args[1], &region)) {
        return Fallback(conjunct);
      }
      if (!region.ok() || region->type() != exec::DataType::kGeometry) {
        return ConstFalse();  // "WITHIN expects a geometry region" per row
      }
      int col = schema.IndexOf(conjunct.args[0]->column);
      if (col < 0) return ConstFalse();
      Step step;
      step.op = Op::kWithinBox;
      step.col = col;
      step.box = region->geometry_value().Bounds();
      step.cost = 10;
      return step;
    }

    return Fallback(conjunct);
  }
};

Result<std::shared_ptr<const PredicateProgram>> PredicateProgram::Compile(
    const Expr& predicate, const exec::Schema& schema) {
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(&predicate, &conjuncts);
  return Compile(conjuncts, schema);
}

Result<std::shared_ptr<const PredicateProgram>> PredicateProgram::Compile(
    const std::vector<const Expr*>& conjuncts, const exec::Schema& schema) {
  PredicateCompiler compiler{schema};
  auto program = std::shared_ptr<PredicateProgram>(new PredicateProgram());
  for (const Expr* conjunct : conjuncts) {
    std::vector<const Expr*> nested;  // re-split: callers pass raw residuals
    SplitConjuncts(conjunct, &nested);
    for (const Expr* e : nested) {
      Step step = compiler.Compile(*e);
      if (step.op == Step::Op::kConstFalse && step.col == -2) {
        continue;  // constant-folded to true: no work at runtime
      }
      if (step.op == Step::Op::kFallback) ++program->fallback_steps_;
      program->steps_.push_back(std::move(step));
    }
  }
  // Short-circuit ordering: cheap selective kernels first, so geometry and
  // interpreted fallbacks see the smallest surviving selection. Stable, so
  // equal-cost steps keep the user's order.
  std::stable_sort(program->steps_.begin(), program->steps_.end(),
                   [](const Step& a, const Step& b) { return a.cost < b.cost; });
  return std::shared_ptr<const PredicateProgram>(std::move(program));
}

bool PredicateProgram::CmpHolds(CmpKind cmp, int c) {
  using CmpKind = PredicateProgram::CmpKind;
  switch (cmp) {
    case CmpKind::kEq:
      return c == 0;
    case CmpKind::kNe:
      return c != 0;
    case CmpKind::kLt:
      return c < 0;
    case CmpKind::kLe:
      return c <= 0;
    case CmpKind::kGt:
      return c > 0;
    case CmpKind::kGe:
      return c >= 0;
  }
  return false;
}

void PredicateProgram::RunStep(const Step& step,
                               const exec::ColumnBatch& batch,
                               const std::vector<uint32_t>& in,
                               std::vector<uint32_t>* out) const {
  using Storage = exec::ColumnVector::Storage;
  switch (step.op) {
    case Step::Op::kConstFalse:
      return;
    case Step::Op::kNumericCmp: {
      const exec::ColumnVector& col = batch.column(step.col);
      // A null cell compares below any non-null constant (Value::Compare's
      // null-sorts-first rule).
      const bool keep_null = CmpHolds(step.cmp, -1);
      if (col.storage() == Storage::kInt64) {
        const int64_t* data = col.i64_data();
        for (uint32_t row : in) {
          if (col.has_nulls() && col.IsNull(row)) {
            if (keep_null) out->push_back(row);
            continue;
          }
          double a = static_cast<double>(data[row]);
          int c = a < step.num_lo ? -1 : (a > step.num_lo ? 1 : 0);
          if (CmpHolds(step.cmp, c)) out->push_back(row);
        }
        return;
      }
      if (col.storage() == Storage::kDouble) {
        const double* data = col.f64_data();
        for (uint32_t row : in) {
          if (col.has_nulls() && col.IsNull(row)) {
            if (keep_null) out->push_back(row);
            continue;
          }
          int c = data[row] < step.num_lo ? -1
                                          : (data[row] > step.num_lo ? 1 : 0);
          if (CmpHolds(step.cmp, c)) out->push_back(row);
        }
        return;
      }
      // Column degraded to object storage: generic compare, still flat.
      exec::Value constant = exec::Value::Double(step.num_lo);
      for (uint32_t row : in) {
        if (CmpHolds(step.cmp, col.ObjectAt(row).Compare(constant))) {
          out->push_back(row);
        }
      }
      return;
    }
    case Step::Op::kNumericBetween: {
      const exec::ColumnVector& col = batch.column(step.col);
      if (col.storage() == Storage::kInt64) {
        const int64_t* data = col.i64_data();
        for (uint32_t row : in) {
          if (col.has_nulls() && col.IsNull(row)) continue;
          double a = static_cast<double>(data[row]);
          if (a >= step.num_lo && a <= step.num_hi) out->push_back(row);
        }
        return;
      }
      if (col.storage() == Storage::kDouble) {
        const double* data = col.f64_data();
        for (uint32_t row : in) {
          if (col.has_nulls() && col.IsNull(row)) continue;
          if (data[row] >= step.num_lo && data[row] <= step.num_hi) {
            out->push_back(row);
          }
        }
        return;
      }
      exec::Value lo = exec::Value::Double(step.num_lo);
      exec::Value hi = exec::Value::Double(step.num_hi);
      for (uint32_t row : in) {
        const exec::Value& v = col.ObjectAt(row);
        if (v.Compare(lo) >= 0 && v.Compare(hi) <= 0) out->push_back(row);
      }
      return;
    }
    case Step::Op::kStringCmp: {
      const exec::ColumnVector& col = batch.column(step.col);
      const bool keep_null = CmpHolds(step.cmp, -1);
      if (col.storage() == Storage::kString) {
        for (uint32_t row : in) {
          if (col.has_nulls() && col.IsNull(row)) {
            if (keep_null) out->push_back(row);
            continue;
          }
          int raw = col.StringAt(row).compare(step.str_const);
          int c = raw < 0 ? -1 : (raw > 0 ? 1 : 0);
          if (CmpHolds(step.cmp, c)) out->push_back(row);
        }
        return;
      }
      exec::Value constant = exec::Value::String(step.str_const);
      for (uint32_t row : in) {
        if (CmpHolds(step.cmp, col.ObjectAt(row).Compare(constant))) {
          out->push_back(row);
        }
      }
      return;
    }
    case Step::Op::kValueCmp: {
      const exec::ColumnVector& col = batch.column(step.col);
      for (uint32_t row : in) {
        if (CmpHolds(step.cmp,
                         col.ValueAt(row).Compare(step.value_lo))) {
          out->push_back(row);
        }
      }
      return;
    }
    case Step::Op::kValueBetween: {
      const exec::ColumnVector& col = batch.column(step.col);
      for (uint32_t row : in) {
        exec::Value v = col.ValueAt(row);
        if (v.Compare(step.value_lo) >= 0 && v.Compare(step.value_hi) <= 0) {
          out->push_back(row);
        }
      }
      return;
    }
    case Step::Op::kColumnCmp: {
      const exec::ColumnVector& a = batch.column(step.col);
      const exec::ColumnVector& b = batch.column(step.col2);
      for (uint32_t row : in) {
        if (CmpHolds(step.cmp, a.ValueAt(row).Compare(b.ValueAt(row)))) {
          out->push_back(row);
        }
      }
      return;
    }
    case Step::Op::kWithinBox: {
      const exec::ColumnVector& col = batch.column(step.col);
      if (col.storage() != Storage::kObject) return;  // never a geometry
      for (uint32_t row : in) {
        const exec::Value& v = col.ObjectAt(row);
        if (v.type() == exec::DataType::kGeometry) {
          if (v.geometry_value().Within(step.box)) out->push_back(row);
        } else if (v.type() == exec::DataType::kTrajectory &&
                   v.trajectory_value() != nullptr) {
          if (step.box.Intersects(v.trajectory_value()->Bounds())) {
            out->push_back(row);
          }
        }
        // Any other runtime type errors under the interpreter: row dropped.
      }
      return;
    }
    case Step::Op::kFallback: {
      for (uint32_t row : in) {
        exec::Row materialized = batch.MaterializeRow(row);
        auto v = step.bound.EvalBool(materialized);
        if (v.ok() && v.value()) out->push_back(row);
      }
      return;
    }
  }
}

Status PredicateProgram::Run(exec::ColumnBatch* batch,
                             PredicateStats* stats) const {
  std::vector<uint32_t> current;
  if (batch->has_selection()) {
    current = batch->selection();
  } else {
    current.resize(batch->num_rows());
    std::iota(current.begin(), current.end(), 0);
  }
  if (stats != nullptr) stats->rows_in += current.size();
  std::vector<uint32_t> next;
  next.reserve(current.size());
  for (const Step& step : steps_) {
    if (current.empty()) break;
    const auto t0 = Clock::now();
    next.clear();
    RunStep(step, *batch, current, &next);
    std::swap(current, next);
    if (stats != nullptr) {
      const uint64_t ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count());
      if (step.op == Step::Op::kFallback) {
        stats->interpreted_ns += ns;
      } else {
        stats->specialized_ns += ns;
      }
    }
  }
  batch->SetSelection(std::move(current));
  if (stats != nullptr) stats->rows_out += batch->num_active();
  return Status::OK();
}

const char* PredicateProgram::ModeLabel() const {
  if (steps_.empty() || fallback_steps_ == 0) return "specialized";
  if (fallback_steps_ == steps_.size()) return "interpreted";
  return "partial";
}

std::string PredicateProgram::DebugString() const {
  std::string out;
  for (const Step& step : steps_) {
    if (!out.empty()) out += "; ";
    switch (step.op) {
      case Step::Op::kConstFalse:
        out += "const_false";
        break;
      case Step::Op::kNumericCmp:
        out += "numeric_cmp(col=" + std::to_string(step.col) + ")";
        break;
      case Step::Op::kNumericBetween:
        out += "numeric_between(col=" + std::to_string(step.col) + ")";
        break;
      case Step::Op::kStringCmp:
        out += "string_cmp(col=" + std::to_string(step.col) + ")";
        break;
      case Step::Op::kValueCmp:
        out += "value_cmp(col=" + std::to_string(step.col) + ")";
        break;
      case Step::Op::kValueBetween:
        out += "value_between(col=" + std::to_string(step.col) + ")";
        break;
      case Step::Op::kColumnCmp:
        out += "column_cmp(" + std::to_string(step.col) + "," +
               std::to_string(step.col2) + ")";
        break;
      case Step::Op::kWithinBox:
        out += "within_box(col=" + std::to_string(step.col) + ")";
        break;
      case Step::Op::kFallback:
        out += "fallback(" + step.fallback->ToString() + ")";
        break;
    }
  }
  return out.empty() ? "pass" : out;
}

// --- Plan cache -----------------------------------------------------------

PredicateProgramCache& PredicateProgramCache::Global() {
  static PredicateProgramCache* cache = new PredicateProgramCache();
  return *cache;
}

PredicateProgramCache::PredicateProgramCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Result<std::shared_ptr<const PredicateProgram>>
PredicateProgramCache::GetOrCompile(const std::vector<const Expr*>& conjuncts,
                                    const exec::Schema& schema,
                                    const std::string& cache_tag) {
  static obs::Counter* hits =
      obs::Registry::Global().GetCounter("just_sql_plan_cache_hits_total");
  static obs::Counter* misses =
      obs::Registry::Global().GetCounter("just_sql_plan_cache_misses_total");
  static obs::Counter* evictions = obs::Registry::Global().GetCounter(
      "just_sql_plan_cache_evictions_total");

  std::string key = cache_tag;
  key += '\x1e';
  key += schema.ToString();
  for (const Expr* conjunct : conjuncts) {
    key += '\x1f';
    key += conjunct->ToString();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      hits->Increment();
      return it->second->program;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  misses->Increment();
  JUST_ASSIGN_OR_RETURN(auto program,
                        PredicateProgram::Compile(conjuncts, schema));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) return it->second->program;  // raced: keep theirs
  lru_.push_front(Entry{key, program});
  map_[std::move(key)] = lru_.begin();
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    evictions->Increment();
  }
  return program;
}

size_t PredicateProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void PredicateProgramCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
}

}  // namespace just::sql
