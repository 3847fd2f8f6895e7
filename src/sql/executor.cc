#include "sql/executor.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <numeric>

#include "exec/operators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/access_path.h"
#include "sql/expr_eval.h"
#include "sql/functions.h"

namespace just::sql {

namespace {

/// Span label for one row-at-a-time operator.
std::string PlanNodeLabel(const PlanNode& plan) {
  switch (plan.kind) {
    case PlanNode::Kind::kProject:
      return "Project";
    case PlanNode::Kind::kAggregate:
      return "Aggregate";
    case PlanNode::Kind::kSort:
      return "Sort";
    case PlanNode::Kind::kLimit:
      return "Limit";
    case PlanNode::Kind::kJoin:
      return "Join";
    default:
      return "Unknown";
  }
}

/// True for a 1-N / N-M analysis-function project (a single table- or
/// partition-function call): it reshapes rows, so it runs row-at-a-time and
/// no row budget may be pushed below it.
bool IsAnalysisProject(const PlanNode& plan) {
  if (plan.items.size() != 1 ||
      plan.items[0].expr->kind != Expr::Kind::kCall) {
    return false;
  }
  const std::string& fn = plan.items[0].expr->call_name;
  return FindTableFunction(fn) != nullptr ||
         FindPartitionFunction(fn) != nullptr;
}

}  // namespace

std::string TableCacheTag(const meta::TableMeta& table_meta) {
  return std::to_string(table_meta.table_id) + ":" +
         std::to_string(table_meta.generation);
}

Result<exec::DataFrame> Executor::ExecuteAnalysisProject(
    const PlanNode& node, core::QueryStats* stats) {
  const Expr& call = *node.items[0].expr;
  const std::string& fn_name = call.call_name;
  const TableFunction* tf = FindTableFunction(fn_name);
  const PartitionFunction* pf = FindPartitionFunction(fn_name);
  JUST_ASSIGN_OR_RETURN(auto input, ExecuteInner(*node.children[0], stats));
  if (call.args.empty()) {
    return Status::InvalidArgument(fn_name + " needs an input column");
  }
  // Extra args must be constants.
  std::vector<exec::Value> extra;
  for (size_t i = 1; i < call.args.size(); ++i) {
    JUST_ASSIGN_OR_RETURN(auto v, EvaluateConstant(*call.args[i]));
    extra.push_back(std::move(v));
  }
  if (tf != nullptr) {
    exec::DataFrame out(node.schema);
    for (const exec::Row& row : input.rows()) {
      JUST_ASSIGN_OR_RETURN(auto value,
                            EvaluateExpr(*call.args[0], input.schema(), row));
      JUST_ASSIGN_OR_RETURN(auto produced, tf->fn(value, extra));
      for (auto& r : produced) out.AddRow(std::move(r));
    }
    return out;
  }
  std::vector<exec::Value> column;
  column.reserve(input.num_rows());
  for (const exec::Row& row : input.rows()) {
    JUST_ASSIGN_OR_RETURN(auto value,
                          EvaluateExpr(*call.args[0], input.schema(), row));
    column.push_back(std::move(value));
  }
  JUST_ASSIGN_OR_RETURN(auto produced, pf->fn(column, extra));
  exec::DataFrame out(node.schema);
  for (auto& r : produced) out.AddRow(std::move(r));
  return out;
}

Result<exec::DataFrame> Executor::Execute(const PlanNode& plan,
                                          core::QueryStats* stats) {
  return ExecuteInner(plan, stats);
}

bool Executor::CanExecuteBatch(const PlanNode& plan) const {
  switch (plan.kind) {
    case PlanNode::Kind::kScanTable:
    case PlanNode::Kind::kScanView:
    case PlanNode::Kind::kFilter:
      return true;
    case PlanNode::Kind::kProject:
      return !IsAnalysisProject(plan);
    case PlanNode::Kind::kAggregate:
      // Global (ungrouped) aggregation runs as column loops; grouped
      // aggregation hashes row keys and stays row-oriented.
      return plan.group_by.empty();
    default:
      return false;
  }
}

Result<exec::DataFrame> Executor::ExecuteInner(const PlanNode& plan,
                                               core::QueryStats* stats) {
  if (CanExecuteBatch(plan)) {
    JUST_ASSIGN_OR_RETURN(auto out, ExecuteBatch(plan, stats));
    return exec::BatchesToDataFrame(out.schema, out.batches);
  }
  // Row-at-a-time operators: those with no columnar twin.
  obs::ScopedSpan span(PlanNodeLabel(plan));
  auto result = [&]() -> Result<exec::DataFrame> {
    switch (plan.kind) {
      case PlanNode::Kind::kProject:
        return ExecuteAnalysisProject(plan, stats);
      case PlanNode::Kind::kAggregate: {
        JUST_ASSIGN_OR_RETURN(auto input,
                              ExecuteInner(*plan.children[0], stats));
        return exec::GroupBy(input, plan.group_by, plan.aggregates);
      }
      case PlanNode::Kind::kSort: {
        JUST_ASSIGN_OR_RETURN(auto input,
                              ExecuteInner(*plan.children[0], stats));
        std::vector<exec::SortKey> keys;
        for (const auto& item : plan.order_by) {
          keys.push_back({item.column, item.ascending});
        }
        return exec::Sort(input, keys);
      }
      case PlanNode::Kind::kLimit: {
        // LIMIT over a scan chain stops the scan after ~limit matching rows
        // instead of materializing the whole table first.
        JUST_ASSIGN_OR_RETURN(auto pushed, TryLimitPushdown(plan, stats));
        if (pushed.has_value()) return std::move(*pushed);
        JUST_ASSIGN_OR_RETURN(auto input,
                              ExecuteInner(*plan.children[0], stats));
        return exec::Limit(input, static_cast<size_t>(plan.limit));
      }
      case PlanNode::Kind::kJoin: {
        JUST_ASSIGN_OR_RETURN(auto left,
                              ExecuteInner(*plan.children[0], stats));
        JUST_ASSIGN_OR_RETURN(auto right,
                              ExecuteInner(*plan.children[1], stats));
        return exec::HashJoin(left, right, plan.join_left_col,
                              plan.join_right_col);
      }
      default:
        return Status::Internal("bad plan node");
    }
  }();
  if (span.span() != nullptr && result.ok()) {
    span.span()->counters().rows_out.store(result->num_rows(),
                                           std::memory_order_relaxed);
  }
  return result;
}

Result<std::optional<exec::DataFrame>> Executor::TryLimitPushdown(
    const PlanNode& limit_node, core::QueryStats* stats) {
  if (limit_node.limit <= 0) return std::optional<exec::DataFrame>{};
  const size_t limit = static_cast<size_t>(limit_node.limit);

  // Qualifying chain: Limit -> Project* (row-preserving) -> [Filter] -> table
  // scan. Anything else (views, sorts, joins, analysis functions that
  // reshape cardinality) keeps the materialize-then-truncate path.
  std::vector<const PlanNode*> projects;
  const PlanNode* node = limit_node.children[0].get();
  while (node->kind == PlanNode::Kind::kProject) {
    if (IsAnalysisProject(*node)) {
      return std::optional<exec::DataFrame>{};  // a row budget below is wrong
    }
    projects.push_back(node);
    node = node->children[0].get();
  }
  const Expr* predicate = nullptr;
  if (node->kind == PlanNode::Kind::kFilter) {
    predicate = node->predicate.get();
    node = node->children[0].get();
  }
  if (node->kind != PlanNode::Kind::kScanTable) {
    return std::optional<exec::DataFrame>{};
  }

  JUST_ASSIGN_OR_RETURN(auto out,
                        ExecuteScanBatch(*node, predicate, stats, limit));
  // Replay the (row-preserving) projects innermost-first over the few
  // surviving rows.
  for (size_t pi = projects.size(); pi-- > 0;) {
    JUST_ASSIGN_OR_RETURN(out, ProjectBatches(*projects[pi], std::move(out),
                                              /*span=*/nullptr));
  }
  // The budgeted scan may overshoot within its last batch; truncate exactly.
  return std::optional<exec::DataFrame>(exec::Limit(
      exec::BatchesToDataFrame(out.schema, std::move(out.batches)), limit));
}

// --- Columnar pipeline ------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Per-stage batch accounting: process-wide counters plus the stage's span.
void RecordBatchStage(obs::TraceSpan* span, size_t batches, size_t rows) {
  static obs::Counter* batches_total =
      obs::Registry::Global().GetCounter("just_sql_batches_total");
  static obs::Counter* rows_total =
      obs::Registry::Global().GetCounter("just_sql_batch_rows_total");
  batches_total->Add(batches);
  rows_total->Add(rows);
  if (span != nullptr) {
    span->counters().batches.fetch_add(batches, std::memory_order_relaxed);
  }
}

/// The positions in `schema` of the columns `names` names; empty (every
/// column) when `names` is empty or names a column `schema` lacks.
core::ColumnMask ColumnMaskOf(const exec::Schema& schema,
                              const std::vector<std::string>& names) {
  if (names.empty()) return {};
  core::ColumnMask mask(schema.num_fields(), false);
  for (const std::string& name : names) {
    int idx = schema.IndexOf(name);
    if (idx < 0) return {};
    mask[static_cast<size_t>(idx)] = true;
  }
  return mask;
}

/// The active physical rows of `batch` as a flat index array. `scratch`
/// backs the no-selection case.
const uint32_t* ActiveRows(const exec::ColumnBatch& batch,
                           std::vector<uint32_t>* scratch, size_t* n) {
  *n = batch.num_active();
  if (batch.has_selection()) return batch.selection().data();
  scratch->resize(batch.num_rows());
  std::iota(scratch->begin(), scratch->end(), 0);
  return scratch->data();
}

}  // namespace

Result<Executor::BatchResult> Executor::ExecuteBatchOrConvert(
    const PlanNode& plan, core::QueryStats* stats) {
  if (CanExecuteBatch(plan)) return ExecuteBatch(plan, stats);
  JUST_ASSIGN_OR_RETURN(auto frame, ExecuteInner(plan, stats));
  BatchResult out{frame.schema_ptr(), {}};
  out.batches = exec::BatchesFromDataFrame(std::move(frame));
  return out;
}

Result<Executor::BatchResult> Executor::ExecuteBatch(const PlanNode& plan,
                                                     core::QueryStats* stats) {
  switch (plan.kind) {
    case PlanNode::Kind::kScanTable:
    case PlanNode::Kind::kScanView:
      return ExecuteScanBatch(plan, nullptr, stats);
    case PlanNode::Kind::kFilter: {
      obs::ScopedSpan span("Filter");
      auto result = [&]() -> Result<BatchResult> {
        const PlanNode& child = *plan.children[0];
        if (child.kind == PlanNode::Kind::kScanTable ||
            child.kind == PlanNode::Kind::kScanView) {
          // Fuse: the scan translates index-answerable predicates into
          // key-range SCANs and refines the residual columnar-ly.
          return ExecuteScanBatch(child, plan.predicate.get(), stats);
        }
        JUST_ASSIGN_OR_RETURN(auto input, ExecuteBatchOrConvert(child, stats));
        std::vector<const Expr*> conjuncts;
        SplitConjuncts(plan.predicate.get(), &conjuncts);
        JUST_RETURN_NOT_OK(RunPredicate(conjuncts, &input, span.span()));
        RecordBatchStage(span.span(), input.batches.size(),
                         exec::BatchesActiveRows(input.batches));
        return input;
      }();
      if (span.span() != nullptr && result.ok()) {
        span.span()->counters().rows_out.store(
            exec::BatchesActiveRows(result->batches),
            std::memory_order_relaxed);
      }
      return result;
    }
    case PlanNode::Kind::kProject:
      return ExecuteProjectBatch(plan, stats);
    case PlanNode::Kind::kAggregate:
      return ExecuteAggregateBatch(plan, stats);
    default:
      return Status::Internal("plan node is not batch-capable");
  }
}

Status Executor::RunPredicate(const std::vector<const Expr*>& conjuncts,
                              BatchResult* input, obs::TraceSpan* span,
                              const std::string& cache_tag) {
  if (conjuncts.empty()) return Status::OK();
  JUST_ASSIGN_OR_RETURN(auto program,
                        PredicateProgramCache::Global().GetOrCompile(
                            conjuncts, *input->schema, cache_tag));
  PredicateStats pstats;
  for (exec::ColumnBatch& batch : input->batches) {
    JUST_RETURN_NOT_OK(program->Run(&batch, &pstats));
  }
  if (span != nullptr) {
    span->counters().eval_specialized_ns.fetch_add(pstats.specialized_ns,
                                                   std::memory_order_relaxed);
    span->counters().eval_interpreted_ns.fetch_add(pstats.interpreted_ns,
                                                   std::memory_order_relaxed);
    span->AddAttr("eval_mode", program->ModeLabel());
  }
  return Status::OK();
}

Result<Executor::BatchResult> Executor::ProjectColumns(
    BatchResult input, const std::vector<std::string>& columns) {
  std::vector<int> indices;
  auto schema = std::make_shared<exec::Schema>();
  for (const std::string& name : columns) {
    int idx = input.schema->IndexOf(name);
    if (idx < 0) return Status::InvalidArgument("no such column: " + name);
    indices.push_back(idx);
    schema->AddField(input.schema->field(static_cast<size_t>(idx)));
  }
  BatchResult out{schema, {}};
  out.batches.reserve(input.batches.size());
  std::vector<uint32_t> scratch;
  for (const exec::ColumnBatch& batch : input.batches) {
    size_t n = 0;
    const uint32_t* rows = ActiveRows(batch, &scratch, &n);
    std::vector<exec::ColumnVector> cols;
    cols.reserve(indices.size());
    for (int idx : indices) {
      cols.push_back(
          batch.column(static_cast<size_t>(idx)).Gather(rows, n));
    }
    out.batches.push_back(
        exec::ColumnBatch::FromColumns(schema, std::move(cols), n));
  }
  return out;
}

Result<Executor::BatchResult> Executor::ExecuteScanBatch(
    const PlanNode& scan, const Expr* predicate, core::QueryStats* stats,
    size_t limit) {
  obs::ScopedSpan span("Scan " + scan.name);
  auto result = ExecuteScanBatchImpl(scan, predicate, stats, span.span(),
                                     limit);
  if (span.span() != nullptr && result.ok()) {
    span.span()->counters().rows_out.store(
        exec::BatchesActiveRows(result->batches), std::memory_order_relaxed);
  }
  return result;
}

Result<Executor::BatchResult> Executor::ExecuteScanBatchImpl(
    const PlanNode& scan, const Expr* predicate, core::QueryStats* stats,
    obs::TraceSpan* span, size_t limit) {
  if (scan.kind == PlanNode::Kind::kScanView) {
    JUST_ASSIGN_OR_RETURN(auto frame, engine_->GetView(user_, scan.name));
    BatchResult result{frame.schema_ptr(), {}};
    result.batches = exec::BatchesFromDataFrame(std::move(frame));
    if (predicate != nullptr) {
      std::vector<const Expr*> conjuncts;
      SplitConjuncts(predicate, &conjuncts);
      JUST_RETURN_NOT_OK(RunPredicate(conjuncts, &result, span));
    }
    RecordBatchStage(span, result.batches.size(),
                     exec::BatchesActiveRows(result.batches));
    if (!scan.required_columns.empty()) {
      return ProjectColumns(std::move(result), scan.required_columns);
    }
    return result;
  }

  JUST_ASSIGN_OR_RETURN(auto table_meta,
                        engine_->DescribeTable(user_, scan.name));
  // Pull index-answerable predicates out of the conjunction.
  std::vector<const Expr*> conjuncts;
  if (predicate != nullptr) SplitConjuncts(predicate, &conjuncts);
  JUST_ASSIGN_OR_RETURN(auto path,
                        ChooseAccessPath(engine_, user_, table_meta,
                                         conjuncts));
  const std::string cache_tag = TableCacheTag(table_meta);
  BatchResult result{table_meta.MakeSchema(), {}};

  // Pushdown: every scan but k-NN (which ranks whole rows) runs the
  // residual per batch inside the scan, decodes only the columns the query
  // keeps or reads, and stops at `limit` rows when one is given.
  const bool push = path.kind != AccessPath::Kind::kKnn;
  core::ScanBudget pushdown;
  std::shared_ptr<const PredicateProgram> program;
  std::atomic<uint64_t> specialized_ns{0};
  std::atomic<uint64_t> interpreted_ns{0};
  if (push) {
    pushdown.limit = limit;
    if (!path.residual.empty()) {
      JUST_ASSIGN_OR_RETURN(program,
                            PredicateProgramCache::Global().GetOrCompile(
                                path.residual, *result.schema, cache_tag));
      // An interpreted step evaluates whole rows, so only a fully
      // specialized program reads just the columns it names.
      if (program->fully_specialized()) {
        std::vector<std::string> read;
        for (const Expr* conjunct : path.residual) {
          CollectColumns(*conjunct, &read);
        }
        pushdown.residual_columns = ColumnMaskOf(*result.schema, read);
      }
      // Runs on the scan's per-server tasks: stats accumulate atomically.
      pushdown.residual = [&](exec::ColumnBatch* batch) {
        PredicateStats pstats;
        Status st = program->Run(batch, &pstats);
        specialized_ns.fetch_add(pstats.specialized_ns,
                                 std::memory_order_relaxed);
        interpreted_ns.fetch_add(pstats.interpreted_ns,
                                 std::memory_order_relaxed);
        return st;
      };
    }
    pushdown.projected = ColumnMaskOf(*result.schema, scan.required_columns);
  }

  if (span != nullptr) span->AddAttr("access", path.label);
  JUST_ASSIGN_OR_RETURN(result.batches,
                        engine_->Query(user_, scan.name, path, stats,
                                       push ? &pushdown : nullptr));

  if (program != nullptr) {
    // The residual already ran inside the scan; attribute it.
    if (span != nullptr) {
      span->counters().eval_specialized_ns.fetch_add(
          specialized_ns.load(), std::memory_order_relaxed);
      span->counters().eval_interpreted_ns.fetch_add(
          interpreted_ns.load(), std::memory_order_relaxed);
      span->AddAttr("eval_mode", program->ModeLabel());
    }
  } else {
    JUST_RETURN_NOT_OK(RunPredicate(path.residual, &result, span, cache_tag));
  }
  RecordBatchStage(span, result.batches.size(),
                   exec::BatchesActiveRows(result.batches));
  if (!scan.required_columns.empty()) {
    return ProjectColumns(std::move(result), scan.required_columns);
  }
  return result;
}

Result<Executor::BatchResult> Executor::ExecuteProjectBatch(
    const PlanNode& node, core::QueryStats* stats) {
  obs::ScopedSpan span("Project");
  JUST_ASSIGN_OR_RETURN(auto input,
                        ExecuteBatchOrConvert(*node.children[0], stats));
  return ProjectBatches(node, std::move(input), span.span());
}

Result<Executor::BatchResult> Executor::ProjectBatches(const PlanNode& node,
                                                       BatchResult input,
                                                       obs::TraceSpan* span) {
  // Bind items once per query: pure column references copy column-wise; any
  // other expression evaluates per surviving row with pre-bound offsets.
  struct ItemPlan {
    int col = -1;  ///< source column for a pure reference; -1 = expression
    BoundExpr bound;
  };
  std::vector<ItemPlan> item_plans;
  item_plans.reserve(node.items.size());
  bool any_expr = false;
  for (const auto& item : node.items) {
    ItemPlan ip;
    if (item.expr->kind == Expr::Kind::kColumn) {
      ip.col = input.schema->IndexOf(item.expr->column);
    }
    if (ip.col < 0) {
      JUST_ASSIGN_OR_RETURN(ip.bound,
                            BoundExpr::Bind(*item.expr, *input.schema));
      any_expr = true;
    }
    item_plans.push_back(std::move(ip));
  }

  BatchResult out{node.schema, {}};
  out.batches.reserve(input.batches.size());
  uint64_t specialized_ns = 0;
  uint64_t interpreted_ns = 0;
  std::vector<uint32_t> scratch;
  for (const exec::ColumnBatch& batch : input.batches) {
    size_t n = 0;
    const uint32_t* rows = ActiveRows(batch, &scratch, &n);
    std::vector<exec::ColumnVector> cols;
    cols.reserve(item_plans.size());
    for (size_t i = 0; i < item_plans.size(); ++i) {
      if (item_plans[i].col >= 0) {
        const auto t0 = Clock::now();
        cols.push_back(
            batch.column(static_cast<size_t>(item_plans[i].col))
                .Gather(rows, n));
        specialized_ns += ElapsedNs(t0);
      } else {
        cols.emplace_back(node.schema->field(i).type);
      }
    }
    if (any_expr) {
      const auto t0 = Clock::now();
      for (size_t r = 0; r < n; ++r) {
        exec::Row row = batch.MaterializeRow(rows[r]);
        for (size_t i = 0; i < item_plans.size(); ++i) {
          if (item_plans[i].col >= 0) continue;
          JUST_ASSIGN_OR_RETURN(auto value, item_plans[i].bound.Eval(row));
          cols[i].AppendValue(std::move(value));
        }
      }
      interpreted_ns += ElapsedNs(t0);
    }
    out.batches.push_back(
        exec::ColumnBatch::FromColumns(node.schema, std::move(cols), n));
  }
  RecordBatchStage(span, out.batches.size(),
                   exec::BatchesActiveRows(out.batches));
  if (span != nullptr) {
    span->counters().eval_specialized_ns.fetch_add(specialized_ns,
                                                   std::memory_order_relaxed);
    span->counters().eval_interpreted_ns.fetch_add(interpreted_ns,
                                                   std::memory_order_relaxed);
    span->counters().rows_out.store(exec::BatchesActiveRows(out.batches),
                                    std::memory_order_relaxed);
  }
  return out;
}

Result<Executor::BatchResult> Executor::ExecuteAggregateBatch(
    const PlanNode& node, core::QueryStats* stats) {
  obs::ScopedSpan span("Aggregate");
  JUST_ASSIGN_OR_RETURN(auto input,
                        ExecuteBatchOrConvert(*node.children[0], stats));
  using Storage = exec::ColumnVector::Storage;

  struct Spec {
    exec::AggFunc func;
    int index;  // -1 for COUNT(*)
  };
  std::vector<Spec> specs;
  for (const exec::Aggregate& agg : node.aggregates) {
    int idx = -1;
    if (!agg.column.empty()) {
      idx = input.schema->IndexOf(agg.column);
      if (idx < 0) {
        return Status::InvalidArgument("no such column: " + agg.column);
      }
    }
    specs.push_back({agg.func, idx});
  }

  // Mirrors the row-at-a-time AggState exactly (null skipping, sum_valid,
  // Value-ordered min/max), but consumes columns: typed storages run flat
  // int64/double loops; everything else walks generic Values.
  struct State {
    int64_t count = 0;
    double sum = 0;
    bool sum_valid = true;
    exec::Value min, max;
    bool has_minmax = false;

    void Merge(const exec::Value& v) {
      if (!has_minmax) {
        min = v;
        max = v;
        has_minmax = true;
      } else {
        if (v.Compare(min) < 0) min = v;
        if (v.Compare(max) > 0) max = v;
      }
    }
  };
  std::vector<State> states(specs.size());

  uint64_t specialized_ns = 0;
  uint64_t interpreted_ns = 0;
  std::vector<uint32_t> scratch;
  for (const exec::ColumnBatch& batch : input.batches) {
    size_t n = 0;
    const uint32_t* rows = ActiveRows(batch, &scratch, &n);
    for (size_t a = 0; a < specs.size(); ++a) {
      State& st = states[a];
      if (specs[a].index < 0) {
        st.count += static_cast<int64_t>(n);  // COUNT(*)
        continue;
      }
      const exec::ColumnVector& col =
          batch.column(static_cast<size_t>(specs[a].index));
      if (col.storage() == Storage::kInt64) {
        const auto t0 = Clock::now();
        const int64_t* data = col.i64_data();
        int64_t lo = 0, hi = 0;
        bool any = false;
        for (size_t i = 0; i < n; ++i) {
          uint32_t row = rows[i];
          if (col.has_nulls() && col.IsNull(row)) continue;
          int64_t v = data[row];
          ++st.count;
          st.sum += static_cast<double>(v);
          if (!any) {
            lo = hi = v;
            any = true;
          } else {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
        }
        if (any) {
          // Render extremes per the declared type, then merge Value-wise so
          // mixed (degraded) batches stay comparable.
          auto render = [&](int64_t v) {
            switch (col.declared_type()) {
              case exec::DataType::kBool:
                return exec::Value::Bool(v != 0);
              case exec::DataType::kTimestamp:
                return exec::Value::Timestamp(v);
              default:
                return exec::Value::Int(v);
            }
          };
          st.Merge(render(lo));
          st.Merge(render(hi));
        }
        specialized_ns += ElapsedNs(t0);
      } else if (col.storage() == Storage::kDouble) {
        const auto t0 = Clock::now();
        const double* data = col.f64_data();
        double lo = 0, hi = 0;
        bool any = false;
        for (size_t i = 0; i < n; ++i) {
          uint32_t row = rows[i];
          if (col.has_nulls() && col.IsNull(row)) continue;
          double v = data[row];
          ++st.count;
          st.sum += v;
          if (!any) {
            lo = hi = v;
            any = true;
          } else {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
        }
        if (any) {
          st.Merge(exec::Value::Double(lo));
          st.Merge(exec::Value::Double(hi));
        }
        specialized_ns += ElapsedNs(t0);
      } else {
        const auto t0 = Clock::now();
        for (size_t i = 0; i < n; ++i) {
          exec::Value v = col.ValueAt(rows[i]);
          if (v.is_null()) continue;
          ++st.count;
          auto d = v.AsDouble();
          if (d.ok()) {
            st.sum += d.value();
          } else {
            st.sum_valid = false;
          }
          st.Merge(v);
        }
        interpreted_ns += ElapsedNs(t0);
      }
    }
  }

  // Output schema mirrors exec::GroupBy's global-aggregation shape.
  auto schema = std::make_shared<exec::Schema>();
  for (size_t a = 0; a < node.aggregates.size(); ++a) {
    exec::DataType type =
        specs[a].func == exec::AggFunc::kCount
            ? exec::DataType::kInt
            : (specs[a].index >= 0 &&
                       (specs[a].func == exec::AggFunc::kMin ||
                        specs[a].func == exec::AggFunc::kMax)
                   ? input.schema->field(static_cast<size_t>(specs[a].index))
                         .type
                   : exec::DataType::kDouble);
    schema->AddField(exec::Field{node.aggregates[a].output_name, type});
  }
  exec::Row row;
  row.reserve(specs.size());
  for (size_t a = 0; a < specs.size(); ++a) {
    const State& st = states[a];
    switch (specs[a].func) {
      case exec::AggFunc::kCount:
        row.push_back(exec::Value::Int(st.count));
        break;
      case exec::AggFunc::kSum:
        row.push_back(st.count == 0 || !st.sum_valid
                          ? exec::Value::Null()
                          : exec::Value::Double(st.sum));
        break;
      case exec::AggFunc::kAvg:
        row.push_back(st.count == 0 || !st.sum_valid
                          ? exec::Value::Null()
                          : exec::Value::Double(
                                st.sum / static_cast<double>(st.count)));
        break;
      case exec::AggFunc::kMin:
        row.push_back(st.has_minmax ? st.min : exec::Value::Null());
        break;
      case exec::AggFunc::kMax:
        row.push_back(st.has_minmax ? st.max : exec::Value::Null());
        break;
    }
  }
  BatchResult out{schema, {}};
  exec::ColumnBatch result_batch(schema);
  result_batch.AppendRow(std::move(row));
  out.batches.push_back(std::move(result_batch));
  RecordBatchStage(span.span(), 1, 1);
  if (span.span() != nullptr) {
    span.span()->counters().eval_specialized_ns.fetch_add(
        specialized_ns, std::memory_order_relaxed);
    span.span()->counters().eval_interpreted_ns.fetch_add(
        interpreted_ns, std::memory_order_relaxed);
    span.span()->counters().rows_out.store(1, std::memory_order_relaxed);
  }
  return out;
}

}  // namespace just::sql
