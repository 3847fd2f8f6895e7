#ifndef JUST_SQL_EXECUTOR_H_
#define JUST_SQL_EXECUTOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "exec/column_batch.h"
#include "obs/trace.h"
#include "sql/plan.h"
#include "sql/predicate_program.h"

namespace just::sql {

/// The plan-cache tag ("table_id:generation") scoping compiled programs to
/// one catalog entry; see PredicateProgramCache::GetOrCompile.
std::string TableCacheTag(const meta::TableMeta& table_meta);

/// Physical execution (Section VI, "SQL Execute"): spatial / spatio-temporal
/// / k-NN / secondary-index predicates adjacent to a table scan become one
/// JustEngine::Query (GeoMesa key-range SCANs); everything else runs as
/// DataFrame operations (the Spark SQL role).
///
/// Post-scan refinement is columnar: scans produce ColumnBatches, residual
/// predicates compile once per query into flat type-specialized programs
/// (cached in PredicateProgramCache), and filter / plain-project / global-
/// aggregate stages run as tight loops over column vectors connected by
/// selection vectors. Sort, limit, join, grouped aggregation and analysis
/// functions have no columnar twin: they materialize rows at their input
/// boundary and run row-at-a-time.
///
/// The executor holds no per-query state: scan statistics are returned
/// through the optional `stats` out-parameter, so one instance can run plans
/// from many threads concurrently. When a trace is active on the calling
/// thread (EXPLAIN ANALYZE), every operator contributes a span with batch
/// counts and interpreted-vs-specialized evaluation time.
class Executor {
 public:
  Executor(core::JustEngine* engine, std::string user)
      : engine_(engine), user_(std::move(user)) {}

  /// Runs the plan. `stats`, when non-null, accumulates the key-range scan
  /// statistics of every indexed scan in the plan.
  Result<exec::DataFrame> Execute(const PlanNode& plan,
                                  core::QueryStats* stats = nullptr);

 private:
  /// A run of batches plus the schema they share (needed when the run is
  /// empty).
  struct BatchResult {
    std::shared_ptr<exec::Schema> schema;
    exec::BatchVector batches;
  };

  /// True when the node itself executes on the columnar path (children are
  /// converted at their boundary if they do not).
  bool CanExecuteBatch(const PlanNode& plan) const;

  Result<exec::DataFrame> ExecuteInner(const PlanNode& plan,
                                       core::QueryStats* stats);

  // --- Columnar pipeline ---
  Result<BatchResult> ExecuteBatch(const PlanNode& plan,
                                   core::QueryStats* stats);
  /// ExecuteBatch when capable, otherwise row-execute and convert.
  Result<BatchResult> ExecuteBatchOrConvert(const PlanNode& plan,
                                            core::QueryStats* stats);
  /// Table scans other than k-NN get the residual predicate and the kept
  /// columns pushed in (core::ScanBudget). `limit` > 0 also pushes a row
  /// budget (LIMIT pushdown): the scan stops fetching once that many rows
  /// survive the access path plus the residual, instead of materializing
  /// the whole table. The result may overshoot; the caller truncates.
  Result<BatchResult> ExecuteScanBatch(const PlanNode& scan,
                                       const Expr* predicate,
                                       core::QueryStats* stats,
                                       size_t limit = 0);
  Result<BatchResult> ExecuteScanBatchImpl(const PlanNode& scan,
                                           const Expr* predicate,
                                           core::QueryStats* stats,
                                           obs::TraceSpan* span, size_t limit);
  Result<BatchResult> ExecuteProjectBatch(const PlanNode& node,
                                          core::QueryStats* stats);
  /// Evaluates `node`'s (row-preserving) items over `input`, attributing
  /// batch counts and evaluation time to `span` (may be null).
  Result<BatchResult> ProjectBatches(const PlanNode& node, BatchResult input,
                                     obs::TraceSpan* span);
  Result<BatchResult> ExecuteAggregateBatch(const PlanNode& node,
                                            core::QueryStats* stats);
  /// Compiles `conjuncts` through the plan cache and filters every batch,
  /// attributing batch counts and per-mode evaluation time to `span`.
  /// `cache_tag` scopes the cached program to a catalog entry (see
  /// PredicateProgramCache::GetOrCompile); "" for non-table inputs.
  Status RunPredicate(const std::vector<const Expr*>& conjuncts,
                      BatchResult* input, obs::TraceSpan* span,
                      const std::string& cache_tag = "");
  /// LIMIT pushdown: when the child chain is
  /// Limit -> Project* (row-preserving) -> [Filter] -> table scan, runs the
  /// scan with a row budget so LIMIT 10 over a huge table stops after ~10
  /// matching rows instead of materializing everything. Returns nullopt
  /// when the chain does not qualify (views, analysis functions).
  Result<std::optional<exec::DataFrame>> TryLimitPushdown(
      const PlanNode& limit_node, core::QueryStats* stats);
  /// Keeps the named columns (scan projection pushdown), column-wise.
  Result<BatchResult> ProjectColumns(
      BatchResult input, const std::vector<std::string>& columns);

  /// A 1-N / N-M analysis-function project, row-at-a-time.
  Result<exec::DataFrame> ExecuteAnalysisProject(const PlanNode& node,
                                                 core::QueryStats* stats);

  core::JustEngine* engine_;
  std::string user_;
};

}  // namespace just::sql

#endif  // JUST_SQL_EXECUTOR_H_
