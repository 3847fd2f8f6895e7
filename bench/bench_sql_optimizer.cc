// Reproduces Figure 8: the logical-plan optimization of Section VI. Prints
// the analyzed and optimized plans for the paper's example query, and
// benchmarks the end-to-end SQL path with and without the optimizer rules
// (the optimizer's payoff: the filter reaches the scan, so the Z2 index is
// used instead of a full scan).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "exec/column_batch.h"
#include "sql/analyzer.h"
#include "sql/executor.h"
#include "sql/expr_eval.h"
#include "sql/justql.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/predicate_program.h"

namespace just::bench {
namespace {

const char* kFigure8Query =
    "SELECT fid, geom FROM (SELECT * FROM orders) t "
    "WHERE fid = 52 * 9 AND geom WITHIN "
    "st_makeMBR(116.35, 39.85, 116.45, 39.95) "
    "ORDER BY time";

void BM_OptimizedExecution(benchmark::State& state) {
  Fixture* fx = GetFixture(Dataset::kOrder, 100, Variant::kJust);
  sql::JustQL ql(fx->engine.get());
  for (auto _ : state) {
    auto result = ql.Execute(fx->user, kFigure8Query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}

void BM_UnoptimizedExecution(benchmark::State& state) {
  // Analyze but skip Optimize: the filter stays above the subquery project,
  // so the executor cannot translate it into index SCANs.
  Fixture* fx = GetFixture(Dataset::kOrder, 100, Variant::kJust);
  auto stmt = sql::ParseStatement(kFigure8Query);
  if (!stmt.ok()) {
    state.SkipWithError(stmt.status().ToString().c_str());
    return;
  }
  sql::Analyzer analyzer(fx->engine.get(), fx->user);
  for (auto _ : state) {
    auto plan = analyzer.Analyze(*stmt->select);
    if (!plan.ok()) {
      state.SkipWithError(plan.status().ToString().c_str());
      return;
    }
    sql::Executor executor(fx->engine.get(), fx->user);
    auto frame = executor.Execute(**plan);
    if (!frame.ok()) {
      state.SkipWithError(frame.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(frame);
  }
}

void BM_ParseAndOptimizeOnly(benchmark::State& state) {
  Fixture* fx = GetFixture(Dataset::kOrder, 100, Variant::kJust);
  sql::Analyzer analyzer(fx->engine.get(), fx->user);
  for (auto _ : state) {
    auto stmt = sql::ParseStatement(kFigure8Query);
    auto plan = analyzer.Analyze(*stmt->select);
    auto optimized = sql::Optimize(std::move(*plan));
    benchmark::DoNotOptimize(optimized);
  }
}

// --- Post-scan refinement: row-at-a-time vs vectorized -------------------
//
// The same selective residual predicate (a numeric cutoff keeping ~5% of
// rows plus a string disequality) evaluated over the whole Order table,
// isolated from scan I/O: the data is decoded once outside the timing loop.
// RowAtATime is the legacy path (BoundExpr tree-walk per row); Vectorized
// is the compiled predicate program over column batches. rows_per_sec is
// the headline acceptance number.

struct RefineSetup {
  exec::DataFrame frame;
  exec::BatchVector batches;
  sql::Statement stmt;
  sql::BoundExpr bound;
  std::shared_ptr<const sql::PredicateProgram> program;
};

RefineSetup* GetRefineSetup() {
  static RefineSetup* setup = [] {
    Fixture* fx = GetFixture(Dataset::kOrder, 100, Variant::kJust);
    auto* s = new RefineSetup();
    auto meta = fx->engine->DescribeTable(fx->user, fx->table);
    auto batches = fx->engine->Query(fx->user, fx->table, core::QuerySpec{});
    if (!meta.ok() || !batches.ok()) std::abort();
    s->frame = exec::BatchesToDataFrame(meta->MakeSchema(), *batches);
    s->batches = exec::BatchesFromDataFrame(s->frame);

    TimestampMs cutoff =
        fx->time_lo + (fx->time_hi - fx->time_lo) / 20;  // ~5% selective
    auto stmt = sql::ParseStatement(
        "SELECT * FROM orders WHERE time < " + std::to_string(cutoff) +
        " AND fid != 'order_none'");
    if (!stmt.ok()) std::abort();
    s->stmt = std::move(*stmt);
    const sql::Expr& where = *s->stmt.select->where;
    auto bound = sql::BoundExpr::Bind(where, s->frame.schema());
    if (!bound.ok()) std::abort();
    s->bound = std::move(*bound);
    auto program = sql::PredicateProgram::Compile(where, s->frame.schema());
    if (!program.ok()) std::abort();
    s->program = std::move(*program);
    return s;
  }();
  return setup;
}

void BM_RefineRowAtATime(benchmark::State& state) {
  RefineSetup* s = GetRefineSetup();
  size_t kept = 0;
  for (auto _ : state) {
    kept = 0;
    for (const exec::Row& row : s->frame.rows()) {
      auto ok = s->bound.EvalBool(row);
      if (ok.ok() && ok.value()) ++kept;
    }
    benchmark::DoNotOptimize(kept);
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * s->frame.num_rows()),
      benchmark::Counter::kIsRate);
  state.counters["selectivity"] =
      static_cast<double>(kept) / static_cast<double>(s->frame.num_rows());
}

void BM_RefineVectorized(benchmark::State& state) {
  RefineSetup* s = GetRefineSetup();
  size_t kept = 0;
  for (auto _ : state) {
    kept = 0;
    for (exec::ColumnBatch& batch : s->batches) {
      batch.ClearSelection();
      if (!s->program->Run(&batch).ok()) {
        state.SkipWithError("program run failed");
        return;
      }
      kept += batch.num_active();
    }
    benchmark::DoNotOptimize(kept);
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * s->frame.num_rows()),
      benchmark::Counter::kIsRate);
  state.counters["selectivity"] =
      static_cast<double>(kept) / static_cast<double>(s->frame.num_rows());
}

// End-to-end SQL with the same residual shape, through the executor. The
// time bound picks the temporal_range path, which reads only the periods
// before the cutoff: rows_per_sec counts the rows the scan read.
void BM_RefineEndToEnd(benchmark::State& state) {
  Fixture* fx = GetFixture(Dataset::kOrder, 100, Variant::kJust);
  RefineSetup* s = GetRefineSetup();
  sql::Analyzer analyzer(fx->engine.get(), fx->user);
  auto plan = analyzer.Analyze(*s->stmt.select);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  auto optimized = sql::Optimize(std::move(*plan));
  if (!optimized.ok()) {
    state.SkipWithError(optimized.status().ToString().c_str());
    return;
  }
  sql::Executor executor(fx->engine.get(), fx->user);
  size_t rows = 0;
  core::QueryStats stats;
  for (auto _ : state) {
    stats = core::QueryStats{};
    auto frame = executor.Execute(**optimized, &stats);
    if (!frame.ok()) {
      state.SkipWithError(frame.status().ToString().c_str());
      return;
    }
    rows = frame->num_rows();
    benchmark::DoNotOptimize(frame);
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * stats.rows_scanned),
      benchmark::Counter::kIsRate);
  state.counters["rows_scanned"] = static_cast<double>(stats.rows_scanned);
  state.counters["rows_out"] = static_cast<double>(rows);
}

}  // namespace
}  // namespace just::bench

int main(int argc, char** argv) {
  using namespace just::bench;  // NOLINT
  benchmark::RegisterBenchmark("Fig8/ParseAnalyzeOptimize",
                               BM_ParseAndOptimizeOnly)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Fig8/Execute/Optimized",
                               BM_OptimizedExecution)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Fig8/Execute/Unoptimized",
                               BM_UnoptimizedExecution)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Refine/RowAtATime", BM_RefineRowAtATime)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Refine/Vectorized", BM_RefineVectorized)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Refine/EndToEnd/Vectorized",
                               BM_RefineEndToEnd)
      ->MeasureProcessCPUTime();
  just::bench::RunBenchmarks(argc, argv);

  // Print the Figure 8 plans.
  Fixture* fx = GetFixture(Dataset::kOrder, 100, Variant::kJust);
  just::sql::JustQL ql(fx->engine.get());
  auto explain = ql.ExplainSelect(fx->user, kFigure8Query);
  if (explain.ok()) {
    std::printf("\nFigure 8 — logical plan before/after optimization\n%s\n",
                explain->c_str());
  }
  return 0;
}
