// Secondary-index acceptance bench: an attribute + spatial-box query
// (courier_id = X AND geom WITHIN box) over a >=100k-row order table,
// answered two ways on identical data:
//   - full refinement: the spatial curve index drives, the courier
//     predicate runs as residual refinement over every row in the box;
//   - hybrid index: a CREATE INDEX secondary index drives (covering
//     entries, curve-intersection refinement) and reads only the matches.
// The indexed path must be >=10x faster. Also measures the online index
// build's backfill throughput (rows/s).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "sql/justql.h"

namespace just::bench {
namespace {

constexpr int kRows = 120000;
constexpr int kCouriers = 500;  // 240 orders per courier
constexpr const char* kPredicate =
    "courier = 'c7' AND geom WITHIN st_makeMBR(116.0, 39.5, 116.7, 40.5)";

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SecIdxFixture {
  std::unique_ptr<core::JustEngine> engine;
  std::unique_ptr<sql::JustQL> ql;
  int64_t index_build_ms = 0;
  std::string user = "bench";
};

/// One engine, two tables with identical data: `orders_plain` (curve
/// indexes only) and `orders_idx` (plus a ready secondary index on
/// courier). Built once per process.
SecIdxFixture* GetSecIdxFixture() {
  static SecIdxFixture* fixture = [] {
    auto* fx = new SecIdxFixture();
    std::string dir = BenchDataRoot() + "/secondary_index";
    std::filesystem::create_directories(dir);
    core::EngineOptions options;
    options.data_dir = dir;
    options.num_servers = 2;
    options.num_shards = 4;
    auto engine = core::JustEngine::Open(options);
    if (!engine.ok()) {
      std::fprintf(stderr, "open: %s\n", engine.status().ToString().c_str());
      std::abort();
    }
    fx->engine = std::move(engine).value();

    TimestampMs base = ParseTimestamp("2018-10-01").value();
    for (const char* name : {"orders_plain", "orders_idx"}) {
      meta::TableMeta table;
      table.user = fx->user;
      table.name = name;
      table.columns = {
          {"fid", exec::DataType::kString, true, "", ""},
          {"courier", exec::DataType::kString, false, "", ""},
          {"time", exec::DataType::kTimestamp, false, "", ""},
          {"geom", exec::DataType::kGeometry, false, "", ""},
      };
      if (!fx->engine->CreateTable(table).ok()) std::abort();
      Rng rng(97);  // identical data in both tables
      std::vector<exec::Row> chunk;
      chunk.reserve(10000);
      for (int i = 0; i < kRows; ++i) {
        chunk.push_back({
            exec::Value::String("o" + std::to_string(i)),
            exec::Value::String("c" + std::to_string(i % kCouriers)),
            exec::Value::Timestamp(base + (i % 86400) * 1000),
            exec::Value::GeometryVal(geo::Geometry::MakePoint(
                {116.0 + rng.NextDouble(), 39.5 + rng.NextDouble()})),
        });
        if (chunk.size() == 10000) {
          if (!fx->engine->InsertBatch(fx->user, name, chunk).ok()) {
            std::abort();
          }
          chunk.clear();
        }
      }
      if (!fx->engine->Finalize().ok()) std::abort();
    }

    int64_t start = NowMs();
    Status built = fx->engine->CreateIndex(fx->user, "orders_idx",
                                           "idx_courier", "courier");
    fx->index_build_ms = NowMs() - start;
    if (!built.ok()) {
      std::fprintf(stderr, "build: %s\n", built.ToString().c_str());
      std::abort();
    }
    fx->ql = std::make_unique<sql::JustQL>(fx->engine.get());
    return fx;
  }();
  return fixture;
}

size_t RunQuery(SecIdxFixture* fx, const std::string& table) {
  auto result = fx->ql->Execute(
      fx->user, "SELECT fid FROM " + table + " WHERE " + kPredicate);
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
    std::abort();
  }
  return result->frame.num_rows();
}

void BM_AttrBoxQuery(benchmark::State& state, const std::string& table) {
  SecIdxFixture* fx = GetSecIdxFixture();
  size_t rows = 0;
  for (auto _ : state) {
    rows = RunQuery(fx, table);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["result_rows"] = static_cast<double>(rows);
}

void BM_IndexBuild(benchmark::State& state) {
  SecIdxFixture* fx = GetSecIdxFixture();
  for (auto _ : state) {
    int64_t start = NowMs();
    Status built = fx->engine->CreateIndex(fx->user, "orders_plain",
                                           "idx_tmp", "courier");
    int64_t elapsed = NowMs() - start;
    state.PauseTiming();
    if (!built.ok()) {
      state.SkipWithError(built.ToString().c_str());
      return;
    }
    state.counters["build_rows_per_sec"] =
        elapsed > 0 ? 1000.0 * kRows / static_cast<double>(elapsed)
                    : static_cast<double>(kRows);
    if (!fx->engine->DropIndex(fx->user, "orders_plain", "idx_tmp").ok()) {
      state.SkipWithError("drop failed");
      return;
    }
    state.ResumeTiming();
  }
}

/// Prints the acceptance comparison: indexed vs full-refinement latency on
/// identical data, and the speedup (target: >=10x).
void PrintSummary() {
  SecIdxFixture* fx = GetSecIdxFixture();
  size_t plain_rows = RunQuery(fx, "orders_plain");  // warm both paths
  size_t idx_rows = RunQuery(fx, "orders_idx");
  constexpr int kReps = 5;
  int64_t plain_ms = 0;
  int64_t idx_ms = 0;
  for (int i = 0; i < kReps; ++i) {
    int64_t start = NowMs();
    RunQuery(fx, "orders_plain");
    plain_ms += NowMs() - start;
    start = NowMs();
    RunQuery(fx, "orders_idx");
    idx_ms += NowMs() - start;
  }
  double plain_avg = static_cast<double>(plain_ms) / kReps;
  double idx_avg = static_cast<double>(idx_ms) / kReps;
  std::printf(
      "\nSecondary index — attribute+box query over %d rows "
      "(%zu matches)\n", kRows, idx_rows);
  std::printf("  full refinement : %10.2f ms/query (rows=%zu)\n", plain_avg,
              plain_rows);
  std::printf("  hybrid index    : %10.2f ms/query (rows=%zu)\n", idx_avg,
              idx_rows);
  std::printf("  speedup         : %10.1fx (acceptance: >=10x)\n",
              idx_avg > 0 ? plain_avg / idx_avg : plain_avg);
  std::printf("  online build    : %lld ms for %d rows (%.0f rows/s)\n",
              static_cast<long long>(fx->index_build_ms), kRows,
              fx->index_build_ms > 0
                  ? 1000.0 * kRows / static_cast<double>(fx->index_build_ms)
                  : static_cast<double>(kRows));
  if (plain_rows != idx_rows) {
    std::fprintf(stderr, "MISMATCH: indexed path returned %zu rows, "
                         "full refinement %zu\n", idx_rows, plain_rows);
    std::exit(1);
  }
}

}  // namespace
}  // namespace just::bench

int main(int argc, char** argv) {
  using namespace just::bench;  // NOLINT
  benchmark::RegisterBenchmark("SecondaryIndex/AttrBoxQuery/full_refinement",
                               [](benchmark::State& s) {
                                 BM_AttrBoxQuery(s, "orders_plain");
                               })
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("SecondaryIndex/AttrBoxQuery/indexed",
                               [](benchmark::State& s) {
                                 BM_AttrBoxQuery(s, "orders_idx");
                               })
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("SecondaryIndex/OnlineBuild", BM_IndexBuild)
      ->Iterations(1)
      ->MeasureProcessCPUTime();
  just::bench::RunBenchmarks(argc, argv);
  PrintSummary();
  return 0;
}
