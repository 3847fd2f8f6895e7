// Ablations of the design choices DESIGN.md calls out (not figures from the
// paper, but the knobs behind them):
//   1. Shard count — GeoMesa's random key prefix: one shard serializes all
//      SCANs on one server; more shards parallelize (Section IV-A's load
//      balance argument).
//   2. SFC range budget — fewer, looser ranges scan more foreign rows;
//      many tight ranges pay more per-SCAN overhead (the planner trade-off
//      behind Section IV-B's analysis).
//   3. Block cache size — the HBase cache the paper's methodology disables;
//      shows why they had to.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"
#include "workload/generators.h"

namespace just::bench_ablation {

using namespace just;  // NOLINT

struct Setup {
  std::unique_ptr<core::JustEngine> engine;
  workload::QueryCenters centers;
  TimestampMs base = 0;
};

Setup MakeEngine(const std::string& tag, int num_shards, int max_ranges,
                 size_t block_cache_bytes) {
  kv::SetSimulatedReadBandwidthMBps(300.0);
  Setup setup;
  core::EngineOptions options;
  options.data_dir = "/tmp/just_ablation/" + tag;
  std::filesystem::remove_all(options.data_dir);
  options.num_servers = 4;
  options.num_shards = num_shards;
  options.index.max_ranges_per_period = max_ranges;
  options.store.block_cache_bytes = block_cache_bytes;
  auto engine = core::JustEngine::Open(options);
  if (!engine.ok()) std::abort();
  setup.engine = std::move(engine).value();

  meta::TableMeta table;
  table.user = "ab";
  table.name = "orders";
  table.columns = {
      {"fid", exec::DataType::kString, true, "", ""},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "", ""},
  };
  table.indexes = {{curve::IndexType::kZ2T, kMillisPerDay}};
  if (!setup.engine->CreateTable(table).ok()) std::abort();

  workload::OrderOptions gen;
  gen.num_orders = 40000;
  std::vector<exec::Row> batch;
  for (const auto& order : workload::GenerateOrders(gen)) {
    batch.push_back({exec::Value::String(order.fid),
                     exec::Value::Timestamp(order.time),
                     exec::Value::GeometryVal(
                         geo::Geometry::MakePoint(order.point))});
  }
  setup.engine->InsertBatch("ab", "orders", batch).ok();
  setup.engine->Finalize().ok();
  setup.base = ParseTimestamp(gen.start_date).value();
  setup.centers = workload::SampleQueryCenters(gen.area, gen.start_date,
                                               gen.num_days, 100, 4242);
  return setup;
}

void RunStQueries(benchmark::State& state, Setup* setup) {
  size_t qi = 0;
  for (auto _ : state) {
    size_t i = qi++ % setup->centers.centers.size();
    geo::Mbr box = geo::SquareWindowKm(setup->centers.centers[i], 3.0);
    TimestampMs t0 = TimePeriodStart(
        TimePeriodNumber(setup->centers.times[i], kMillisPerDay),
        kMillisPerDay);
    auto result = setup->engine->Query(
        "ab", "orders",
        core::QuerySpec::StRange(box, t0, t0 + kMillisPerDay - 1));
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}

void BM_Shards(benchmark::State& state) {
  int shards = static_cast<int>(state.range(0));
  static std::map<int, Setup>* cache = new std::map<int, Setup>();
  if (cache->count(shards) == 0) {
    (*cache)[shards] =
        MakeEngine("shards" + std::to_string(shards), shards, 64, 64 << 10);
  }
  RunStQueries(state, &(*cache)[shards]);
}

void BM_RangeBudget(benchmark::State& state) {
  int budget = static_cast<int>(state.range(0));
  static std::map<int, Setup>* cache = new std::map<int, Setup>();
  if (cache->count(budget) == 0) {
    (*cache)[budget] =
        MakeEngine("budget" + std::to_string(budget), 8, budget, 64 << 10);
  }
  RunStQueries(state, &(*cache)[budget]);
}

void BM_BlockCache(benchmark::State& state) {
  size_t cache_bytes = static_cast<size_t>(state.range(0)) << 10;
  static std::map<int64_t, Setup>* cache = new std::map<int64_t, Setup>();
  if (cache->count(state.range(0)) == 0) {
    (*cache)[state.range(0)] = MakeEngine(
        "cache" + std::to_string(state.range(0)), 8, 64, cache_bytes);
  }
  RunStQueries(state, &(*cache)[state.range(0)]);
}

}  // namespace just::bench_ablation

int main(int argc, char** argv) {
  using namespace just::bench_ablation;  // NOLINT
  benchmark::RegisterBenchmark("Ablation/ST/shards", BM_Shards)
      ->Arg(1)
      ->Arg(4)
      ->Arg(8)
      ->Arg(16)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Ablation/ST/range_budget", BM_RangeBudget)
      ->Arg(8)
      ->Arg(64)
      ->Arg(512)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Ablation/ST/block_cache_KiB", BM_BlockCache)
      ->Arg(4)
      ->Arg(64)
      ->Arg(32768)
      ->MeasureProcessCPUTime();
  just::bench::RunBenchmarks(argc, argv);
  return 0;
}
