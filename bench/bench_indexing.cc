// Reproduces Figure 10c / 10d: indexing time vs data size, JUST against the
// Spark-based systems. Paper shape:
//   - Order (Fig 10c): JUST pays more than the in-memory Spark systems
//     (its indexing includes durable storing), but stays in the same decade.
//   - Traj (Fig 10d): Simba OOMs at 40%, SpatialSpark fails at 100%;
//     JUST < JUSTnc because compressed writes do less disk I/O. The
//     Hadoop systems are omitted as in the paper (hours-long index builds).

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.h"

namespace just::bench {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void BM_JustIndexing(benchmark::State& state, Dataset dataset,
                     Variant variant) {
  int pct = static_cast<int>(state.range(0));
  Fixture* fx = GetFixture(dataset, pct, variant);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx->index_build_ms);
  }
  state.counters["index_time_ms"] =
      static_cast<double>(fx->index_build_ms);
}

void BM_BaselineIndexing(benchmark::State& state, Dataset dataset,
                         const std::string& system_name) {
  int pct = static_cast<int>(state.range(0));
  Fixture* fx = GetFixture(dataset, pct, Variant::kJust);
  auto options = CalibratedBaselineOptions(dataset);
  auto system = baselines::MakeBaseline(system_name, options);
  if (!system.ok()) {
    state.SkipWithError(system.status().ToString().c_str());
    return;
  }
  auto records = ToBaselineRecords(*fx);
  int64_t elapsed_ms = 0;
  for (auto _ : state) {
    int64_t start = NowMs();
    Status st = (*system)->BuildIndex(records);
    elapsed_ms = NowMs() - start;
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.counters["index_time_ms"] = static_cast<double>(elapsed_ms);
}

const std::vector<std::string>& SparkSystems() {
  static const std::vector<std::string>* systems =
      new std::vector<std::string>{"GeoSpark", "LocationSpark",
                                   "SpatialSpark", "Simba"};
  return *systems;
}

void PrintFigure(const char* figure, Dataset dataset,
                 const std::vector<Variant>& just_variants,
                 const std::vector<std::string>& systems) {
  std::printf("\n%s — indexing time (ms) vs data size, dataset=%s\n", figure,
              DatasetName(dataset));
  std::printf("%-12s", "Data Size");
  for (Variant v : just_variants) std::printf("%16s", VariantName(v));
  for (const auto& s : systems) std::printf("%16s", s.c_str());
  std::printf("\n");
  for (int pct : {20, 40, 60, 80, 100}) {
    std::printf("%10d%%  ", pct);
    for (Variant v : just_variants) {
      Fixture* fx = GetFixture(dataset, pct, v);
      std::printf("%16lld", static_cast<long long>(fx->index_build_ms));
    }
    auto options = CalibratedBaselineOptions(dataset);
    Fixture* fx = GetFixture(dataset, pct, Variant::kJust);
    auto records = ToBaselineRecords(*fx);
    for (const auto& name : systems) {
      auto system = baselines::MakeBaseline(name, options);
      int64_t start = NowMs();
      Status st = (*system)->BuildIndex(records);
      if (st.IsResourceExhausted()) {
        std::printf("%16s", "OOM");
      } else if (!st.ok()) {
        std::printf("%16s", "FAIL");
      } else {
        std::printf("%16lld", static_cast<long long>(NowMs() - start));
      }
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace just::bench

int main(int argc, char** argv) {
  using namespace just::bench;  // NOLINT
  for (int pct : {20, 60, 100}) {
    for (Dataset dataset : {Dataset::kOrder, Dataset::kTraj}) {
      std::string fig = dataset == Dataset::kOrder ? "Fig10c" : "Fig10d";
      benchmark::RegisterBenchmark(
          (fig + "/JUST").c_str(),
          [dataset](benchmark::State& s) {
            BM_JustIndexing(s, dataset, Variant::kJust);
          })
          ->Arg(pct)
          ->Iterations(1)
          ->MeasureProcessCPUTime();
      for (const std::string& system : SparkSystems()) {
        benchmark::RegisterBenchmark(
            (fig + "/" + system).c_str(),
            [dataset, system](benchmark::State& s) {
              BM_BaselineIndexing(s, dataset, system);
            })
            ->Arg(pct)
            ->Iterations(1)
            ->MeasureProcessCPUTime();
      }
    }
    benchmark::RegisterBenchmark("Fig10d/JUSTnc",
                                 [](benchmark::State& s) {
                                   BM_JustIndexing(s, Dataset::kTraj,
                                                   Variant::kNoCompress);
                                 })
        ->Arg(pct)
        ->Iterations(1)
        ->MeasureProcessCPUTime();
  }
  just::bench::RunBenchmarks(argc, argv);
  PrintFigure("Figure 10c", Dataset::kOrder, {Variant::kJust},
              SparkSystems());
  PrintFigure("Figure 10d", Dataset::kTraj,
              {Variant::kJust, Variant::kNoCompress},
              {"GeoSpark", "SpatialSpark", "Simba"});
  return 0;
}
