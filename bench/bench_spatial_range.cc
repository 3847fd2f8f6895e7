// Reproduces Figure 11a-11d: spatial range query time vs data size and vs
// spatial window, for JUST and the comparison systems. Paper shape:
//   - All systems grow with data size and window size.
//   - JUST ~ the Spark-likes (same decade), far below SpatialHadoop
//     (which pays a MapReduce job per query).
//   - On Traj, JUST < JUSTnc (compression cuts scan I/O); the in-memory
//     systems OOM per their Fig 10d thresholds (reported as bench errors).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "obs/metrics.h"

namespace just::bench {
namespace {

constexpr double kDefaultWindowKm = 3.0;

void RunJustQueries(benchmark::State& state, Dataset dataset, Variant variant,
                    int pct, double window_km) {
  Fixture* fx = GetFixture(dataset, pct, variant);
  size_t qi = 0;
  size_t results = 0;
  auto bytes_read = [] {
    return obs::Registry::Global().CounterValue("just_kv_bytes_read_total");
  };
  // The budget `SELECT *` gets: a trajectory's GPS list decodes only for
  // the rows refinement keeps.
  const core::ScanBudget select_all;
  uint64_t io_before = bytes_read();
  for (auto _ : state) {
    geo::Mbr box = geo::SquareWindowKm(
        fx->centers.centers[qi++ % fx->centers.centers.size()], window_km);
    auto result =
        fx->engine->Query(fx->user, fx->table,
                          core::QuerySpec::SpatialRange(box), nullptr,
                          &select_all);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    results += exec::BatchesActiveRows(*result);
    benchmark::DoNotOptimize(result);
  }
  double iters = static_cast<double>(std::max<int64_t>(1, state.iterations()));
  state.counters["avg_rows"] = static_cast<double>(results) / iters;
  // The Fig 11b/11d mechanism: compression cuts bytes read from the store.
  // (Wall-clock benefits require a cold cache; see EXPERIMENTS.md.)
  state.counters["io_KB_per_query"] =
      static_cast<double>(bytes_read() - io_before) /
      1024.0 / iters;
}

void RunBaselineQueries(benchmark::State& state, Dataset dataset,
                        const std::string& system_name, int pct,
                        double window_km) {
  Fixture* fx = GetFixture(dataset, pct, Variant::kJust);
  auto system =
      baselines::MakeBaseline(system_name, CalibratedBaselineOptions(dataset));
  if (!system.ok()) {
    state.SkipWithError(system.status().ToString().c_str());
    return;
  }
  Status built = (*system)->BuildIndex(ToBaselineRecords(*fx));
  if (!built.ok()) {
    state.SkipWithError(built.ToString().c_str());  // the paper's OOM gaps
    return;
  }
  size_t qi = 0;
  for (auto _ : state) {
    geo::Mbr box = geo::SquareWindowKm(
        fx->centers.centers[qi++ % fx->centers.centers.size()], window_km);
    auto result = (*system)->SpatialRange(box);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}

void RegisterAll() {
  const std::vector<std::string> kOrderSystems = {
      "GeoSpark", "LocationSpark", "SpatialSpark", "Simba", "SpatialHadoop"};
  const std::vector<std::string> kTrajSystems = {"GeoSpark", "SpatialSpark",
                                                 "Simba"};

  // Fig 11a / 11b: vary data size at the default 3x3 km window.
  benchmark::RegisterBenchmark("Fig11a/Order/JUST",
                               [](benchmark::State& s) {
                                 RunJustQueries(s, Dataset::kOrder,
                                                Variant::kJust,
                                                static_cast<int>(s.range(0)),
                                                kDefaultWindowKm);
                               })
      ->DenseRange(20, 100, 40)
      ->MeasureProcessCPUTime();
  for (const std::string& system : kOrderSystems) {
    benchmark::RegisterBenchmark(
        ("Fig11a/Order/" + system).c_str(),
        [system](benchmark::State& s) {
          RunBaselineQueries(s, Dataset::kOrder, system,
                             static_cast<int>(s.range(0)), kDefaultWindowKm);
        })
        ->DenseRange(20, 100, 40)
        ->MeasureProcessCPUTime();
  }
  for (Variant v : {Variant::kJust, Variant::kNoCompress}) {
    benchmark::RegisterBenchmark(
        (std::string("Fig11b/Traj/") + VariantName(v)).c_str(),
        [v](benchmark::State& s) {
          RunJustQueries(s, Dataset::kTraj, v, static_cast<int>(s.range(0)),
                         kDefaultWindowKm);
        })
        ->DenseRange(20, 100, 40)
        ->MeasureProcessCPUTime();
  }
  for (const std::string& system : kTrajSystems) {
    benchmark::RegisterBenchmark(
        ("Fig11b/Traj/" + system).c_str(),
        [system](benchmark::State& s) {
          RunBaselineQueries(s, Dataset::kTraj, system,
                             static_cast<int>(s.range(0)), kDefaultWindowKm);
        })
        ->DenseRange(20, 100, 40)
        ->MeasureProcessCPUTime();
  }

  // Fig 11c / 11d: vary the spatial window at 100% data (SpatialSpark runs
  // at 80% on Traj, as the paper does after its 100% failure).
  benchmark::RegisterBenchmark("Fig11c/Order/JUST",
                               [](benchmark::State& s) {
                                 RunJustQueries(
                                     s, Dataset::kOrder, Variant::kJust, 100,
                                     static_cast<double>(s.range(0)));
                               })
      ->DenseRange(1, 5, 1)
      ->MeasureProcessCPUTime();
  for (const std::string& system : kOrderSystems) {
    benchmark::RegisterBenchmark(
        ("Fig11c/Order/" + system).c_str(),
        [system](benchmark::State& s) {
          RunBaselineQueries(s, Dataset::kOrder, system, 100,
                             static_cast<double>(s.range(0)));
        })
        ->DenseRange(1, 5, 1)
        ->MeasureProcessCPUTime();
  }
  for (Variant v : {Variant::kJust, Variant::kNoCompress}) {
    benchmark::RegisterBenchmark(
        (std::string("Fig11d/Traj/") + VariantName(v)).c_str(),
        [v](benchmark::State& s) {
          RunJustQueries(s, Dataset::kTraj, v, 100,
                         static_cast<double>(s.range(0)));
        })
        ->DenseRange(1, 5, 1)
        ->MeasureProcessCPUTime();
  }
  for (const std::string& system : {std::string("GeoSpark"),
                                    std::string("SpatialSpark")}) {
    int pct = system == "SpatialSpark" ? 80 : 100;
    benchmark::RegisterBenchmark(
        ("Fig11d/Traj/" + system).c_str(),
        [system, pct](benchmark::State& s) {
          RunBaselineQueries(s, Dataset::kTraj, system, pct,
                             static_cast<double>(s.range(0)));
        })
        ->DenseRange(1, 5, 1)
        ->MeasureProcessCPUTime();
  }
}

}  // namespace
}  // namespace just::bench

int main(int argc, char** argv) {
  just::bench::RegisterAll();
  just::bench::RunBenchmarks(argc, argv);
  return 0;
}
