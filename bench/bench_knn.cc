// Reproduces Figure 13a-13d: k-NN query time vs data size and vs k.
// Paper shape:
//   - All systems grow mildly with data size and k.
//   - JUST is competitive with Simba on Order and much faster than
//     GeoSpark / LocationSpark (it locates qualified records directly and
//     scans in parallel; Algorithm 1 + Lemma 1 prune the expansion).
//   - On Traj, Simba OOMs at 40%; JUST slightly beats JUSTnc.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace just::bench {
namespace {

constexpr int kDefaultK = 100;  // Table IV bold default

void RunJustKnn(benchmark::State& state, Dataset dataset, Variant variant,
                int pct, int k) {
  Fixture* fx = GetFixture(dataset, pct, variant);
  size_t qi = 0;
  for (auto _ : state) {
    const geo::Point& q =
        fx->centers.centers[qi++ % fx->centers.centers.size()];
    auto result = fx->engine->Query(fx->user, fx->table,
                                    core::QuerySpec::Knn(q, k));
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}

void RunBaselineKnn(benchmark::State& state, Dataset dataset,
                    const std::string& system_name, int pct, int k) {
  Fixture* fx = GetFixture(dataset, pct, Variant::kJust);
  auto system =
      baselines::MakeBaseline(system_name, CalibratedBaselineOptions(dataset));
  if (!system.ok()) {
    state.SkipWithError(system.status().ToString().c_str());
    return;
  }
  Status built = (*system)->BuildIndex(ToBaselineRecords(*fx));
  if (!built.ok()) {
    state.SkipWithError(built.ToString().c_str());
    return;
  }
  size_t qi = 0;
  for (auto _ : state) {
    const geo::Point& q =
        fx->centers.centers[qi++ % fx->centers.centers.size()];
    auto result = (*system)->Knn(q, k);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}

void RegisterAll() {
  const std::vector<std::string> kOrderSystems = {
      "GeoSpark", "LocationSpark", "Simba", "SpatialHadoop"};
  const std::vector<std::string> kTrajSystems = {"GeoSpark", "Simba"};

  // Fig 13a / 13b: data size sweeps at k = 100.
  benchmark::RegisterBenchmark("Fig13a/Order/JUST",
                               [](benchmark::State& s) {
                                 RunJustKnn(s, Dataset::kOrder, Variant::kJust,
                                            static_cast<int>(s.range(0)),
                                            kDefaultK);
                               })
      ->DenseRange(20, 100, 40)
      ->MeasureProcessCPUTime();
  for (const std::string& system : kOrderSystems) {
    benchmark::RegisterBenchmark(
        ("Fig13a/Order/" + system).c_str(),
        [system](benchmark::State& s) {
          RunBaselineKnn(s, Dataset::kOrder, system,
                         static_cast<int>(s.range(0)), kDefaultK);
        })
        ->DenseRange(20, 100, 40)
        ->MeasureProcessCPUTime();
  }
  for (Variant v : {Variant::kJust, Variant::kNoCompress}) {
    benchmark::RegisterBenchmark(
        (std::string("Fig13b/Traj/") + VariantName(v)).c_str(),
        [v](benchmark::State& s) {
          RunJustKnn(s, Dataset::kTraj, v, static_cast<int>(s.range(0)),
                     kDefaultK);
        })
        ->DenseRange(20, 100, 40)
        ->MeasureProcessCPUTime();
  }
  for (const std::string& system : kTrajSystems) {
    benchmark::RegisterBenchmark(
        ("Fig13b/Traj/" + system).c_str(),
        [system](benchmark::State& s) {
          RunBaselineKnn(s, Dataset::kTraj, system,
                         static_cast<int>(s.range(0)), kDefaultK);
        })
        ->DenseRange(20, 100, 40)
        ->MeasureProcessCPUTime();
  }

  // Fig 13c / 13d: k sweeps (50..250) at 100% data.
  benchmark::RegisterBenchmark("Fig13c/Order/JUST",
                               [](benchmark::State& s) {
                                 RunJustKnn(s, Dataset::kOrder, Variant::kJust,
                                            100,
                                            static_cast<int>(s.range(0)));
                               })
      ->DenseRange(50, 250, 100)
      ->MeasureProcessCPUTime();
  for (const std::string& system :
       {std::string("GeoSpark"), std::string("LocationSpark"),
        std::string("Simba")}) {
    benchmark::RegisterBenchmark(
        ("Fig13c/Order/" + system).c_str(),
        [system](benchmark::State& s) {
          RunBaselineKnn(s, Dataset::kOrder, system, 100,
                         static_cast<int>(s.range(0)));
        })
        ->DenseRange(50, 250, 100)
        ->MeasureProcessCPUTime();
  }
  for (Variant v : {Variant::kJust, Variant::kNoCompress}) {
    benchmark::RegisterBenchmark(
        (std::string("Fig13d/Traj/") + VariantName(v)).c_str(),
        [v](benchmark::State& s) {
          RunJustKnn(s, Dataset::kTraj, v, 100, static_cast<int>(s.range(0)));
        })
        ->DenseRange(50, 250, 100)
        ->MeasureProcessCPUTime();
  }
  benchmark::RegisterBenchmark(
      "Fig13d/Traj/GeoSpark",
      [](benchmark::State& s) {
        RunBaselineKnn(s, Dataset::kTraj, "GeoSpark", 100,
                       static_cast<int>(s.range(0)));
      })
      ->DenseRange(50, 250, 100)
      ->MeasureProcessCPUTime();
}

}  // namespace
}  // namespace just::bench

int main(int argc, char** argv) {
  just::bench::RegisterAll();
  just::bench::RunBenchmarks(argc, argv);
  return 0;
}
