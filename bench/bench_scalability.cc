// Reproduces Figure 14a / 14b: scalability on the Synthetic dataset
// (copy & sample of Traj, Section VIII-F). Paper shape:
//   - Fig 14a: indexing time and storage size grow linearly with data size.
//   - Fig 14b: spatial range and k-NN query time grow with data size, but
//     the spatio-temporal range query is FLAT — the qualified time periods
//     are located directly, and the amount of records per period does not
//     change as copies land in new periods.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace just::bench {
namespace {

constexpr double kWindowKm = 3.0;
constexpr int kK = 100;

void BM_SyntheticIndexing(benchmark::State& state) {
  int pct = static_cast<int>(state.range(0));
  Fixture* fx = GetFixture(Dataset::kSynthetic, pct, Variant::kJust);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx->index_build_ms);
  }
  state.counters["index_time_ms"] = static_cast<double>(fx->index_build_ms);
  state.counters["storage_MB"] =
      static_cast<double>(fx->engine->GetStorageStats().disk_bytes) /
      (1 << 20);
}

void BM_SyntheticSpatial(benchmark::State& state) {
  int pct = static_cast<int>(state.range(0));
  Fixture* fx = GetFixture(Dataset::kSynthetic, pct, Variant::kJust);
  size_t qi = 0;
  for (auto _ : state) {
    geo::Mbr box = geo::SquareWindowKm(
        fx->centers.centers[qi++ % fx->centers.centers.size()], kWindowKm);
    auto result = fx->engine->Query(fx->user, fx->table,
                                    core::QuerySpec::SpatialRange(box));
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}

void BM_SyntheticSt(benchmark::State& state) {
  int pct = static_cast<int>(state.range(0));
  Fixture* fx = GetFixture(Dataset::kSynthetic, pct, Variant::kJust);
  size_t qi = 0;
  for (auto _ : state) {
    size_t i = qi++ % fx->centers.centers.size();
    geo::Mbr box = geo::SquareWindowKm(fx->centers.centers[i], kWindowKm);
    // Query inside the base month: present at every scale, so the result
    // set is size-independent — the flat line of Fig 14b.
    TimestampMs t0 = TimePeriodStart(
        TimePeriodNumber(fx->centers.times[i], kMillisPerDay), kMillisPerDay);
    auto result = fx->engine->Query(
        fx->user, fx->table,
        core::QuerySpec::StRange(box, t0, t0 + kMillisPerDay - 1));
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}

void BM_SyntheticKnn(benchmark::State& state) {
  int pct = static_cast<int>(state.range(0));
  Fixture* fx = GetFixture(Dataset::kSynthetic, pct, Variant::kJust);
  size_t qi = 0;
  for (auto _ : state) {
    const geo::Point& q =
        fx->centers.centers[qi++ % fx->centers.centers.size()];
    auto result = fx->engine->Query(fx->user, fx->table,
                                    core::QuerySpec::Knn(q, kK));
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}

}  // namespace
}  // namespace just::bench

int main(int argc, char** argv) {
  using namespace just::bench;  // NOLINT
  benchmark::RegisterBenchmark("Fig14a/Synthetic/IndexingAndStorage",
                               BM_SyntheticIndexing)
      ->DenseRange(20, 100, 20)
      ->Iterations(1)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Fig14b/Synthetic/S", BM_SyntheticSpatial)
      ->DenseRange(20, 100, 40)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Fig14b/Synthetic/ST", BM_SyntheticSt)
      ->DenseRange(20, 100, 40)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Fig14b/Synthetic/kNN", BM_SyntheticKnn)
      ->DenseRange(20, 100, 40)
      ->MeasureProcessCPUTime();
  just::bench::RunBenchmarks(argc, argv);
  return 0;
}
