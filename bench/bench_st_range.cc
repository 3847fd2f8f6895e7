// Reproduces Figure 12a-12d: spatio-temporal range query time. This is the
// headline experiment for the paper's Z2T/XZ2T contribution. Paper shape:
//   - Fig 12a (data size, Order): JUST < JUSTd < JUSTy < JUSTc — Z2T beats
//     Z3, and a longer Z3 period is worse than a shorter one... actually the
//     paper finds the *bigger* period variants slower; JUST (Z2T) fastest.
//   - Fig 12b (spatial window, Order): ST-Hadoop an order of magnitude
//     slower even at 20% of the data (job startup + disk).
//   - Fig 12c (spatial window, Traj): XZ2T beats the XZ3 variants and
//     JUSTnc.
//   - Fig 12d (time window, Order): all grow with the window; ST-Hadoop
//     stays far above.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace just::bench {
namespace {

constexpr double kDefaultWindowKm = 3.0;
constexpr int64_t kDefaultTimeWindowMs = kMillisPerDay;  // Table IV bold: 1d

void RunJustStQueries(benchmark::State& state, Dataset dataset,
                      Variant variant, int pct, double window_km,
                      int64_t time_window_ms) {
  Fixture* fx = GetFixture(dataset, pct, variant);
  size_t qi = 0;
  size_t results = 0;
  // The budget `SELECT *` gets: a trajectory's GPS list decodes only for
  // the rows refinement keeps.
  const core::ScanBudget select_all;
  for (auto _ : state) {
    size_t i = qi++ % fx->centers.centers.size();
    geo::Mbr box = geo::SquareWindowKm(fx->centers.centers[i], window_km);
    TimestampMs t0 = fx->centers.times[i];
    if (t0 + time_window_ms > fx->time_hi) {
      t0 = fx->time_hi - time_window_ms;
    }
    // Windows start on day boundaries, like the paper's canonical query
    // ("from 01:00 to 13:00 in one day"); the end is exclusive so a 1-day
    // window stays within one Z2T period.
    t0 = TimePeriodStart(TimePeriodNumber(t0, kMillisPerDay), kMillisPerDay);
    auto result = fx->engine->Query(
        fx->user, fx->table,
        core::QuerySpec::StRange(box, t0, t0 + time_window_ms - 1), nullptr,
        &select_all);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    results += exec::BatchesActiveRows(*result);
    benchmark::DoNotOptimize(result);
  }
  state.counters["avg_rows"] =
      static_cast<double>(results) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
  // Result-delivery throughput of the columnar scan+refine path.
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(results), benchmark::Counter::kIsRate);
}

void RunStHadoopQueries(benchmark::State& state, Dataset dataset, int pct,
                        double window_km, int64_t time_window_ms) {
  Fixture* fx = GetFixture(dataset, pct, Variant::kJust);
  auto system = baselines::MakeBaseline("ST-Hadoop",
                                        CalibratedBaselineOptions(dataset));
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
    size_t i = qi++ % fx->centers.centers.size();
    geo::Mbr box = geo::SquareWindowKm(fx->centers.centers[i], window_km);
    TimestampMs t0 = fx->centers.times[i];
    auto result = (*system)->StRange(box, t0, t0 + time_window_ms);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
}

const std::vector<Variant>& OrderVariants() {
  static const auto* variants = new std::vector<Variant>{
      Variant::kJust, Variant::kZ3Day, Variant::kZ3Year, Variant::kZ3Century};
  return *variants;
}

const std::vector<Variant>& TrajVariants() {
  static const auto* variants = new std::vector<Variant>{
      Variant::kJust, Variant::kNoCompress, Variant::kZ3Day, Variant::kZ3Year,
      Variant::kZ3Century};
  return *variants;
}

void RegisterAll() {
  // Fig 12a: data size sweep on Order, JUST vs the Z3-period variants.
  for (Variant v : OrderVariants()) {
    benchmark::RegisterBenchmark(
        (std::string("Fig12a/Order/") + VariantName(v)).c_str(),
        [v](benchmark::State& s) {
          RunJustStQueries(s, Dataset::kOrder, v,
                           static_cast<int>(s.range(0)), kDefaultWindowKm,
                           kDefaultTimeWindowMs);
        })
        ->DenseRange(20, 100, 40)
        ->MeasureProcessCPUTime();
  }
  // Fig 12b: spatial window sweep on Order (+ ST-Hadoop at 20% data).
  for (Variant v : OrderVariants()) {
    benchmark::RegisterBenchmark(
        (std::string("Fig12b/Order/") + VariantName(v)).c_str(),
        [v](benchmark::State& s) {
          RunJustStQueries(s, Dataset::kOrder, v, 100,
                           static_cast<double>(s.range(0)),
                           kDefaultTimeWindowMs);
        })
        ->DenseRange(1, 5, 2)
        ->MeasureProcessCPUTime();
  }
  benchmark::RegisterBenchmark("Fig12b/Order/ST-Hadoop(20pct)",
                               [](benchmark::State& s) {
                                 RunStHadoopQueries(
                                     s, Dataset::kOrder, 20,
                                     static_cast<double>(s.range(0)),
                                     kDefaultTimeWindowMs);
                               })
      ->DenseRange(1, 5, 2)
      ->MeasureProcessCPUTime();
  // Fig 12c: spatial window sweep on Traj, incl. JUSTnc.
  for (Variant v : TrajVariants()) {
    benchmark::RegisterBenchmark(
        (std::string("Fig12c/Traj/") + VariantName(v)).c_str(),
        [v](benchmark::State& s) {
          RunJustStQueries(s, Dataset::kTraj, v, 100,
                           static_cast<double>(s.range(0)),
                           kDefaultTimeWindowMs);
        })
        ->DenseRange(1, 5, 2)
        ->MeasureProcessCPUTime();
  }
  // Fig 12d: time window sweep on Order: 1h, 6h, 1d, 1w, 1m (Table IV).
  static const std::vector<std::pair<const char*, int64_t>> kTimeWindows = {
      {"1h", kMillisPerHour},
      {"6h", 6 * kMillisPerHour},
      {"1d", kMillisPerDay},
      {"1w", kMillisPerWeek},
      {"1m", kMillisPerMonth},
  };
  for (Variant v : OrderVariants()) {
    for (size_t w = 0; w < kTimeWindows.size(); ++w) {
      benchmark::RegisterBenchmark(
          (std::string("Fig12d/Order/") + VariantName(v) + "/window:" +
           kTimeWindows[w].first)
              .c_str(),
          [v, w, &kTimeWindows](benchmark::State& s) {
            RunJustStQueries(s, Dataset::kOrder, v, 100, kDefaultWindowKm,
                             kTimeWindows[w].second);
          })
          ->MeasureProcessCPUTime();
    }
  }
  for (size_t w = 0; w < kTimeWindows.size(); ++w) {
    benchmark::RegisterBenchmark(
        (std::string("Fig12d/Order/ST-Hadoop(20pct)/window:") +
         kTimeWindows[w].first)
            .c_str(),
        [w, &kTimeWindows](benchmark::State& s) {
          RunStHadoopQueries(s, Dataset::kOrder, 20, kDefaultWindowKm,
                             kTimeWindows[w].second);
        })
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
