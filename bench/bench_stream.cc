// Streaming-ingestion bench: a geofence continuous query standing on a
// vehicles table while rows stream in and ad-hoc scans run concurrently.
// Reports:
//   - Stream/IngestThroughput       streamed rows/s through the CQ kernel
//   - Stream/NotificationLatency    ingest-to-notification p50/p99 (us)
//   - Stream/AdHocScan/uncontended  scan latency with an idle stream
//   - Stream/AdHocScan/mixed_load   the same scan while a quota-limited
//                                   tenant floods the ingest path
// The acceptance bar: mixed-load scan p99 within 2x of the uncontended
// baseline with quotas enabled (the `p99_vs_uncontended` counter).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "sql/justql.h"
#include "sql/parser.h"
#include "stream/continuous_query.h"

namespace just::bench {
namespace {

constexpr int kPreloadRows = 20000;
constexpr const char* kFence = "st_makeMBR(116.30, 39.85, 116.50, 39.95)";

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(samples.size()));
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

struct StreamFixture {
  std::unique_ptr<core::JustEngine> engine;
  std::unique_ptr<sql::JustQL> ql;
  std::string user = "bench";
  /// WHERE expression of the geofence, parsed once and kept alive for the
  /// StreamHub registration (the hub borrows the predicate at Register).
  sql::Statement fence_stmt;
  /// Set by the on_notify probe: latency of the most recent notification,
  /// measured from just before InsertStream to the synchronous callback.
  int64_t notify_armed_us = 0;
  std::vector<double> notify_latencies_us;
  double uncontended_p99_us = 0;  ///< filled by the uncontended scan bench

  exec::Row MakeRow(int64_t id, double x, double y) const {
    return {exec::Value::String("s" + std::to_string(id)),
            exec::Value::String(id % 2 == 0 ? "chaoyang" : "haidian"),
            exec::Value::Double(static_cast<double>(id % 120)),
            exec::Value::Timestamp(1538352000000 + id),  // 2018-10-01 + id ms
            exec::Value::GeometryVal(geo::Geometry::MakePoint(
                {x, y}))};
  }
};

StreamFixture* GetStreamFixture() {
  static StreamFixture* fixture = [] {
    auto* fx = new StreamFixture();
    std::string dir = BenchDataRoot() + "/stream";
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
    fx->ql = std::make_unique<sql::JustQL>(fx->engine.get());

    // Two tables: `vehicles` receives the stream (and carries the standing
    // geofence); `fleet` is a static population for the ad-hoc scans, so the
    // scan bench measures *contention* with ingest, not table growth.
    for (const char* name : {"vehicles", "fleet"}) {
      auto created = fx->ql->Execute(
          fx->user, std::string("CREATE TABLE ") + name +
                        " (fid string:primary key, district string, "
                        "speed double, time date, geom point:srid=4326)");
      if (!created.ok()) std::abort();
    }
    Rng rng(41);
    std::vector<exec::Row> chunk;
    chunk.reserve(5000);
    for (int i = 0; i < kPreloadRows; ++i) {
      chunk.push_back(fx->MakeRow(i, 116.0 + rng.NextDouble(),
                                  39.5 + rng.NextDouble()));
      if (chunk.size() == 5000) {
        if (!fx->engine->InsertBatch(fx->user, "fleet", chunk).ok()) {
          std::abort();
        }
        chunk.clear();
      }
    }
    if (!fx->engine->Finalize().ok()) std::abort();

    // Quotas on for the whole bench: the write limit is what keeps the
    // mixed-load flood from starving the scan path.
    meta::TenantQuotaConfig quota;
    quota.write_rows_per_sec = 5000;
    quota.write_burst_rows = 512;
    if (!fx->engine->SetTenantQuota(fx->user, quota).ok()) std::abort();

    // The standing geofence, registered through the hub directly so the
    // on_notify probe can timestamp each notification.
    auto stmt = sql::ParseStatement(
        std::string("SELECT * FROM vehicles WHERE geom WITHIN ") + kFence);
    if (!stmt.ok()) std::abort();
    fx->fence_stmt = std::move(stmt).value();

    auto meta = fx->engine->DescribeTable(fx->user, "vehicles");
    if (!meta.ok()) std::abort();
    stream::ContinuousQuerySpec spec;
    spec.name = "fence";
    spec.user = fx->user;
    spec.table = "vehicles";
    spec.predicate_sql = fx->fence_stmt.select->where->ToString();
    spec.on_notify = [fx](const stream::Notification&) {
      if (fx->notify_armed_us != 0) {
        fx->notify_latencies_us.push_back(
            static_cast<double>(NowUs() - fx->notify_armed_us));
        fx->notify_armed_us = 0;
      }
    };
    std::string cache_tag = std::to_string(meta->table_id) + ":" +
                            std::to_string(meta->generation);
    Status reg = fx->engine->stream_hub()->Register(
        std::move(spec), meta->MakeSchema(), fx->fence_stmt.select->where.get(),
        cache_tag, meta->ColumnIndex("fid"), meta->ColumnIndex("time"));
    if (!reg.ok()) {
      std::fprintf(stderr, "register: %s\n", reg.ToString().c_str());
      std::abort();
    }
    return fx;
  }();
  return fixture;
}

/// Streams one batch of `n` rows; about half land inside the fence.
Status StreamBatch(StreamFixture* fx, int64_t base_id, int n) {
  Rng rng(static_cast<uint64_t>(base_id) | 1);
  std::vector<exec::Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    double x = 116.30 + rng.NextDouble() * 0.4;  // ~half inside the fence
    double y = 39.85 + rng.NextDouble() * 0.2;
    rows.push_back(fx->MakeRow(base_id + i, x, y));
  }
  return fx->engine->InsertStream(fx->user, "vehicles", rows);
}

void BM_IngestThroughput(benchmark::State& state) {
  StreamFixture* fx = GetStreamFixture();
  int64_t next_id = 1000000;
  int64_t rows = 0;
  for (auto _ : state) {
    Status st = StreamBatch(fx, next_id, 256);
    if (st.IsResourceExhausted()) {
      // Quota shed: wait out the bucket instead of spinning on rejections.
      state.PauseTiming();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      state.ResumeTiming();
      continue;
    }
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }
    next_id += 256;
    rows += 256;
  }
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kIsRate);
}

void BM_NotificationLatency(benchmark::State& state) {
  StreamFixture* fx = GetStreamFixture();
  fx->notify_latencies_us.clear();
  int64_t next_id = 2000000;
  for (auto _ : state) {
    // One matching row per iteration; OnInsert runs synchronously on this
    // thread, so the probe fires inside InsertStream.
    fx->notify_armed_us = NowUs();
    exec::Row row = fx->MakeRow(next_id++, 116.40, 39.90);
    Status st = fx->engine->InsertStream(fx->user, "vehicles", {row});
    if (st.IsResourceExhausted()) {
      fx->notify_armed_us = 0;
      state.PauseTiming();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      state.ResumeTiming();
      continue;
    }
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }
  }
  state.counters["notify_p50_us"] = Percentile(fx->notify_latencies_us, 0.50);
  state.counters["notify_p99_us"] = Percentile(fx->notify_latencies_us, 0.99);
  state.counters["samples"] =
      static_cast<double>(fx->notify_latencies_us.size());
}

double RunScan(StreamFixture* fx) {
  int64_t start = NowUs();
  auto r = fx->ql->Execute(
      fx->user, std::string("SELECT fid FROM fleet WHERE geom WITHIN ") +
                    kFence + " AND speed > 60");
  if (!r.ok()) {
    std::fprintf(stderr, "scan: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  return static_cast<double>(NowUs() - start);
}

void BM_AdHocScan(benchmark::State& state, bool mixed_load) {
  StreamFixture* fx = GetStreamFixture();
  std::atomic<bool> stop{false};
  std::thread feeder;
  if (mixed_load) {
    // A flooding tenant: streams as fast as the write quota admits. Sheds
    // back off briefly — exactly what a throttled client would do.
    feeder = std::thread([fx, &stop] {
      int64_t id = 3000000;
      while (!stop.load(std::memory_order_relaxed)) {
        Status st = StreamBatch(fx, id, 256);
        if (st.ok()) {
          id += 256;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
    });
  }
  std::vector<double> latencies;
  for (auto _ : state) {
    latencies.push_back(RunScan(fx));
  }
  if (mixed_load) {
    stop.store(true, std::memory_order_relaxed);
    feeder.join();
  }
  double p50 = Percentile(latencies, 0.50);
  double p99 = Percentile(latencies, 0.99);
  state.counters["scan_p50_us"] = p50;
  state.counters["scan_p99_us"] = p99;
  if (mixed_load) {
    if (fx->uncontended_p99_us > 0) {
      state.counters["p99_vs_uncontended"] = p99 / fx->uncontended_p99_us;
    }
  } else {
    fx->uncontended_p99_us = p99;
  }
}

}  // namespace
}  // namespace just::bench

int main(int argc, char** argv) {
  using namespace just::bench;  // NOLINT
  benchmark::RegisterBenchmark("Stream/IngestThroughput", BM_IngestThroughput)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Stream/NotificationLatency",
                               BM_NotificationLatency)
      ->MeasureProcessCPUTime();
  // Registration order matters: the uncontended scan runs first and leaves
  // its p99 behind as the baseline for the mixed-load ratio.
  benchmark::RegisterBenchmark(
      "Stream/AdHocScan/uncontended",
      [](benchmark::State& s) { BM_AdHocScan(s, /*mixed_load=*/false); })
      ->MinTime(1.0)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark(
      "Stream/AdHocScan/mixed_load",
      [](benchmark::State& s) { BM_AdHocScan(s, /*mixed_load=*/true); })
      ->MinTime(1.0)
      ->MeasureProcessCPUTime();
  just::bench::RunBenchmarks(argc, argv);
  return 0;
}
