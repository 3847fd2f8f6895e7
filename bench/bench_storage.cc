// Reproduces Figure 10a / 10b: storage cost (index keys + data) vs raw data
// size, with and without the field-compression mechanism of Section IV-D.
//
// Paper shape to reproduce:
//   - Order (Fig 10a): compressing the tiny per-order fields makes storage
//     *larger* (JUSTcompress line above JUST).
//   - Traj (Fig 10b): compressing the GPS-list field shrinks storage by
//     roughly 4.5x (136 GB raw -> ~30 GB stored, including both indexes).

// Also hosts the write-path probe: a mixed read/write benchmark measuring
// per-Put latency while background flushes and concurrent scans run. The
// old write path built SSTables inline under the store lock, so the Put
// that tripped the memtable limit paid the whole build (multi-ms p99); the
// group-commit + background-flush path keeps the tail flat. The obs
// registry snapshot (including just_kv_write_stalls_total and the
// group-commit histogram) is embedded in --benchmark_out JSON by
// RunBenchmarks.
//
// And the compaction probe (Compaction/Amplification/leveled): a bulk load
// under leveled compaction, reporting write amplification and SSTable
// probes per Get. See EXPERIMENTS.md.
//
// And the checksum kernel (Kv/Crc32/<bytes>): the CRC-32 every block read,
// WAL record and wire frame pays, in bytes per second, for kv::Crc32 as
// dispatched on this CPU (the label names the kernel) and for the portable
// slicing-by-8 kernel (Kv/Crc32/portable/<bytes>).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string_view>
#include <thread>

#include "bench_common.h"
#include "kvstore/lsm_store.h"
#include "kvstore/wal.h"
#include "obs/metrics.h"

namespace just::kv::internal {
// The portable kernel behind kv::Crc32 and the CPU probe that picks the
// carry-less one (kvstore/crc32.cc).
uint32_t Crc32Portable(uint32_t crc, std::string_view data);
bool CpuHasClmul();
}  // namespace just::kv::internal

namespace just::bench {
namespace {

void RunCrc32(benchmark::State& state,
              uint32_t (*crc)(uint32_t, std::string_view), const char* kernel) {
  const std::string buf(static_cast<size_t>(state.range(0)), '\x5a');
  uint32_t c = 0;
  for (auto _ : state) {
    c = crc(c, buf);
    benchmark::DoNotOptimize(c);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(kernel);
}

void BM_Crc32(benchmark::State& state) {
  RunCrc32(
      state, [](uint32_t c, std::string_view d) { return kv::Crc32(c, d); },
      kv::internal::CpuHasClmul() ? "clmul" : "portable");
}

void BM_Crc32Portable(benchmark::State& state) {
  RunCrc32(state, kv::internal::Crc32Portable, "portable");
}

void BM_Storage(benchmark::State& state, Dataset dataset, Variant variant) {
  int pct = static_cast<int>(state.range(0));
  Fixture* fx = GetFixture(dataset, pct, variant);
  auto stats = fx->engine->GetStorageStats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats.disk_bytes);
  }
  state.counters["storage_MB"] =
      static_cast<double>(stats.disk_bytes) / (1 << 20);
  state.counters["raw_MB"] = static_cast<double>(fx->raw_bytes) / (1 << 20);
  state.counters["ratio_vs_raw"] =
      static_cast<double>(stats.disk_bytes) /
      static_cast<double>(fx->raw_bytes);
}

/// Mixed read/write: one writer thread Putting 256-byte values while a
/// scanner thread runs full scans, with a memtable small enough that many
/// flushes (and compactions) happen mid-run. Reports the Put latency tail —
/// the number the background flush exists to protect.
void BM_MixedPutLatencyAcrossFlush(benchmark::State& state) {
  namespace fs = std::filesystem;
  const int num_ops = static_cast<int>(state.range(0));
  auto* stalls =
      obs::Registry::Global().GetCounter("just_kv_write_stalls_total");
  auto* flushes = obs::Registry::Global().GetCounter("just_kv_flushes_total");
  obs::Histogram put_lat;
  uint64_t stalls_delta = 0;
  uint64_t flushes_delta = 0;
  for (auto _ : state) {
    fs::path dir =
        fs::temp_directory_path() /
        ("just_bench_mixed_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    kv::StoreOptions opts;
    opts.dir = dir.string();
    opts.memtable_bytes = 256 << 10;  // many flushes across the run
    auto store_or = kv::LsmStore::Open(opts);
    if (!store_or.ok()) {
      state.SkipWithError(store_or.status().ToString().c_str());
      break;
    }
    kv::LsmStore* store = store_or->get();
    const uint64_t stalls0 = stalls->Value();
    const uint64_t flushes0 = flushes->Value();
    std::atomic<bool> stop{false};
    std::thread scanner([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        size_t rows = 0;
        (void)store->Scan({{"", ""}},
                          [&](size_t, std::string_view, std::string_view) {
                            ++rows;
                            return true;
                          });
        benchmark::DoNotOptimize(rows);
      }
    });
    std::string value(256, 'v');
    char key[32];
    for (int i = 0; i < num_ops; ++i) {
      std::snprintf(key, sizeof(key), "k%010d", i);
      auto t0 = std::chrono::steady_clock::now();
      (void)store->Put(key, value);
      put_lat.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    stop.store(true);
    scanner.join();
    stalls_delta += stalls->Value() - stalls0;
    flushes_delta += flushes->Value() - flushes0;
    store_or->reset();
    fs::remove_all(dir);
  }
  state.counters["put_p50_us"] = put_lat.Quantile(0.5);
  state.counters["put_p99_us"] = put_lat.Quantile(0.99);
  state.counters["put_max_us"] = static_cast<double>(put_lat.Snapshot().max);
  state.counters["flushes"] = static_cast<double>(flushes_delta);
  state.counters["write_stalls"] = static_cast<double>(stalls_delta);
  state.SetItemsProcessed(state.iterations() * num_ops);
}

/// Compaction probe: bulk-load many memtables' worth of data (with key
/// overlap so compaction has real merging to do), wait for the tree to
/// settle, and report write amplification (bytes rewritten by compaction
/// per byte flushed) and the settled tree's file counts. Leveled compaction
/// should show write-amp ~O(levels) and L0 back under its trigger.
void BM_CompactionAmplification(benchmark::State& state) {
  namespace fs = std::filesystem;
  const int num_ops = 60000;  // ~16 MB of key+value across ~60 memtables
  auto* flush_out =
      obs::Registry::Global().GetCounter("just_kv_flush_output_bytes_total");
  auto* comp_in = obs::Registry::Global().GetCounter(
      "just_kv_compaction_input_bytes_total");
  auto* comp_out = obs::Registry::Global().GetCounter(
      "just_kv_compaction_output_bytes_total");
  auto* compactions =
      obs::Registry::Global().GetCounter("just_kv_compactions_total");
  double write_amp = 0;
  double l0_files = 0;
  double total_files = 0;
  uint64_t compactions_delta = 0;
  for (auto _ : state) {
    fs::path dir = fs::temp_directory_path() /
                   ("just_bench_compaction_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    kv::StoreOptions opts;
    opts.dir = dir.string();
    opts.memtable_bytes = 256 << 10;
    opts.compaction_trigger = 4;
    opts.level_base_bytes = 1 << 20;
    opts.target_file_size = 512 << 10;
    auto store_or = kv::LsmStore::Open(opts);
    if (!store_or.ok()) {
      state.SkipWithError(store_or.status().ToString().c_str());
      break;
    }
    kv::LsmStore* store = store_or->get();
    const uint64_t flush0 = flush_out->Value();
    const uint64_t in0 = comp_in->Value();
    const uint64_t out0 = comp_out->Value();
    const uint64_t compactions0 = compactions->Value();
    std::string value(220, 'v');
    char key[32];
    for (int i = 0; i < num_ops; ++i) {
      // i % (num_ops / 4) overlaps each key ~4 times: compaction must merge
      // real duplicates, not just concatenate disjoint runs.
      std::snprintf(key, sizeof(key), "k%010d", i % (num_ops / 4));
      (void)store->Put(key, value);
    }
    (void)store->Flush();
    (void)store->WaitForBackgroundIdle();
    const uint64_t flushed = flush_out->Value() - flush0;
    write_amp = flushed == 0
                    ? 0.0
                    : static_cast<double>(flushed +
                                          (comp_out->Value() - out0)) /
                          static_cast<double>(flushed);
    benchmark::DoNotOptimize(comp_in->Value() - in0);
    compactions_delta += compactions->Value() - compactions0;
    auto stats = store->GetStats();
    l0_files = stats.level_files.empty()
                   ? 0.0
                   : static_cast<double>(stats.level_files[0]);
    total_files = static_cast<double>(stats.num_sstables);
    store_or->reset();
    fs::remove_all(dir);
  }
  state.counters["write_amp"] = write_amp;
  state.counters["compactions"] = static_cast<double>(compactions_delta);
  state.counters["l0_files"] = l0_files;
  state.counters["total_files"] = total_files;
  state.SetItemsProcessed(state.iterations() * num_ops);
}

void PrintSeries(const char* figure, Dataset dataset,
                 const std::vector<Variant>& variants) {
  std::printf("\n%s — storage size (MB) vs data size, dataset=%s\n", figure,
              DatasetName(dataset));
  std::printf("%-14s", "Data Size");
  for (Variant v : variants) std::printf("%14s", VariantName(v));
  std::printf("\n");
  for (int pct : {20, 40, 60, 80, 100}) {
    std::printf("%12d%%  ", pct);
    for (Variant v : variants) {
      Fixture* fx = GetFixture(dataset, pct, v);
      std::printf("%14.2f",
                  static_cast<double>(fx->engine->GetStorageStats().disk_bytes) /
                      (1 << 20));
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace just::bench

int main(int argc, char** argv) {
  using namespace just::bench;  // NOLINT
  for (int pct : {20, 40, 60, 80, 100}) {
    benchmark::RegisterBenchmark("Fig10a/Order/JUST",
                                 [](benchmark::State& s) {
                                   BM_Storage(s, Dataset::kOrder,
                                              Variant::kJust);
                                 })
        ->Arg(pct)
        ->Iterations(1)
        ->MeasureProcessCPUTime();
    benchmark::RegisterBenchmark("Fig10a/Order/JUSTcompress",
                                 [](benchmark::State& s) {
                                   BM_Storage(s, Dataset::kOrder,
                                              Variant::kOrderCompressed);
                                 })
        ->Arg(pct)
        ->Iterations(1)
        ->MeasureProcessCPUTime();
    benchmark::RegisterBenchmark("Fig10b/Traj/JUST",
                                 [](benchmark::State& s) {
                                   BM_Storage(s, Dataset::kTraj,
                                              Variant::kJust);
                                 })
        ->Arg(pct)
        ->Iterations(1)
        ->MeasureProcessCPUTime();
    benchmark::RegisterBenchmark("Fig10b/Traj/JUSTnc",
                                 [](benchmark::State& s) {
                                   BM_Storage(s, Dataset::kTraj,
                                              Variant::kNoCompress);
                                 })
        ->Arg(pct)
        ->Iterations(1)
        ->MeasureProcessCPUTime();
  }
  benchmark::RegisterBenchmark("WritePath/MixedPutLatencyAcrossFlush",
                               BM_MixedPutLatencyAcrossFlush)
      ->Arg(20000)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Compaction/Amplification/leveled",
                               BM_CompactionAmplification)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Kv/Crc32", BM_Crc32)
      ->Arg(64)
      ->Arg(4096)
      ->Arg(65536)
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("Kv/Crc32/portable", BM_Crc32Portable)
      ->Arg(64)
      ->Arg(4096)
      ->Arg(65536)
      ->MeasureProcessCPUTime();
  just::bench::RunBenchmarks(argc, argv);
  PrintSeries("Figure 10a", Dataset::kOrder,
              {Variant::kJust, Variant::kOrderCompressed});
  PrintSeries("Figure 10b", Dataset::kTraj,
              {Variant::kJust, Variant::kNoCompress});
  return 0;
}
