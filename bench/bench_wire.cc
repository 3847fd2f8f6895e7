// Loadgen for the wire protocol: an in-process RegionServer driven by
// hundreds of concurrent client connections (benchmark's thread fan-out —
// each bench thread owns one RegionClient, i.e. one TCP connection, which
// is exactly the deployed shape: the server runs a thread per connection).
//
// Three questions this answers in CI logs:
//  - throughput/latency of a one-op WriteBatch RPC at 64 and 256
//    connections (a failed write fails the run: SkipWithError);
//  - that admission control degrades gracefully: with a deliberately tiny
//    max_inflight the server sheds (kUnavailable) instead of queueing
//    without bound, and the shed counters show up in the obs registry;
//  - the CPU one socket scan page costs, client and server together
//    (BM_MultiScanFanout).
//
// Run: ./bench_wire [--benchmark_filter=...]

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <memory>
#include <iterator>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/region_cluster.h"
#include "net/region_client.h"
#include "net/region_server.h"
#include "obs/metrics.h"

namespace just::bench {
namespace {

std::string WireBenchDir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("just_bench_wire_" + std::to_string(::getpid())) / tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// One server per benchmark registration, torn down when the last thread
/// leaves. Clients are thread-local: one connection per bench thread.
class ServerFixture {
 public:
  explicit ServerFixture(const char* tag, int max_inflight = 256)
      : tag_(tag), max_inflight_(max_inflight) {}

  void ThreadSetUp() {
    std::lock_guard<std::mutex> lock(mu_);
    if (threads_++ == 0) {
      net::RegionServerOptions opts;
      opts.store.dir = WireBenchDir(tag_);
      opts.store.sync_wal = false;
      opts.max_inflight = max_inflight_;
      auto server = net::RegionServer::Start(opts);
      if (!server.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     server.status().ToString().c_str());
        std::abort();
      }
      server_ = std::move(*server);
    }
  }

  void ThreadTearDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--threads_ == 0) {
      EmbedServerStats();
      server_.reset();
    }
  }

  int port() {
    std::lock_guard<std::mutex> lock(mu_);
    return server_->port();
  }

  net::RegionServer* server() {
    std::lock_guard<std::mutex> lock(mu_);
    return server_.get();
  }

 private:
  /// Snapshots the server's StatsResponse into the BENCH JSON (key
  /// "server_stats_<tag>") before shutdown: the client-side registry can't
  /// see server-side shed/request counters when the server is a separate
  /// process, so benches record them explicitly while it's still up.
  void EmbedServerStats() {
    net::RegionClientOptions copts;
    copts.port = server_->port();
    net::RegionClient client(copts);
    net::StatsResponse stats;
    if (!client.GetStats(&stats).ok()) return;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"disk_bytes\": %llu, \"entries\": %llu, \"num_sstables\": %llu, "
        "\"requests_total\": %llu, \"shed_total\": %llu, "
        "\"corrupt_frames_total\": %llu, \"active_connections\": %llu}",
        static_cast<unsigned long long>(stats.disk_bytes),
        static_cast<unsigned long long>(stats.entries),
        static_cast<unsigned long long>(stats.num_sstables),
        static_cast<unsigned long long>(stats.requests_total),
        static_cast<unsigned long long>(stats.shed_total),
        static_cast<unsigned long long>(stats.corrupt_frames_total),
        static_cast<unsigned long long>(stats.active_connections));
    AddBenchJsonExtra(std::string("server_stats_") + tag_, buf);
  }

  const char* tag_;
  int max_inflight_;
  std::mutex mu_;
  int threads_ = 0;
  std::unique_ptr<net::RegionServer> server_;
};

/// CPU seconds of every thread of this process.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

std::string ThreadKey(int thread_index, uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%03d/%012llu", thread_index,
                static_cast<unsigned long long>(i));
  return buf;
}

/// One put as a one-op WriteBatch: the key and value of the next write.
void NextWrite(int thread_index, uint64_t i, std::vector<kv::WriteOp>* op) {
  op->assign(1, kv::WriteOp{ThreadKey(thread_index, i), std::string(128, 'v'),
                            /*is_delete=*/false});
}

void BM_WireWrite(benchmark::State& state) {
  static ServerFixture fixture("write");
  fixture.ThreadSetUp();
  {
    net::RegionClientOptions copts;
    copts.port = fixture.port();
    net::RegionClient client(copts);
    uint64_t i = 0;
    std::vector<kv::WriteOp> op;
    for (auto _ : state) {
      NextWrite(state.thread_index(), i++, &op);
      Status st = client.WriteBatch(/*tenant=*/{}, op);
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        break;
      }
    }
    state.SetItemsProcessed(static_cast<int64_t>(i));
  }
  fixture.ThreadTearDown();
}
BENCHMARK(BM_WireWrite)->Threads(64)->Threads(256)->UseRealTime();

/// Overload: 256 connections against max_inflight=4. The interesting
/// numbers are the counters — shed_total climbing while every RPC still
/// gets a prompt answer (shed responses are cheap, so items/s stays high).
void BM_WireOverload(benchmark::State& state) {
  static ServerFixture fixture("overload", /*max_inflight=*/4);
  fixture.ThreadSetUp();
  {
    net::RegionClientOptions copts;
    copts.port = fixture.port();
    net::RegionClient client(copts);
    uint64_t i = 0;
    uint64_t shed = 0;
    std::vector<kv::WriteOp> op;
    for (auto _ : state) {
      NextWrite(state.thread_index(), i++, &op);
      Status st = client.WriteBatch(/*tenant=*/{}, op);
      if (st.IsUnavailable()) ++shed;
    }
    if (state.thread_index() == 0) {
      state.counters["server_shed"] = benchmark::Counter(
          static_cast<double>(fixture.server()->shed_total()));
      state.counters["server_requests"] = benchmark::Counter(
          static_cast<double>(fixture.server()->requests_total()));
    }
    state.counters["client_shed"] =
        benchmark::Counter(static_cast<double>(shed));
    state.SetItemsProcessed(static_cast<int64_t>(i));
  }
  fixture.ThreadTearDown();
}
BENCHMARK(BM_WireOverload)->Threads(256)->UseRealTime();

/// The per-RPC cost of a socket scan: four in-process region servers and a
/// RegionCluster::Scan of one 20-row range per server, i.e. four
/// kMultiScanReq pages per iteration. `cpu_us_per_rpc` is this process's
/// CPU (client and servers alike) per page.
void BM_MultiScanFanout(benchmark::State& state) {
  constexpr int kServers = 4;
  constexpr int kRowsPerServer = 20;
  std::vector<std::unique_ptr<net::RegionServer>> servers;
  cluster::ClusterOptions options;
  for (int i = 0; i < kServers; ++i) {
    net::RegionServerOptions server_options;
    server_options.store.dir =
        WireBenchDir(("fanout" + std::to_string(i)).c_str());
    server_options.store.sync_wal = false;
    auto server = net::RegionServer::Start(server_options);
    if (!server.ok()) {
      state.SkipWithError(server.status().ToString().c_str());
      return;
    }
    options.server_addrs.push_back("127.0.0.1:" +
                                   std::to_string((*server)->port()));
    servers.push_back(std::move(*server));
  }
  auto opened = cluster::RegionCluster::Open(options);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  std::unique_ptr<cluster::RegionCluster> region_cluster = std::move(*opened);
  // Shard byte s lives on server s; each range holds its server's rows.
  std::vector<kv::WriteOp> ops;
  std::vector<curve::KeyRange> ranges;
  for (int s = 0; s < kServers; ++s) {
    const std::string shard(1, static_cast<char>(s));
    for (int i = 0; i < kRowsPerServer; ++i) {
      ops.push_back(
          kv::WriteOp{shard + ThreadKey(s, i), std::string(120, 'v'), false});
    }
    const std::string next_shard(1, static_cast<char>(s + 1));
    ranges.push_back(curve::KeyRange{shard, next_shard, false});
  }
  if (!region_cluster->WriteBatch(std::move(ops)).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  // Per-server counts: a ScanSink may see servers concurrently.
  class CountSink : public cluster::RegionCluster::ScanSink {
   public:
    bool Accept(int server, size_t, std::string_view,
                std::string_view) override {
      ++rows[server];
      return true;
    }
    uint64_t rows[kServers] = {};
  };
  CountSink sink;
  uint64_t scans = 0;
  const double cpu_start = ProcessCpuSeconds();
  for (auto _ : state) {
    if (!region_cluster->Scan(ranges, &sink).ok()) {
      state.SkipWithError("scan failed");
      break;
    }
    ++scans;
  }
  const double cpu_us = (ProcessCpuSeconds() - cpu_start) * 1e6;
  const double rpcs = static_cast<double>(scans * kServers);
  state.counters["cpu_us_per_rpc"] =
      benchmark::Counter(rpcs > 0 ? cpu_us / rpcs : 0);
  state.counters["rows_per_scan"] = benchmark::Counter(
      scans > 0 ? static_cast<double>(std::accumulate(
                      std::begin(sink.rows), std::end(sink.rows), 0ull)) /
                      scans
                : 0);
  state.SetItemsProcessed(static_cast<int64_t>(scans * kServers));
  region_cluster.reset();  // closes its connections first
  for (auto& server : servers) server->Stop();
}
BENCHMARK(BM_MultiScanFanout)->UseRealTime();

}  // namespace
}  // namespace just::bench

int main(int argc, char** argv) {
  just::bench::RunBenchmarks(argc, argv);
  return 0;
}
