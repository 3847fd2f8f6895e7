#include "cluster/region_cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace just::cluster {

namespace {
/// True when every key in [start, end) shares start's first byte, i.e. the
/// range cannot cross a shard boundary. Covers both planner shapes: equal
/// first bytes, and an exclusive end that is exactly the next byte value
/// (["\x04...", "\x05") holds only keys starting with 0x04).
bool SingleShardByte(std::string_view start, std::string_view end) {
  if (start.empty() || end.empty()) return false;
  auto s = static_cast<unsigned char>(start[0]);
  auto e = static_cast<unsigned char>(end[0]);
  if (s == e) return true;
  return end.size() == 1 && e == s + 1;
}
}  // namespace

Result<std::unique_ptr<RegionCluster>> RegionCluster::Open(
    const ClusterOptions& options) {
  if (!options.server_addrs.empty()) {
    // Out-of-process deployment: one socket backend per running
    // `just_region_server`; this process owns no stores.
    auto cluster = std::unique_ptr<RegionCluster>(new RegionCluster(options));
    for (const auto& addr : options.server_addrs) {
      JUST_ASSIGN_OR_RETURN(
          auto backend,
          OpenSocketBackend(
              addr, static_cast<uint32_t>(options.scan_batch_rows)));
      cluster->servers_.push_back(std::move(backend));
    }
    return cluster;
  }
  if (options.num_servers < 1) {
    return Status::InvalidArgument("cluster needs at least one server");
  }
  auto cluster = std::unique_ptr<RegionCluster>(new RegionCluster(options));
  for (int i = 0; i < options.num_servers; ++i) {
    kv::StoreOptions store_options = options.store;
    store_options.dir = options.dir + "/rs" + std::to_string(i);
    JUST_ASSIGN_OR_RETURN(auto backend, OpenLocalBackend(store_options));
    cluster->servers_.push_back(std::move(backend));
  }
  return cluster;
}

int RegionCluster::ServerFor(std::string_view key) const {
  if (key.empty()) return 0;
  return static_cast<unsigned char>(key[0]) %
         static_cast<int>(servers_.size());
}

Status RegionCluster::WithRetry(const std::function<Status()>& op) const {
  // Stable pointer into the registry; fetched once per process.
  static obs::Counter* retries =
      obs::Registry::Global().GetCounter("just_cluster_retries_total");
  Status st = op();
  for (int attempt = 0; !st.ok() && st.IsTransient() &&
                        attempt < options_.max_retries;
       ++attempt) {
    retries->Increment();
    // Exponential backoff: a region server mid-restart needs a moment, and
    // hammering it would only extend the brownout.
    int delay_ms = options_.retry_backoff_ms << attempt;
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    st = op();
  }
  return st;
}

Status RegionCluster::Put(std::string_view key, std::string_view value) {
  RegionBackend* server = servers_[ServerFor(key)].get();
  return WithRetry([&] { return server->Put(key, value); });
}

Status RegionCluster::Delete(std::string_view key) {
  RegionBackend* server = servers_[ServerFor(key)].get();
  return WithRetry([&] { return server->Delete(key); });
}

Status RegionCluster::Get(std::string_view key, std::string* value) const {
  RegionBackend* server = servers_[ServerFor(key)].get();
  return WithRetry([&] { return server->Get(key, value); });
}

Status RegionCluster::DispatchBatch(
    std::vector<kv::WriteOp> ops,
    const std::function<Status(RegionBackend*, const std::vector<kv::WriteOp>&)>&
        apply) {
  if (ops.empty()) return Status::OK();
  std::vector<std::vector<kv::WriteOp>> per_server(servers_.size());
  for (auto& op : ops) {
    per_server[ServerFor(op.key)].push_back(std::move(op));
  }
  size_t busy_servers = 0;
  for (const auto& slice : per_server) busy_servers += slice.empty() ? 0 : 1;
  // Small batches (or one-server batches) are not worth pool dispatch.
  if (busy_servers <= 1 || ops.size() < 64) {
    for (size_t s = 0; s < per_server.size(); ++s) {
      if (per_server[s].empty()) continue;
      RegionBackend* server = servers_[s].get();
      JUST_RETURN_NOT_OK(
          WithRetry([&] { return apply(server, per_server[s]); }));
    }
    return Status::OK();
  }
  std::atomic<bool> failed{false};
  Status first_error;
  std::mutex error_mu;
  DefaultPool().ParallelFor(per_server.size(), [&](size_t s) {
    if (per_server[s].empty()) return;
    RegionBackend* server = servers_[s].get();
    Status st = WithRetry([&] { return apply(server, per_server[s]); });
    if (!st.ok()) {
      failed.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = st;
    }
  });
  if (failed.load()) {
    return first_error.ok() ? Status::Internal("batch write failed")
                            : first_error;
  }
  return Status::OK();
}

Status RegionCluster::WriteBatch(std::vector<kv::WriteOp> ops) {
  return DispatchBatch(std::move(ops),
                       [](RegionBackend* server,
                          const std::vector<kv::WriteOp>& slice) {
                         return server->WriteBatch(slice);
                       });
}

Status RegionCluster::IngestBatch(const std::string& tenant,
                                  std::vector<kv::WriteOp> ops) {
  // Per-tenant quota sheds come back as kResourceExhausted, which is not
  // transient — WithRetry passes it straight through, so a throttled tenant
  // sees the shed immediately instead of burning the retry budget.
  return DispatchBatch(std::move(ops),
                       [&tenant](RegionBackend* server,
                                 const std::vector<kv::WriteOp>& slice) {
                         return server->IngestBatch(tenant, slice);
                       });
}

Status RegionCluster::Scan(const std::vector<curve::KeyRange>& ranges,
                           ScanSink* sink, std::atomic<bool>* stop) const {
  // Group the ranges by owning server. Routing is first_byte % num_servers
  // — NOT a contiguous partition: a range spanning multiple shard bytes can
  // land on every server (e.g. bytes 0x04..0x06 with 5 servers hit servers
  // 4, 0 and 1), so it goes to all of them. Only a range confined to a
  // single shard byte maps to a single server; the ranges the index
  // strategies emit are of exactly that shape.
  std::vector<std::vector<size_t>> work(servers_.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    int first = 0;
    int last = num_servers() - 1;
    if (SingleShardByte(ranges[i].start, ranges[i].end)) {
      first = last = ServerFor(ranges[i].start);
    }
    for (int server = first; server <= last; ++server) {
      work[server].push_back(i);
    }
  }
  std::vector<int> busy;  ///< servers with work, in server order
  for (size_t s = 0; s < work.size(); ++s) {
    if (!work[s].empty()) {
      busy.push_back(static_cast<int>(s));
    } else {
      JUST_RETURN_NOT_OK(sink->Finish(static_cast<int>(s)));
    }
  }

  static obs::Histogram* scan_hist =
      obs::Registry::Global().GetHistogram("just_cluster_parallel_scan_us");
  obs::ScopedSpan span("cluster.ParallelScan");
  if (span.span() != nullptr) {
    span.span()->AddAttr("ranges", std::to_string(ranges.size()));
    span.span()->AddAttr("servers", std::to_string(busy.size()));
  }
  const auto scan_start = std::chrono::steady_clock::now();
  std::atomic<bool> own_stop{false};
  std::atomic<bool>* halt = stop != nullptr ? stop : &own_stop;
  Status first_error;
  std::mutex error_mu;
  // Pool workers have their own thread-local state: hand them the span
  // explicitly so their I/O counters attribute to this scan.
  obs::TraceSpan* parent_span = obs::CurrentSpan();
  DefaultPool().ParallelFor(busy.size(), [&](size_t b) {
    obs::SpanScope scope(parent_span);
    const int server = busy[b];
    Status st = ScanServer(server, ranges, work[server], sink, halt);
    if (st.ok()) st = sink->Finish(server);
    if (!st.ok()) {
      halt->store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = st;
    }
  });
  scan_hist->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - scan_start)
          .count()));
  return first_error;
}

Status RegionCluster::ScanServer(int server,
                                 const std::vector<curve::KeyRange>& ranges,
                                 const std::vector<size_t>& ids,
                                 ScanSink* sink,
                                 const std::atomic<bool>* halt) const {
  static obs::Counter* rows_fetched = obs::Registry::Global().GetCounter(
      "just_cluster_scan_rows_fetched_total");
  // Resume cursor: ids[next] is the first range not yet finished and, once
  // `resume` is set, `last_key` is the last of its keys the sink accepted.
  size_t next = 0;
  bool resume = false;
  std::string last_key;
  std::string resume_start;
  uint64_t delivered = 0;
  std::vector<kv::ScanRange> todo;
  Status st = WithRetry([&] {
    const size_t base = next;
    todo.clear();
    for (size_t i = base; i < ids.size(); ++i) {
      todo.push_back({ranges[ids[i]].start, ranges[ids[i]].end});
    }
    if (resume) {
      resume_start = last_key + '\0';  // just past the accepted key
      todo[0].start = resume_start;
    }
    return servers_[server]->Scan(
        todo, [&](size_t r, std::string_view key, std::string_view value) {
          if (halt->load(std::memory_order_relaxed)) return false;
          next = base + r;
          resume = true;
          last_key.assign(key);
          ++delivered;
          return sink->Accept(server, ids[base + r], key, value);
        });
  });
  rows_fetched->Add(delivered);
  return st;
}

Result<std::vector<RegionCluster::RangeResult>> RegionCluster::ParallelScan(
    const std::vector<curve::KeyRange>& ranges) const {
  // Owned copies per server and range, merged in server order afterwards.
  class Collector : public ScanSink {
   public:
    Collector(size_t servers, size_t ranges)
        : rows(servers, std::vector<std::vector<Row>>(ranges)) {}
    bool Accept(int server, size_t range, std::string_view key,
                std::string_view value) override {
      rows[server][range].push_back(Row{std::string(key), std::string(value)});
      return true;
    }
    std::vector<std::vector<std::vector<Row>>> rows;
  };
  Collector collector(servers_.size(), ranges.size());
  JUST_RETURN_NOT_OK(Scan(ranges, &collector));
  std::vector<RangeResult> results(ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    results[i].contained = ranges[i].contained;
    std::vector<Row>& dst = results[i].rows;
    for (auto& per_range : collector.rows) {
      if (dst.empty()) {
        dst = std::move(per_range[i]);
      } else {
        for (Row& row : per_range[i]) dst.push_back(std::move(row));
      }
    }
  }
  return results;
}

Status RegionCluster::FlushAll() {
  for (const auto& server : servers_) {
    JUST_RETURN_NOT_OK(server->Flush());
  }
  return Status::OK();
}

Status RegionCluster::CompactAll() {
  for (const auto& server : servers_) {
    JUST_RETURN_NOT_OK(server->CompactAll());
  }
  return Status::OK();
}

RegionCluster::Stats RegionCluster::GetStats() const {
  Stats stats;
  for (const auto& server : servers_) {
    BackendStats s;
    if (!server->GetStats(&s).ok()) continue;  // best-effort aggregate
    stats.disk_bytes += s.disk_bytes;
    stats.entries += s.entries;
    stats.num_sstables += s.num_sstables;
  }
  return stats;
}

}  // namespace just::cluster
