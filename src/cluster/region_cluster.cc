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

Result<std::vector<RegionCluster::RangeResult>> RegionCluster::ParallelScan(
    const std::vector<curve::KeyRange>& ranges) const {
  std::vector<RangeResult> results(ranges.size());
  // Group the ranges by owning server. Routing is first_byte % num_servers
  // — NOT a contiguous partition: a range spanning multiple shard bytes can
  // land on every server (e.g. bytes 0x04..0x06 with 5 servers hit servers
  // 4, 0 and 1), so it goes to all of them. Only a range confined to a
  // single shard byte maps to a single server; the ranges the index
  // strategies emit are of exactly that shape.
  struct ServerWork {
    std::vector<size_t> range_ids;  ///< indexes into `ranges`, in order
    std::vector<kv::ScanRange> ranges;
  };
  std::vector<ServerWork> work(servers_.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    const curve::KeyRange& range = ranges[i];
    results[i].contained = range.contained;
    int first = 0;
    int last = num_servers() - 1;
    if (SingleShardByte(range.start, range.end)) {
      first = last = ServerFor(range.start);
    }
    for (int server = first; server <= last; ++server) {
      work[server].range_ids.push_back(i);
      work[server].ranges.push_back({range.start, range.end});
    }
  }
  std::vector<size_t> busy;  ///< servers with work, in server order
  for (size_t s = 0; s < work.size(); ++s) {
    if (!work[s].ranges.empty()) busy.push_back(s);
  }

  static obs::Histogram* scan_hist =
      obs::Registry::Global().GetHistogram("just_cluster_parallel_scan_us");
  obs::ScopedSpan span("cluster.ParallelScan");
  if (span.span() != nullptr) {
    span.span()->AddAttr("ranges", std::to_string(ranges.size()));
    span.span()->AddAttr("servers", std::to_string(busy.size()));
  }
  const auto scan_start = std::chrono::steady_clock::now();
  // One multi-range scan per server that has work: one pool task and (on
  // sockets) one RPC per page, however many ranges the server owns.
  // Rows are buffered per range and per attempt: a retry after a mid-scan
  // failure restarts the server's scan cleanly instead of duplicating rows.
  std::vector<std::vector<std::vector<Row>>> rows(busy.size());
  std::atomic<bool> failed{false};
  Status first_error;
  std::mutex error_mu;
  // Pool workers have their own thread-local state: hand them the span
  // explicitly so their I/O counters attribute to this scan.
  obs::TraceSpan* parent_span = obs::CurrentSpan();
  DefaultPool().ParallelFor(busy.size(), [&](size_t b) {
    obs::SpanScope scope(parent_span);
    if (failed.load(std::memory_order_relaxed)) return;
    const ServerWork& w = work[busy[b]];
    std::vector<std::vector<Row>>& per_range = rows[b];
    Status st = WithRetry([&] {
      per_range.assign(w.ranges.size(), {});
      return servers_[busy[b]]->Scan(
          w.ranges,
          [&](size_t r, std::string_view key, std::string_view value) {
            per_range[r].push_back(Row{std::string(key), std::string(value)});
            return true;
          });
    });
    if (!st.ok()) {
      failed.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = st;
    }
  });
  scan_hist->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - scan_start)
          .count()));
  if (failed.load()) {
    return first_error.ok() ? Status::Internal("parallel scan failed")
                            : first_error;
  }
  // Server order: a range that crosses shard bytes gets each server's rows
  // in turn, each server's in key order.
  for (size_t b = 0; b < busy.size(); ++b) {
    const ServerWork& w = work[busy[b]];
    for (size_t r = 0; r < w.ranges.size(); ++r) {
      std::vector<Row>& dst = results[w.range_ids[r]].rows;
      if (dst.empty()) {
        dst = std::move(rows[b][r]);
      } else {
        for (Row& row : rows[b][r]) dst.push_back(std::move(row));
      }
    }
  }
  return results;
}

Status RegionCluster::Scan(
    std::string_view start, std::string_view end,
    const std::function<bool(std::string_view, std::string_view)>& fn) const {
  // Keys are partitioned by shard byte, so a full-order merge across servers
  // is only needed when the range spans shards; scan shard by shard (the
  // global order across shard bytes is preserved because routing is by the
  // first byte and servers see disjoint byte prefixes... only when
  // num_servers >= 256; in general this yields per-shard ordered output,
  // which all internal callers accept).
  static obs::Counter* rows_fetched = obs::Registry::Global().GetCounter(
      "just_cluster_scan_rows_fetched_total");
  const size_t batch_rows = std::max<size_t>(1, options_.scan_batch_rows);
  for (const auto& server : servers_) {
    // Stream the server's range in bounded batches instead of buffering it
    // whole: an early-stopping consumer (LIMIT-style) used to pay for the
    // entire range before the first row reached it. Each batch is buffered
    // so a transient failure can be retried without re-emitting rows the
    // callback already consumed; the cursor only advances once a batch is
    // delivered, so a retried batch restarts cleanly.
    std::string cursor(start);
    for (;;) {
      std::vector<Row> rows;
      Status st = WithRetry([&] {
        rows.clear();
        return server->Scan(
            {{cursor, end}},
            [&](size_t, std::string_view k, std::string_view v) {
              rows.push_back(Row{std::string(k), std::string(v)});
              return rows.size() < batch_rows;
            });
      });
      JUST_RETURN_NOT_OK(st);
      rows_fetched->Add(rows.size());
      for (const auto& row : rows) {
        if (!fn(row.key, row.value)) return Status::OK();
      }
      if (rows.size() < batch_rows) break;  // server range exhausted
      // Next batch resumes just past the last delivered key.
      cursor = rows.back().key + '\0';
    }
  }
  return Status::OK();
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
