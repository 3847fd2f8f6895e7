#include "cluster/region_cluster.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "net/region_client.h"
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

bool RegionCluster::Retry(const Status& st, int attempt,
                          std::chrono::milliseconds* backoff) const {
  // Stable pointer into the registry; fetched once per process.
  static obs::Counter* retries =
      obs::Registry::Global().GetCounter("just_cluster_retries_total");
  if (st.ok() || !st.IsTransient() || attempt >= options_.max_retries) {
    return false;
  }
  retries->Increment();
  // Exponential backoff: a region server mid-restart needs a moment, and
  // hammering it would only extend the brownout.
  *backoff = std::chrono::milliseconds(options_.retry_backoff_ms << attempt);
  return true;
}

Status RegionCluster::WithRetry(const std::function<Status()>& op) const {
  Status st = op();
  std::chrono::milliseconds backoff{0};
  for (int attempt = 0; Retry(st, attempt, &backoff); ++attempt) {
    // A caller-first pool job hands its other servers to helpers rather
    // than let them wait out this one's backoff.
    ThreadPool::Spread();
    std::this_thread::sleep_for(backoff);
    st = op();
  }
  return st;
}

Status RegionCluster::WriteBatch(std::vector<kv::WriteOp> ops,
                                 std::string_view tenant) {
  if (ops.empty()) return Status::OK();
  std::vector<std::vector<kv::WriteOp>> per_server(servers_.size());
  for (auto& op : ops) {
    per_server[ServerFor(op.key)].push_back(std::move(op));
  }
  size_t busy_servers = 0;
  for (const auto& slice : per_server) busy_servers += slice.empty() ? 0 : 1;
  // Per-tenant quota sheds come back as kResourceExhausted, which is not
  // transient — WithRetry passes it straight through, so a throttled tenant
  // sees the shed immediately instead of burning the retry budget.
  auto commit = [&](size_t s) {
    RegionBackend* server = servers_[s].get();
    return WithRetry([&] { return server->WriteBatch(tenant, per_server[s]); });
  };
  // Small batches (or one-server batches) are not worth pool dispatch; a
  // large one is known up front to be, so it spreads at once.
  if (busy_servers <= 1 || ops.size() < 64) {
    for (size_t s = 0; s < per_server.size(); ++s) {
      if (!per_server[s].empty()) JUST_RETURN_NOT_OK(commit(s));
    }
    return Status::OK();
  }
  std::atomic<bool> failed{false};
  Status first_error;
  std::mutex error_mu;
  DefaultPool().ParallelFor(per_server.size(), [&](size_t s) {
    if (per_server[s].empty()) return;
    Status st = commit(s);
    if (!st.ok()) {
      failed.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = st;
    }
  }, /*spread_now=*/true);
  if (failed.load()) {
    return first_error.ok() ? Status::Internal("batch write failed")
                            : first_error;
  }
  return Status::OK();
}

/// One server's part of a Scan(): its ranges and where to resume — just
/// past the last (range, key) the sink accepted. In process the thread
/// running each server's scan updates its own per row, so each sits on its
/// own cache line.
struct alignas(64) RegionCluster::ServerScan {
  int server = 0;
  const std::vector<size_t>* ids = nullptr;  ///< into the scan's ranges
  size_t next = 0;      ///< ids[next] is the first range not yet finished
  bool resume = false;  ///< last_key, in ids[next], was accepted
  std::string last_key;
  uint64_t delivered = 0;

  /// Hands a row of range ids[at] to the sink and moves the cursor past
  /// it; false stops this server.
  bool Deliver(size_t at, std::string_view key, std::string_view value,
               ScanSink* sink, const std::atomic<bool>* halt) {
    if (halt->load(std::memory_order_relaxed)) return false;
    next = at;
    resume = true;
    last_key.assign(key);
    // A scan running on a pool job's caller spreads the job once it has
    // outlasted a hand-off; every 8th row keeps the clock read off the
    // per-row cost.
    if ((++delivered & 7) == 0) ThreadPool::SpreadIfSlow();
    return sink->Accept(server, (*ids)[at], key, value);
  }
};

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
  std::vector<ServerScan> scans;  ///< servers with work, in server order
  for (size_t s = 0; s < work.size(); ++s) {
    if (!work[s].empty()) {
      ServerScan scan;
      scan.server = static_cast<int>(s);
      scan.ids = &work[s];
      scans.push_back(std::move(scan));
    } else {
      JUST_RETURN_NOT_OK(sink->Finish(static_cast<int>(s)));
    }
  }

  static obs::Histogram* scan_hist =
      obs::Registry::Global().GetHistogram("just_cluster_parallel_scan_us");
  static obs::Counter* rows_fetched = obs::Registry::Global().GetCounter(
      "just_cluster_scan_rows_fetched_total");
  static obs::Counter* spreads = obs::Registry::Global().GetCounter(
      "just_cluster_scan_spreads_total");
  obs::ScopedSpan span("cluster.ParallelScan");
  if (span.span() != nullptr) {
    span.span()->AddAttr("ranges", std::to_string(ranges.size()));
    span.span()->AddAttr("servers", std::to_string(scans.size()));
  }
  const auto scan_start = std::chrono::steady_clock::now();
  std::atomic<bool> own_stop{false};
  std::atomic<bool>* halt = stop != nullptr ? stop : &own_stop;
  Status first_error;
  std::mutex error_mu;
  auto finish = [&](ServerScan& scan, Status st) {
    rows_fetched->Add(scan.delivered);
    if (st.ok()) st = sink->Finish(scan.server);
    if (!st.ok()) {
      halt->store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = st;
    }
  };
  size_t helpers = 0;  ///< pool threads that scanned a server
  if (!options_.server_addrs.empty()) {
    PollScan(ranges, &scans, sink, halt, finish);
  } else {
    // The servers' scans start on this thread and spread to pool helpers
    // only once they outlast a hand-off. Helpers have their own
    // thread-local state: hand them the span explicitly so their I/O
    // counters attribute to this scan.
    obs::TraceSpan* parent_span = obs::CurrentSpan();
    helpers = DefaultPool().ParallelFor(scans.size(), [&](size_t b) {
      obs::SpanScope scope(parent_span);
      ServerScan& scan = scans[b];
      finish(scan, WithRetry([&] {
               return ScanAttempt(&scan, ranges, sink, halt);
             }));
    });
    if (helpers > 0) spreads->Increment();
  }
  if (span.span() != nullptr) {
    span.span()->AddAttr("helpers", std::to_string(helpers));
  }
  scan_hist->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - scan_start)
          .count()));
  return first_error;
}

Status RegionCluster::ScanAttempt(ServerScan* scan,
                                  const std::vector<curve::KeyRange>& ranges,
                                  ScanSink* sink,
                                  const std::atomic<bool>* halt) const {
  const std::vector<size_t>& ids = *scan->ids;
  const size_t base = scan->next;
  std::vector<kv::ScanRange> todo;
  todo.reserve(ids.size() - base);
  for (size_t i = base; i < ids.size(); ++i) {
    todo.push_back({ranges[ids[i]].start, ranges[ids[i]].end});
  }
  std::string resume_start;
  if (scan->resume) {
    resume_start = scan->last_key + '\0';  // just past the accepted key
    todo[0].start = resume_start;
  }
  return servers_[scan->server]->store()->Scan(
      todo, [&](size_t r, std::string_view key, std::string_view value) {
        return scan->Deliver(base + r, key, value, sink, halt);
      });
}

void RegionCluster::PollScan(
    const std::vector<curve::KeyRange>& ranges, std::vector<ServerScan>* scans,
    ScanSink* sink, const std::atomic<bool>* halt,
    const std::function<void(ServerScan&, Status)>& finish) const {
  using Clock = std::chrono::steady_clock;
  // One server's pages: its connection, the request of the current window
  // of ranges, and the page in flight — or, after a failed page, when the
  // stream reopens.
  struct Stream {
    ServerScan* scan = nullptr;
    net::ClientPool* pool = nullptr;
    net::ClientPool::Lease conn;
    net::MultiScanRequest req;
    size_t window = 0;  ///< ids index of req.ranges[0]
    net::RegionClient::PendingPage page;
    net::MultiScanResponse resp;
    /// Waiting: when the page times out. Retrying: when the stream reopens.
    Clock::time_point deadline;
    bool waiting = false;   ///< a page is in flight
    bool retrying = false;  ///< a failed page's retry is due at `deadline`
    int attempts = 0;       ///< retries taken so far
  };
  std::vector<Stream> streams(scans->size());
  // A page failed: the stream reopens after the retry policy's backoff,
  // or the server finishes with the failure.
  auto fail = [&](Stream& s, Status st) {
    // A connection that failed is not reused; the retry redials.
    s.conn->Disconnect();
    s.conn = net::ClientPool::Lease();
    s.waiting = false;
    std::chrono::milliseconds backoff{0};
    if (halt->load(std::memory_order_relaxed)) {
      finish(*s.scan, Status::OK());  // stopped: no more rows are wanted
    } else if (Retry(st, s.attempts, &backoff)) {
      ++s.attempts;
      s.retrying = true;
      s.deadline = Clock::now() + backoff;
    } else {
      finish(*s.scan, std::move(st));
    }
  };
  auto send = [&](Stream& s) {
    Status st = s.conn->SendMultiScanPage(s.req, &s.page);
    if (!st.ok()) return fail(s, std::move(st));
    const int timeout_ms = s.conn->options().io_timeout_ms;
    s.deadline = timeout_ms > 0
                     ? Clock::now() + std::chrono::milliseconds(timeout_ms)
                     : Clock::time_point::max();
    s.waiting = true;
  };
  // Asks for the first page of the ranges from ids[window] on, at most
  // kMaxScanRanges of them. A window that starts at the server's resume
  // point starts just past the last key the sink accepted.
  auto open_window = [&](Stream& s, size_t window) {
    const ServerScan& scan = *s.scan;
    const std::vector<size_t>& ids = *scan.ids;
    s.window = window;
    s.req.ranges.clear();
    for (size_t i = window;
         i < ids.size() && i < window + net::kMaxScanRanges; ++i) {
      s.req.ranges.push_back({ranges[ids[i]].start, ranges[ids[i]].end});
    }
    s.req.limit_rows = s.conn->options().scan_page_rows;
    s.req.resume = net::ScanCursor{};
    if (scan.resume && window == scan.next) {
      s.req.resume.key = scan.last_key + '\0';
    }
    send(s);
  };
  // A page is ready: read and check it. False when it failed instead.
  auto receive = [&](Stream& s) {
    s.waiting = false;
    Status st = s.conn->RecvMultiScanPage(s.page, s.req, &s.resp);
    if (st.ok()) st = s.resp.status;
    if (st.ok()) return true;
    fail(s, std::move(st));
    return false;
  };
  // Hands a received page's rows to the sink, then asks for the next page
  // unless the server is done or stopped.
  auto deliver = [&](Stream& s) {
    bool more = true;
    for (const net::MultiScanRow& row : s.resp.rows) {
      if (!s.scan->Deliver(s.window + row.range, row.key, row.value, sink,
                           halt)) {
        more = false;
        break;
      }
    }
    if (more && !halt->load(std::memory_order_relaxed)) {
      if (s.resp.has_more) {
        s.req.resume = std::move(s.resp.next);
        return send(s);
      }
      const size_t window_end = s.window + s.req.ranges.size();
      if (window_end < s.scan->ids->size()) return open_window(s, window_end);
    }
    s.conn.Release();
    finish(*s.scan, Status::OK());
  };
  // A retry is due: the stream reopens on a fresh connection where the
  // sink left off.
  auto reopen = [&](Stream& s) {
    s.retrying = false;
    if (halt->load(std::memory_order_relaxed)) {
      return finish(*s.scan, Status::OK());
    }
    s.conn = s.pool->Acquire();
    open_window(s, s.scan->next);
  };

  for (size_t i = 0; i < streams.size(); ++i) {
    Stream& s = streams[i];
    s.scan = &(*scans)[i];
    s.pool = servers_[s.scan->server]->clients();
    s.conn = s.pool->Acquire();
    open_window(s, 0);
  }
  std::vector<pollfd> fds;
  std::vector<Stream*> polled;
  std::vector<Stream*> received;
  for (;;) {
    fds.clear();
    polled.clear();
    received.clear();
    // The nearest page timeout or retry: a server in backoff does not hold
    // up the others' pages.
    Clock::time_point deadline = Clock::time_point::max();
    bool busy = false;
    for (Stream& s : streams) {
      if (!s.waiting && !s.retrying) continue;
      busy = true;
      deadline = std::min(deadline, s.deadline);
      if (s.waiting) {
        fds.push_back(pollfd{s.conn->fd(), POLLIN, 0});
        polled.push_back(&s);
      }
    }
    if (!busy) break;
    int timeout_ms = -1;  // no deadline: wait for an answer
    if (deadline != Clock::time_point::max()) {
      timeout_ms = static_cast<int>(std::max<int64_t>(
          0, std::chrono::ceil<std::chrono::milliseconds>(deadline -
                                                          Clock::now())
                 .count()));
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      const Status st = Status::Unavailable(std::string("poll: ") +
                                            std::strerror(errno));
      for (Stream* s : polled) fail(*s, st);
      continue;
    }
    // Every ready page is read before any rows are handed on, so a page's
    // latency does not include the sink's work on the others.
    const Clock::time_point now = Clock::now();
    for (size_t i = 0; i < fds.size(); ++i) {
      Stream& s = *polled[i];
      if (ready > 0 && fds[i].revents != 0) {
        if (receive(s)) received.push_back(&s);
      } else if (now >= s.deadline) {
        fail(s, Status::Unavailable("region server page timed out"));
      }
    }
    for (Stream* s : received) deliver(*s);
    for (Stream& s : streams) {
      if (s.retrying && now >= s.deadline) reopen(s);
    }
  }
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
