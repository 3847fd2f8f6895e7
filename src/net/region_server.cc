#include "net/region_server.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "common/bytes.h"
#include "kvstore/wal.h"
#include "obs/trace.h"
#include "obs/trace_codec.h"

namespace just::net {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

struct RegionServer::Connection {
  Socket sock;
  std::mutex write_mu;  ///< serializes worker responses and reader sheds

  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<PendingRequest> queue;
  bool closed = false;

  std::thread reader;
  std::thread worker;
  std::atomic<bool> finished{false};  ///< both threads are done; reapable
};

RegionServer::RegionServer(const RegionServerOptions& options)
    : options_(options) {
  auto& reg = obs::Registry::Global();
  requests_counter_ = reg.GetCounter("just_net_server_requests_total");
  shed_counter_ = reg.GetCounter("just_net_server_shed_total");
  corrupt_counter_ = reg.GetCounter("just_net_server_corrupt_frames_total");
  connections_counter_ = reg.GetCounter("just_net_server_connections_total");
  active_conns_gauge_ = reg.GetGauge("just_net_server_active_connections");
  inflight_gauge_ = reg.GetGauge("just_net_server_inflight_requests");
  request_us_ = reg.GetHistogram("just_net_server_request_us");
  for (uint8_t t = static_cast<uint8_t>(MsgType::kPingReq);
       t <= static_cast<uint8_t>(MsgType::kMultiScanReq); ++t) {
    rpc_us_by_type_[t] = reg.GetHistogram(obs::LabeledName(
        "just_net_server_rpc_us",
        {{"type", MsgTypeName(static_cast<MsgType>(t))}}));
  }
  if (options.slow_rpc_threshold_us >= 0) {
    slow_log_ = std::make_unique<obs::SlowQueryLog>(
        options.slow_rpc_threshold_us, /*capacity=*/128,
        /*log_to_stderr=*/false);
  }
  if (options.tenant_write_rps > 0) {
    quota_ = std::make_unique<stream::QuotaManager>();
    meta::TenantQuotaConfig q;
    q.write_rows_per_sec = options.tenant_write_rps;
    q.write_burst_rows = options.tenant_write_burst;
    quota_->SetDefaultQuota(q);
  }
}

Result<std::unique_ptr<RegionServer>> RegionServer::Start(
    const RegionServerOptions& options) {
  if (options.store.dir.empty()) {
    return Status::InvalidArgument("region server needs store.dir");
  }
  auto server = std::unique_ptr<RegionServer>(new RegionServer(options));
  JUST_ASSIGN_OR_RETURN(server->store_, kv::LsmStore::Open(options.store));
  JUST_ASSIGN_OR_RETURN(server->listener_,
                        Listener::Listen(options.host, options.port));
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

RegionServer::~RegionServer() { Stop(); }

void RegionServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Already stopped; wait for the first Stop() to have joined everything.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  listener_.Close();  // wakes Accept()
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    conn->sock.ShutdownBoth();
    {
      std::lock_guard<std::mutex> lock(conn->queue_mu);
      conn->closed = true;
    }
    conn->queue_cv.notify_all();
  }
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->worker.joinable()) conn->worker.join();
  }
}

void RegionServer::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      if ((*it)->worker.joinable()) (*it)->worker.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void RegionServer::AcceptLoop() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) return;  // listener closed (Stop) or fatal
    if (stopping_.load()) return;
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(*accepted);
    connections_counter_->Increment();
    active_connections_.fetch_add(1);
    active_conns_gauge_->Add(1);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      ReapFinishedLocked();
      conns_.push_back(conn);
    }
    conn->worker = std::thread([this, conn] { WorkerLoop(conn); });
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void RegionServer::SendFrame(Connection& conn, const std::string& frame) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  Status st = conn.sock.WriteFully(frame.data(), frame.size());
  if (!st.ok()) {
    // The peer is gone (or wedged past the send timeout): wake the reader
    // so the whole connection unwinds.
    conn.sock.ShutdownBoth();
  }
}

void RegionServer::ReaderLoop(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    std::string payload;
    Status st = ReadFramePayload(conn->sock, &payload,
                                 options_.max_frame_bytes);
    if (!st.ok()) {
      // Oversized or CRC-corrupt frames leave the byte stream unsynced:
      // count and drop the connection. Plain I/O errors / EOF just end it.
      if (st.IsCorruption() || st.IsInvalidArgument()) {
        corrupt_frames_total_.fetch_add(1);
        corrupt_counter_->Increment();
      }
      break;
    }
    FrameHeader header;
    std::string_view body;
    st = ParsePayload(payload, &header, &body);
    if (!st.ok() || !IsRequestType(header.type)) {
      // Framing was intact (CRC passed), so the stream is still synced:
      // answer with kInvalidArgument and keep serving. Without a parsable
      // header the id is best-effort zero.
      uint64_t id = payload.size() >= kPayloadHeaderBytes
                        ? GetFixed64(payload.data() + 1)
                        : 0;
      std::string out;
      EncodeStatusResponse(
          {st.ok() ? Status::InvalidArgument("not a request type") : st}, id,
          &out);
      SendFrame(*conn, out);
      continue;
    }
    bool traced = false;
    if (header.has_ext) {
      TraceContext ctx;
      st = DecodeTraceContext(header.ext, &ctx);
      if (!st.ok()) {
        // The extension was framed correctly (ParsePayload accepted it) but
        // its contents are garbage: reject the request, keep the stream.
        std::string out;
        EncodeStatusResponse({st}, header.request_id, &out);
        SendFrame(*conn, out);
        continue;
      }
      traced = ctx.sampled;
    }
    requests_total_.fetch_add(1);
    requests_counter_->Increment();

    // Health checks and overload introspection bypass admission: they are
    // how clients *observe* shedding, so they must not themselves shed.
    bool exempt = header.type == MsgType::kPingReq ||
                  header.type == MsgType::kStatsReq;
    if (!exempt) {
      bool shed = false;
      {
        std::lock_guard<std::mutex> lock(conn->queue_mu);
        if (static_cast<int>(conn->queue.size()) >= options_.max_pipeline) {
          shed = true;  // per-connection pipeline queue full
        }
      }
      if (!shed &&
          inflight_.load(std::memory_order_relaxed) >= options_.max_inflight) {
        shed = true;  // server-wide admission cap
      }
      if (shed) {
        shed_total_.fetch_add(1);
        shed_counter_->Increment();
        std::string out;
        EncodeStatusResponse(
            {Status::Unavailable("server overloaded: request shed")},
            header.request_id, &out);
        SendFrame(*conn, out);
        continue;
      }
    }
    inflight_.fetch_add(1);
    inflight_gauge_->Add(1);
    {
      std::lock_guard<std::mutex> lock(conn->queue_mu);
      if (conn->closed) {
        inflight_.fetch_sub(1);
        inflight_gauge_->Add(-1);
        break;
      }
      conn->queue.push_back(PendingRequest{header.type, header.request_id,
                                           std::string(body), traced,
                                           NowNs()});
    }
    conn->queue_cv.notify_one();
  }
  // Reader exit means the connection is done (EOF, I/O error, or an
  // unsynced stream): send FIN now so the peer observes the close
  // immediately — the fd itself lives until the Connection is reaped.
  conn->sock.ShutdownBoth();
  {
    std::lock_guard<std::mutex> lock(conn->queue_mu);
    conn->closed = true;
  }
  conn->queue_cv.notify_all();
}

void RegionServer::WorkerLoop(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    PendingRequest req;
    {
      std::unique_lock<std::mutex> lock(conn->queue_mu);
      conn->queue_cv.wait(lock,
                          [&] { return conn->closed || !conn->queue.empty(); });
      if (conn->queue.empty()) break;  // closed and drained
      req = std::move(conn->queue.front());
      conn->queue.pop_front();
    }
    const uint64_t start_ns = NowNs();
    std::string out;
    Execute(req, &out);
    const uint64_t us = (NowNs() - start_ns) / 1000;
    request_us_->Record(us);
    const uint8_t t = static_cast<uint8_t>(req.type);
    if (t < sizeof(rpc_us_by_type_) / sizeof(rpc_us_by_type_[0]) &&
        rpc_us_by_type_[t] != nullptr) {
      rpc_us_by_type_[t]->Record(us);
    }
    SendFrame(*conn, out);
    inflight_.fetch_sub(1);
    inflight_gauge_->Add(-1);
  }
  // Requests admitted but never executed still hold inflight slots.
  {
    std::lock_guard<std::mutex> lock(conn->queue_mu);
    for (size_t i = 0; i < conn->queue.size(); ++i) {
      inflight_.fetch_sub(1);
      inflight_gauge_->Add(-1);
    }
    conn->queue.clear();
  }
  active_connections_.fetch_sub(1);
  active_conns_gauge_->Add(-1);
  conn->finished.store(true, std::memory_order_release);
}

void RegionServer::HandleScan(const MultiScanRequest& req,
                              MultiScanResponse* resp) {
  const uint32_t limit = std::min(req.limit_rows, options_.scan_limit_clamp);
  resp->rows.reserve(std::min<uint32_t>(limit, 1024));
  // Resume: the cursor's range restarts at its key (never before the
  // range's own start), and the ranges before it are already delivered.
  const uint32_t first = req.resume.range;
  std::vector<kv::ScanRange> ranges(req.ranges.begin() + first,
                                    req.ranges.end());
  if (std::string_view(req.resume.key) > ranges[0].start) {
    ranges[0].start = req.resume.key;
  }
  resp->status = store_->Scan(
      ranges, [&](size_t range, std::string_view key, std::string_view value) {
        resp->rows.push_back(MultiScanRow{static_cast<uint32_t>(first + range),
                                          std::string(key),
                                          std::string(value)});
        return resp->rows.size() < limit;
      });
  uint32_t last = static_cast<uint32_t>(req.ranges.size() - 1);
  if (resp->status.ok() && resp->rows.size() == limit) {
    // The page filled: there may be more. The resume cursor is the smallest
    // key strictly after the last delivered one, in the same range, so a
    // client can continue against a restarted server with no scan state
    // held here.
    resp->has_more = true;
    last = resp->rows.back().range;
    resp->next = ScanCursor{last, resp->rows.back().key + '\0'};
  }
  // Ranges this page began (a resumed range was counted by its first page).
  const bool resumed = std::string_view(req.resume.key) > req.ranges[first].start;
  obs::TraceKeyRanges(last - first + 1 - (resumed ? 1 : 0));
  obs::TraceRowsScanned(resp->rows.size());
}

StatsResponse RegionServer::BuildStats() {
  StatsResponse resp;
  kv::LsmStore::Stats s = store_->GetStats();
  resp.disk_bytes = s.disk_bytes;
  resp.entries = s.sstable_entries + s.memtable_entries;
  resp.num_sstables = s.num_sstables;
  resp.requests_total = requests_total_.load();
  resp.shed_total = shed_total_.load();
  resp.corrupt_frames_total = corrupt_frames_total_.load();
  resp.active_connections =
      static_cast<uint64_t>(std::max<int64_t>(0, active_connections_.load()));
  return resp;
}

void RegionServer::Execute(const PendingRequest& req, std::string* out) {
  // A trace is opened when the client asked for one (req.traced) or when
  // the slow-RPC log needs trees; otherwise this whole block is two branch
  // tests and the handlers run exactly as before — the pay-as-you-go
  // guarantee the bench_wire acceptance criterion pins.
  const bool want_trace = req.traced || slow_log_ != nullptr;
  std::optional<obs::Trace> trace;
  std::optional<obs::SpanScope> scope;
  if (want_trace) {
    trace.emplace(std::string("rpc.") + MsgTypeName(req.type));
    if (req.enqueue_ns != 0) {
      // Queue wait: admission-to-execution. The span's own wall clock only
      // starts here, so the wait rides along as an attribute.
      trace->root()->AddAttr(
          "queue_us", std::to_string((NowNs() - req.enqueue_ns) / 1000));
    }
    // All handler work — store reads/writes, scan attribution, block
    // fetches in kvstore — lands on this one span, so the client-side
    // graft shows per-server totals on a single labeled node.
    scope.emplace(trace->root());
  }

  // Handlers fill a response value; encoding happens after the span ends so
  // its serialized tree can ride in the response's extension field.
  enum class Kind { kStatus, kGet, kScan, kMultiScan, kStats };
  Kind kind = Kind::kStatus;
  Status status;
  GetResponse get_resp;
  ScanResponse scan_resp;
  MultiScanResponse multi_resp;
  StatsResponse stats_resp;
  const std::string_view body = req.body;
  switch (req.type) {
    case MsgType::kPingReq: {
      status = DecodeEmptyBody(body);
      break;
    }
    case MsgType::kGetReq: {
      kind = Kind::kGet;
      GetRequest get_req;
      Status st = DecodeGetRequest(body, &get_req);
      get_resp.status =
          st.ok() ? store_->Get(get_req.key, &get_resp.value) : st;
      break;
    }
    case MsgType::kPutReq: {
      PutRequest put_req;
      status = DecodePutRequest(body, &put_req);
      if (status.ok()) status = store_->Put(put_req.key, put_req.value);
      break;
    }
    case MsgType::kDeleteReq: {
      DeleteRequest del_req;
      status = DecodeDeleteRequest(body, &del_req);
      if (status.ok()) status = store_->Delete(del_req.key);
      break;
    }
    case MsgType::kWriteBatchReq: {
      WriteBatchRequest batch_req;
      status = DecodeWriteBatchRequest(body, &batch_req);
      if (status.ok()) status = store_->WriteBatch(batch_req.ops);
      break;
    }
    case MsgType::kIngestReq: {
      IngestRequest ingest_req;
      status = DecodeIngestRequest(body, &ingest_req);
      if (status.ok() && quota_ != nullptr) {
        status = quota_->AdmitWrite(ingest_req.tenant, ingest_req.ops.size());
        if (status.IsResourceExhausted()) {
          // A quota shed is admission control just like the pipeline caps:
          // surface it through the same counters (and thus /statsz and the
          // wire StatsResponse), distinguished by its status code.
          shed_total_.fetch_add(1);
          shed_counter_->Increment();
        }
      }
      if (status.ok()) status = store_->WriteBatch(ingest_req.ops);
      break;
    }
    case MsgType::kScanReq: {
      // The one-range scan of older clients: a one-element multi-scan.
      kind = Kind::kScan;
      ScanRequest scan_req;
      Status st = DecodeScanRequest(body, &scan_req);
      if (!st.ok()) {
        scan_resp.status = st;
        break;
      }
      MultiScanRequest multi_req;
      multi_req.ranges = {{scan_req.start_key, scan_req.end_key}};
      multi_req.limit_rows = scan_req.limit_rows;
      HandleScan(multi_req, &multi_resp);
      scan_resp.status = multi_resp.status;
      scan_resp.rows.reserve(multi_resp.rows.size());
      for (MultiScanRow& row : multi_resp.rows) {
        scan_resp.rows.push_back(
            WireRow{std::move(row.key), std::move(row.value)});
      }
      scan_resp.has_more = multi_resp.has_more;
      scan_resp.next_cursor = std::move(multi_resp.next.key);
      break;
    }
    case MsgType::kMultiScanReq: {
      kind = Kind::kMultiScan;
      MultiScanRequest multi_req;
      Status st = DecodeMultiScanRequest(body, &multi_req);
      if (st.ok()) {
        HandleScan(multi_req, &multi_resp);
      } else {
        multi_resp.status = st;
      }
      break;
    }
    case MsgType::kFlushReq: {
      status = DecodeEmptyBody(body);
      if (status.ok()) status = store_->Flush();
      break;
    }
    case MsgType::kCompactReq: {
      status = DecodeEmptyBody(body);
      if (status.ok()) status = store_->CompactAll();
      break;
    }
    case MsgType::kWaitIdleReq: {
      status = DecodeEmptyBody(body);
      if (status.ok()) status = store_->WaitForBackgroundIdle();
      break;
    }
    case MsgType::kStatsReq: {
      kind = Kind::kStats;
      Status st = DecodeEmptyBody(body);
      if (st.ok()) {
        stats_resp = BuildStats();
      } else {
        stats_resp.status = st;
      }
      break;
    }
    default:
      status = Status::InvalidArgument("unhandled request type");
      break;
  }

  scope.reset();
  std::string ext;
  if (trace.has_value()) {
    trace->root()->End();
    // Only traced requests pay for serialization; slow-log-only traces
    // stay server-side.
    if (req.traced) ext = obs::EncodeSpanTree(*trace->root());
  }
  switch (kind) {
    case Kind::kStatus:
      EncodeStatusResponse({status}, req.request_id, out, ext);
      break;
    case Kind::kGet:
      EncodeGetResponse(get_resp, req.request_id, out, ext);
      break;
    case Kind::kScan:
      EncodeScanResponse(scan_resp, req.request_id, out, ext);
      break;
    case Kind::kMultiScan:
      EncodeMultiScanResponse(multi_resp, req.request_id, out, ext);
      break;
    case Kind::kStats:
      EncodeStatsResponse(stats_resp, req.request_id, out, ext);
      break;
  }
  if (trace.has_value() && slow_log_ != nullptr) {
    obs::SlowQueryEntry entry;
    entry.sql = std::string("rpc:") + MsgTypeName(req.type);
    entry.wall_us = trace->root()->wall_ns() / 1000;
    entry.rows = kind == Kind::kScan        ? scan_resp.rows.size()
                 : kind == Kind::kMultiScan ? multi_resp.rows.size()
                                            : 0;
    entry.rows_scanned = trace->root()->TotalRowsScanned();
    entry.key_ranges = trace->root()->TotalKeyRanges();
    entry.trace_json = trace->ToJson();
    slow_log_->MaybeRecord(std::move(entry));
  }
}

}  // namespace just::net
