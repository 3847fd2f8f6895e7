#include "net/region_server.h"

#include <chrono>
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
  std::thread thread;
  std::atomic<bool> finished{false};  ///< the thread is done; reapable
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
    if (!IsRequestType(static_cast<MsgType>(t))) continue;
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
  for (auto& conn : conns) conn->sock.ShutdownBoth();
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void RegionServer::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
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
    conn->thread = std::thread([this, conn] { ConnectionLoop(conn); });
  }
}

void RegionServer::Send(Connection& conn, std::string_view head,
                        std::string_view body) {
  if (!conn.sock.WriteFully(head, body).ok()) {
    // The peer is gone (or wedged past the send timeout): shut the socket
    // so the next read fails and the connection unwinds.
    conn.sock.ShutdownBoth();
  }
}

void RegionServer::ConnectionLoop(const std::shared_ptr<Connection>& conn) {
  std::string payload;  // reused: capacity survives across requests
  Reply reply;
  // A bare status answer: a rejected or shed request.
  auto answer = [&](const Status& status, uint64_t id) {
    reply.frame.clear();
    EncodeStatusResponse({status}, id, &reply.frame);
    Send(*conn, reply.frame);
  };
  for (;;) {
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
    const uint64_t arrival_ns = NowNs();
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
      answer(st.ok() ? Status::InvalidArgument("not a request type") : st,
             id);
      continue;
    }
    bool traced = false;
    if (header.has_ext) {
      TraceContext ctx;
      st = DecodeTraceContext(header.ext, &ctx);
      if (!st.ok()) {
        // The extension was framed correctly (ParsePayload accepted it) but
        // its contents are garbage: reject the request, keep the stream.
        answer(st, header.request_id);
        continue;
      }
      traced = ctx.sampled;
    }
    requests_total_.fetch_add(1);
    requests_counter_->Increment();

    // Health checks and overload introspection bypass admission: they are
    // how clients *observe* shedding, so they must not themselves shed.
    const bool exempt = header.type == MsgType::kPingReq ||
                        header.type == MsgType::kStatsReq;
    if (!exempt &&
        inflight_.load(std::memory_order_relaxed) >= options_.max_inflight) {
      shed_total_.fetch_add(1);
      shed_counter_->Increment();
      answer(Status::Unavailable("server overloaded: request shed"),
             header.request_id);
      continue;
    }
    inflight_.fetch_add(1);
    inflight_gauge_->Add(1);
    const uint64_t start_ns = NowNs();
    Execute(header, body, traced, arrival_ns, &reply);
    const uint64_t us = (NowNs() - start_ns) / 1000;
    request_us_->Record(us);
    const uint8_t t = static_cast<uint8_t>(header.type);
    if (t < sizeof(rpc_us_by_type_) / sizeof(rpc_us_by_type_[0]) &&
        rpc_us_by_type_[t] != nullptr) {
      rpc_us_by_type_[t]->Record(us);
    }
    if (reply.paged) {
      Send(*conn, reply.page.head(), reply.page.body());
    } else {
      Send(*conn, reply.frame);
    }
    inflight_.fetch_sub(1);
    inflight_gauge_->Add(-1);
  }
  // The connection is done (EOF, I/O error, or an unsynced stream): send
  // FIN now so the peer observes the close immediately — the fd itself
  // lives until the Connection is reaped.
  conn->sock.ShutdownBoth();
  active_connections_.fetch_sub(1);
  active_conns_gauge_->Add(-1);
  conn->finished.store(true, std::memory_order_release);
}

Status RegionServer::HandleScan(const MultiScanRequest& req,
                                ScanPageWriter* page, bool* has_more,
                                ScanCursor* next) {
  const uint32_t limit = std::min(req.limit_rows, options_.scan_limit_clamp);
  // Resume: the cursor's range restarts at its key (never before the
  // range's own start), and the ranges before it are already delivered.
  const uint32_t first = req.resume.range;
  std::vector<kv::ScanRange> ranges(req.ranges.begin() + first,
                                    req.ranges.end());
  if (std::string_view(req.resume.key) > ranges[0].start) {
    ranges[0].start = req.resume.key;
  }
  Status st = store_->Scan(
      ranges, [&](size_t range, std::string_view key, std::string_view value) {
        page->AddRow(static_cast<uint32_t>(first + range), key, value);
        return page->rows() < limit;
      });
  uint32_t last = static_cast<uint32_t>(req.ranges.size() - 1);
  if (st.ok() && page->rows() == limit) {
    // The page filled: there may be more. The resume cursor is the smallest
    // key strictly after the last delivered one, in the same range, so a
    // client can continue against a restarted server with no scan state
    // held here.
    *has_more = true;
    last = page->last_range();
    next->range = last;
    next->key.assign(page->last_key());
    next->key.push_back('\0');
  }
  // Ranges this page began (a resumed range was counted by its first page).
  const bool resumed = std::string_view(req.resume.key) > req.ranges[first].start;
  obs::TraceKeyRanges(last - first + 1 - (resumed ? 1 : 0));
  obs::TraceRowsScanned(page->rows());
  return st;
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

void RegionServer::Execute(const FrameHeader& header, std::string_view body,
                           bool traced, uint64_t arrival_ns, Reply* reply) {
  // A trace is opened when the client asked for one (`traced`) or when the
  // slow-RPC log needs trees; otherwise this whole block is two branch
  // tests and the handlers run exactly as before — the pay-as-you-go
  // guarantee the bench_wire acceptance criterion pins.
  const MsgType type = header.type;
  const bool want_trace = traced || slow_log_ != nullptr;
  std::optional<obs::Trace> trace;
  std::optional<obs::SpanScope> scope;
  if (want_trace) {
    trace.emplace(std::string("rpc.") + MsgTypeName(type));
    // Arrival-to-execution wait (parse and admission). The span's own wall
    // clock only starts here, so the wait rides along as an attribute.
    trace->root()->AddAttr("queue_us",
                           std::to_string((NowNs() - arrival_ns) / 1000));
    // All handler work — store reads/writes, scan attribution, block
    // fetches in kvstore — lands on this one span, so the client-side
    // graft shows per-server totals on a single labeled node.
    scope.emplace(trace->root());
  }

  // Handlers fill a response value (scans: the page's body); encoding
  // happens after the span ends so its serialized tree can ride in the
  // response's extension field.
  enum class Kind { kStatus, kPage, kStats };
  Kind kind = Kind::kStatus;
  Status status;
  StatsResponse stats_resp;
  bool has_more = false;
  ScanCursor next;
  switch (type) {
    case MsgType::kPingReq: {
      status = DecodeEmptyBody(body);
      break;
    }
    case MsgType::kWriteBatchReq: {
      WriteBatchRequest batch_req;
      status = DecodeWriteBatchRequest(body, &batch_req);
      if (status.ok() && quota_ != nullptr && !batch_req.tenant.empty()) {
        status = quota_->AdmitWrite(batch_req.tenant, batch_req.ops.size());
        if (status.IsResourceExhausted()) {
          // A quota shed is admission control just like the inflight cap:
          // surface it through the same counters (and thus /statsz and the
          // wire StatsResponse), distinguished by its status code.
          shed_total_.fetch_add(1);
          shed_counter_->Increment();
        }
      }
      if (status.ok()) status = store_->WriteBatch(batch_req.ops);
      break;
    }
    case MsgType::kMultiScanReq: {
      kind = Kind::kPage;
      reply->page.Begin();
      MultiScanRequest multi_req;
      status = DecodeMultiScanRequest(body, &multi_req);
      if (status.ok()) {
        status = HandleScan(multi_req, &reply->page, &has_more, &next);
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
    if (traced) ext = obs::EncodeSpanTree(*trace->root());
  }
  const uint64_t id = header.request_id;
  reply->paged = kind == Kind::kPage;
  reply->frame.clear();
  switch (kind) {
    case Kind::kStatus:
      EncodeStatusResponse({status}, id, &reply->frame, ext);
      break;
    case Kind::kPage:
      reply->page.Finish(status, has_more, next, id, ext);
      break;
    case Kind::kStats:
      EncodeStatsResponse(stats_resp, id, &reply->frame, ext);
      break;
  }
  if (trace.has_value() && slow_log_ != nullptr) {
    obs::SlowQueryEntry entry;
    entry.sql = std::string("rpc:") + MsgTypeName(type);
    entry.wall_us = trace->root()->wall_ns() / 1000;
    entry.rows = kind == Kind::kPage ? reply->page.rows() : 0;
    entry.rows_scanned = trace->root()->TotalRowsScanned();
    entry.key_ranges = trace->root()->TotalKeyRanges();
    entry.trace_json = trace->ToJson();
    slow_log_->MaybeRecord(std::move(entry));
  }
}

}  // namespace just::net
