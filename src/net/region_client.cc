#include "net/region_client.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_codec.h"

namespace just::net {

namespace {

obs::Counter* RpcCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_net_client_rpcs_total");
  return c;
}

obs::Counter* ReconnectCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_net_client_reconnects_total");
  return c;
}

obs::Counter* ErrorCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_net_client_rpc_errors_total");
  return c;
}

obs::Counter* TraceDecodeErrorCounter() {
  static obs::Counter* c = obs::Registry::Global().GetCounter(
      "just_net_client_trace_decode_errors_total");
  return c;
}

obs::Counter* TraceDegradeCounter() {
  static obs::Counter* c = obs::Registry::Global().GetCounter(
      "just_net_client_trace_degrades_total");
  return c;
}

obs::Counter* MultiScanDegradeCounter() {
  static obs::Counter* c = obs::Registry::Global().GetCounter(
      "just_net_client_multiscan_degrades_total");
  return c;
}

/// The type byte a peer's "unknown message type N" answer names, or -1 when
/// `st` is not such an answer.
int UnknownTypeNamed(const Status& st) {
  static constexpr std::string_view kPrefix = "unknown message type ";
  if (!st.IsInvalidArgument()) return -1;
  const std::string& msg = st.message();
  size_t at = msg.find(kPrefix);
  if (at == std::string::npos) return -1;
  return std::atoi(msg.c_str() + at + kPrefix.size());
}

/// Per-request-type client latency (`just_net_client_rpc_us{type=...}`),
/// indexed by the raw type byte. All series registered on first use so
/// /metrics shows them together.
obs::Histogram* ClientRpcUs(MsgType t) {
  static const std::array<obs::Histogram*, 16> table = [] {
    std::array<obs::Histogram*, 16> a{};
    for (uint8_t i = static_cast<uint8_t>(MsgType::kPingReq);
         i <= static_cast<uint8_t>(MsgType::kMultiScanReq); ++i) {
      a[i] = obs::Registry::Global().GetHistogram(obs::LabeledName(
          "just_net_client_rpc_us",
          {{"type", MsgTypeName(static_cast<MsgType>(i))}}));
    }
    return a;
  }();
  uint8_t i = static_cast<uint8_t>(t);
  return i < table.size() ? table[i] : nullptr;
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Status RegionClient::EnsureConnected() {
  if (sock_.valid()) return Status::OK();
  JUST_ASSIGN_OR_RETURN(sock_, Connect(options_.host, options_.port));
  ReconnectCounter()->Increment();
  if (options_.io_timeout_ms > 0) {
    JUST_RETURN_NOT_OK(sock_.SetRecvTimeout(options_.io_timeout_ms));
    JUST_RETURN_NOT_OK(sock_.SetSendTimeout(options_.io_timeout_ms));
  }
  return Status::OK();
}

Status RegionClient::Fail(Status st) {
  // The byte stream can no longer be trusted (timeout mid-frame, torn
  // response, CRC mismatch): drop the connection so the next call redials,
  // and surface the failure as transient for the caller's retry policy.
  Disconnect();
  ErrorCounter()->Increment();
  if (st.IsTransient()) return st;
  return Status::Unavailable("region server RPC failed: " + st.ToString());
}

Status RegionClient::RawSend(std::string_view frame) {
  JUST_RETURN_NOT_OK(EnsureConnected());
  Status st = sock_.WriteFully(frame.data(), frame.size());
  if (!st.ok()) return Fail(st);
  return Status::OK();
}

Status RegionClient::RawRecvPayload(std::string* payload) {
  if (!sock_.valid()) return Status::Unavailable("not connected");
  Status st = ReadFramePayload(sock_, payload, options_.max_frame_bytes);
  if (!st.ok()) return Fail(st);
  return Status::OK();
}

void RegionClient::GraftResponseTrace(const FrameHeader& header) {
  obs::TraceSpan* parent = obs::CurrentSpan();
  if (parent == nullptr || !header.has_ext) return;
  Status st;
  obs::TraceSpan* remote = obs::DecodeSpanTree(header.ext, parent, &st);
  if (remote == nullptr) {
    TraceDecodeErrorCounter()->Increment();
    return;
  }
  remote->AddAttr("server",
                  options_.host + ":" + std::to_string(options_.port));
}

Status RegionClient::SendRequest(const FrameBuilder& build, uint64_t* id,
                                 bool* traced) {
  // Trace context rides along only when the calling thread is actually
  // tracing and the peer has not rejected the extension — with tracing
  // inactive the frame is byte-identical to the pre-extension layout.
  *traced = !peer_->trace_unsupported.load() &&
            obs::CurrentSpan() != nullptr;
  *id = NextRequestId();
  std::string ext;
  if (*traced) ext = EncodeTraceContext(TraceContext{/*sampled=*/true});
  std::string frame;
  build(*id, ext, &frame);
  RpcCounter()->Increment();
  return RawSend(frame);
}

Status RegionClient::RecvResponse(uint64_t id, FrameHeader* header,
                                  std::string* payload,
                                  std::string_view* body) {
  JUST_RETURN_NOT_OK(RawRecvPayload(payload));
  Status st = ParsePayload(*payload, header, body);
  if (!st.ok()) return Fail(st);
  // Responses arrive in request order and one request is outstanding per
  // connection, so an id mismatch means a stale or misrouted frame: kill
  // the connection.
  if (header->request_id != id) {
    return Fail(Status::Internal("response id mismatch"));
  }
  return Status::OK();
}

bool RegionClient::TraceDegraded(MsgType req_type, bool traced,
                                 const Status& answer) {
  // A pre-extension server saw the flagged type byte as unknown and
  // answered kInvalidArgument on a surviving connection. A peer that knows
  // the extension but not the request type itself names the bare type:
  // that is the caller's to handle.
  const int named = UnknownTypeNamed(answer);
  if (!traced || named < 0 || named == static_cast<int>(req_type)) {
    return false;
  }
  if (!peer_->trace_unsupported.exchange(true)) {
    TraceDegradeCounter()->Increment();
  }
  return true;
}

Status RegionClient::CallRpc(MsgType req_type, const FrameBuilder& build,
                             FrameHeader* header, std::string* payload,
                             std::string_view* body) {
  const uint64_t start_us = NowUs();
  for (;;) {
    uint64_t id = 0;
    bool traced = false;
    JUST_RETURN_NOT_OK(SendRequest(build, &id, &traced));
    JUST_RETURN_NOT_OK(RecvResponse(id, header, payload, body));
    if (traced && header->type == MsgType::kStatusResp) {
      // Degraded for good: retry this one RPC without the extension. The
      // peer is now marked, so the loop cannot spin.
      StatusResponse sr;
      if (DecodeStatusResponse(*body, &sr).ok() &&
          TraceDegraded(req_type, traced, sr.status)) {
        continue;
      }
    }
    if (header->has_ext) GraftResponseTrace(*header);
    if (obs::Histogram* h = ClientRpcUs(req_type)) {
      h->Record(NowUs() - start_us);
    }
    return Status::OK();
  }
}

Status RegionClient::StatusCall(MsgType req_type, const FrameBuilder& build) {
  FrameHeader header;
  std::string payload;
  std::string_view body;
  JUST_RETURN_NOT_OK(CallRpc(req_type, build, &header, &payload, &body));
  if (header.type != MsgType::kStatusResp) {
    return Fail(Status::Internal("unexpected response type"));
  }
  StatusResponse resp;
  Status st = DecodeStatusResponse(body, &resp);
  if (!st.ok()) return Fail(st);
  return resp.status;
}

Status RegionClient::Ping() {
  return StatusCall(MsgType::kPingReq,
                    [](uint64_t id, std::string_view ext, std::string* f) {
                      EncodePingRequest(id, f, ext);
                    });
}

Status RegionClient::Put(std::string_view key, std::string_view value) {
  return StatusCall(
      MsgType::kPutReq,
      [&](uint64_t id, std::string_view ext, std::string* f) {
        EncodePutRequest({std::string(key), std::string(value)}, id, f, ext);
      });
}

Status RegionClient::Delete(std::string_view key) {
  return StatusCall(MsgType::kDeleteReq,
                    [&](uint64_t id, std::string_view ext, std::string* f) {
                      EncodeDeleteRequest({std::string(key)}, id, f, ext);
                    });
}

Status RegionClient::WriteBatch(const std::vector<kv::WriteOp>& ops) {
  return StatusCall(MsgType::kWriteBatchReq,
                    [&](uint64_t id, std::string_view ext, std::string* f) {
                      WriteBatchRequest req;
                      req.ops = ops;
                      EncodeWriteBatchRequest(req, id, f, ext);
                    });
}

Status RegionClient::Ingest(const std::string& tenant,
                            const std::vector<kv::WriteOp>& ops) {
  return StatusCall(MsgType::kIngestReq,
                    [&](uint64_t id, std::string_view ext, std::string* f) {
                      IngestRequest req;
                      req.tenant = tenant;
                      req.ops = ops;
                      EncodeIngestRequest(req, id, f, ext);
                    });
}

Status RegionClient::Flush() {
  return StatusCall(MsgType::kFlushReq,
                    [](uint64_t id, std::string_view ext, std::string* f) {
                      EncodeEmptyRequest(MsgType::kFlushReq, id, f, ext);
                    });
}

Status RegionClient::CompactAll() {
  return StatusCall(MsgType::kCompactReq,
                    [](uint64_t id, std::string_view ext, std::string* f) {
                      EncodeEmptyRequest(MsgType::kCompactReq, id, f, ext);
                    });
}

Status RegionClient::WaitForBackgroundIdle() {
  return StatusCall(MsgType::kWaitIdleReq,
                    [](uint64_t id, std::string_view ext, std::string* f) {
                      EncodeEmptyRequest(MsgType::kWaitIdleReq, id, f, ext);
                    });
}

Status RegionClient::Get(std::string_view key, std::string* value) {
  FrameHeader header;
  std::string payload;
  std::string_view body;
  JUST_RETURN_NOT_OK(CallRpc(
      MsgType::kGetReq,
      [&](uint64_t id, std::string_view ext, std::string* f) {
        EncodeGetRequest({std::string(key)}, id, f, ext);
      },
      &header, &payload, &body));
  if (header.type == MsgType::kStatusResp) {
    // Shed or rejected before execution: the body is a bare status.
    StatusResponse resp;
    Status st = DecodeStatusResponse(body, &resp);
    if (!st.ok()) return Fail(st);
    return resp.status.ok()
               ? Status::Internal("status-only response to a Get")
               : resp.status;
  }
  if (header.type != MsgType::kGetResp) {
    return Fail(Status::Internal("unexpected response type"));
  }
  GetResponse resp;
  Status st = DecodeGetResponse(body, &resp);
  if (!st.ok()) return Fail(st);
  if (resp.status.ok()) *value = std::move(resp.value);
  return resp.status;
}

Status RegionClient::ScanPage(const ScanRequest& req, ScanResponse* resp) {
  FrameHeader header;
  std::string payload;
  std::string_view body;
  JUST_RETURN_NOT_OK(CallRpc(
      MsgType::kScanReq,
      [&](uint64_t id, std::string_view ext, std::string* f) {
        EncodeScanRequest(req, id, f, ext);
      },
      &header, &payload, &body));
  if (header.type == MsgType::kStatusResp) {
    StatusResponse sr;
    Status st = DecodeStatusResponse(body, &sr);
    if (!st.ok()) return Fail(st);
    return sr.status.ok()
               ? Status::Internal("status-only response to a Scan")
               : sr.status;
  }
  if (header.type != MsgType::kScanResp) {
    return Fail(Status::Internal("unexpected response type"));
  }
  Status st = DecodeScanResponse(body, resp);
  if (!st.ok()) return Fail(st);
  return resp->status;
}

Status RegionClient::GetStats(StatsResponse* resp) {
  FrameHeader header;
  std::string payload;
  std::string_view body;
  JUST_RETURN_NOT_OK(CallRpc(
      MsgType::kStatsReq,
      [](uint64_t id, std::string_view ext, std::string* f) {
        EncodeEmptyRequest(MsgType::kStatsReq, id, f, ext);
      },
      &header, &payload, &body));
  if (header.type == MsgType::kStatusResp) {
    StatusResponse sr;
    Status st = DecodeStatusResponse(body, &sr);
    if (!st.ok()) return Fail(st);
    return sr.status.ok()
               ? Status::Internal("status-only response to a Stats")
               : sr.status;
  }
  if (header.type != MsgType::kStatsResp) {
    return Fail(Status::Internal("unexpected response type"));
  }
  Status st = DecodeStatsResponse(body, resp);
  if (!st.ok()) return Fail(st);
  return resp->status;
}

Status RegionClient::MultiScanPage(const MultiScanRequest& req,
                                   MultiScanResponse* resp) {
  for (;;) {
    if (peer_->multiscan_unsupported.load()) {
      return FallbackScanPage(req, resp);
    }
    PendingPage page;
    JUST_RETURN_NOT_OK(SendMultiScanPage(req, &page));
    bool degraded = false;
    JUST_RETURN_NOT_OK(RecvMultiScanPage(page, req, resp, &degraded));
    // A degrade marked the peer, so the next round sends the other form.
    if (!degraded) return resp->status;
  }
}

Status RegionClient::SendMultiScanPage(const MultiScanRequest& req,
                                       PendingPage* page) {
  page->start_us = NowUs();
  return SendRequest(
      [&](uint64_t id, std::string_view ext, std::string* f) {
        EncodeMultiScanRequest(req, id, f, ext);
      },
      &page->request_id, &page->traced);
}

Status RegionClient::RecvMultiScanPage(const PendingPage& page,
                                       const MultiScanRequest& req,
                                       MultiScanResponse* resp,
                                       bool* degraded) {
  *degraded = false;
  resp->status = Status::OK();
  resp->rows.clear();
  resp->has_more = false;
  resp->next = ScanCursor{};
  FrameHeader header;
  std::string_view body;
  JUST_RETURN_NOT_OK(
      RecvResponse(page.request_id, &header, &resp->payload, &body));
  if (header.type == MsgType::kStatusResp) {
    StatusResponse sr;
    Status st = DecodeStatusResponse(body, &sr);
    if (!st.ok()) return Fail(st);
    if (TraceDegraded(MsgType::kMultiScanReq, page.traced, sr.status)) {
      *degraded = true;
      return Status::OK();
    }
    if (UnknownTypeNamed(sr.status) ==
        static_cast<int>(MsgType::kMultiScanReq)) {
      // A server from before kMultiScanReq: degrade for good.
      if (!peer_->multiscan_unsupported.exchange(true)) {
        MultiScanDegradeCounter()->Increment();
      }
      *degraded = true;
      return Status::OK();
    }
    return sr.status.ok()
               ? Status::Internal("status-only response to a MultiScan")
               : sr.status;
  }
  if (header.type != MsgType::kMultiScanResp) {
    return Fail(Status::Internal("unexpected response type"));
  }
  Status st = DecodeMultiScanResponse(body, resp);
  if (!st.ok()) return Fail(st);
  for (const MultiScanRow& row : resp->rows) {
    if (row.range >= req.ranges.size()) {
      return Fail(Status::Internal("multi-scan row names an unknown range"));
    }
  }
  if (resp->has_more && resp->next.range >= req.ranges.size()) {
    return Fail(Status::Internal("multi-scan cursor names an unknown range"));
  }
  if (header.has_ext) GraftResponseTrace(header);
  if (obs::Histogram* h = ClientRpcUs(MsgType::kMultiScanReq)) {
    h->Record(NowUs() - page.start_us);
  }
  return Status::OK();
}

Status RegionClient::FallbackScanPage(const MultiScanRequest& req,
                                      MultiScanResponse* resp) {
  const uint32_t r = req.resume.range;
  const kv::ScanRange& range = req.ranges[r];
  ScanRequest one;
  one.start_key = std::string(std::max(std::string_view(req.resume.key),
                                       range.start));
  one.end_key = std::string(range.end);
  one.limit_rows = req.limit_rows;
  ScanResponse page;
  JUST_RETURN_NOT_OK(ScanPage(one, &page));
  // The rows' bytes move into the response's payload, which they view.
  resp->status = Status::OK();
  resp->payload.clear();
  for (const WireRow& row : page.rows) {
    resp->payload.append(row.key).append(row.value);
  }
  resp->rows.clear();
  resp->rows.reserve(page.rows.size());
  std::string_view bytes(resp->payload);
  for (const WireRow& row : page.rows) {
    resp->rows.push_back(MultiScanRow{r, bytes.substr(0, row.key.size()),
                                      bytes.substr(row.key.size(),
                                                   row.value.size())});
    bytes.remove_prefix(row.key.size() + row.value.size());
  }
  resp->has_more = false;
  resp->next = ScanCursor{};
  if (page.has_more) {
    resp->has_more = true;
    resp->next = ScanCursor{r, std::move(page.next_cursor)};
  } else if (r + 1 < req.ranges.size()) {
    resp->has_more = true;
    resp->next = ScanCursor{r + 1, ""};
  }
  return Status::OK();
}

Status RegionClient::Scan(const std::vector<kv::ScanRange>& ranges,
                          const kv::ScanFn& fn) {
  MultiScanResponse resp;
  for (size_t base = 0; base < ranges.size(); base += kMaxScanRanges) {
    MultiScanRequest req;
    req.ranges.assign(
        ranges.begin() + base,
        ranges.begin() + std::min(ranges.size(), base + kMaxScanRanges));
    req.limit_rows = options_.scan_page_rows;
    for (;;) {
      JUST_RETURN_NOT_OK(MultiScanPage(req, &resp));
      for (const MultiScanRow& row : resp.rows) {
        if (!fn(base + row.range, row.key, row.value)) return Status::OK();
      }
      if (!resp.has_more) break;
      req.resume = std::move(resp.next);
    }
  }
  return Status::OK();
}

ClientPool::Lease ClientPool::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      std::unique_ptr<RegionClient> client = std::move(idle_.back());
      idle_.pop_back();
      return Lease(this, std::move(client));
    }
  }
  return Lease(this, std::make_unique<RegionClient>(options_, peer_));
}

void ClientPool::Lease::Release() {
  if (client_ == nullptr) return;
  std::lock_guard<std::mutex> lock(pool_->mu_);
  if (client_->connected()) {
    pool_->idle_.push_back(std::move(client_));
  } else {
    // A dead connection usually means a restarted or unreachable server,
    // which leaves the idle ones stale too: redial rather than let each
    // retry meet another of them.
    pool_->idle_.clear();
    client_.reset();
  }
}

}  // namespace just::net
