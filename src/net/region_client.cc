#include "net/region_client.h"

#include <array>
#include <chrono>

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

/// Per-request-type client latency (`just_net_client_rpc_us{type=...}`),
/// indexed by the raw type byte. All series registered on first use so
/// /metrics shows them together.
obs::Histogram* ClientRpcUs(MsgType t) {
  static const std::array<obs::Histogram*, 16> table = [] {
    std::array<obs::Histogram*, 16> a{};
    for (uint8_t i = static_cast<uint8_t>(MsgType::kPingReq);
         i <= static_cast<uint8_t>(MsgType::kMultiScanReq); ++i) {
      if (!IsRequestType(static_cast<MsgType>(i))) continue;
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

Status RegionClient::SendRequest(const FrameBuilder& build, uint64_t* id) {
  // Trace context rides along only when the calling thread is actually
  // tracing — with tracing inactive the frame keeps the unflagged layout.
  *id = NextRequestId();
  std::string ext;
  if (obs::CurrentSpan() != nullptr) {
    ext = EncodeTraceContext(TraceContext{/*sampled=*/true});
  }
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

Status RegionClient::CallRpc(MsgType req_type, const FrameBuilder& build,
                             FrameHeader* header, std::string* payload,
                             std::string_view* body) {
  const uint64_t start_us = NowUs();
  uint64_t id = 0;
  JUST_RETURN_NOT_OK(SendRequest(build, &id));
  JUST_RETURN_NOT_OK(RecvResponse(id, header, payload, body));
  if (header->has_ext) GraftResponseTrace(*header);
  if (obs::Histogram* h = ClientRpcUs(req_type)) {
    h->Record(NowUs() - start_us);
  }
  return Status::OK();
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

Status RegionClient::WriteBatch(std::string_view tenant,
                                const std::vector<kv::WriteOp>& ops) {
  return StatusCall(MsgType::kWriteBatchReq,
                    [&](uint64_t id, std::string_view ext, std::string* f) {
                      EncodeWriteBatchRequest(tenant, ops, id, f, ext);
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

Status RegionClient::SendMultiScanPage(const MultiScanRequest& req,
                                       PendingPage* page) {
  page->start_us = NowUs();
  return SendRequest(
      [&](uint64_t id, std::string_view ext, std::string* f) {
        EncodeMultiScanRequest(req, id, f, ext);
      },
      &page->request_id);
}

Status RegionClient::RecvMultiScanPage(const PendingPage& page,
                                       const MultiScanRequest& req,
                                       MultiScanResponse* resp) {
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

ClientPool::Lease ClientPool::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      std::unique_ptr<RegionClient> client = std::move(idle_.back());
      idle_.pop_back();
      return Lease(this, std::move(client));
    }
  }
  return Lease(this, std::make_unique<RegionClient>(options_));
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
