#ifndef JUST_NET_REGION_CLIENT_H_
#define JUST_NET_REGION_CLIENT_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "kvstore/lsm_store.h"
#include "net/socket.h"
#include "net/wire_protocol.h"

namespace just::net {

struct RegionClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Bounds how long one RPC may block on the socket. A timeout surfaces as
  /// kUnavailable and drops the connection (the stream is unsynced); the
  /// next call reconnects. 0 = block forever.
  int io_timeout_ms = 10000;
  /// Page size for the paged Scan(); also sent as the requests' limit_rows.
  uint32_t scan_page_rows = 512;
  size_t max_frame_bytes = kMaxFrameBytes;
};

/// Synchronous client stub for one region server. Every RPC is single-shot:
/// connection failures, timeouts, and torn responses return kUnavailable
/// (IsTransient), and retry policy stays with the caller — RegionCluster
/// funnels these through its existing WithRetry path. Reconnection is
/// lazy: a failed call marks the connection dead and the next call redials.
///
/// Trace propagation: when the calling thread has an active obs span
/// (obs::CurrentSpan()), each RPC carries a trace context in the frame's
/// extension field; the server answers with its serialized span tree,
/// which is grafted under the caller's span with a `server=host:port`
/// attribute — this is how EXPLAIN ANALYZE shows remote per-server work.
/// A pre-extension server rejects the flagged frame with kInvalidArgument
/// ("unknown message type"); the client then marks the peer, retries the
/// RPC once without the extension, and stays untraced for the connection's
/// lifetime (old-server compatibility). With no active span nothing is
/// added to the frame at all.
///
/// Scans go out as kMultiScanReq pages. A server that predates the message
/// answers "unknown message type"; the client then marks the peer (sticky,
/// counted in just_net_client_multiscan_degrades_total) and serves the same
/// pages as one-range kScanReq pages, one range at a time.
///
/// Not thread-safe: use one client per thread (connections are cheap; the
/// server runs a thread per connection).
class RegionClient {
 public:
  explicit RegionClient(RegionClientOptions options)
      : options_(std::move(options)) {}

  Status Ping();
  Status Put(std::string_view key, std::string_view value);
  Status Delete(std::string_view key);
  /// NotFound when the key is absent (mirrors LsmStore::Get).
  Status Get(std::string_view key, std::string* value);
  Status WriteBatch(const std::vector<kv::WriteOp>& ops);
  /// Tenant-tagged streaming write batch (kIngestReq). The server may shed
  /// it with kResourceExhausted when the tenant is over its write quota —
  /// not transient, so callers must not retry-loop it.
  Status Ingest(const std::string& tenant, const std::vector<kv::WriteOp>& ops);

  /// One page of a one-range scan (kScanReq); resume by re-sending with
  /// `req.start_key = resp->next_cursor` while `resp->has_more`.
  Status ScanPage(const ScanRequest& req, ScanResponse* resp);

  /// One page of a multi-range scan; resume by re-sending with
  /// `req.resume = resp->next` while `resp->has_more`. Against a server
  /// without kMultiScanReq the page comes from the cursor's range alone.
  Status MultiScanPage(const MultiScanRequest& req, MultiScanResponse* resp);

  /// Paged multi-range scan: streams pages of scan_page_rows through `fn`
  /// (return false to stop early), at most kMaxScanRanges ranges per
  /// request. `page_mu`, when given, is held around each page's RPC and
  /// released while `fn` runs. No internal retry — a transient page
  /// failure aborts the scan with that status, and rows already delivered
  /// this call may be re-delivered by a caller-level retry (RegionCluster
  /// buffers per attempt for exactly this reason).
  Status Scan(const std::vector<kv::ScanRange>& ranges, const kv::ScanFn& fn,
              std::mutex* page_mu = nullptr);

  Status Flush();
  Status CompactAll();
  Status WaitForBackgroundIdle();
  Status GetStats(StatsResponse* resp);

  // --- Low-level access (pipelining tests and the loadgen bench) ---

  /// Sends pre-encoded frame bytes without waiting for a response.
  Status RawSend(std::string_view frame);
  /// Reads one response payload (CRC-verified, header not yet parsed).
  Status RawRecvPayload(std::string* payload);
  uint64_t NextRequestId() { return ++last_request_id_; }

  const RegionClientOptions& options() const { return options_; }
  bool connected() const { return sock_.valid(); }
  void Disconnect() { sock_.Close(); }
  /// Dials if not connected (RPCs do this implicitly).
  Status EnsureConnected();

  /// True once the peer rejected an extension-flagged frame: subsequent
  /// RPCs stop sending trace context (the compat degrade is sticky).
  bool peer_trace_unsupported() const { return peer_trace_unsupported_; }
  /// True once the peer rejected kMultiScanReq: scans use one-range pages.
  bool peer_multiscan_unsupported() const {
    return peer_multiscan_unsupported_;
  }

 private:
  /// Appends one complete request frame for `request_id` to `frame`; `ext`
  /// is the extension blob to embed (empty = pre-extension layout).
  using FrameBuilder = std::function<void(
      uint64_t request_id, std::string_view ext, std::string* frame)>;

  /// One RPC round: builds the frame (with a trace-context extension when
  /// a span is active and the peer supports it), sends it, matches the
  /// response id, grafts any returned span tree, and records per-type
  /// client latency. Retries exactly once without the extension when the
  /// peer proves to be pre-extension. Any transport failure disconnects
  /// and returns kUnavailable.
  Status CallRpc(MsgType req_type, const FrameBuilder& build,
                 FrameHeader* header, std::string* payload,
                 std::string_view* body);
  /// Shared epilogue for RPCs whose response is a bare StatusResponse.
  Status StatusCall(MsgType req_type, const FrameBuilder& build);
  /// Decodes a response's extension as a span tree under the caller's
  /// current span, tagged `server=host:port`. Decode failures count in
  /// just_net_client_trace_decode_errors_total and are otherwise ignored —
  /// a bad trace must not fail a good response.
  void GraftResponseTrace(const FrameHeader& header);
  Status Fail(Status st);
  /// MultiScanPage against a pre-multi-scan peer: one kScanReq page of the
  /// cursor's range, its cursor carried over into the next range.
  Status FallbackScanPage(const MultiScanRequest& req,
                          MultiScanResponse* resp);

  RegionClientOptions options_;
  Socket sock_;
  uint64_t last_request_id_ = 0;
  bool peer_trace_unsupported_ = false;
  bool peer_multiscan_unsupported_ = false;
};

}  // namespace just::net

#endif  // JUST_NET_REGION_CLIENT_H_
