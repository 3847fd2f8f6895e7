#ifndef JUST_NET_REGION_CLIENT_H_
#define JUST_NET_REGION_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
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
  /// Rows per scan page: the limit_rows of RegionCluster::Scan's requests.
  uint32_t scan_page_rows = 512;
  size_t max_frame_bytes = kMaxFrameBytes;
};

/// Synchronous client stub for one region server connection. Every RPC is
/// single-shot: connection failures, timeouts, and torn responses return
/// kUnavailable (IsTransient), and retry policy stays with the caller —
/// RegionCluster funnels these through its existing WithRetry path.
/// Reconnection is lazy: a failed call marks the connection dead and the
/// next call redials.
///
/// Trace propagation: when the calling thread has an active obs span
/// (obs::CurrentSpan()), each RPC carries a trace context in the frame's
/// extension field; the server answers with its serialized span tree,
/// which is grafted under the caller's span with a `server=host:port`
/// attribute — this is how EXPLAIN ANALYZE shows remote per-server work.
/// With no active span nothing is added to the frame at all. Clients and
/// servers ship from one build: a peer that answers "unknown message type"
/// is incompatible, and its answer comes back as an ordinary
/// kInvalidArgument error.
///
/// Scans go out as kMultiScanReq pages, sent and received in two halves so
/// one thread can keep a page in flight on every server's connection
/// (RegionCluster::Scan polls them).
///
/// Not thread-safe: one caller at a time per client (ClientPool hands each
/// caller its own connection; the server runs a thread per connection).
class RegionClient {
 public:
  explicit RegionClient(RegionClientOptions options)
      : options_(std::move(options)) {}

  Status Ping();
  /// One kWriteBatchReq, encoded straight from `ops`. A non-empty `tenant`
  /// tags the batch: the server may shed it with kResourceExhausted when
  /// the tenant is over its write quota — not transient, so callers must
  /// not retry-loop it. An empty tenant is never throttled.
  Status WriteBatch(std::string_view tenant,
                    const std::vector<kv::WriteOp>& ops);

  /// A kMultiScanReq page on its way: what the receive half needs to match
  /// and time its answer.
  struct PendingPage {
    uint64_t request_id = 0;
    uint64_t start_us = 0;
  };
  /// Send half of one page of a multi-range scan: encodes `req` (with a
  /// trace-context extension when the calling thread has a span), counts
  /// the RPC and sends the frame. The next page is `req` again with
  /// `req.resume = resp->next`, while `resp->has_more`.
  Status SendMultiScanPage(const MultiScanRequest& req, PendingPage* page);
  /// Receive half: reads the answer to `page` (CRC-checked), checks its id,
  /// type, row ranges and cursor against `req`, decodes the rows as views
  /// into resp->payload, grafts the returned span tree under the caller's
  /// span and records the page's latency. The server's own scan status is
  /// left in resp->status; a bare status answer (a shed, or a rejected
  /// request) is returned.
  Status RecvMultiScanPage(const PendingPage& page, const MultiScanRequest& req,
                           MultiScanResponse* resp);

  Status Flush();
  Status CompactAll();
  Status GetStats(StatsResponse* resp);

  // --- Low-level access (pipelining tests and the loadgen bench) ---

  /// Sends pre-encoded frame bytes without waiting for a response.
  Status RawSend(std::string_view frame);
  /// Reads one response payload (CRC-verified, header not yet parsed).
  Status RawRecvPayload(std::string* payload);
  uint64_t NextRequestId() { return ++last_request_id_; }

  const RegionClientOptions& options() const { return options_; }
  bool connected() const { return sock_.valid(); }
  /// The connection's descriptor (-1 when not connected), for poll().
  int fd() const { return sock_.fd(); }
  void Disconnect() { sock_.Close(); }
  /// Dials if not connected (RPCs do this implicitly).
  Status EnsureConnected();

 private:
  /// Appends one complete request frame for `request_id` to `frame`; `ext`
  /// is the extension blob to embed (empty = the unflagged layout).
  using FrameBuilder = std::function<void(
      uint64_t request_id, std::string_view ext, std::string* frame)>;

  /// One RPC round: builds the frame (with a trace-context extension when
  /// a span is active), sends it, matches the response id, grafts any
  /// returned span tree, and records per-type client latency. Any
  /// transport failure disconnects and returns kUnavailable.
  Status CallRpc(MsgType req_type, const FrameBuilder& build,
                 FrameHeader* header, std::string* payload,
                 std::string_view* body);
  /// Builds and sends one request frame; `*id` is its request id.
  Status SendRequest(const FrameBuilder& build, uint64_t* id);
  /// Reads the answer to request `id` and parses its header.
  Status RecvResponse(uint64_t id, FrameHeader* header, std::string* payload,
                      std::string_view* body);
  /// Shared epilogue for RPCs whose response is a bare StatusResponse.
  Status StatusCall(MsgType req_type, const FrameBuilder& build);
  /// Decodes a response's extension as a span tree under the caller's
  /// current span, tagged `server=host:port`. Decode failures count in
  /// just_net_client_trace_decode_errors_total and are otherwise ignored —
  /// a bad trace must not fail a good response.
  void GraftResponseTrace(const FrameHeader& header);
  Status Fail(Status st);

  RegionClientOptions options_;
  Socket sock_;
  uint64_t last_request_id_ = 0;
};

/// The connections to one region server. Each caller checks one out for its
/// own use — a query's scan holds one per server while it polls them — so
/// concurrent callers never share a socket and no lock is held across an
/// RPC. Acquire() takes an idle connection or dials a new one; the lease
/// returns it when done. A lease whose connection was dropped (a failed
/// RPC, or a caller that could not finish reading its answer) drops the
/// idle ones too, so the next callers redial.
class ClientPool {
 public:
  explicit ClientPool(RegionClientOptions options)
      : options_(std::move(options)) {}
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  class Lease {
   public:
    Lease() = default;
    Lease(ClientPool* pool, std::unique_ptr<RegionClient> client)
        : pool_(pool), client_(std::move(client)) {}
    Lease(Lease&&) noexcept = default;
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        Release();
        pool_ = o.pool_;
        client_ = std::move(o.client_);
      }
      return *this;
    }
    ~Lease() { Release(); }

    RegionClient* operator->() const { return client_.get(); }
    /// Returns the connection to the pool now (dropped if disconnected).
    void Release();

   private:
    ClientPool* pool_ = nullptr;
    std::unique_ptr<RegionClient> client_;
  };

  Lease Acquire();
  const RegionClientOptions& options() const { return options_; }

 private:
  RegionClientOptions options_;
  std::mutex mu_;  ///< guards idle_
  std::vector<std::unique_ptr<RegionClient>> idle_;
};

}  // namespace just::net

#endif  // JUST_NET_REGION_CLIENT_H_
