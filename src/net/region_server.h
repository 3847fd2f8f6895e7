#ifndef JUST_NET_REGION_SERVER_H_
#define JUST_NET_REGION_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "kvstore/lsm_store.h"
#include "net/socket.h"
#include "net/wire_protocol.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "stream/quota.h"

namespace just::net {

struct RegionServerOptions {
  kv::StoreOptions store;  ///< store.dir must be set
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; the bound port is port()

  /// Admission control. A request is *shed* — answered immediately with
  /// kUnavailable (transient, so clients retry with backoff) and never
  /// executed — when this many requests are already executing server-wide;
  /// 0 sheds everything (used by tests to pin the behaviour). A connection
  /// executes one request at a time, so pipelined requests wait in its
  /// socket buffers (TCP backpressure), never in server memory.
  int max_inflight = 256;

  size_t max_frame_bytes = kMaxFrameBytes;
  /// Server-side clamp on a scan page's limit_rows: one scan page never
  /// materializes more than this many rows regardless of what the client
  /// asked for (backpressure for scans).
  uint32_t scan_limit_clamp = 4096;

  /// Blanket per-tenant write admission for tenant-tagged kWriteBatchReq
  /// batches: each tenant seen on them gets its own token bucket of this
  /// many rows/sec (burst defaults to one second's worth when
  /// tenant_write_burst is 0); untagged batches are never throttled. 0
  /// disables server-side write quotas entirely. Over-quota batches answer
  /// kResourceExhausted — deliberately non-transient so client retry loops
  /// do not hammer a throttled tenant — and count into shed_total.
  /// `just_region_server --tenant-write-rps` sets it.
  uint64_t tenant_write_rps = 0;
  uint64_t tenant_write_burst = 0;

  /// RPCs whose handler wall time meets this threshold are recorded in a
  /// server-side slow-query log (span tree included) served by the admin
  /// plane's /tracez. Negative disables the log entirely — the default, and
  /// the zero-overhead path: with it disabled an untraced request never
  /// allocates a trace. `just_region_server --slow-query-us` sets it.
  int64_t slow_rpc_threshold_us = -1;
};

/// Out-of-process region server: owns one LsmStore and serves the binary
/// wire protocol (see wire_protocol.h) over TCP with a thread-per-connection
/// accept loop. Embeddable (bench/bench_wire.cc runs it in-process) and
/// wrapped by the `just_region_server` binary for real deployments and the
/// multi-process tests.
///
/// Connection model: one thread per connection reads a frame, admits it,
/// executes it and writes the response, then reads the next. A client may
/// pipeline requests: they wait in the socket's receive buffer and are
/// answered in order, each response carrying its request's id. kPingReq
/// and kStatsReq bypass admission — health checks and overload
/// introspection must keep working precisely when the server sheds.
///
/// Scan pages are written once: rows go from the store's views straight
/// into the response body (ScanPageWriter), and the short head goes out
/// with it in one writev.
///
/// Frames that fail CRC or exceed the size cap close the connection (the
/// byte stream cannot be resynchronized); structurally malformed bodies
/// behind a valid CRC get a kInvalidArgument response and the connection
/// survives.
class RegionServer {
 public:
  static Result<std::unique_ptr<RegionServer>> Start(
      const RegionServerOptions& options);

  ~RegionServer();

  RegionServer(const RegionServer&) = delete;
  RegionServer& operator=(const RegionServer&) = delete;

  /// Stops accepting, wakes and joins every connection thread, then closes
  /// the store. Idempotent.
  void Stop();

  int port() const { return listener_.port(); }
  kv::LsmStore* store() const { return store_.get(); }
  /// Slow-RPC log (nullptr unless slow_rpc_threshold_us >= 0); the admin
  /// plane's /tracez reads it.
  obs::SlowQueryLog* slow_log() const { return slow_log_.get(); }
  /// Per-tenant write admission (nullptr unless tenant_write_rps > 0).
  stream::QuotaManager* quota() const { return quota_.get(); }

  uint64_t requests_total() const { return requests_total_.load(); }
  uint64_t shed_total() const { return shed_total_.load(); }
  uint64_t corrupt_frames_total() const { return corrupt_frames_total_.load(); }
  int64_t active_connections() const { return active_connections_.load(); }

 private:
  struct Connection;

  explicit RegionServer(const RegionServerOptions& options);

  /// One response ready to send: a whole frame, or a scan page.
  struct Reply {
    std::string frame;
    ScanPageWriter page;
    bool paged = false;
  };

  void AcceptLoop();
  void ConnectionLoop(const std::shared_ptr<Connection>& conn);
  /// Reaps connections whose threads have finished (called from the accept
  /// loop so long-lived servers do not accumulate dead Connection objects).
  void ReapFinishedLocked();

  /// Executes one admitted request into `reply`. When the request carried
  /// a sampled trace context (`traced`) the handler runs under a
  /// server-side span whose serialized tree rides back in the response's
  /// extension field; the slow-RPC log also forces a span (but not the
  /// response extension) so /tracez has trees to show. `arrival_ns` is
  /// when the request's frame was read (the span's queue_us).
  void Execute(const FrameHeader& header, std::string_view body, bool traced,
               uint64_t arrival_ns, Reply* reply);
  /// The scan handler: one page of a multi-range scan. Rows go from the
  /// store's views straight into `page`; when the page fills, `*next` is
  /// where the client resumes.
  Status HandleScan(const MultiScanRequest& req, ScanPageWriter* page,
                    bool* has_more, ScanCursor* next);
  StatsResponse BuildStats();

  /// Writes `head` then `body` in one go; on failure shuts the socket down
  /// so the connection unwinds.
  void Send(Connection& conn, std::string_view head,
            std::string_view body = {});

  RegionServerOptions options_;
  std::unique_ptr<kv::LsmStore> store_;
  Listener listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  // Per-server counters (also mirrored into obs::Registry as
  // just_net_server_*): the wire StatsResponse reports these so a remote
  // client can observe shedding without scraping this process.
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> shed_total_{0};
  std::atomic<uint64_t> corrupt_frames_total_{0};
  std::atomic<int64_t> active_connections_{0};
  std::atomic<int64_t> inflight_{0};

  obs::Counter* requests_counter_;
  obs::Counter* shed_counter_;
  obs::Counter* corrupt_counter_;
  obs::Counter* connections_counter_;
  obs::Gauge* active_conns_gauge_;
  obs::Gauge* inflight_gauge_;
  obs::Histogram* request_us_;
  /// Per-message-type latency (`just_net_server_rpc_us{type=...}`), indexed
  /// by the raw request type byte. Registered eagerly in the constructor so
  /// /metrics shows every series from the first scrape.
  obs::Histogram* rpc_us_by_type_[16] = {};

  std::unique_ptr<obs::SlowQueryLog> slow_log_;
  std::unique_ptr<stream::QuotaManager> quota_;
};

}  // namespace just::net

#endif  // JUST_NET_REGION_SERVER_H_
