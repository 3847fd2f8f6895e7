#ifndef JUST_CLUSTER_REGION_CLUSTER_H_
#define JUST_CLUSTER_REGION_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "curve/index_strategy.h"
#include "kvstore/lsm_store.h"
#include "net/region_client.h"

namespace just::cluster {

struct ClusterOptions {
  std::string dir;       ///< one subdirectory per region server
  int num_servers = 5;   ///< the paper's 5-node cluster (Section VIII-A)
  kv::StoreOptions store;  ///< template for each server's store (dir ignored)
  /// Out-of-process deployment: when non-empty, each entry is the
  /// "host:port" of a running `just_region_server` process and the cluster
  /// talks the binary wire protocol to it instead of opening local stores
  /// (`dir`, `num_servers`, and `store` are then ignored — the server
  /// processes own their stores). Order matters: entry i serves shard
  /// bytes b with b % N == i, exactly like local server i would.
  std::vector<std::string> server_addrs;
  /// Bounded retry for transient region-server failures (IOError /
  /// Unavailable — HBase clients retry RPCs the same way; a remote server
  /// shedding load under overload surfaces as Unavailable too). Corruption
  /// and NotFound are never retried. 0 disables retries.
  int max_retries = 2;
  /// Base backoff before the first retry; doubles per attempt.
  int retry_backoff_ms = 1;
  /// Wire page size of socket servers: Scan() fetches each server's rows
  /// this many at a time, so an early-stopping consumer never makes a
  /// remote server ship its whole key range.
  size_t scan_batch_rows = 512;
};

/// The HBase-cluster role: `num_servers` region servers, each either an
/// in-process LSM store (the single-binary mode) or a remote
/// `just_region_server` process reached over the binary wire protocol
/// through a connection pool (see ClusterOptions::server_addrs) — one kind
/// per cluster. The cluster talks to a server the two ways the paper's
/// HBase layer does: it writes batches of keyed rows and it scans key
/// ranges; the rest is administration (flush, compaction, stats). The
/// shard byte that
/// the indexing strategies prepend to every key (GeoMesa's random prefix)
/// routes records to servers, achieving the load balance Section IV-A
/// describes; SCANs over key ranges run in parallel across servers
/// (Section IV-B, step 3). All routing/retry/batching behaviour is
/// identical across deployments — tests/cluster_test.cc runs the same
/// suite against both.
class RegionCluster {
 public:
  /// In process, opens one store per server. Over sockets, checks each
  /// server with a Ping, retried briefly so a just-spawned server can
  /// finish binding, and fails with Unavailable if one stays unreachable.
  static Result<std::unique_ptr<RegionCluster>> Open(
      const ClusterOptions& options);

  /// The one cluster write: routes every op to its owning server and
  /// commits each server's slice as one group-commit batch (parallel across
  /// servers for large batches). N rows cost ~1 WAL append + fsync per
  /// server instead of N. Atomicity is per server, not cross-server — same
  /// as HBase multi-row mutations. A non-empty `tenant` tags each slice so
  /// out-of-process servers can apply per-tenant write admission before
  /// the WAL append (the streaming ingest path, INSERT STREAM); a quota
  /// shed is kResourceExhausted, which is not retried.
  Status WriteBatch(std::vector<kv::WriteOp> ops, std::string_view tenant = {});

  /// Consumer of a streaming Scan(). Each server's rows reach Accept() in
  /// its ranges' list order, each range's keys in ascending order. Over
  /// socket servers every server's rows arrive on the calling thread; in
  /// process each server's rows come from one thread, the calling thread
  /// or, once the scan has spread, a pool helper, concurrently with the
  /// others. Either way per-server state indexed by `server` needs no
  /// locking, and Accept() may itself call WriteBatch().
  class ScanSink {
   public:
    virtual ~ScanSink() = default;
    /// One row of `ranges[range]`. The views are valid only during the
    /// call. Returning false stops this server's scan.
    virtual bool Accept(int server, size_t range, std::string_view key,
                        std::string_view value) = 0;
    /// Server `server`'s part of the scan ended (exhausted or stopped),
    /// called after its last Accept(), on the same thread; servers that own
    /// none of the ranges end at once. Not called when the server's scan
    /// failed. A non-OK status fails the Scan.
    virtual Status Finish(int server) {
      (void)server;
      return Status::OK();
    }
  };

  /// The one cluster scan: every key range on its owning server(s), one
  /// multi-range scan per server that owns any range, the servers in
  /// parallel, rows streamed into `sink` with no copy. Over socket servers
  /// the calling thread drives every server's pages itself: it sends each
  /// server's first page, polls the connections, and requests a server's
  /// next page once the sink took its rows. In process the calling thread
  /// scans the servers one after another until the scan outlasts a pool
  /// hand-off (ThreadPool::kSpreadAfter); then pool helpers take the
  /// servers not yet started (`just_cluster_scan_spreads_total`). A
  /// transient failure retries the server's scan from just past the last
  /// (range, key) the sink accepted, so no row reaches the sink twice; over
  /// sockets the retry stays in the page loop, so the other servers' pages
  /// keep flowing through one server's backoff.
  /// Setting `*stop` (optional) stops every server at its next row; a
  /// failing server sets it too.
  Status Scan(const std::vector<curve::KeyRange>& ranges, ScanSink* sink,
              std::atomic<bool>* stop = nullptr) const;

  /// One row returned by ParallelScan.
  struct Row {
    std::string key;
    std::string value;
  };

  /// Result of scanning one key range.
  struct RangeResult {
    std::vector<Row> rows;
    bool contained = false;  ///< from the originating KeyRange
  };

  /// Scan() collected into owned rows: one result per input range, rows in
  /// key order; a range crossing shard bytes gets each server's rows in
  /// server order.
  Result<std::vector<RangeResult>> ParallelScan(
      const std::vector<curve::KeyRange>& ranges) const;

  Status FlushAll();
  Status CompactAll();

  struct Stats {
    uint64_t disk_bytes = 0;
    uint64_t entries = 0;
    size_t num_sstables = 0;
  };
  Stats GetStats() const;

  int num_servers() const {
    return static_cast<int>(stores_.size() + pools_.size());
  }

 private:
  explicit RegionCluster(const ClusterOptions& options) : options_(options) {}

  /// Shard routing: first key byte modulo server count.
  int ServerFor(std::string_view key) const;

  struct ServerScan;

  /// One attempt at an in-process server's part of Scan(): its remaining
  /// ranges as one multi-range store scan, resuming past the last row
  /// `sink` accepted.
  Status ScanAttempt(ServerScan* scan,
                     const std::vector<curve::KeyRange>& ranges,
                     ScanSink* sink, const std::atomic<bool>* halt) const;

  /// Scan() over socket servers: the calling thread's page loop over every
  /// server's connection. A failed page (transport error, timeout, CRC
  /// error or shed) that Retry() allows reopens that server's stream on a
  /// fresh connection after the backoff, just past the last row `sink`
  /// accepted. `finish` is called once per server with its outcome.
  void PollScan(const std::vector<curve::KeyRange>& ranges,
                std::vector<ServerScan>* scans, ScanSink* sink,
                const std::atomic<bool>* halt,
                const std::function<void(ServerScan&, Status)>& finish) const;

  /// The retry policy: true when failure `st`, after `attempt` retries,
  /// gets another (transient, options_.max_retries not yet spent), with
  /// `*backoff` set to retry_backoff_ms << attempt. Counts the retry in
  /// just_cluster_retries_total.
  bool Retry(const Status& st, int attempt,
             std::chrono::milliseconds* backoff) const;
  /// Runs `op` under Retry(), sleeping out each backoff (after spreading
  /// the calling thread's pool job, so its other servers do not wait). `op`
  /// must be safe to rerun after a failure: writes are idempotent, and Scan
  /// resumes each attempt past the rows it already delivered.
  Status WithRetry(const std::function<Status()>& op) const;

  ClusterOptions options_;
  /// In-process servers' stores; empty over sockets.
  std::vector<std::unique_ptr<kv::LsmStore>> stores_;
  /// Socket servers' connection pools; empty in process. Every call checks
  /// a connection out for its own use, so concurrent queries never share a
  /// socket and no lock is held across an RPC.
  std::vector<std::unique_ptr<net::ClientPool>> pools_;
};

}  // namespace just::cluster

#endif  // JUST_CLUSTER_REGION_CLUSTER_H_
