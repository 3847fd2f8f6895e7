#ifndef JUST_CLUSTER_REGION_BACKEND_H_
#define JUST_CLUSTER_REGION_BACKEND_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "kvstore/lsm_store.h"

namespace just::net {
class ClientPool;
}  // namespace just::net

namespace just::cluster {

/// Stats one region server reports to the cluster aggregate.
struct BackendStats {
  uint64_t disk_bytes = 0;
  uint64_t entries = 0;  ///< sstable + memtable entries
  uint64_t num_sstables = 0;
};

/// One region server as the cluster sees it, independent of deployment:
/// in-process (an owned LsmStore, the historical mode) or out-of-process
/// (a socket client speaking the binary wire protocol to a
/// `just_region_server`). The cluster talks to a region server in the two
/// ways the paper's HBase layer does: it writes batches of keyed rows
/// (WriteBatch) and it scans key ranges. Scans do not go through this
/// interface: RegionCluster::Scan reads an in-process backend's store()
/// directly and drives a socket backend's clients() page by page. The
/// rest is administration (Flush, CompactAll, GetStats).
///
/// Transient failures (connection loss, shed-on-overload, timeouts)
/// surface as IsTransient() statuses; the cluster retries with backoff.
class RegionBackend {
 public:
  virtual ~RegionBackend() = default;

  /// Commits `ops` as one group commit. A non-empty `tenant` tags the
  /// batch: a socket backend forwards it so the region server can apply
  /// its own per-tenant write admission (kResourceExhausted on shed —
  /// non-transient, no retry); an in-process backend has no server-side
  /// quota layer and ignores it.
  virtual Status WriteBatch(std::string_view tenant,
                            const std::vector<kv::WriteOp>& ops) = 0;
  virtual Status Flush() = 0;
  virtual Status CompactAll() = 0;
  virtual Status GetStats(BackendStats* stats) = 0;
  /// Socket backends: the pool of connections to the server, which
  /// RegionCluster::Scan drives directly (one connection per server,
  /// polled from the calling thread). nullptr for in-process backends.
  virtual net::ClientPool* clients() { return nullptr; }
  /// In-process backends: the store, which RegionCluster::Scan scans from
  /// the calling thread or a pool helper. nullptr for socket backends.
  virtual kv::LsmStore* store() { return nullptr; }
};

/// Opens an in-process backend: an LsmStore owned by this process.
Result<std::unique_ptr<RegionBackend>> OpenLocalBackend(
    const kv::StoreOptions& options);

/// Opens a socket backend for a running `just_region_server` at
/// `addr` ("host:port"). Verifies liveness with a Ping (briefly retried so
/// a just-spawned server can finish binding).
Result<std::unique_ptr<RegionBackend>> OpenSocketBackend(
    const std::string& addr, uint32_t scan_page_rows);

}  // namespace just::cluster

#endif  // JUST_CLUSTER_REGION_BACKEND_H_
