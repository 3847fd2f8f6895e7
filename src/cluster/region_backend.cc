#include "cluster/region_backend.h"

#include <chrono>
#include <thread>

#include "net/region_client.h"

namespace just::cluster {

namespace {

class LocalBackend : public RegionBackend {
 public:
  explicit LocalBackend(std::unique_ptr<kv::LsmStore> store)
      : store_(std::move(store)) {}

  Status WriteBatch(std::string_view,
                    const std::vector<kv::WriteOp>& ops) override {
    return store_->WriteBatch(ops);
  }
  Status Flush() override { return store_->Flush(); }
  Status CompactAll() override { return store_->CompactAll(); }
  Status GetStats(BackendStats* stats) override {
    kv::LsmStore::Stats s = store_->GetStats();
    stats->disk_bytes = s.disk_bytes;
    stats->entries = s.sstable_entries + s.memtable_entries;
    stats->num_sstables = s.num_sstables;
    return Status::OK();
  }
  kv::LsmStore* store() override { return store_.get(); }

 private:
  std::unique_ptr<kv::LsmStore> store_;
};

/// Wire-protocol backend. Every call checks a connection out of the pool
/// for its own use, so concurrent queries never share a socket and no lock
/// is held across an RPC.
class SocketBackend : public RegionBackend {
 public:
  explicit SocketBackend(net::RegionClientOptions options)
      : pool_(std::move(options)) {}

  Status WriteBatch(std::string_view tenant,
                    const std::vector<kv::WriteOp>& ops) override {
    return pool_.Acquire()->WriteBatch(tenant, ops);
  }
  Status Flush() override { return pool_.Acquire()->Flush(); }
  Status CompactAll() override { return pool_.Acquire()->CompactAll(); }
  Status GetStats(BackendStats* stats) override {
    net::StatsResponse resp;
    JUST_RETURN_NOT_OK(pool_.Acquire()->GetStats(&resp));
    stats->disk_bytes = resp.disk_bytes;
    stats->entries = resp.entries;
    stats->num_sstables = resp.num_sstables;
    return Status::OK();
  }
  net::ClientPool* clients() override { return &pool_; }

  Status Ping() { return pool_.Acquire()->Ping(); }

 private:
  net::ClientPool pool_;
};

}  // namespace

Result<std::unique_ptr<RegionBackend>> OpenLocalBackend(
    const kv::StoreOptions& options) {
  JUST_ASSIGN_OR_RETURN(auto store, kv::LsmStore::Open(options));
  return std::unique_ptr<RegionBackend>(new LocalBackend(std::move(store)));
}

Result<std::unique_ptr<RegionBackend>> OpenSocketBackend(
    const std::string& addr, uint32_t scan_page_rows) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= addr.size()) {
    return Status::InvalidArgument("server address must be host:port, got '" +
                                   addr + "'");
  }
  net::RegionClientOptions options;
  options.host = addr.substr(0, colon);
  options.port = std::atoi(addr.c_str() + colon + 1);
  if (options.port <= 0 || options.port > 65535) {
    return Status::InvalidArgument("bad port in server address '" + addr +
                                   "'");
  }
  if (scan_page_rows > 0) options.scan_page_rows = scan_page_rows;
  auto backend = std::make_unique<SocketBackend>(options);
  // A freshly spawned server may still be binding: give it a brief grace
  // window, then fail Open with the underlying error.
  Status st;
  for (int attempt = 0; attempt < 20; ++attempt) {
    st = backend->Ping();
    if (st.ok()) return std::unique_ptr<RegionBackend>(std::move(backend));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return Status::Unavailable("region server at " + addr +
                             " unreachable: " + st.ToString());
}

}  // namespace just::cluster
