#include "cluster/region_backend.h"

#include <chrono>
#include <mutex>
#include <thread>

#include "net/region_client.h"

namespace just::cluster {

namespace {

class LocalBackend : public RegionBackend {
 public:
  explicit LocalBackend(std::unique_ptr<kv::LsmStore> store)
      : store_(std::move(store)) {}

  Status Put(std::string_view key, std::string_view value) override {
    return store_->Put(key, value);
  }
  Status Delete(std::string_view key) override { return store_->Delete(key); }
  Status Get(std::string_view key, std::string* value) override {
    return store_->Get(key, value);
  }
  Status WriteBatch(const std::vector<kv::WriteOp>& ops) override {
    return store_->WriteBatch(ops);
  }
  Status Scan(const std::vector<kv::ScanRange>& ranges,
              const kv::ScanFn& fn) override {
    return store_->Scan(ranges, fn);
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
  std::string name() const override {
    return "local:" + store_->options().dir;
  }

 private:
  std::unique_ptr<kv::LsmStore> store_;
};

/// Wire-protocol backend. RegionClient is not thread-safe and concurrent
/// queries share it, so every RPC serializes on a mutex; scans hold it per
/// *page*, so concurrent scans interleave at page granularity instead of
/// starving each other.
class SocketBackend : public RegionBackend {
 public:
  explicit SocketBackend(net::RegionClientOptions options)
      : addr_(options.host + ":" + std::to_string(options.port)),
        client_(std::move(options)) {}

  Status Put(std::string_view key, std::string_view value) override {
    std::lock_guard<std::mutex> lock(mu_);
    return client_.Put(key, value);
  }
  Status Delete(std::string_view key) override {
    std::lock_guard<std::mutex> lock(mu_);
    return client_.Delete(key);
  }
  Status Get(std::string_view key, std::string* value) override {
    std::lock_guard<std::mutex> lock(mu_);
    return client_.Get(key, value);
  }
  Status WriteBatch(const std::vector<kv::WriteOp>& ops) override {
    std::lock_guard<std::mutex> lock(mu_);
    return client_.WriteBatch(ops);
  }
  Status IngestBatch(const std::string& tenant,
                     const std::vector<kv::WriteOp>& ops) override {
    std::lock_guard<std::mutex> lock(mu_);
    return client_.Ingest(tenant, ops);
  }
  Status Scan(const std::vector<kv::ScanRange>& ranges,
              const kv::ScanFn& fn) override {
    // The lock is held per page only: the callback may (indirectly) issue
    // more RPCs against this same backend.
    return client_.Scan(ranges, fn, &mu_);
  }
  Status Flush() override {
    std::lock_guard<std::mutex> lock(mu_);
    return client_.Flush();
  }
  Status CompactAll() override {
    std::lock_guard<std::mutex> lock(mu_);
    return client_.CompactAll();
  }
  Status GetStats(BackendStats* stats) override {
    std::lock_guard<std::mutex> lock(mu_);
    net::StatsResponse resp;
    JUST_RETURN_NOT_OK(client_.GetStats(&resp));
    stats->disk_bytes = resp.disk_bytes;
    stats->entries = resp.entries;
    stats->num_sstables = resp.num_sstables;
    return Status::OK();
  }
  std::string name() const override { return "socket:" + addr_; }

  Status Ping() {
    std::lock_guard<std::mutex> lock(mu_);
    return client_.Ping();
  }

 private:
  std::string addr_;
  std::mutex mu_;
  net::RegionClient client_;
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
