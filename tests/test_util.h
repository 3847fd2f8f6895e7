#ifndef JUST_TESTS_TEST_UTIL_H_
#define JUST_TESTS_TEST_UTIL_H_

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/region_cluster.h"
#include "exec/column_batch.h"
#include "exec/dataframe.h"
#include "exec/value.h"
#include "kvstore/lsm_store.h"
#include "kvstore/sstable.h"
#include "net/region_client.h"

namespace just::testing {

/// Creates a unique scratch directory under /tmp, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<uint64_t> counter{0};
    path_ = std::filesystem::temp_directory_path() /
            ("just_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path_);
  }

  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// Collects a RegionCluster::Scan as owned (key, value) rows: each
/// server's rows in delivery order, the servers in order. `per_server_cap`
/// > 0 stops each server after that many rows.
class CollectingSink : public cluster::RegionCluster::ScanSink {
 public:
  explicit CollectingSink(int servers, size_t per_server_cap = 0)
      : rows_(static_cast<size_t>(servers)), cap_(per_server_cap) {}

  bool Accept(int server, size_t, std::string_view key,
              std::string_view value) override {
    auto& rows = rows_[static_cast<size_t>(server)];
    rows.emplace_back(std::string(key), std::string(value));
    return cap_ == 0 || rows.size() < cap_;
  }

  std::vector<std::pair<std::string, std::string>> Rows() const {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& rows : rows_) out.insert(out.end(), rows.begin(), rows.end());
    return out;
  }

 private:
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
  size_t cap_;
};

/// Every row of `ranges` through RegionCluster::Scan (see CollectingSink).
inline Result<std::vector<std::pair<std::string, std::string>>> ScanRows(
    const cluster::RegionCluster& cluster,
    const std::vector<curve::KeyRange>& ranges) {
  CollectingSink sink(cluster.num_servers());
  JUST_RETURN_NOT_OK(cluster.Scan(ranges, &sink));
  return sink.Rows();
}

/// One page of a multi-range scan: the client's send half and receive half
/// back to back. Returns the transport's status, else the server's scan
/// status; the next page is `req` with `req.resume = resp->next`.
inline Status ScanPage(net::RegionClient& client,
                       const net::MultiScanRequest& req,
                       net::MultiScanResponse* resp) {
  net::RegionClient::PendingPage page;
  JUST_RETURN_NOT_OK(client.SendMultiScanPage(req, &page));
  JUST_RETURN_NOT_OK(client.RecvMultiScanPage(page, req, resp));
  return resp->status;
}

// Single-key shorthand for tests. Neither the region-server protocol nor
// the store has a point read: a put or a tombstone is a one-op WriteBatch,
// and a read is a one-key scan of [key, key + '\0'), which holds exactly
// `key`. Reads return NotFound when the key is absent.

inline Status GetKey(const kv::LsmStore& store, const std::string& key,
                     std::string* value) {
  const std::string end = key + '\0';
  bool found = false;
  JUST_RETURN_NOT_OK(store.Scan(
      {kv::ScanRange{key, end}},
      [&](size_t, std::string_view, std::string_view v) {
        value->assign(v);
        found = true;
        return false;
      }));
  return found ? Status::OK() : Status::NotFound(key);
}

inline Status GetKey(const kv::SsTableReader& table, const std::string& key,
                     std::string* value) {
  kv::SsTableReader::Iterator it(&table);
  it.Seek(key);
  JUST_RETURN_NOT_OK(it.status());
  if (!it.Valid() || it.key() != key) return Status::NotFound(key);
  value->assign(it.value());
  return Status::OK();
}

inline Status PutKey(cluster::RegionCluster& cluster, std::string key,
                     std::string value) {
  return cluster.WriteBatch(
      {kv::WriteOp{std::move(key), std::move(value), /*is_delete=*/false}});
}

inline Status DeleteKey(cluster::RegionCluster& cluster, std::string key) {
  return cluster.WriteBatch(
      {kv::WriteOp{std::move(key), {}, /*is_delete=*/true}});
}

inline Status GetKey(const cluster::RegionCluster& cluster,
                     const std::string& key, std::string* value) {
  CollectingSink sink(cluster.num_servers());
  JUST_RETURN_NOT_OK(
      cluster.Scan({curve::KeyRange{key, key + '\0', false}}, &sink));
  auto rows = sink.Rows();
  if (rows.empty()) return Status::NotFound(key);
  *value = std::move(rows[0].second);
  return Status::OK();
}

inline Status PutKey(net::RegionClient& client, std::string key,
                     std::string value) {
  return client.WriteBatch(
      /*tenant=*/{},
      {kv::WriteOp{std::move(key), std::move(value), /*is_delete=*/false}});
}

inline Status DeleteKey(net::RegionClient& client, std::string key) {
  return client.WriteBatch(
      /*tenant=*/{}, {kv::WriteOp{std::move(key), {}, /*is_delete=*/true}});
}

inline Status GetKey(net::RegionClient& client, const std::string& key,
                     std::string* value) {
  const std::string end = key + '\0';
  net::MultiScanRequest req;
  req.ranges = {{key, end}};
  req.limit_rows = 1;
  net::MultiScanResponse resp;
  JUST_RETURN_NOT_OK(ScanPage(client, req, &resp));
  if (resp.rows.empty()) return Status::NotFound(key);
  value->assign(resp.rows[0].value);
  return Status::OK();
}

/// Fluent schema+rows builder shared by the exec, sql, and parity tests.
/// Renders the same data as a row-oriented DataFrame or as column batches,
/// which is exactly what differential tests of the two execution paths need.
class FrameBuilder {
 public:
  FrameBuilder& Col(std::string name, exec::DataType type) {
    schema_->AddField({std::move(name), type});
    return *this;
  }

  FrameBuilder& Row(exec::Row values) {
    rows_.push_back(std::move(values));
    return *this;
  }

  const std::shared_ptr<exec::Schema>& schema() const { return schema_; }

  exec::DataFrame Frame() const {
    exec::DataFrame df(schema_);
    for (const auto& row : rows_) df.AddRow(row);
    return df;
  }

  /// The same rows chunked into ColumnBatches (kBatchRows per batch).
  exec::BatchVector Batches() const {
    return exec::BatchesFromDataFrame(Frame());
  }

 private:
  std::shared_ptr<exec::Schema> schema_ = std::make_shared<exec::Schema>();
  std::vector<exec::Row> rows_;
};

}  // namespace just::testing

#endif  // JUST_TESTS_TEST_UTIL_H_
