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
