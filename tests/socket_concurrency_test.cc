// Concurrent queries over the socket scan path, with the region servers
// embedded in this process (no fork or exec, so the TSan job runs this
// too): four threads run mixed Fig 11, Fig 12, Fig 13 and LIMIT queries at
// once through one engine, and every answer must equal the brute-force
// oracle's. This guards the per-server connection checkout (concurrent
// queries never share a socket) and the one-thread-per-connection server.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "net/region_server.h"
#include "query_oracle.h"
#include "scan_parity.h"
#include "sql/justql.h"
#include "test_util.h"

namespace just {
namespace {

/// A result as a sorted list of rows, each row's cells joined.
std::vector<std::string> Canonical(const exec::DataFrame& frame) {
  std::vector<std::string> rows;
  for (const exec::Row& row : frame.rows()) {
    std::string key;
    for (const exec::Value& v : row) key += v.ToString() + '\x1f';
    rows.push_back(std::move(key));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(SocketConcurrencyTest, ConcurrentQueriesMatchTheOracle) {
  testing::TempDir dir("socket_concurrency");
  std::vector<std::unique_ptr<net::RegionServer>> servers;
  core::EngineOptions options;
  options.data_dir = dir.path() + "/engine";
  options.num_servers = 3;
  options.num_shards = 4;
  for (int i = 0; i < options.num_servers; ++i) {
    net::RegionServerOptions server_options;
    server_options.store.dir = dir.path() + "/rs" + std::to_string(i);
    server_options.store.sync_wal = false;
    std::filesystem::create_directories(server_options.store.dir);
    auto server = net::RegionServer::Start(server_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    options.server_addrs.push_back("127.0.0.1:" +
                                   std::to_string((*server)->port()));
    servers.push_back(std::move(server).value());
  }
  std::filesystem::create_directories(options.data_dir);
  auto opened = core::JustEngine::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<core::JustEngine> engine = std::move(opened).value();
  Status loaded = testing::LoadScanParityTables(engine.get(), "u");
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();

  const std::vector<std::string> queries = {
      // Fig 11: spatial range.
      "SELECT fid FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.30, 39.80, 116.50, 40.00)",
      // Fig 12: spatio-temporal range.
      "SELECT fid, time FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.20, 39.70, 116.60, 40.10) AND "
      "time BETWEEN '2018-10-05' AND '2018-10-12'",
      // Fig 13: k-NN.
      "SELECT fid FROM orders WHERE "
      "geom IN st_KNN(st_makePoint(116.40, 39.90), 40)",
      // LIMIT, met in the first page.
      "SELECT * FROM orders LIMIT 9",
      "SELECT fid, time FROM orders WHERE city != 'city2' LIMIT 11",
  };
  std::vector<std::vector<std::string>> want;
  for (const std::string& sql : queries) {
    auto oracle = testing::OracleSelect(engine.get(), "u", sql);
    ASSERT_TRUE(oracle.ok()) << sql << " -> " << oracle.status().ToString();
    ASSERT_GT(oracle->num_rows(), 0u) << sql;
    want.push_back(Canonical(*oracle));
  }

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 50;
  std::vector<std::vector<std::string>> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sql::JustQL ql(engine.get());
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const size_t q = static_cast<size_t>(t + i) % queries.size();
        auto got = ql.Execute("u", queries[q]);
        if (!got.ok()) {
          failures[t].push_back(queries[q] + " -> " +
                                got.status().ToString());
        } else if (Canonical(got->frame) != want[q]) {
          failures[t].push_back(queries[q] + " -> " +
                                std::to_string(got->frame.num_rows()) +
                                " rows differ from the oracle's " +
                                std::to_string(want[q].size()));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << ": " << failures[t].size() << " failures, first "
        << failures[t].front();
  }
  engine.reset();
  for (auto& server : servers) server->Stop();
}

}  // namespace
}  // namespace just
