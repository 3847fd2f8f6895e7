// Crash-safety of the online secondary-index build against real region
// server processes: SIGKILL a server mid-CREATE INDEX, restart it, and the
// engine must come back with the index either absent (rerunnable) or fully
// `ready` — and a rerun build must match a post-hoc base-table scan exactly.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "net_harness.h"
#include "query_oracle.h"
#include "sql/justql.h"
#include "test_util.h"

namespace just {
namespace {

using just::testing::ServerProcess;
using just::testing::TempDir;

TEST(SecondaryIndexNetTest, SigkillMidBuildThenRebuildMatchesBaseScan) {
  TempDir dir("secidx_net");
  const std::string engine_dir = dir.path() + "/engine";
  std::filesystem::create_directories(engine_dir);

  std::vector<std::unique_ptr<ServerProcess>> servers;
  for (int i = 0; i < 2; ++i) {
    ServerProcess::Options po;
    po.dir = dir.path() + "/rs" + std::to_string(i);
    std::filesystem::create_directories(po.dir);
    // sync_wal stays on: acknowledged writes must survive the SIGKILL.
    auto server = std::make_unique<ServerProcess>(po);
    ASSERT_TRUE(server->Start()) << "region server " << i;
    servers.push_back(std::move(server));
  }

  auto open_engine = [&]() {
    core::EngineOptions options;
    options.data_dir = engine_dir;
    options.num_servers = 2;
    options.num_shards = 4;
    for (auto& server : servers) {
      options.server_addrs.push_back(server->addr());
    }
    return core::JustEngine::Open(options);
  };

  Status built;
  {
    auto engine = open_engine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    meta::TableMeta table;
    table.user = "u";
    table.name = "orders";
    table.columns = {
        {"fid", exec::DataType::kString, true, "", ""},
        {"courier", exec::DataType::kString, false, "", ""},
        {"time", exec::DataType::kTimestamp, false, "", ""},
        {"geom", exec::DataType::kGeometry, false, "", ""},
    };
    ASSERT_TRUE((*engine)->CreateTable(table).ok());
    TimestampMs base = ParseTimestamp("2018-10-01").value();
    Rng rng(31);
    std::vector<exec::Row> rows;
    for (int i = 0; i < 4000; ++i) {
      rows.push_back({
          exec::Value::String("o" + std::to_string(i)),
          exec::Value::String("c" + std::to_string(i % 10)),
          exec::Value::Timestamp(base + i * kMillisPerMinute),
          exec::Value::GeometryVal(geo::Geometry::MakePoint(
              {116.0 + rng.NextDouble(), 39.5 + rng.NextDouble()})),
      });
    }
    ASSERT_TRUE((*engine)->InsertBatch("u", "orders", rows).ok());
    ASSERT_TRUE((*engine)->Finalize().ok());

    // SIGKILL one region server while the backfill streams index entries.
    std::thread builder([&] {
      built = (*engine)->CreateIndex("u", "orders", "idx_c", "courier");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    servers[1]->Kill();
    builder.join();
  }

  ASSERT_TRUE(servers[1]->Restart());

  auto engine = open_engine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto described = (*engine)->DescribeTable("u", "orders");
  ASSERT_TRUE(described.ok());
  const meta::SecondaryIndexDef* def = described->FindSecondaryIndex("idx_c");
  if (def == nullptr) {
    // The interrupted build rolled back (or the reopen swept the leftover
    // `building` entry); it must be rerunnable against the healthy cluster.
    EXPECT_FALSE(built.ok());
    ASSERT_TRUE(
        (*engine)->CreateIndex("u", "orders", "idx_c", "courier").ok());
  } else {
    // The build won the race with the kill; it may only be fully ready.
    EXPECT_EQ(def->state, meta::IndexState::kReady);
  }

  // The finished index must agree exactly with a base-table scan.
  auto full = just::testing::QueryFrame(engine->get(), "u", "orders");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->num_rows(), 4000u);
  sql::JustQL ql(engine->get());
  for (int c = 0; c < 10; ++c) {
    std::string courier = "c" + std::to_string(c);
    std::multiset<std::string> oracle;
    for (const auto& row : full->rows()) {
      if (row[1].string_value() == courier) {
        oracle.insert(row[0].string_value());
      }
    }
    auto result =
        ql.Execute("u", "SELECT fid FROM orders WHERE courier = '" + courier +
                            "'");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::multiset<std::string> got;
    for (const auto& row : result->frame.rows()) {
      got.insert(row[0].string_value());
    }
    EXPECT_EQ(got, oracle) << courier;
  }
}

}  // namespace
}  // namespace just
