// End-to-end integration tests: whole-stack scenarios across the SQL layer,
// engine, cluster, LSM store, and catalog — including restart/recovery,
// which no single-module test exercises.

#include <gtest/gtest.h>

#include <memory>

#include "core/engine.h"
#include "kvstore/fault_env.h"
#include "obs/metrics.h"
#include "query_oracle.h"
#include "sql/justql.h"
#include "test_util.h"
#include "workload/generators.h"

namespace just {
namespace {

using just::testing::QueryFrame;
using just::testing::TempDir;

core::EngineOptions Options(const std::string& dir) {
  core::EngineOptions options;
  options.data_dir = dir;
  options.num_servers = 2;
  options.num_shards = 4;
  options.store.memtable_bytes = 64 << 10;  // small: force flush/compaction
  options.store.compaction_trigger = 3;
  return options;
}

TEST(IntegrationTest, EngineSurvivesRestartWithDataIntact) {
  TempDir dir("restart");
  TimestampMs base = ParseTimestamp("2018-10-05").value();
  {
    auto engine = core::JustEngine::Open(Options(dir.path()));
    ASSERT_TRUE(engine.ok());
    sql::JustQL ql(engine->get());
    ASSERT_TRUE(ql.Execute("alice",
                           "CREATE TABLE pts (fid string:primary key, "
                           "time date, geom point)")
                    .ok());
    for (int i = 0; i < 500; ++i) {
      exec::Row row = {
          exec::Value::String("p" + std::to_string(i)),
          exec::Value::Timestamp(base + i * kMillisPerMinute),
          exec::Value::GeometryVal(geo::Geometry::MakePoint(
              {116.3 + (i % 50) * 0.001, 39.8 + (i / 50) * 0.001}))};
      ASSERT_TRUE((*engine)->Insert("alice", "pts", row).ok());
    }
    // Deliberately NO Finalize: part of the data lives only in WALs.
  }
  // Reopen: catalog reloads from its journal, stores replay their WALs.
  auto engine = core::JustEngine::Open(Options(dir.path()));
  ASSERT_TRUE(engine.ok());
  sql::JustQL ql(engine->get());
  auto tables = ql.Execute("alice", "SHOW TABLES");
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->frame.num_rows(), 1u);
  auto count = ql.Execute("alice", "SELECT count(*) AS n FROM pts");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->frame.rows()[0][0].int_value(), 500);
  // An indexed query still works after recovery.
  auto range = ql.Execute(
      "alice",
      "SELECT fid FROM pts WHERE geom WITHIN "
      "st_makeMBR(116.3, 39.8, 116.31, 39.81)");
  ASSERT_TRUE(range.ok());
  EXPECT_GT(range->frame.num_rows(), 0u);
}

// DDL is durable once it returns: the catalog commits like the store's
// MANIFEST (tmp file, fsync, rename), through the stores' Env. A power loss
// right after CREATE TABLE and a few synced inserts loses neither the table
// nor its rows.
TEST(IntegrationTest, CatalogSurvivesPowerLossAfterDdl) {
  TempDir dir("catalog_power_loss");
  kv::FaultInjectionEnv env;
  core::EngineOptions options = Options(dir.path());
  options.store.env = &env;
  options.store.sync_wal = true;
  TimestampMs base = ParseTimestamp("2018-10-05").value();
  {
    auto engine = core::JustEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    sql::JustQL ql(engine->get());
    ASSERT_TRUE(ql.Execute("alice",
                           "CREATE TABLE pts (fid string:primary key, "
                           "time date, geom point)")
                    .ok());
    for (int i = 0; i < 40; ++i) {
      exec::Row row = {
          exec::Value::String("p" + std::to_string(i)),
          exec::Value::Timestamp(base + i * kMillisPerMinute),
          exec::Value::GeometryVal(
              geo::Geometry::MakePoint({116.3 + i * 0.001, 39.8}))};
      ASSERT_TRUE((*engine)->Insert("alice", "pts", row).ok());
    }
    env.DropUnsyncedWrites();  // power loss: only synced bytes survive
  }  // the dying engine's close attempts fail under the write lockout
  env.ClearFaults();

  auto engine = core::JustEngine::Open(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  sql::JustQL ql(engine->get());
  auto tables = ql.Execute("alice", "SHOW TABLES");
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->frame.num_rows(), 1u);
  auto count = ql.Execute("alice", "SELECT count(*) AS n FROM pts");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->frame.rows()[0][0].int_value(), 40);
}

TEST(IntegrationTest, HistoricalUpdateVisibleAfterCompaction) {
  TempDir dir("hist_update");
  auto engine = core::JustEngine::Open(Options(dir.path()));
  ASSERT_TRUE(engine.ok());
  TimestampMs base = ParseTimestamp("2014-03-10").value();
  meta::TableMeta table;
  table.user = "u";
  table.name = "pts";
  table.columns = {
      {"fid", exec::DataType::kString, true, "", ""},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "", ""},
  };
  ASSERT_TRUE((*engine)->CreateTable(table).ok());
  auto row_at = [&](const std::string& fid, double lng) {
    return exec::Row{
        exec::Value::String(fid), exec::Value::Timestamp(base),
        exec::Value::GeometryVal(geo::Geometry::MakePoint({lng, 39.9}))};
  };
  ASSERT_TRUE((*engine)->Insert("u", "pts", row_at("x", 116.40)).ok());
  ASSERT_TRUE((*engine)->Finalize().ok());
  // Historical update: same fid, same location/time — the value in place is
  // overwritten (upsert semantics; no index rebuild).
  ASSERT_TRUE((*engine)->Insert("u", "pts", row_at("x", 116.40)).ok());
  ASSERT_TRUE((*engine)->Finalize().ok());
  auto result = QueryFrame(
      engine->get(), "u", "pts",
      core::QuerySpec::SpatialRange(geo::Mbr::Of(116.3, 39.8, 116.5, 40.0)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1u);  // one logical record, not two
}

TEST(IntegrationTest, ConcurrentUsersThroughSql) {
  TempDir dir("multiuser");
  auto engine = core::JustEngine::Open(Options(dir.path()));
  ASSERT_TRUE(engine.ok());
  sql::JustQL ql(engine->get());
  // Two users, same table names, independent data (Section VII-A).
  for (const char* user : {"alice", "bob"}) {
    ASSERT_TRUE(ql.Execute(user,
                           "CREATE TABLE t (fid string:primary key, "
                           "time date, geom point)")
                    .ok());
  }
  ASSERT_TRUE(ql.Execute("alice",
                         "INSERT INTO t VALUES ('a1', '2018-10-01 00:00:00', "
                         "st_makePoint(116.4, 39.9))")
                  .ok());
  ASSERT_TRUE(ql.Execute("bob",
                         "INSERT INTO t VALUES ('b1', '2018-10-01 00:00:00', "
                         "st_makePoint(116.4, 39.9)), "
                         "('b2', '2018-10-01 00:00:00', "
                         "st_makePoint(116.5, 39.8))")
                  .ok());
  auto alice = ql.Execute("alice", "SELECT count(*) AS n FROM t");
  auto bob = ql.Execute("bob", "SELECT count(*) AS n FROM t");
  EXPECT_EQ(alice->frame.rows()[0][0].int_value(), 1);
  EXPECT_EQ(bob->frame.rows()[0][0].int_value(), 2);
  // Views are per-user too.
  ASSERT_TRUE(ql.Execute("alice", "CREATE VIEW v AS SELECT * FROM t").ok());
  EXPECT_TRUE(ql.Execute("bob", "SELECT * FROM v").status().IsNotFound());
}

TEST(IntegrationTest, DropTableReclaimsKeySpace) {
  TempDir dir("drop_reclaim");
  auto engine = core::JustEngine::Open(Options(dir.path()));
  ASSERT_TRUE(engine.ok());
  sql::JustQL ql(engine->get());
  ASSERT_TRUE(ql.Execute("u",
                         "CREATE TABLE t (fid string:primary key, time date, "
                         "geom point)")
                  .ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        ql.Execute("u", "INSERT INTO t VALUES ('f" + std::to_string(i) +
                            "', '2018-10-01 00:00:00', "
                            "st_makePoint(116.4, 39.9))")
            .ok());
  }
  ASSERT_TRUE(ql.Execute("u", "DROP TABLE t").ok());
  // Recreate with the same name: must start empty (old keys are gone, and
  // the new table gets a fresh table id anyway).
  ASSERT_TRUE(ql.Execute("u",
                         "CREATE TABLE t (fid string:primary key, time date, "
                         "geom point)")
                  .ok());
  auto count = ql.Execute("u", "SELECT count(*) AS n FROM t");
  EXPECT_EQ(count->frame.rows()[0][0].int_value(), 0);
}

TEST(IntegrationTest, EndToEndTrajectoryPipeline) {
  TempDir dir("traj_pipeline");
  auto engine = core::JustEngine::Open(Options(dir.path()));
  ASSERT_TRUE(engine.ok());
  sql::JustQL ql(engine->get());
  ASSERT_TRUE(ql.Execute("lab", "CREATE TABLE gps AS trajectory").ok());

  workload::TrajOptions gen;
  gen.num_trajectories = 30;
  gen.points_per_traj = 120;
  gen.num_days = 3;
  auto logs = workload::GenerateTrajectories(gen);
  for (const auto& t : logs) {
    exec::Row row = {exec::Value::String(t.oid()),
                     exec::Value::String("c_" + t.oid()),
                     exec::Value::Timestamp(t.start_time()),
                     exec::Value::Timestamp(t.end_time()),
                     exec::Value::TrajectoryVal(
                         std::make_shared<const traj::Trajectory>(t))};
    ASSERT_TRUE((*engine)->Insert("lab", "gps", row).ok());
  }
  ASSERT_TRUE((*engine)->Finalize().ok());

  // ST query -> view -> 1-N analysis -> aggregate, all in JustQL.
  TimestampMs base = ParseTimestamp(gen.start_date).value();
  char view_sql[512];
  std::snprintf(view_sql, sizeof(view_sql),
                "CREATE VIEW day1 AS SELECT tid, start_time, item FROM gps "
                "WHERE item WITHIN st_makeMBR(116.0, 39.6, 116.8, 40.2) AND "
                "start_time BETWEEN '%s' AND '%s'",
                FormatTimestamp(base).c_str(),
                FormatTimestamp(base + kMillisPerDay).c_str());
  auto view = ql.Execute("lab", view_sql);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto segments = ql.Execute("lab",
                             "SELECT st_trajSegmentation(item) FROM day1");
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  auto lengths = ql.Execute(
      "lab", "SELECT st_trajLengthMeters(item) AS len FROM day1");
  ASSERT_TRUE(lengths.ok());
  for (const auto& row : lengths->frame.rows()) {
    EXPECT_GT(row[0].double_value(), 0);
  }
  auto stats = ql.Execute(
      "lab",
      "SELECT count(*) AS n, avg(len) AS avg_len FROM "
      "(SELECT st_trajLengthMeters(item) AS len FROM day1) t");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->frame.rows()[0][0].int_value(),
            static_cast<int64_t>(lengths->frame.num_rows()));
}

TEST(IntegrationTest, CompressionReducesIoOnScans) {
  TempDir dir("io_comp");
  core::EngineOptions options = Options(dir.path());
  options.store.block_cache_bytes = 4 << 10;  // effectively uncached
  auto engine = core::JustEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->CreatePluginTable("u", "gps", "trajectory").ok());

  workload::TrajOptions gen;
  gen.num_trajectories = 40;
  gen.points_per_traj = 400;
  auto logs = workload::GenerateTrajectories(gen);
  for (const auto& t : logs) {
    exec::Row row = {exec::Value::String(t.oid()),
                     exec::Value::String("c"),
                     exec::Value::Timestamp(t.start_time()),
                     exec::Value::Timestamp(t.end_time()),
                     exec::Value::TrajectoryVal(
                         std::make_shared<const traj::Trajectory>(t))};
    ASSERT_TRUE((*engine)->Insert("u", "gps", row).ok());
  }
  ASSERT_TRUE((*engine)->Finalize().ok());
  auto bytes_read = [] {
    return obs::Registry::Global().CounterValue("just_kv_bytes_read_total");
  };
  uint64_t before = bytes_read();
  auto frame = QueryFrame(engine->get(), "u", "gps");
  ASSERT_TRUE(frame.ok());
  uint64_t compressed_read = bytes_read() - before;
  // Logical GPS bytes: 400 pts x 24 B x 40 trajectories = 384 KB; the scan
  // must have read much less thanks to the delta+LZ77 cells.
  EXPECT_LT(compressed_read, 40u * 400u * 24u / 2);
  EXPECT_EQ(frame->num_rows(), 40u);
}

TEST(IntegrationTest, SpilledResultSetRoundTripsWholeTable) {
  TempDir dir("rs_table");
  auto engine = core::JustEngine::Open(Options(dir.path()));
  ASSERT_TRUE(engine.ok());
  meta::TableMeta table;
  table.user = "u";
  table.name = "pts";
  table.columns = {
      {"fid", exec::DataType::kString, true, "", ""},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "", ""},
  };
  ASSERT_TRUE((*engine)->CreateTable(table).ok());
  const int kRows = 3000;
  TimestampMs base = ParseTimestamp("2018-10-01").value();
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE((*engine)
                    ->Insert("u", "pts",
                             {exec::Value::String("p" + std::to_string(i)),
                              exec::Value::Timestamp(base + i),
                              exec::Value::GeometryVal(
                                  geo::Geometry::MakePoint(
                                      {116.0 + i * 1e-5, 39.0}))})
                    .ok());
  }
  auto frame = QueryFrame(engine->get(), "u", "pts");
  ASSERT_TRUE(frame.ok());
  core::ResultSet::Options rs_options;
  rs_options.direct_row_limit = 100;
  rs_options.rows_per_chunk = 256;
  rs_options.spill_dir = dir.path() + "/spill";
  auto rs = core::ResultSet::Make(std::move(*frame), rs_options);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE((*rs)->spilled());
  int n = 0;
  while ((*rs)->HasNext()) {
    auto row = (*rs)->Next();
    ASSERT_TRUE(row.ok());
    ASSERT_EQ(row->size(), 3u);
    ++n;
  }
  EXPECT_EQ(n, kRows);
}

}  // namespace
}  // namespace just
