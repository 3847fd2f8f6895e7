#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/region_cluster.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "compress/codec.h"
#include "core/plugins.h"
#include "net_harness.h"
#include "obs/metrics.h"
#include "scan_parity.h"
#include "test_util.h"

namespace just::cluster {
namespace {

using just::testing::DeleteKey;
using just::testing::FaultProxy;
using just::testing::GetKey;
using just::testing::PutKey;
using just::testing::ServerProcess;
using just::testing::TempDir;

std::string ShardKey(int shard, const std::string& rest) {
  std::string key(1, static_cast<char>(shard));
  return key + rest;
}

/// Runs the whole suite against both deployments of the cluster:
///  - "inproc": every region server is an LSM store in this process (the
///    historical single-binary mode);
///  - "socket": every region server is a real spawned `just_region_server`
///    process reached over the wire protocol.
/// Identical behaviour across the two is the point of the RegionBackend
/// seam, so the assertions are byte-for-byte the same.
class RegionClusterTest : public ::testing::TestWithParam<std::string> {
 protected:
  Result<std::unique_ptr<RegionCluster>> OpenCluster(
      int num_servers = 3, size_t scan_batch_rows = 512) {
    dir_ = std::make_unique<TempDir>("cluster_" + GetParam());
    ClusterOptions opts;
    opts.dir = dir_->path();
    opts.num_servers = num_servers;
    opts.store.memtable_bytes = 32 << 10;
    opts.scan_batch_rows = scan_batch_rows;
    if (GetParam() == "socket") {
      for (int i = 0; i < num_servers; ++i) {
        ServerProcess::Options po;
        po.dir = dir_->path() + "/rs" + std::to_string(i);
        std::filesystem::create_directories(po.dir);
        // No crash tests here, so skip the per-commit fsync; keep the tiny
        // memtable so flush/compaction paths run just like inproc.
        po.sync_wal = false;
        po.memtable_bytes = 32 << 10;
        auto server = std::make_unique<ServerProcess>(po);
        if (!server->Start()) {
          return Status::Internal("failed to start region server process");
        }
        opts.server_addrs.push_back(server->addr());
        servers_.push_back(std::move(server));
      }
    }
    return RegionCluster::Open(opts);
  }

  void TearDown() override {
    for (auto& server : servers_) server->Terminate();
    servers_.clear();
  }

  std::unique_ptr<TempDir> dir_;
  std::vector<std::unique_ptr<ServerProcess>> servers_;
};

TEST_P(RegionClusterTest, RoutesByShardByte) {
  auto cluster = OpenCluster();
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  for (int shard = 0; shard < 8; ++shard) {
    ASSERT_TRUE(
        PutKey(**cluster, ShardKey(shard, "key"), "v" + std::to_string(shard))
            .ok());
  }
  for (int shard = 0; shard < 8; ++shard) {
    std::string v;
    ASSERT_TRUE(GetKey(**cluster, ShardKey(shard, "key"), &v).ok());
    EXPECT_EQ(v, "v" + std::to_string(shard));
  }
}

TEST_P(RegionClusterTest, ParallelScanHonorsRangeBounds) {
  auto cluster = OpenCluster();
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  // Shard 1: keys 000..099.
  for (int i = 0; i < 100; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%03d", i);
    ASSERT_TRUE(PutKey(**cluster, ShardKey(1, buf), "v").ok());
  }
  std::vector<curve::KeyRange> ranges;
  curve::KeyRange r1{ShardKey(1, "010"), ShardKey(1, "020"), true};
  curve::KeyRange r2{ShardKey(1, "050"), ShardKey(1, "055"), false};
  ranges.push_back(r1);
  ranges.push_back(r2);
  auto results = (*cluster)->ParallelScan(ranges);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].rows.size(), 10u);
  EXPECT_TRUE((*results)[0].contained);
  EXPECT_EQ((*results)[1].rows.size(), 5u);
  EXPECT_FALSE((*results)[1].contained);
}

TEST_P(RegionClusterTest, ParallelScanManyRanges) {
  auto cluster = OpenCluster(4);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  for (int shard = 0; shard < 8; ++shard) {
    for (int i = 0; i < 50; ++i) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "%03d", i);
      ASSERT_TRUE(PutKey(**cluster, ShardKey(shard, buf), "v").ok());
    }
  }
  std::vector<curve::KeyRange> ranges;
  for (int shard = 0; shard < 8; ++shard) {
    ranges.push_back(curve::KeyRange{ShardKey(shard, "000"),
                                     ShardKey(shard, "025"), false});
  }
  auto results = (*cluster)->ParallelScan(ranges);
  ASSERT_TRUE(results.ok());
  size_t total = 0;
  for (const auto& rr : *results) total += rr.rows.size();
  EXPECT_EQ(total, 8u * 25u);
}

TEST_P(RegionClusterTest, ParallelScanMatchesOneRangeScans) {
  // Small pages: the socket backend's multi-range scans span many pages,
  // so resume cursors land inside ranges and between them.
  auto cluster = OpenCluster(3, /*scan_batch_rows=*/7);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  Rng rng(20241017);
  // Eight shard bytes of keys "000".."079", spread over flushed tables and
  // the memtable, with overwrites and deletes.
  for (int round = 0; round < 2; ++round) {
    std::vector<kv::WriteOp> ops;
    for (int shard = 0; shard < 8; ++shard) {
      for (int i = round; i < 80; i += 1 + round) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "%03d", i);
        ops.push_back(kv::WriteOp{ShardKey(shard, buf),
                                  "v" + std::to_string(round), false});
      }
    }
    ASSERT_TRUE((*cluster)->WriteBatch(std::move(ops)).ok());
    if (round == 0) {
      ASSERT_TRUE((*cluster)->FlushAll().ok());
    }
  }
  for (int i = 0; i < 80; i += 7) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%03d", i);
    ASSERT_TRUE(DeleteKey(**cluster, ShardKey(static_cast<int>(i % 8), buf))
                    .ok());
  }

  auto key = [&](int shard) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "%03d",
                  static_cast<int>(rng.Uniform(90)));
    return ShardKey(shard, buf);
  };
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<curve::KeyRange> ranges;
    size_t n = 1 + rng.Uniform(40);
    for (size_t i = 0; i < n; ++i) {
      int shard = static_cast<int>(rng.Uniform(8));
      curve::KeyRange r;
      r.contained = rng.Uniform(2) == 1;
      switch (rng.Uniform(5)) {
        case 0:  // empty: end at or before start
          r.start = key(shard);
          r.end = r.start;
          break;
        case 1: {  // crosses shard bytes, so every server scans it
          r.start = key(shard);
          r.end = shard == 7 ? "" : key(shard + 1 + static_cast<int>(
                                                       rng.Uniform(7 - shard)));
          break;
        }
        case 2:  // overlaps (or repeats) an earlier range
          if (!ranges.empty()) {
            r = ranges[rng.Uniform(ranges.size())];
            r.end = r.end.empty() ? "" : r.end + "5";
            break;
          }
          [[fallthrough]];
        default: {
          std::string a = key(shard);
          std::string b = key(shard);
          if (b < a) std::swap(a, b);
          r.start = a;
          r.end = b;
          break;
        }
      }
      ranges.push_back(r);
    }
    auto results = (*cluster)->ParallelScan(ranges);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), ranges.size());
    for (size_t i = 0; i < ranges.size(); ++i) {
      auto one = just::testing::ScanRows(**cluster, {ranges[i]});
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      const auto& want = *one;
      const auto& got = (*results)[i];
      EXPECT_EQ(got.contained, ranges[i].contained);
      ASSERT_EQ(got.rows.size(), want.size()) << "trial " << trial
                                              << " range " << i;
      for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(got.rows[r].key, want[r].first);
        EXPECT_EQ(got.rows[r].value, want[r].second);
      }
    }
  }
}

TEST_P(RegionClusterTest, WriteBatchRoutesAcrossServers) {
  auto cluster = OpenCluster();
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  std::vector<kv::WriteOp> ops;
  for (int shard = 0; shard < 8; ++shard) {
    for (int i = 0; i < 20; ++i) {
      ops.push_back(kv::WriteOp{ShardKey(shard, "b" + std::to_string(i)),
                                "v" + std::to_string(shard), false});
    }
  }
  ASSERT_TRUE((*cluster)->WriteBatch(std::move(ops)).ok());
  for (int shard = 0; shard < 8; ++shard) {
    std::string v;
    ASSERT_TRUE(GetKey(**cluster, ShardKey(shard, "b0"), &v).ok());
    EXPECT_EQ(v, "v" + std::to_string(shard));
  }
}

TEST_P(RegionClusterTest, StatsAggregateAcrossServers) {
  auto cluster = OpenCluster();
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  for (int shard = 0; shard < 6; ++shard) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(PutKey(**cluster, ShardKey(shard, "key" + std::to_string(i)),
                         std::string(100, 'x'))
                      .ok());
    }
  }
  ASSERT_TRUE((*cluster)->FlushAll().ok());
  auto stats = (*cluster)->GetStats();
  EXPECT_EQ(stats.entries, 6u * 200u);
  EXPECT_GT(stats.disk_bytes, 0u);
}

TEST_P(RegionClusterTest, CompactAllReducesSstables) {
  auto cluster = OpenCluster();
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          PutKey(**cluster, ShardKey(0, "key" + std::to_string(i)), "v").ok());
    }
    ASSERT_TRUE((*cluster)->FlushAll().ok());
  }
  ASSERT_TRUE((*cluster)->CompactAll().ok());
  auto stats = (*cluster)->GetStats();
  EXPECT_LE(stats.num_sstables, 3u);  // at most one per server
}

INSTANTIATE_TEST_SUITE_P(Backends, RegionClusterTest,
                         ::testing::Values("inproc", "socket"),
                         [](const auto& info) { return info.param; });

/// The engine's scan path on both deployments: the streaming cluster scan,
/// per-server decode and residual/column pushdown must return exactly the
/// brute-force oracle's rows. On sockets every server sits behind a
/// FaultProxy so a test can tear a connection mid-stream.
class EngineScanParityTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("scan_parity_" + GetParam());
    core::EngineOptions options;
    options.data_dir = dir_->path() + "/engine";
    options.num_servers = NumServers();
    options.num_shards = 4;
    if (GetParam() == "socket") {
      for (int i = 0; i < options.num_servers; ++i) {
        ServerProcess::Options po;
        po.dir = dir_->path() + "/rs" + std::to_string(i);
        std::filesystem::create_directories(po.dir);
        po.sync_wal = false;
        auto server = std::make_unique<ServerProcess>(po);
        ASSERT_TRUE(server->Start()) << "region server " << i;
        proxies_.push_back(std::make_unique<FaultProxy>(server->port()));
        options.server_addrs.push_back(
            "127.0.0.1:" + std::to_string(proxies_.back()->port()));
        servers_.push_back(std::move(server));
      }
    }
    std::filesystem::create_directories(options.data_dir);
    auto engine = core::JustEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
  }

  void TearDown() override {
    engine_.reset();
    proxies_.clear();
    for (auto& server : servers_) server->Terminate();
    servers_.clear();
  }

  virtual int NumServers() const { return 2; }

  static uint64_t MultiScanRpcs() {
    return obs::Registry::Global()
        .GetHistogram(obs::LabeledName("just_net_client_rpc_us",
                                       {{"type", "multi_scan"}}))
        ->Count();
  }

  std::unique_ptr<TempDir> dir_;
  std::vector<std::unique_ptr<ServerProcess>> servers_;
  std::vector<std::unique_ptr<FaultProxy>> proxies_;
  std::unique_ptr<core::JustEngine> engine_;
};

TEST_P(EngineScanParityTest, EveryScanShapeMatchesTheOracle) {
  Status loaded = just::testing::LoadScanParityTables(engine_.get(), "u");
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  for (const std::string& sql : just::testing::ScanParityQueries()) {
    just::testing::ExpectSameResult(engine_.get(), "u", sql);
  }
}

/// Rows whose times sit on and next to the 2018-10-02 day edge, at 0 and
/// below it, millennia away, and NULL, in four tables: Z2 + Z2T points
/// (`ev_z2t`), Z2-only points (`ev_z2`), Z3 points (`ev_z3`) and the
/// XZ2 + XZ2T trajectory table (`trips`, timed by start_time).
Status LoadTimeEdgeTables(core::JustEngine* engine, TimestampMs day) {
  sql::JustQL ql(engine);
  JUST_RETURN_NOT_OK(
      ql.Execute("u",
                 "CREATE TABLE ev_z2t (fid string:primary key, time date, "
                 "geom point:srid=4326)")
          .status());
  JUST_ASSIGN_OR_RETURN(meta::TableMeta points,
                        engine->DescribeTable("u", "ev_z2t"));
  for (auto [name, type] : {std::pair{"ev_z2", curve::IndexType::kZ2},
                            std::pair{"ev_z3", curve::IndexType::kZ3}}) {
    meta::TableMeta table;
    table.user = "u";
    table.name = name;
    table.columns = points.columns;
    table.indexes = {{type, kMillisPerDay}};
    JUST_RETURN_NOT_OK(engine->CreateTable(table));
  }
  JUST_RETURN_NOT_OK(
      ql.Execute("u", "CREATE TABLE trips AS trajectory").status());

  std::vector<std::optional<TimestampMs>> times = {
      std::nullopt,
      std::nullopt,
      -4'000'000'000'000'000,
      -kMillisPerDay - 1,
      -1000,
      -1,
      0,
      1,
      day - kMillisPerDay,
      day - 1,
      day,
      day + 1,
      day + kMillisPerDay - 1,
      day + kMillisPerDay,
      4'000'000'000'000'000,
  };
  Rng rng(31);
  for (int i = 0; i < 60; ++i) {
    times.push_back(day - 2 * kMillisPerDay +
                    static_cast<TimestampMs>(rng.Uniform(5 * 24)) *
                        kMillisPerHour +
                    static_cast<TimestampMs>(rng.Uniform(3)) - 1);
  }
  std::vector<exec::Row> point_rows, trip_rows;
  for (size_t i = 0; i < times.size(); ++i) {
    const geo::Point p{116.2 + rng.NextDouble() * 0.4,
                       39.7 + rng.NextDouble() * 0.4};
    const exec::Value t =
        times[i] ? exec::Value::Timestamp(*times[i]) : exec::Value::Null();
    char id[24];
    std::snprintf(id, sizeof(id), "e%03zu", i);
    point_rows.push_back({exec::Value::String(id), t,
                          exec::Value::GeometryVal(
                              geo::Geometry::MakePoint(p))});
    // A trajectory with no start_time still has GPS times of its own.
    const TimestampMs start = times[i].value_or(day + 2 * kMillisPerDay);
    std::vector<traj::GpsPoint> gps;
    for (int k = 0; k < 4; ++k) {
      gps.push_back({{p.lng + k * 0.001, p.lat + k * 0.001},
                     start + k * 60'000});
    }
    auto trip = std::make_shared<const traj::Trajectory>(
        "obj" + std::to_string(i), std::move(gps));
    trip_rows.push_back(
        {exec::Value::String(id), exec::Value::String(trip->oid()), t,
         times[i] ? exec::Value::Timestamp(trip->end_time())
                  : exec::Value::Null(),
         exec::Value::TrajectoryVal(trip)});
  }
  for (const char* name : {"ev_z2t", "ev_z2", "ev_z3"}) {
    JUST_RETURN_NOT_OK(engine->InsertBatch("u", name, point_rows));
  }
  JUST_RETURN_NOT_OK(engine->InsertBatch("u", "trips", trip_rows));
  return engine->Finalize();
}

/// The access path EXPLAIN prints for `sql`.
std::string AccessOf(core::JustEngine* engine, const std::string& sql) {
  auto explain = sql::JustQL(engine).Execute("u", "EXPLAIN " + sql);
  if (!explain.ok()) return explain.status().ToString();
  const std::string& msg = explain->message;
  const size_t at = msg.find("access: ");
  if (at == std::string::npos) return msg;
  const size_t begin = at + 8;
  return msg.substr(begin, msg.find_first_of("] \n", begin) - begin);
}

/// Every time window JustQL can state, one-sided or closed, alone, in
/// pairs and with BETWEEN, on and next to a day edge, below 0 and at the
/// INT64 extremes, over rows with NULL times: the same rows as the oracle,
/// on every curve index layout.
TEST_P(EngineScanParityTest, TimeWindowsMatchTheOracle) {
  const TimestampMs day = ParseTimestamp("2018-10-02").value();
  Status loaded = LoadTimeEdgeTables(engine_.get(), day);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  const std::string edge = std::to_string(day);
  const std::string next = std::to_string(day + kMillisPerDay);
  const std::vector<std::string> literals = {
      std::to_string(day - 1), edge, std::to_string(day + 1),
      "'2018-10-02'", next, "0", "-1000", "-86400001"};
  const std::string min = "-9223372036854775808";
  const std::string max = "9223372036854775807";
  const std::string box = "st_makeMBR(116.25, 39.75, 116.50, 40.00)";
  struct Table {
    std::string name, time, geom;
  };
  for (const Table& table : {Table{"ev_z2t", "time", "geom"},
                             Table{"ev_z2", "time", "geom"},
                             Table{"ev_z3", "time", "geom"},
                             Table{"trips", "start_time", "item"}}) {
    const std::string& t = table.time;
    std::vector<std::string> wheres;
    for (const char* op : {" < ", " <= ", " > ", " >= "}) {
      for (const std::string& lit : literals) wheres.push_back(t + op + lit);
    }
    for (const std::string& w : {
             t + " >= " + edge + " AND " + t + " < " + next,
             t + " > " + std::to_string(day - 1) + " AND " + t +
                 " <= " + std::to_string(day + 1),
             t + " < " + std::to_string(day + 1) + " AND " + t + " > -1000",
             t + " >= " + edge + " AND " + t + " BETWEEN " +
                 std::to_string(day - 1) + " AND " + next + " AND " + t +
                 " < " + next,
             t + " BETWEEN -86400001 AND " + edge + " AND " + t + " > -1",
             t + " BETWEEN '2018-10-01' AND '2018-10-02' AND " + t +
                 " <= '2018-10-01 12:00:00'",
             t + " > " + edge + " AND " + t + " < " + edge,
             t + " < " + edge + " AND " + t + " < 0",
             t + " >= 0 AND " + t + " >= " + edge,
             t + " < " + max, t + " <= " + max, t + " > " + min,
             t + " >= " + min, t + " < " + min, t + " <= " + min,
             t + " > " + max, t + " >= " + max,
             t + " BETWEEN " + min + " AND 0",
             t + " BETWEEN 0 AND " + max,
             t + " BETWEEN " + min + " AND " + max,
             table.geom + " WITHIN " + box + " AND " + t + " < " + edge,
             table.geom + " WITHIN " + box + " AND " + t + " >= " + edge,
             table.geom + " WITHIN " + box + " AND " + t + " > 0 AND " + t +
                 " <= " + next,
         }) {
      wheres.push_back(w);
    }
    for (const std::string& where : wheres) {
      const std::string sql = "SELECT * FROM " + table.name + " WHERE " + where;
      SCOPED_TRACE(sql);
      just::testing::ExpectSameResult(engine_.get(), "u", sql);
    }

    // Time alone is one key range per shard over the window's periods (Z2
    // keys carry no time, so on ev_z2 it is a full scan); a box with a
    // window open on one side keeps the spatial path and tests time as a
    // residual; a lower bound at INT64_MIN stays residual.
    const std::string from = "SELECT * FROM " + table.name + " WHERE ";
    const std::string time_alone =
        table.name == "ev_z2" ? "full_scan" : "temporal_range";
    EXPECT_EQ(AccessOf(engine_.get(), from + t + " < " + edge), time_alone);
    EXPECT_EQ(AccessOf(engine_.get(), from + t + " > -1000 AND " + t +
                                          " <= " + edge),
              time_alone);
    EXPECT_EQ(AccessOf(engine_.get(), from + table.geom + " WITHIN " + box +
                                          " AND " + t + " < " + edge),
              "spatial_range");
    EXPECT_EQ(AccessOf(engine_.get(), from + table.geom + " WITHIN " + box +
                                          " AND " + t + " > 0 AND " + t +
                                          " <= " + next),
              "st_range");
    EXPECT_EQ(AccessOf(engine_.get(), from + t + " >= " + min), "full_scan");
    core::QueryStats stats;
    just::testing::ExpectSameResult(engine_.get(), "u",
                                    from + t + " < " + edge, &stats);
    EXPECT_EQ(stats.key_ranges, 4u) << table.name;
    // Z2 keys carry no time: that table reads every row.
    if (table.name != "ev_z2") {
      EXPECT_LT(stats.rows_scanned, 75u);
    }
  }
}

/// A table with no time-aware index has no key that leads with the period,
/// so a time-only query plans a full scan and tests time as a residual.
TEST_P(EngineScanParityTest, TimeAloneWithoutATimeAwareIndexIsAFullScan) {
  const TimestampMs day = ParseTimestamp("2018-10-02").value();
  Status loaded = LoadTimeEdgeTables(engine_.get(), day);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  const std::string edge = std::to_string(day);
  for (const std::string& where :
       {"time < " + edge, "time >= " + edge,
        "time BETWEEN " + std::to_string(day - 1) + " AND " +
            std::to_string(day + kMillisPerDay)}) {
    const std::string sql = "SELECT * FROM ev_z2 WHERE " + where;
    SCOPED_TRACE(sql);
    EXPECT_EQ(AccessOf(engine_.get(), sql), "full_scan");
    auto analyzed =
        sql::JustQL(engine_.get()).Execute("u", "EXPLAIN ANALYZE " + sql);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    EXPECT_NE(analyzed->message.find("Scan ev_z2 access=full_scan"),
              std::string::npos)
        << analyzed->message;
    ASSERT_GT(analyzed->frame.num_rows(), 0u);
    just::testing::ExpectSameResult(engine_.get(), "u", sql);
  }
}

/// A window of ~10^11 periods, with and without a box, on every
/// time-aware layout: one key range per shard, not one per period.
TEST_P(EngineScanParityTest, WideWindowsReadOneRangePerShard) {
  const TimestampMs day = ParseTimestamp("2018-10-02").value();
  Status loaded = LoadTimeEdgeTables(engine_.get(), day);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  const std::string window = " BETWEEN 0 AND 9000000000000000";
  const std::string box = "st_makeMBR(116.25, 39.75, 116.50, 40.00)";
  for (auto [table, t, g] : {std::tuple{"ev_z2t", "time", "geom"},
                             std::tuple{"ev_z3", "time", "geom"},
                             std::tuple{"trips", "start_time", "item"}}) {
    const std::string from = std::string("SELECT * FROM ") + table + " WHERE ";
    for (const std::string& where :
         {t + window, g + (" WITHIN " + box) + " AND " + t + window,
          t + std::string(" > 0"), t + std::string(" <= -1000")}) {
      SCOPED_TRACE(from + where);
      core::QueryStats stats;
      just::testing::ExpectSameResult(engine_.get(), "u", from + where,
                                      &stats);
      EXPECT_EQ(stats.key_ranges, 4u);
    }
  }
}

TEST_P(EngineScanParityTest, LimitCostsOneMultiScanPerServer) {
  Status loaded = just::testing::LoadScanParityTables(engine_.get(), "u");
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  // A city-wide box over several days: the Z2T decomposition plans
  // hundreds of ranges, and each server's matches fit one wire page.
  auto run = [&](const std::string& sql, core::QueryStats* stats,
                 uint64_t* rpcs) -> Result<exec::DataFrame> {
    JUST_ASSIGN_OR_RETURN(auto stmt, sql::ParseStatement(sql));
    sql::Analyzer analyzer(engine_.get(), "u");
    JUST_ASSIGN_OR_RETURN(auto plan, analyzer.Analyze(*stmt.select));
    JUST_ASSIGN_OR_RETURN(plan, sql::Optimize(std::move(plan)));
    sql::Executor executor(engine_.get(), "u");
    const uint64_t before = MultiScanRpcs();
    auto frame = executor.Execute(*plan, stats);
    *rpcs = MultiScanRpcs() - before;
    return frame;
  };
  const std::string where =
      "SELECT fid FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.10, 39.70, 116.70, 40.15) AND "
      "time BETWEEN '2018-10-05' AND '2018-10-12' LIMIT ";
  core::QueryStats stats;
  uint64_t rpcs = 0;
  auto all = run(where + "5000", &stats, &rpcs);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_GT(stats.key_ranges, 100u);
  auto want = just::testing::OracleSelect(engine_.get(), "u", where + "5000");
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(all->num_rows(), want->num_rows());
  if (GetParam() == "socket") {
    // Every server is touched, once: its ranges travel in one multi-scan
    // and its rows come back in one page.
    EXPECT_EQ(rpcs, servers_.size());
  }
  // A LIMIT met early touches each server at most once.
  auto five = run(where + "5", &stats, &rpcs);
  ASSERT_TRUE(five.ok()) << five.status().ToString();
  EXPECT_EQ(five->num_rows(), 5u);
  if (GetParam() == "socket") {
    EXPECT_GE(rpcs, 1u);
    EXPECT_LE(rpcs, servers_.size());
  }
}

/// DROP TABLE deletes every key of every slot the table ever used in one
/// cluster scan, sending each server's tombstones as chunked WriteBatches
/// from inside the scan as they fill: over sockets the whole drop costs its
/// scan pages and a few batches per server, not one RPC per key.
TEST_P(EngineScanParityTest, DropTablePurgesEverySlotInFewRpcs) {
  constexpr size_t kRows = 6000;
  meta::TableMeta table;
  table.user = "u";
  table.name = "dropped";
  table.columns = {
      {"fid", exec::DataType::kString, true, "", ""},
      {"courier", exec::DataType::kString, false, "", ""},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "", ""},
  };
  ASSERT_TRUE(engine_->CreateTable(table).ok());
  const TimestampMs base = ParseTimestamp("2018-10-01").value();
  Rng rng(5);
  std::vector<exec::Row> rows;
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back({
        exec::Value::String("o" + std::to_string(i)),
        exec::Value::String("c" + std::to_string(i % 10)),
        exec::Value::Timestamp(base + static_cast<int64_t>(i) * 60000),
        exec::Value::GeometryVal(geo::Geometry::MakePoint(
            {116.0 + rng.NextDouble(), 39.5 + rng.NextDouble()})),
    });
  }
  ASSERT_TRUE(engine_->InsertBatch("u", "dropped", rows).ok());
  ASSERT_TRUE(engine_->CreateIndex("u", "dropped", "by_courier", "courier")
                  .ok());
  auto meta = engine_->DescribeTable("u", "dropped");
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  const size_t slots = std::max<size_t>(meta->indexes.size(),
                                        meta->next_index_slot);
  ASSERT_GE(slots, 2u);
  auto keys_in = [&](size_t slot) -> size_t {
    auto got = just::testing::ScanRows(
        *engine_->cluster(),
        core::StTable::SlotRanges(meta->table_id, slot, /*num_shards=*/4));
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    return got.ok() ? got->size() : 0;
  };
  // One key per row in every slot: the curve indexes and the secondary one.
  for (size_t slot = 0; slot < slots; ++slot) {
    EXPECT_EQ(keys_in(slot), kRows) << "slot " << slot;
  }

  obs::Counter* rpcs =
      obs::Registry::Global().GetCounter("just_net_client_rpcs_total");
  const uint64_t before = rpcs->Value();
  ASSERT_TRUE(engine_->DropTable("u", "dropped").ok());
  const uint64_t spent = rpcs->Value() - before;
  if (GetParam() == "socket") {
    // One scan of every slot: 42 RPCs today (scan pages of 512 keys and
    // 4096-op tombstone chunks per server).
    EXPECT_LT(spent, 48u) << slots << " slots of " << kRows << " keys";
  }
  for (size_t slot = 0; slot < slots; ++slot) {
    EXPECT_EQ(keys_in(slot), 0u) << "slot " << slot;
  }
}

/// In process a scan starts on the calling thread and stays there unless
/// it outlasts a pool hand-off: a small Fig 12 query never spreads, and a
/// scan whose sink sleeps spreads to a pool helper. Over sockets the
/// calling thread drives every server's pages, so neither spreads. Either
/// way the rows are the oracle's.
TEST_P(EngineScanParityTest, SmallScansStayOnTheCallerAndSlowOnesSpread) {
  Status loaded = just::testing::LoadScanParityTables(engine_.get(), "u");
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  obs::Counter* spreads = obs::Registry::Global().GetCounter(
      "just_cluster_scan_spreads_total");
  const bool inproc = GetParam() == "inproc";

  // A Fig 12 query that scans fewer than 8 rows per server. With two
  // servers nothing can spread it, however slow the build: the per-row
  // progress check runs every 8th row, and by the time the caller starts
  // the second server no index is left for a helper.
  const std::string small =
      "SELECT fid, time FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.30, 39.85, 116.50, 40.00) AND "
      "time BETWEEN '2018-10-05' AND '2018-10-06'";
  {
    auto stmt = sql::ParseStatement(small);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    sql::Analyzer analyzer(engine_.get(), "u");
    auto plan = analyzer.Analyze(*stmt->select);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto optimized = sql::Optimize(std::move(plan).value());
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    sql::Executor executor(engine_.get(), "u");
    core::QueryStats stats;
    const uint64_t before = spreads->Value();
    auto frame = executor.Execute(**optimized, &stats);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(spreads->Value(), before);
    ASSERT_LT(stats.rows_scanned, 8u);
    ASSERT_GT(frame->num_rows(), 0u);
  }
  just::testing::ExpectSameResult(engine_.get(), "u", small);

  // Every row's primary key, each delivered ~50 us late.
  class SlowSink : public RegionCluster::ScanSink {
   public:
    bool Accept(int, size_t, std::string_view key,
                std::string_view) override {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      std::lock_guard<std::mutex> lock(mu);
      ++rows;
      keys.insert(std::string(key));
      threads.insert(std::this_thread::get_id());
      return true;
    }
    std::mutex mu;
    size_t rows = 0;
    std::set<std::string> keys;
    std::set<std::thread::id> threads;
  };
  auto meta = engine_->DescribeTable("u", "orders");
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  SlowSink sink;
  const uint64_t before = spreads->Value();
  Status scanned = engine_->cluster()->Scan(
      core::StTable::SlotRanges(meta->table_id, 0, /*num_shards=*/4), &sink);
  ASSERT_TRUE(scanned.ok()) << scanned.ToString();
  const uint64_t spread = spreads->Value() - before;
  auto all = just::testing::OracleSelect(engine_.get(), "u",
                                         "SELECT fid FROM orders");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(sink.rows, all->num_rows());
  EXPECT_EQ(sink.keys.size(), sink.rows) << "a row came back twice";
  if (inproc) {
    EXPECT_EQ(spread, 1u);
    EXPECT_EQ(sink.threads.size(), 2u);
  } else {
    EXPECT_EQ(spread, 0u);
    EXPECT_EQ(sink.threads,
              std::set<std::thread::id>{std::this_thread::get_id()});
  }
}

/// Rows on curve-cell edges and period boundaries, each queried by boxes
/// whose edges sit on the same cells and by windows that start or end on a
/// boundary, through Z2 / Z2T (points) and XZ2 / XZ2T (shapes) and k-NN:
/// every row comes back exactly once. The table scan keeps no dedupe set,
/// so this holds only because the curve ranges never overlap (and a retry
/// resumes past the last row it delivered).
TEST_P(EngineScanParityTest, EdgeRowsComeBackExactlyOnce) {
  // Level-11 Z2 cell edges (and every kNN area edge down to that level):
  // dyadic coordinates, exact in binary and in %.17g.
  const double step_lng = 360.0 / 2048, step_lat = 180.0 / 2048;
  const double lng0 = -180 + 1686 * step_lng, lat0 = -90 + 1478 * step_lat;
  const TimestampMs day = ParseTimestamp("2018-10-02").value();
  const TimestampMs offsets[] = {-1, 0, 1, 1000, kMillisPerDay,
                                 kMillisPerDay / 2};
  auto make_table = [&](const std::string& name, curve::IndexType spatial,
                        curve::IndexType temporal) {
    meta::TableMeta table;
    table.user = "u";
    table.name = name;
    table.columns = {{"fid", exec::DataType::kString, true, "", ""},
                     {"time", exec::DataType::kTimestamp, false, "", ""},
                     {"geom", exec::DataType::kGeometry, false, "4326", ""}};
    table.indexes = {{spatial, kMillisPerDay}, {temporal, kMillisPerDay}};
    return engine_->CreateTable(table);
  };
  ASSERT_TRUE(
      make_table("edge_points", curve::IndexType::kZ2, curve::IndexType::kZ2T)
          .ok());
  ASSERT_TRUE(make_table("edge_shapes", curve::IndexType::kXz2,
                         curve::IndexType::kXz2T)
                  .ok());
  std::vector<exec::Row> points, shapes;
  for (int i = 0; i <= 8; ++i) {
    for (int j = 0; j <= 8; ++j) {
      const double lng = lng0 + i * step_lng, lat = lat0 + j * step_lat;
      for (int v = 0; v < 3; ++v) {
        const std::string fid = "e" + std::to_string((i * 9 + j) * 3 + v);
        const TimestampMs t = day + offsets[(i + j + 2 * v) % 6];
        points.push_back(
            {exec::Value::String(fid), exec::Value::Timestamp(t),
             exec::Value::GeometryVal(geo::Geometry::MakePoint({lng, lat}))});
        // A cell-sized polygon, a cell-edge line, or a corner point.
        geo::Geometry shape =
            v == 0 ? geo::Geometry::MakePolygon({{lng, lat},
                                                 {lng + step_lng, lat},
                                                 {lng + step_lng,
                                                  lat + step_lat},
                                                 {lng, lat + step_lat}})
            : v == 1 ? geo::Geometry::MakeLineString(
                           {{lng, lat}, {lng + 2 * step_lng, lat}})
                     : geo::Geometry::MakePoint({lng, lat});
        shapes.push_back({exec::Value::String(fid), exec::Value::Timestamp(t),
                          exec::Value::GeometryVal(std::move(shape))});
      }
    }
  }
  ASSERT_TRUE(engine_->InsertBatch("u", "edge_points", points).ok());
  ASSERT_TRUE(engine_->InsertBatch("u", "edge_shapes", shapes).ok());
  ASSERT_TRUE(engine_->Finalize().ok());

  // Every fid of the answer exactly once, and the oracle's fids.
  sql::JustQL ql(engine_.get());
  auto expect_once = [&](const std::string& sql) -> size_t {
    SCOPED_TRACE(sql);
    auto want = just::testing::OracleSelect(engine_.get(), "u", sql);
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    auto got = ql.Execute("u", sql);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!want.ok() || !got.ok()) return 0;
    std::map<std::string, int> times;
    for (const auto& row : got->frame.rows()) ++times[row[0].ToString()];
    std::set<std::string> want_fids, got_fids;
    for (const auto& row : want->rows()) want_fids.insert(row[0].ToString());
    for (const auto& [fid, n] : times) {
      EXPECT_EQ(n, 1) << fid << " came back " << n << " times";
      got_fids.insert(fid);
    }
    EXPECT_EQ(got_fids, want_fids);
    return want_fids.size();
  };
  auto coord = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  auto box = [&](int i0, int j0, int i1, int j1) {
    return "st_makeMBR(" + coord(lng0 + i0 * step_lng) + ", " +
           coord(lat0 + j0 * step_lat) + ", " + coord(lng0 + i1 * step_lng) +
           ", " + coord(lat0 + j1 * step_lat) + ")";
  };
  const std::vector<std::string> boxes = {
      box(0, 0, 1, 1), box(2, 3, 6, 5), box(4, 0, 4, 8),  // a line of edges
      box(0, 0, 8, 8), "st_makeMBR(-180, -90, 180, 90)"};
  // 1, 2 and 3 periods, ends on and next to the day boundaries.
  const std::vector<std::string> windows = {
      "'2018-10-02' AND '2018-10-02'",
      "'2018-10-02' AND '2018-10-02 00:00:01'",
      "'2018-10-01 12:00:00' AND '2018-10-02'",
      "'2018-10-01' AND '2018-10-03'",
      "'2018-10-01 23:59:59' AND '2018-10-03 00:00:00'"};
  size_t matched = 0;
  for (const char* table : {"edge_points", "edge_shapes"}) {
    for (const std::string& b : boxes) {
      const std::string spatial = std::string("SELECT fid FROM ") + table +
                                  " WHERE geom WITHIN " + b;
      matched += expect_once(spatial);
      for (const std::string& w : windows) {
        matched += expect_once(spatial + " AND time BETWEEN " + w);
      }
    }
  }
  EXPECT_GT(matched, 1000u);

  // k-NN from a lattice corner: its expansion areas share edges with the
  // lattice, so edge rows meet several areas and the skip set must keep
  // each once; the distances must be the brute-force k smallest.
  for (int k : {1, 12, 40}) {
    const geo::Point q{lng0 + 4 * step_lng, lat0 + 4 * step_lat};
    auto got = just::testing::QueryFrame(engine_.get(), "u", "edge_points",
                                         core::QuerySpec::Knn(q, k));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::set<std::string> fids;
    std::vector<double> got_d, want_d;
    for (const auto& row : got->rows()) {
      EXPECT_TRUE(fids.insert(row[0].ToString()).second) << row[0].ToString();
      got_d.push_back(row[2].geometry_value().Distance(q));
    }
    for (const auto& row : points) {
      want_d.push_back(row[2].geometry_value().Distance(q));
    }
    std::sort(got_d.begin(), got_d.end());
    std::sort(want_d.begin(), want_d.end());
    want_d.resize(static_cast<size_t>(k));
    EXPECT_EQ(got_d, want_d) << "k=" << k;
  }
}

/// Trajectory tables refine on each st_series cell's summary and decode
/// the GPS list of survivors only. On gzip (delta list) and JUSTnc (raw
/// list) tables, over XZ2 and XZ2T: the kept item, the unkept item, a
/// residual that reads item (decoded in full early) and LIMIT all return
/// the oracle's rows, and every returned trajectory carries its points.
TEST_P(EngineScanParityTest, TrajectorySummaryScansMatchTheOracle) {
  workload::TrajOptions traj_options;
  traj_options.num_trajectories = 80;
  traj_options.points_per_traj = 12;
  traj_options.start_date = "2018-10-01";
  traj_options.num_days = 10;
  traj_options.seed = 11;
  const auto trips = workload::GenerateTrajectories(traj_options);
  std::vector<double> lengths;
  for (const auto& trip : trips) lengths.push_back(trip.LengthMeters());
  std::nth_element(lengths.begin(), lengths.begin() + lengths.size() / 2,
                   lengths.end());
  const std::string median_length = std::to_string(lengths[lengths.size() / 2]);
  const std::string box =
      "item WITHIN st_makeMBR(116.30, 39.80, 116.50, 40.00)";
  const std::string window =
      " AND start_time BETWEEN '2018-10-02' AND '2018-10-07'";
  for (const char* codec : {"gzip", ""}) {
    const std::string name = codec[0] != '\0' ? "trips_gz" : "trips_nc";
    auto table = core::MakePluginTable("trajectory", "u", name);
    ASSERT_TRUE(table.ok());
    table->columns[4].compress = codec;
    ASSERT_TRUE(engine_->CreateTable(*table).ok());
    std::vector<exec::Row> rows;
    std::map<std::string, std::shared_ptr<const traj::Trajectory>> by_tid;
    for (size_t i = 0; i < trips.size(); ++i) {
      char tid[32];
      std::snprintf(tid, sizeof(tid), "trip_%03zu", i);
      auto trip = std::make_shared<const traj::Trajectory>(trips[i]);
      rows.push_back({exec::Value::String(tid),
                      exec::Value::String(trip->oid()),
                      exec::Value::Timestamp(trip->start_time()),
                      exec::Value::Timestamp(trip->end_time()),
                      exec::Value::TrajectoryVal(trip)});
    }
    ASSERT_TRUE(engine_->InsertBatch("u", name, rows).ok());
    ASSERT_TRUE(engine_->Finalize().ok());
    // The stored trajectories, as a full scan decodes them.
    auto all = just::testing::QueryFrame(engine_.get(), "u", name);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    ASSERT_EQ(all->num_rows(), trips.size());
    for (const exec::Row& row : all->rows()) {
      by_tid[row[0].string_value()] = row[4].trajectory_value();
    }

    // A secondary index on tid: a tid bound plus the box takes the index
    // intersection path, whose recheck refines on the summary too.
    ASSERT_TRUE(engine_->CreateIndex("u", name, name + "_tid", "tid").ok());
    const std::string tid_bound = "tid < 'trip_050' AND ";
    std::vector<std::string> queries;
    for (const std::string& where :
         {box, box + window, tid_bound + box, tid_bound + box + window}) {
      queries.push_back("SELECT * FROM " + name + " WHERE " + where);
      queries.push_back("SELECT tid FROM " + name + " WHERE " + where);
      queries.push_back("SELECT tid, item FROM " + name + " WHERE " + where +
                        " AND st_trajLengthMeters(item) > " + median_length);
    }
    sql::JustQL ql(engine_.get());
    auto explain = ql.Execute(
        "u", "EXPLAIN ANALYZE SELECT * FROM " + name + " WHERE " + tid_bound +
                 box);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_NE(explain->message.find("access=index_intersection"),
              std::string::npos)
        << explain->message;
    for (const std::string& sql : queries) {
      just::testing::ExpectSameResult(engine_.get(), "u", sql);
      auto got = ql.Execute("u", sql);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      ASSERT_GT(got->frame.num_rows(), 0u) << sql;
      ASSERT_LT(got->frame.num_rows(), trips.size()) << sql;
      const int item = got->frame.schema().IndexOf("item");
      for (const exec::Row& row : got->frame.rows()) {
        if (item < 0) continue;
        const auto& t = row[static_cast<size_t>(item)].trajectory_value();
        ASSERT_NE(t, nullptr) << sql;
        EXPECT_FALSE(t->summary_only()) << sql;
        EXPECT_EQ(t->points().size(), t->point_count()) << sql;
        EXPECT_TRUE(*t == *by_tid[row[0].string_value()]) << sql;
      }
    }
    // LIMIT on the index paths returns a prefix of the index order: any
    // rows of the unlimited answer (checked against the oracle above), as
    // many as the limit allows.
    for (const std::string& where : {box, box + window}) {
      auto unlimited =
          ql.Execute("u", "SELECT * FROM " + name + " WHERE " + where);
      ASSERT_TRUE(unlimited.ok());
      std::set<std::string> answer;
      for (const exec::Row& row : unlimited->frame.rows()) {
        answer.insert(row[0].string_value());
      }
      const std::string sql =
          "SELECT * FROM " + name + " WHERE " + where + " LIMIT 3";
      auto got = ql.Execute("u", sql);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      EXPECT_EQ(got->frame.num_rows(), std::min<size_t>(3, answer.size()));
      for (const exec::Row& row : got->frame.rows()) {
        EXPECT_EQ(answer.count(row[0].string_value()), 1u) << sql;
        const auto& t = row[4].trajectory_value();
        ASSERT_NE(t, nullptr) << sql;
        EXPECT_FALSE(t->summary_only()) << sql;
        EXPECT_TRUE(*t == *by_tid[row[0].string_value()]) << sql;
      }
    }
  }
}

/// A summary that claims no points still passes refinement (its MBR and
/// times are the list's), so only the survivors' full decode can catch it:
/// a query that keeps item fails with Corruption instead of returning
/// empty trajectories.
TEST_P(EngineScanParityTest, TrajectorySummaryThatClaimsNoPointsIsCorruption) {
  workload::TrajOptions traj_options;
  traj_options.num_trajectories = 20;
  traj_options.points_per_traj = 6;
  traj_options.seed = 12;
  auto table = core::MakePluginTable("trajectory", "u", "liars");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(engine_->CreateTable(*table).ok());
  std::vector<exec::Row> rows;
  for (const auto& trip : workload::GenerateTrajectories(traj_options)) {
    auto t = std::make_shared<const traj::Trajectory>(trip);
    rows.push_back({exec::Value::String("trip_" + std::to_string(rows.size())),
                    exec::Value::String(t->oid()),
                    exec::Value::Timestamp(t->start_time()),
                    exec::Value::Timestamp(t->end_time()),
                    exec::Value::TrajectoryVal(t)});
  }
  ASSERT_TRUE(engine_->InsertBatch("u", "liars", rows).ok());
  ASSERT_TRUE(engine_->Finalize().ok());
  const std::string where =
      " FROM liars WHERE item WITHIN st_makeMBR(115.0, 39.0, 118.0, 41.0)";
  sql::JustQL ql(engine_.get());
  auto honest = ql.Execute("u", "SELECT *" + where);
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  ASSERT_GT(honest->frame.num_rows(), 0u);

  // Rewrite every stored copy of every row: the item cell's point count
  // (the varint after ['S'] and 48 fixed bytes) becomes 0.
  auto meta = engine_->DescribeTable("u", "liars");
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  size_t rewritten = 0;
  for (size_t slot = 0; slot < meta->indexes.size(); ++slot) {
    auto stored = just::testing::ScanRows(
        *engine_->cluster(),
        core::StTable::SlotRanges(meta->table_id, slot, /*num_shards=*/4));
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    for (const auto& [key, value] : *stored) {
      std::vector<std::string> cells;
      const char* p = value.data();
      const char* limit = p + value.size();
      std::string_view cell;
      while (p < limit && GetLengthPrefixed(&p, limit, &cell)) {
        cells.emplace_back(cell);
      }
      ASSERT_EQ(cells.size(), 5u);
      auto decoded = compress::DecodeCell(cells[4]);
      ASSERT_TRUE(decoded.ok());
      const std::string_view raw(*decoded);
      ASSERT_TRUE(raw.size() > 49 && raw[0] == 'S');
      const char* q = raw.data() + 49;
      const char* end = raw.data() + raw.size();
      uint64_t count;
      ASSERT_TRUE(GetVarint64(&q, end, &count));
      ASSERT_GT(count, 0u);
      std::string lie(raw.substr(0, 49));
      PutVarint64(&lie, 0);
      lie.append(q, end);
      cells[4] = compress::EncodeCell(*compress::NoneCodec(), lie);
      std::string bad;
      for (const std::string& c : cells) PutLengthPrefixed(&bad, c);
      ASSERT_TRUE(PutKey(*engine_->cluster(), key, bad).ok());
      ++rewritten;
    }
  }
  EXPECT_EQ(rewritten, meta->indexes.size() * rows.size());

  for (const char* select : {"SELECT *", "SELECT tid, item"}) {
    auto got = ql.Execute("u", select + where);
    EXPECT_TRUE(got.status().IsCorruption())
        << select << ": " << got.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, EngineScanParityTest,
                         ::testing::Values("inproc", "socket"),
                         [](const auto& info) { return info.param; });

/// A connection torn mid-stream during a multi-page streamed scan: the
/// server's scan resumes just past the last (range, key) its decoder
/// accepted, so the query neither drops nor duplicates a row.
class EngineScanCutTest : public EngineScanParityTest {
 protected:
  /// The OR leaves no window or index bound: a full scan.
  static constexpr const char* kFullScanSql =
      "SELECT * FROM orders WHERE (time < '2018-10-20' OR city = 'none') "
      "AND fid != 'order_0005'";

  /// Loads `rows` orders; `sql` must run on the `access` path.
  void Load(int rows, const std::string& sql, const std::string& access) {
    Status loaded =
        just::testing::LoadScanParityTables(engine_.get(), "u", rows);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    auto explain = sql::JustQL(engine_.get()).Execute("u", "EXPLAIN " + sql);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    ASSERT_NE(explain->message.find("access: " + access), std::string::npos)
        << explain->message;
  }

  /// Cuts server 0's connection after `cut_bytes` of answers to `sql`, and
  /// requires the oracle's rows (more than a quarter of `rows`) and a
  /// retry.
  void ExpectCutScanMatchesOracle(int rows, const std::string& sql,
                                  int64_t cut_bytes) {
    auto want = just::testing::OracleSelect(engine_.get(), "u", sql);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    obs::Counter* retries =
        obs::Registry::Global().GetCounter("just_cluster_retries_total");
    const uint64_t retries_before = retries->Value();
    proxies_[0]->CutAfterUpstreamBytes(cut_bytes);
    sql::JustQL ql(engine_.get());
    auto got = ql.Execute("u", sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GT(retries->Value(), retries_before)
        << "the cut should have forced a retry";
    std::vector<std::string> want_fids, got_fids;
    for (const auto& row : want->rows()) want_fids.push_back(row[0].ToString());
    for (const auto& row : got->frame.rows()) {
      got_fids.push_back(row[0].ToString());
    }
    std::sort(want_fids.begin(), want_fids.end());
    std::sort(got_fids.begin(), got_fids.end());
    ASSERT_GT(want_fids.size(), static_cast<size_t>(rows / 4));
    EXPECT_EQ(got_fids, want_fids);
  }
};

TEST_P(EngineScanCutTest, CutMidStreamNeitherDropsNorDuplicates) {
  // Enough rows for several 512-row wire pages per server; the cut lands
  // past the first ~46 KiB page, so the retry has rows to resume after.
  Load(4000, kFullScanSql, "full_scan");
  ExpectCutScanMatchesOracle(4000, kFullScanSql, 64 * 1024);
}

/// The time-only path reads only the periods before its cutoff, so its
/// answer is smaller than a full scan's: the cut lands halfway into the
/// bytes server 0 sends for it uncut.
TEST_P(EngineScanCutTest, CutMidTemporalRangeNeitherDropsNorDuplicates) {
  const std::string sql =
      "SELECT * FROM orders WHERE time < '2018-10-20' AND "
      "fid != 'order_0005'";
  Load(4000, sql, "temporal_range");
  sql::JustQL ql(engine_.get());
  const int64_t before = proxies_[0]->upstream_bytes();
  ASSERT_TRUE(ql.Execute("u", sql).ok());
  const int64_t uncut = proxies_[0]->upstream_bytes() - before;
  ASSERT_GT(uncut, 0);
  ExpectCutScanMatchesOracle(4000, sql, uncut / 2);
}

INSTANTIATE_TEST_SUITE_P(Socket, EngineScanCutTest,
                         ::testing::Values("socket"),
                         [](const auto& info) { return info.param; });

/// The same cut on one server of four: the calling thread's page loop has
/// the other three mid-stream when server 0's page tears, and server 0
/// finishes through the retry path.
class EngineScanCutFourServersTest : public EngineScanCutTest {
 protected:
  int NumServers() const override { return 4; }
};

TEST_P(EngineScanCutFourServersTest, CutOnOneServerWhileOthersStream) {
  Load(8000, kFullScanSql, "full_scan");
  ExpectCutScanMatchesOracle(8000, kFullScanSql, 64 * 1024);
}

INSTANTIATE_TEST_SUITE_P(Socket, EngineScanCutFourServersTest,
                         ::testing::Values("socket"),
                         [](const auto& info) { return info.param; });

TEST(RegionClusterOpenTest, RejectsZeroServers) {
  ClusterOptions opts;
  opts.dir = "/tmp/never";
  opts.num_servers = 0;
  EXPECT_FALSE(RegionCluster::Open(opts).ok());
}

TEST(RegionClusterOpenTest, RejectsUnreachableServerAddr) {
  ClusterOptions opts;
  // Nothing listens here; Open must fail with a transient status rather
  // than hang or crash.
  opts.server_addrs = {"127.0.0.1:1"};
  auto cluster = RegionCluster::Open(opts);
  ASSERT_FALSE(cluster.ok());
  EXPECT_TRUE(cluster.status().IsTransient());
}

TEST(RegionClusterOpenTest, RejectsMalformedServerAddr) {
  ClusterOptions opts;
  opts.server_addrs = {"no-port-here"};
  EXPECT_FALSE(RegionCluster::Open(opts).ok());
}

}  // namespace
}  // namespace just::cluster
