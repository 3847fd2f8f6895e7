// Streaming ingestion + continuous queries + multi-tenant quotas
// (src/stream), end to end through the engine and JustQL:
//  - token-bucket fairness under a fake clock (an at-limit tenant is never
//    starved by an over-limit one — the quota edge case the issue pins);
//  - a geofence alert CQ fires for a matching INSERT STREAM row with ZERO
//    rows scanned (the notification path never touches storage);
//  - sliding-window aggregates fold per-group counts and retire old buckets;
//  - quotas persist in the catalog across an engine reopen;
//  - DROP TABLE tears standing queries down with the table.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "sql/analyzer.h"
#include "sql/executor.h"
#include "sql/justql.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "stream/continuous_query.h"
#include "stream/quota.h"
#include "test_util.h"

namespace just::stream {
namespace {

using just::testing::TempDir;

// --- QuotaManager unit tests (fake clock) ---

class FakeClock {
 public:
  uint64_t Now() const { return now_ns_; }
  void AdvanceMs(uint64_t ms) { now_ns_ += ms * 1000000ull; }

  QuotaManager::ClockFn fn() {
    return [this] { return Now(); };
  }

 private:
  uint64_t now_ns_ = 1;
};

meta::TenantQuotaConfig WriteQuota(uint64_t rps, uint64_t burst = 0) {
  meta::TenantQuotaConfig q;
  q.write_rows_per_sec = rps;
  q.write_burst_rows = burst;
  return q;
}

TEST(QuotaManagerTest, AdmitsUnlimitedTenantAndCounts) {
  QuotaManager quota;
  EXPECT_TRUE(quota.AdmitWrite("free", 1000000).ok());
  EXPECT_TRUE(quota.AdmitScan("free").ok());
  quota.ChargeScanBytes("free", 4096);
  auto counters = quota.GetCounters("free");
  EXPECT_EQ(counters.write_rows_admitted, 1000000u);
  EXPECT_EQ(counters.scan_bytes_charged, 4096u);
  EXPECT_EQ(counters.write_sheds, 0u);
}

TEST(QuotaManagerTest, ShedsOverBurstAndRefills) {
  FakeClock clock;
  QuotaManager quota(clock.fn());
  quota.SetQuota("t", WriteQuota(/*rps=*/100));  // burst defaults to rate
  EXPECT_TRUE(quota.AdmitWrite("t", 100).ok());  // drains the full burst
  Status shed = quota.AdmitWrite("t", 1);
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  // Not transient: cluster retry loops must pass sheds straight through.
  EXPECT_FALSE(shed.IsTransient());
  clock.AdvanceMs(500);  // 100 rows/s * 0.5s = 50 tokens back
  EXPECT_TRUE(quota.AdmitWrite("t", 50).ok());
  EXPECT_FALSE(quota.AdmitWrite("t", 1).ok());
  auto counters = quota.GetCounters("t");
  EXPECT_EQ(counters.write_rows_admitted, 150u);
  EXPECT_EQ(counters.write_sheds, 2u);
}

// The fairness regression the issue pins: a tenant running exactly at its
// configured rate must be admitted on every tick, no matter how hard a
// neighbouring tenant floods past its own limit. Isolation comes from the
// buckets never sharing tokens.
TEST(QuotaManagerTest, AtLimitTenantNeverStarvedByOverLimitTenant) {
  FakeClock clock;
  QuotaManager quota(clock.fn());
  quota.SetQuota("steady", WriteQuota(/*rps=*/100));
  quota.SetQuota("flood", WriteQuota(/*rps=*/100));
  uint64_t steady_admits = 0;
  uint64_t flood_sheds = 0;
  // Drain both initial bursts so the loop below measures refill only.
  ASSERT_TRUE(quota.AdmitWrite("steady", 100).ok());
  ASSERT_TRUE(quota.AdmitWrite("flood", 100).ok());
  for (int tick = 0; tick < 200; ++tick) {
    clock.AdvanceMs(100);  // 10 tokens refill per tick at 100 rows/s
    // steady asks for exactly its refill; flood asks for 10x its refill.
    Status st = quota.AdmitWrite("steady", 10);
    EXPECT_TRUE(st.ok()) << "starved at tick " << tick << ": "
                         << st.ToString();
    if (st.ok()) ++steady_admits;
    if (!quota.AdmitWrite("flood", 100).ok()) ++flood_sheds;
  }
  EXPECT_EQ(steady_admits, 200u);  // never starved
  EXPECT_GT(flood_sheds, 150u);    // the flooder is the one shedding
  EXPECT_EQ(quota.GetCounters("steady").write_sheds, 0u);
  EXPECT_GT(quota.GetCounters("flood").write_sheds, 0u);
}

TEST(QuotaManagerTest, ScanQuotaIsPostPaid) {
  FakeClock clock;
  QuotaManager quota(clock.fn());
  meta::TenantQuotaConfig q;
  q.scan_bytes_per_sec = 1000;
  quota.SetQuota("t", q);
  // First scan admits (bucket full) even though it will overshoot.
  EXPECT_TRUE(quota.AdmitScan("t").ok());
  quota.ChargeScanBytes("t", 50000);  // way past the burst: bucket goes negative
  Status st = quota.AdmitScan("t");
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_EQ(quota.GetCounters("t").scan_sheds, 1u);
  // Debt pays off at the refill rate: 49s is not enough, 50s is.
  clock.AdvanceMs(49000);
  EXPECT_FALSE(quota.AdmitScan("t").ok());
  clock.AdvanceMs(1500);
  EXPECT_TRUE(quota.AdmitScan("t").ok());
}

TEST(QuotaManagerTest, DefaultQuotaAppliesAndExplicitWins) {
  FakeClock clock;
  QuotaManager quota(clock.fn());
  quota.SetDefaultQuota(WriteQuota(/*rps=*/10));
  quota.SetQuota("vip", WriteQuota(/*rps=*/1000));
  EXPECT_FALSE(quota.AdmitWrite("anon", 11).ok());  // default caps at 10
  EXPECT_TRUE(quota.AdmitWrite("vip", 500).ok());   // explicit quota wins
  meta::TenantQuotaConfig out;
  EXPECT_TRUE(quota.GetQuota("anon", &out));
  EXPECT_EQ(out.write_rows_per_sec, 10u);
  EXPECT_TRUE(quota.GetQuota("vip", &out));
  EXPECT_EQ(out.write_rows_per_sec, 1000u);
}

// --- engine + JustQL integration ---

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("stream");
    Open();
  }

  void Open() {
    core::EngineOptions options;
    options.data_dir = dir_->path();
    options.num_servers = 2;
    options.num_shards = 4;
    auto engine = core::JustEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
    ql_ = std::make_unique<sql::JustQL>(engine_.get());
  }

  void Reopen() {
    ql_.reset();
    engine_.reset();
    Open();
  }

  Result<sql::QueryResult> Run(const std::string& sql) {
    return ql_->Execute("tester", sql);
  }

  void MustRun(const std::string& sql) {
    auto r = Run(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  void CreateVehicles() {
    MustRun(
        "CREATE TABLE vehicles (fid string:primary key, district string, "
        "speed double, time date, geom point:srid=4326)");
  }

  /// INSERT [STREAM] one vehicle row via SQL. `time` is a date literal.
  std::string VehicleValues(const std::string& fid,
                            const std::string& district, double speed,
                            const std::string& time, double x, double y) {
    return "('" + fid + "', '" + district + "', " + std::to_string(speed) +
           ", '" + time + "', st_makePoint(" + std::to_string(x) + ", " +
           std::to_string(y) + "))";
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<core::JustEngine> engine_;
  std::unique_ptr<sql::JustQL> ql_;
};

// The issue's acceptance test: a registered geofence CQ fires for a
// matching streamed insert, and the notification path scans zero rows.
TEST_F(StreamTest, GeofenceAlertFiresWithZeroRowsScanned) {
  CreateVehicles();
  MustRun(
      "CREATE CONTINUOUS QUERY downtown ON vehicles "
      "WHERE geom WITHIN st_makeMBR(116.2, 39.8, 116.6, 40.0)");
  const uint64_t scanned_before = obs::Registry::Global().GetSnapshot().counter(
      "just_query_rows_scanned_total");
  // One row inside the fence, one outside.
  MustRun("INSERT STREAM INTO vehicles VALUES " +
          VehicleValues("v1", "chaoyang", 42.0, "2018-10-01 10:00:00", 116.4,
                        39.9) +
          ", " +
          VehicleValues("v2", "suburb", 42.0, "2018-10-01 10:00:00", 120.0,
                        30.0));
  const uint64_t scanned_after = obs::Registry::Global().GetSnapshot().counter(
      "just_query_rows_scanned_total");
  EXPECT_EQ(scanned_after, scanned_before)
      << "continuous-query matching must not scan storage";
  auto taken = engine_->stream_hub()->TakeNotifications("tester", "downtown");
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  ASSERT_EQ(taken->size(), 1u);
  EXPECT_EQ((*taken)[0].query, "downtown");
  EXPECT_EQ((*taken)[0].table, "vehicles");
  EXPECT_EQ((*taken)[0].fid, "v1");
  EXPECT_GT((*taken)[0].timestamp_ms, 0);  // row event time carried through
  EXPECT_EQ((*taken)[0].seq, 1u);
  // The ring drained: a second take returns nothing.
  taken = engine_->stream_hub()->TakeNotifications("tester", "downtown");
  ASSERT_TRUE(taken.ok());
  EXPECT_TRUE(taken->empty());
}

TEST_F(StreamTest, AlertPredicateOnAttributes) {
  CreateVehicles();
  MustRun("CREATE CONTINUOUS QUERY speeders ON vehicles WHERE speed > 80");
  MustRun("INSERT STREAM INTO vehicles VALUES " +
          VehicleValues("slow", "a", 30.0, "2018-10-01 10:00:00", 116, 39) +
          ", " +
          VehicleValues("fast1", "a", 95.0, "2018-10-01 10:00:01", 116, 39) +
          ", " +
          VehicleValues("fast2", "b", 120.0, "2018-10-01 10:00:02", 116, 39));
  auto taken = engine_->stream_hub()->TakeNotifications("tester", "speeders");
  ASSERT_TRUE(taken.ok());
  ASSERT_EQ(taken->size(), 2u);
  EXPECT_EQ((*taken)[0].fid, "fast1");
  EXPECT_EQ((*taken)[1].fid, "fast2");
}

// Plain INSERT (non-stream) feeds standing queries too: a CQ watches the
// table, not one ingest endpoint.
TEST_F(StreamTest, PlainInsertAlsoFeedsContinuousQueries) {
  CreateVehicles();
  MustRun("CREATE CONTINUOUS QUERY all_rows ON vehicles");
  MustRun("INSERT INTO vehicles VALUES " +
          VehicleValues("v1", "a", 10.0, "2018-10-01 10:00:00", 116, 39));
  auto taken = engine_->stream_hub()->TakeNotifications("tester", "all_rows");
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken->size(), 1u);
}

TEST_F(StreamTest, WindowAggregateCountsPerGroupAndRetires) {
  CreateVehicles();
  MustRun(
      "CREATE CONTINUOUS QUERY heat ON vehicles WHERE speed > 0 "
      "GROUP BY district WINDOW 10 seconds");
  // Three in chaoyang, one in haidian, all within the first 10 seconds.
  MustRun("INSERT STREAM INTO vehicles VALUES " +
          VehicleValues("a", "chaoyang", 1, "2018-10-01 10:00:01", 116, 39) +
          ", " +
          VehicleValues("b", "chaoyang", 1, "2018-10-01 10:00:02", 116, 39) +
          ", " +
          VehicleValues("c", "haidian", 1, "2018-10-01 10:00:02", 116, 39) +
          ", " +
          VehicleValues("d", "chaoyang", 1, "2018-10-01 10:00:03", 116, 39));
  auto snap = engine_->stream_hub()->WindowSnapshot("tester", "heat");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_EQ(snap->size(), 2u);  // sorted by group
  EXPECT_EQ((*snap)[0].group, "chaoyang");
  EXPECT_EQ((*snap)[0].count, 3u);
  EXPECT_EQ((*snap)[1].group, "haidian");
  EXPECT_EQ((*snap)[1].count, 1u);
  // An event far past the window advances the watermark; old buckets retire.
  MustRun("INSERT STREAM INTO vehicles VALUES " +
          VehicleValues("e", "haidian", 1, "2018-10-01 10:01:40", 116, 39));
  snap = engine_->stream_hub()->WindowSnapshot("tester", "heat");
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->size(), 1u);
  EXPECT_EQ((*snap)[0].group, "haidian");
  EXPECT_EQ((*snap)[0].count, 1u);
}

TEST_F(StreamTest, ShowAndDropContinuousQueries) {
  CreateVehicles();
  MustRun("CREATE CONTINUOUS QUERY a ON vehicles WHERE speed > 80");
  MustRun(
      "CREATE CONTINUOUS QUERY b ON vehicles GROUP BY district "
      "WINDOW 5 minutes");
  auto show = Run("SHOW CONTINUOUS QUERIES");
  ASSERT_TRUE(show.ok());
  ASSERT_EQ(show->frame.num_rows(), 2u);
  const auto& row0 = show->frame.rows()[0];
  EXPECT_EQ(row0[0].string_value(), "a");
  EXPECT_EQ(row0[2].string_value(), "alert");
  const auto& row1 = show->frame.rows()[1];
  EXPECT_EQ(row1[0].string_value(), "b");
  EXPECT_EQ(row1[2].string_value(), "window");
  EXPECT_EQ(row1[5].int_value(), 5 * 60 * 1000);
  // Duplicate name refuses; unknown drop refuses.
  EXPECT_FALSE(Run("CREATE CONTINUOUS QUERY a ON vehicles").ok());
  EXPECT_FALSE(Run("DROP CONTINUOUS QUERY nope").ok());
  MustRun("DROP CONTINUOUS QUERY a");
  show = Run("SHOW CONTINUOUS QUERIES");
  ASSERT_TRUE(show.ok());
  EXPECT_EQ(show->frame.num_rows(), 1u);
}

TEST_F(StreamTest, DropTableDropsItsContinuousQueries) {
  CreateVehicles();
  MustRun("CREATE CONTINUOUS QUERY watcher ON vehicles");
  EXPECT_EQ(engine_->stream_hub()->NumQueries(), 1u);
  MustRun("DROP TABLE vehicles");
  EXPECT_EQ(engine_->stream_hub()->NumQueries(), 0u);
  auto show = Run("SHOW CONTINUOUS QUERIES");
  ASSERT_TRUE(show.ok());
  EXPECT_EQ(show->frame.num_rows(), 0u);
}

TEST_F(StreamTest, ContinuousQueryValidatesTableAndColumns) {
  CreateVehicles();
  EXPECT_FALSE(Run("CREATE CONTINUOUS QUERY q ON no_such_table").ok());
  EXPECT_FALSE(
      Run("CREATE CONTINUOUS QUERY q ON vehicles GROUP BY nope WINDOW 1 "
          "minute")
          .ok());
  // GROUP BY without WINDOW is a parse error.
  EXPECT_FALSE(
      Run("CREATE CONTINUOUS QUERY q ON vehicles GROUP BY district").ok());
}

TEST_F(StreamTest, WriteQuotaShedsStreamInsertAndPersists) {
  CreateVehicles();
  meta::TenantQuotaConfig q;
  q.write_rows_per_sec = 2;
  q.write_burst_rows = 2;
  ASSERT_TRUE(engine_->SetTenantQuota("tester", q).ok());
  // Burst of 2 admits exactly 2 rows; the third sheds.
  MustRun("INSERT STREAM INTO vehicles VALUES " +
          VehicleValues("a", "x", 1, "2018-10-01 10:00:00", 116, 39) + ", " +
          VehicleValues("b", "x", 1, "2018-10-01 10:00:01", 116, 39));
  auto shed = Run("INSERT STREAM INTO vehicles VALUES " +
                  VehicleValues("c", "x", 1, "2018-10-01 10:00:02", 116, 39));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted())
      << shed.status().ToString();
  auto counters = engine_->quota_manager()->GetCounters("tester");
  EXPECT_EQ(counters.write_rows_admitted, 2u);
  EXPECT_EQ(counters.write_sheds, 1u);
  // Tenant-labeled metrics landed in the registry.
  auto snap = obs::Registry::Global().GetSnapshot();
  EXPECT_GE(snap.counter("just_tenant_write_shed_total{tenant=\"tester\"}"),
            1u);
  // The quota survives a full engine reopen via the catalog.
  Reopen();
  meta::TenantQuotaConfig loaded;
  ASSERT_TRUE(engine_->quota_manager()->GetQuota("tester", &loaded));
  EXPECT_EQ(loaded.write_rows_per_sec, 2u);
  EXPECT_EQ(loaded.write_burst_rows, 2u);
}

TEST_F(StreamTest, ScanQuotaShedsAdHocQueriesWhenInDebt) {
  CreateVehicles();
  for (int i = 0; i < 50; ++i) {
    MustRun("INSERT INTO vehicles VALUES " +
            VehicleValues("v" + std::to_string(i), "x", i,
                          "2018-10-01 10:00:00", 116.4, 39.9));
  }
  ASSERT_TRUE(engine_->Finalize().ok());
  // A tiny scan budget: the first query admits (post-paid) and overdraws;
  // the next one sheds until the debt refills.
  meta::TenantQuotaConfig q;
  q.scan_bytes_per_sec = 1;
  q.scan_burst_bytes = 1;
  ASSERT_TRUE(engine_->SetTenantQuota("tester", q).ok());
  auto first = Run("SELECT fid FROM vehicles WHERE speed >= 0");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->frame.num_rows(), 50u);
  auto counters = engine_->quota_manager()->GetCounters("tester");
  EXPECT_GT(counters.scan_bytes_charged, 0u);
  auto second = Run("SELECT fid FROM vehicles WHERE speed >= 0");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourceExhausted())
      << second.status().ToString();
  EXPECT_GE(engine_->quota_manager()->GetCounters("tester").scan_sheds, 1u);
}

// Every access path charges the tenant exactly the bytes its scan read, and
// a SQL caller's QueryStats sees those same bytes.
TEST_F(StreamTest, ScanQuotaChargesTheBytesEachAccessPathReports) {
  CreateVehicles();
  for (int i = 0; i < 50; ++i) {
    MustRun("INSERT INTO vehicles VALUES " +
            VehicleValues("v" + std::to_string(i), "d" + std::to_string(i % 5),
                          i, "2018-10-01 10:00:00", 116.0 + i * 0.01,
                          39.5 + i * 0.01));
  }
  MustRun("CREATE INDEX idx_district ON vehicles (district)");
  ASSERT_TRUE(engine_->Finalize().ok());
  const struct {
    const char* access;
    const char* where;
  } kPaths[] = {
      {"full_scan", "speed >= 0"},
      {"spatial_range", "geom WITHIN st_makeMBR(116.0, 39.5, 116.3, 39.8)"},
      {"st_range",
       "geom WITHIN st_makeMBR(116.0, 39.5, 116.3, 39.8) AND time BETWEEN "
       "'2018-10-01 00:00:00' AND '2018-10-02 00:00:00'"},
      {"knn", "geom IN st_KNN(st_makePoint(116.2, 39.7), 5)"},
      {"secondary_index", "district = 'd3'"},
  };
  for (const auto& path : kPaths) {
    const std::string sql =
        std::string("SELECT fid FROM vehicles WHERE ") + path.where;
    SCOPED_TRACE(sql);
    auto plan_text = ql_->ExplainSelect("tester", sql);
    ASSERT_TRUE(plan_text.ok());
    EXPECT_NE(plan_text->find(std::string("access: ") + path.access),
              std::string::npos)
        << *plan_text;

    auto stmt = sql::ParseStatement(sql);
    ASSERT_TRUE(stmt.ok());
    sql::Analyzer analyzer(engine_.get(), "tester");
    auto plan = analyzer.Analyze(*stmt->select);
    ASSERT_TRUE(plan.ok());
    auto optimized = sql::Optimize(std::move(*plan));
    ASSERT_TRUE(optimized.ok());
    const uint64_t charged_before =
        engine_->quota_manager()->GetCounters("tester").scan_bytes_charged;
    core::QueryStats stats;
    sql::Executor executor(engine_.get(), "tester");
    auto frame = executor.Execute(**optimized, &stats);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_GT(frame->num_rows(), 0u);
    const uint64_t charged =
        engine_->quota_manager()->GetCounters("tester").scan_bytes_charged -
        charged_before;
    EXPECT_GT(stats.bytes_scanned, 0u);
    EXPECT_EQ(charged, stats.bytes_scanned);
  }
}

// Per-query CQ metrics: matches/notifications counted under a query label.
TEST_F(StreamTest, ContinuousQueryMetricsLand) {
  CreateVehicles();
  MustRun("CREATE CONTINUOUS QUERY m ON vehicles WHERE speed > 50");
  MustRun("INSERT STREAM INTO vehicles VALUES " +
          VehicleValues("a", "x", 60, "2018-10-01 10:00:00", 116, 39) + ", " +
          VehicleValues("b", "x", 10, "2018-10-01 10:00:01", 116, 39));
  auto snap = obs::Registry::Global().GetSnapshot();
  EXPECT_GE(snap.counter("just_cq_matches_total{query=\"m\"}"), 1u);
  EXPECT_GE(snap.counter("just_cq_eval_rows_total"), 2u);
}

// --- parser coverage for the new statements ---

TEST(StreamParserTest, CreateContinuousQueryForms) {
  auto stmt = sql::ParseStatement(
      "CREATE CONTINUOUS QUERY cq ON t WHERE speed > 80");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, sql::Statement::Kind::kCreateContinuousQuery);
  EXPECT_EQ(stmt->create_continuous_query->name, "cq");
  EXPECT_EQ(stmt->create_continuous_query->table, "t");
  EXPECT_NE(stmt->create_continuous_query->where, nullptr);
  EXPECT_EQ(stmt->create_continuous_query->window_ms, 0);

  stmt = sql::ParseStatement(
      "CREATE CONTINUOUS QUERY w ON t GROUP BY d WINDOW 90 seconds");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->create_continuous_query->group_by, "d");
  EXPECT_EQ(stmt->create_continuous_query->window_ms, 90000);

  stmt = sql::ParseStatement("CREATE CONTINUOUS QUERY w ON t WINDOW 2 hours");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->create_continuous_query->window_ms, 2 * 3600 * 1000);

  stmt = sql::ParseStatement("CREATE CONTINUOUS QUERY w ON t WINDOW 250 ms");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->create_continuous_query->window_ms, 250);

  EXPECT_FALSE(sql::ParseStatement("CREATE CONTINUOUS QUERY w ON t "
                                   "WINDOW 5 fortnights")
                   .ok());
  EXPECT_FALSE(sql::ParseStatement("CREATE CONTINUOUS QUERY w ON t "
                                   "WINDOW 0 seconds")
                   .ok());
  EXPECT_FALSE(
      sql::ParseStatement("CREATE CONTINUOUS QUERY w ON t GROUP BY d").ok());
}

TEST(StreamParserTest, InsertStreamAndShowAndDrop) {
  auto stmt =
      sql::ParseStatement("INSERT STREAM INTO t VALUES (1, 'a'), (2, 'b')");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, sql::Statement::Kind::kInsert);
  EXPECT_TRUE(stmt->insert->stream);
  EXPECT_EQ(stmt->insert->rows.size(), 2u);

  stmt = sql::ParseStatement("INSERT INTO t VALUES (1, 'a')");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(stmt->insert->stream);

  stmt = sql::ParseStatement("SHOW CONTINUOUS QUERIES");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->show->continuous_queries);

  stmt = sql::ParseStatement("DROP CONTINUOUS QUERY cq");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, sql::Statement::Kind::kDropContinuousQuery);
  EXPECT_EQ(stmt->drop_continuous_query->name, "cq");
}

}  // namespace
}  // namespace just::stream
