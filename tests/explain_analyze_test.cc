// The EXPLAIN / EXPLAIN ANALYZE surface and its acceptance criterion: the
// per-operator counters printed in the annotated plan must equal the global
// registry's snapshot delta across the same query — both sides are fed by
// the same storage-layer call sites, so any drift is an attribution bug.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "core/engine.h"
#include "obs/http_admin.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/justql.h"
#include "test_util.h"

namespace just::sql {
namespace {

using just::testing::TempDir;

// Sums every `<token><number>` occurrence in `text` (e.g. token
// " bytes_read=" over all span lines of an EXPLAIN ANALYZE rendering).
uint64_t SumToken(const std::string& text, const std::string& token) {
  uint64_t total = 0;
  size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    pos += token.size();
    uint64_t value = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      value = value * 10 + static_cast<uint64_t>(text[pos] - '0');
      ++pos;
    }
    total += value;
  }
  return total;
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("explain");
    core::EngineOptions options;
    options.data_dir = dir_->path();
    options.num_servers = 2;
    options.num_shards = 4;
    // A tiny block cache forces real block reads so bytes_read is non-zero.
    options.store.block_cache_bytes = 64 << 10;
    // Capture every statement in the slow-query log, silently.
    options.slow_query_threshold_us = 0;
    options.slow_query_log_to_stderr = false;
    auto engine = core::JustEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(engine).value();

    meta::TableMeta table;
    table.user = "u";
    table.name = "orders";
    table.columns = {
        {"fid", exec::DataType::kString, true, "", ""},
        {"time", exec::DataType::kTimestamp, false, "", ""},
        {"geom", exec::DataType::kGeometry, false, "", ""},
    };
    table.indexes = {{curve::IndexType::kZ2, kMillisPerDay},
                     {curve::IndexType::kZ2T, kMillisPerDay}};
    ASSERT_TRUE(engine_->CreateTable(table).ok());

    TimestampMs base = ParseTimestamp("2018-10-01").value();
    Rng rng(17);
    for (int i = 0; i < 500; ++i) {
      exec::Row row = {
          exec::Value::String("o" + std::to_string(i)),
          exec::Value::Timestamp(base + (i % (3 * 24)) * kMillisPerHour),
          exec::Value::GeometryVal(geo::Geometry::MakePoint(
              {116.0 + rng.NextDouble(), 39.5 + rng.NextDouble()})),
      };
      ASSERT_TRUE(engine_->Insert("u", "orders", row).ok());
    }
    ASSERT_TRUE(engine_->Finalize().ok());
    ql_ = std::make_unique<JustQL>(engine_.get());
  }

  Result<QueryResult> Run(const std::string& sql) {
    return ql_->Execute("u", sql);
  }

  static constexpr const char* kStQuery =
      "SELECT fid FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.0, 39.5, 116.5, 40.0) AND "
      "time BETWEEN '2018-10-01' AND '2018-10-02'";

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<core::JustEngine> engine_;
  std::unique_ptr<JustQL> ql_;
};

TEST_F(ExplainAnalyzeTest, PlainExplainPrintsOptimizedPlan) {
  auto r = Run(std::string("EXPLAIN ") + kStQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->frame.num_rows(), 0u);
  EXPECT_NE(r->message.find("=== Optimized Logical Plan ==="),
            std::string::npos);
  EXPECT_NE(r->message.find("Scan"), std::string::npos);
  // No execution happened: no trace rendering.
  EXPECT_EQ(r->message.find("time="), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, ExplainRejectsNonSelect) {
  EXPECT_FALSE(Run("EXPLAIN DROP TABLE orders").ok());
  EXPECT_FALSE(Run("EXPLAIN ANALYZE INSERT INTO orders VALUES ('x')").ok());
}

TEST_F(ExplainAnalyzeTest, AnalyzePrintsAnnotatedSpanTree) {
  auto r = Run(std::string("EXPLAIN ANALYZE ") + kStQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->frame.num_rows(), 0u);
  const std::string& msg = r->message;
  EXPECT_NE(msg.find("=== EXPLAIN ANALYZE ==="), std::string::npos);
  EXPECT_NE(msg.find("Query"), std::string::npos);
  EXPECT_NE(msg.find("Scan orders access=st_range"), std::string::npos);
  EXPECT_NE(msg.find("cluster.ParallelScan"), std::string::npos);
  EXPECT_NE(msg.find("time="), std::string::npos);
  // The root reports the rows the statement returned.
  EXPECT_NE(msg.find(" rows=" + std::to_string(r->frame.num_rows())),
            std::string::npos);
}

// In process a small Fig 12 scan runs on the calling thread, and the scan
// span says no helper took part. This one scans fewer than 8 rows, so on
// two servers it cannot spread however slow the build: the per-row
// progress check runs every 8th row, and by the time the caller starts
// the second server no index is left for a helper. Scans that did spread
// are counted on /metrics.
TEST_F(ExplainAnalyzeTest, AnalyzeShowsAnInProcessScanRanWithoutHelpers) {
  auto r = Run(
      "EXPLAIN ANALYZE SELECT fid FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.40, 39.90, 116.45, 39.95) AND "
      "time BETWEEN '2018-10-01' AND '2018-10-02'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& msg = r->message;
  ASSERT_LT(SumToken(msg, " rows_scanned="), 8u) << msg;
  const size_t scan = msg.find("cluster.ParallelScan");
  ASSERT_NE(scan, std::string::npos) << msg;
  const std::string line = msg.substr(scan, msg.find('\n', scan) - scan);
  EXPECT_NE(line.find(" helpers=0 "), std::string::npos) << line;

  obs::HttpAdminServer admin({});
  std::string body, ctype;
  ASSERT_EQ(admin.Route("GET", "/metrics", &body, &ctype), 200);
  EXPECT_NE(body.find("just_cluster_scan_spreads_total"), std::string::npos);
}

// The acceptance criterion: the counters EXPLAIN ANALYZE prints equal the
// registry delta across the same query.
TEST_F(ExplainAnalyzeTest, AnalyzeCountersMatchRegistryDelta) {
  auto& registry = obs::Registry::Global();
  obs::RegistrySnapshot before = registry.GetSnapshot();
  auto r = Run(std::string("EXPLAIN ANALYZE ") + kStQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  obs::RegistrySnapshot after = registry.GetSnapshot();
  const std::string& msg = r->message;

  auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };

  // Storage attribution: every SSTable read increments the store's IoStats
  // (surfaced through registry sources) and the active span at the same
  // call site.
  EXPECT_GT(delta("just_kv_bytes_read_total"), 0u);
  EXPECT_EQ(SumToken(msg, " bytes_read="), delta("just_kv_bytes_read_total"));
  EXPECT_EQ(SumToken(msg, " read_ops="), delta("just_kv_read_ops_total"));
  EXPECT_EQ(SumToken(msg, " cache_hits="),
            delta("just_kv_block_cache_hits_total"));
  EXPECT_EQ(SumToken(msg, " cache_misses="),
            delta("just_kv_block_cache_misses_total"));

  // Planner/refinement attribution.
  EXPECT_EQ(SumToken(msg, " rows_scanned="),
            delta("just_query_rows_scanned_total"));
  EXPECT_EQ(SumToken(msg, " rows_matched="),
            delta("just_query_rows_matched_total"));
  uint64_t ranges = delta("just_query_key_ranges_total");
  EXPECT_GT(ranges, 0u);
  // "ranges=" appears both as the ParallelScan attribute and as the scan
  // span's counter; check the printed value rather than the sum.
  EXPECT_NE(msg.find(" ranges=" + std::to_string(ranges)),
            std::string::npos);

  // The statement itself was counted and timed.
  EXPECT_EQ(delta("just_sql_statements_total"), 1u);
  EXPECT_EQ(after.histograms["just_sql_statement_us"].count -
                before.histograms["just_sql_statement_us"].count,
            1u);
}

// The refinement query reads the Z2T periods before its cutoff, tests time
// and its fid residual, and keeps geom: geom is a late column, decoded only
// for the rows that pass. EXPLAIN ANALYZE names it and counts those rows,
// and so does the registry.
TEST_F(ExplainAnalyzeTest, AnalyzeNamesLateColumnsAndCountsTheirRows) {
  auto& registry = obs::Registry::Global();
  obs::RegistrySnapshot before = registry.GetSnapshot();
  auto r = Run(
      "EXPLAIN ANALYZE SELECT * FROM orders WHERE time < '2018-10-02' AND "
      "fid != 'o3'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  obs::RegistrySnapshot after = registry.GetSnapshot();
  const std::string& msg = r->message;
  const uint64_t rows = r->frame.num_rows();
  ASSERT_GT(rows, 0u);
  ASSERT_LT(rows, 500u);
  EXPECT_NE(msg.find("Scan orders access=temporal_range late=geom"),
            std::string::npos)
      << msg;
  EXPECT_EQ(SumToken(msg, " late_rows="), rows) << msg;
  EXPECT_EQ(after.counter("just_query_late_rows_total") -
                before.counter("just_query_late_rows_total"),
            rows);
  // One day of the three: fewer rows than the table's are read.
  const uint64_t scanned = SumToken(msg, " rows_scanned=");
  EXPECT_GE(scanned, rows) << msg;
  EXPECT_LT(scanned, 500u) << msg;
}

// A trajectory query refines on each st_series cell's summary and decodes
// the GPS list of survivors only: EXPLAIN ANALYZE names item a late column
// and counts the survivors' decodes as late rows, and so does the registry.
TEST_F(ExplainAnalyzeTest, AnalyzeNamesSummaryReadTrajectoryColumnLate) {
  ASSERT_TRUE(Run("CREATE TABLE trips AS trajectory").ok());
  TimestampMs base = ParseTimestamp("2018-10-01").value();
  Rng rng(23);
  std::vector<exec::Row> rows;
  for (int i = 0; i < 200; ++i) {
    std::vector<traj::GpsPoint> points;
    const double lng = 116.0 + rng.NextDouble(), lat = 39.5 + rng.NextDouble();
    for (int p = 0; p < 8; ++p) {
      points.push_back({{lng + p * 0.001, lat + p * 0.0005},
                        base + i * kMillisPerHour + p * 60000});
    }
    auto t = std::make_shared<const traj::Trajectory>(
        "obj" + std::to_string(i), std::move(points));
    rows.push_back({exec::Value::String("t" + std::to_string(i)),
                    exec::Value::String(t->oid()),
                    exec::Value::Timestamp(t->start_time()),
                    exec::Value::Timestamp(t->end_time()),
                    exec::Value::TrajectoryVal(t)});
  }
  ASSERT_TRUE(engine_->InsertBatch("u", "trips", rows).ok());
  ASSERT_TRUE(engine_->Finalize().ok());

  auto& registry = obs::Registry::Global();
  obs::RegistrySnapshot before = registry.GetSnapshot();
  auto r = Run(
      "EXPLAIN ANALYZE SELECT item FROM trips WHERE item WITHIN "
      "st_makeMBR(116.0, 39.5, 116.4, 39.9)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  obs::RegistrySnapshot after = registry.GetSnapshot();
  const std::string& msg = r->message;
  const uint64_t rows_out = r->frame.num_rows();
  ASSERT_GT(rows_out, 0u);
  ASSERT_LT(rows_out, 200u);
  EXPECT_NE(msg.find("Scan trips access=spatial_range late=item"),
            std::string::npos)
      << msg;
  EXPECT_EQ(SumToken(msg, " late_rows="), rows_out) << msg;
  EXPECT_EQ(after.counter("just_query_late_rows_total") -
                before.counter("just_query_late_rows_total"),
            rows_out);
  EXPECT_GT(SumToken(msg, " rows_scanned="), rows_out) << msg;
  for (const exec::Row& row : r->frame.rows()) {
    const auto& t = row[0].trajectory_value();
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->points().size(), 8u);
  }
}

// The columnar path's EXPLAIN surface: per-stage batch counts plus the
// predicate-program evaluation mode and its specialized-vs-interpreted time.
TEST_F(ExplainAnalyzeTest, AnalyzeShowsBatchCountsAndEvalMode) {
  // fid != 'o1' is a residual conjunct with a specialized string kernel.
  auto r = Run(
      "EXPLAIN ANALYZE SELECT fid FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.0, 39.5, 116.5, 40.0) AND fid != 'o1'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& msg = r->message;
  EXPECT_GT(SumToken(msg, " batches="), 0u) << msg;
  EXPECT_NE(msg.find("eval_mode=specialized"), std::string::npos) << msg;

  // A function-call conjunct has no specialized kernel: the program runs it
  // through the interpreted fallback and reports the time there.
  auto r2 = Run(
      "EXPLAIN ANALYZE SELECT fid FROM orders WHERE "
      "st_distance(geom, st_makePoint(116.2, 39.8)) < 0.3");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  const std::string& msg2 = r2->message;
  EXPECT_NE(msg2.find("eval_mode=interpreted"), std::string::npos) << msg2;
  EXPECT_GT(SumToken(msg2, " eval_interpreted_us="), 0u) << msg2;
}

TEST_F(ExplainAnalyzeTest, SlowQueryLogCapturesStatements) {
  ASSERT_NE(engine_->slow_query_log(), nullptr);
  size_t before = engine_->slow_query_log()->size();
  auto r = Run(kStQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto entries = engine_->slow_query_log()->Entries();
  ASSERT_GT(entries.size(), before);
  const auto& entry = entries.back();
  EXPECT_EQ(entry.user, "u");
  EXPECT_EQ(entry.sql, kStQuery);
  EXPECT_EQ(entry.rows, r->frame.num_rows());
  EXPECT_GT(entry.rows_scanned, 0u);
  EXPECT_GT(entry.key_ranges, 0u);
}

TEST_F(ExplainAnalyzeTest, TracingLeavesNoResidue) {
  ASSERT_TRUE(Run(std::string("EXPLAIN ANALYZE ") + kStQuery).ok());
  // After the statement returns, the thread has no dangling current span;
  // plain queries must not crash or mis-attribute.
  EXPECT_EQ(obs::CurrentSpan(), nullptr);
  auto r = Run(kStQuery);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->frame.num_rows(), 0u);
}

}  // namespace
}  // namespace just::sql
