#ifndef JUST_TESTS_SCAN_PARITY_H_
#define JUST_TESTS_SCAN_PARITY_H_

// Shared fixture data for the scan-path parity suites (batch_parity_test's
// ExecutorParityTest in process, cluster_test's engine suite on both
// backends): tables that exercise every decode shape the streaming scan
// meets, the SQL inputs that drive them, and the executor-vs-oracle check.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time_util.h"
#include "core/engine.h"
#include "query_oracle.h"
#include "sql/analyzer.h"
#include "sql/executor.h"
#include "sql/justql.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "workload/generators.h"

namespace just::testing {

/// Creates and fills, for `user`:
///  - orders: 600 points with a `city` secondary index (Z2 / Z2T);
///  - shapes: points, linestrings and polygons (XZ2 / XZ2T) with NULL
///    cells and a gzip-compressed string column;
///  - trips: the trajectory plugin table (gzip st_series cells).
inline Status LoadScanParityTables(core::JustEngine* engine,
                                   const std::string& user,
                                   int num_orders = 600) {
  sql::JustQL ql(engine);
  JUST_RETURN_NOT_OK(
      ql.Execute(user,
                 "CREATE TABLE orders (fid string:primary key, city string, "
                 "time date, geom point:srid=4326) "
                 "USERDATA {'just.attr.indexes':'city'}")
          .status());
  workload::OrderOptions order_options;
  order_options.num_orders = num_orders;
  std::vector<exec::Row> rows;
  int i = 0;
  for (const auto& order : workload::GenerateOrders(order_options)) {
    rows.push_back(
        {exec::Value::String(order.fid),
         exec::Value::String("city" + std::to_string(i++ % 4)),
         exec::Value::Timestamp(order.time),
         exec::Value::GeometryVal(geo::Geometry::MakePoint(order.point))});
  }
  JUST_RETURN_NOT_OK(engine->InsertBatch(user, "orders", rows));

  meta::TableMeta shapes;
  shapes.user = user;
  shapes.name = "shapes";
  shapes.columns = {
      {"fid", exec::DataType::kString, true, "", ""},
      {"kind", exec::DataType::kString, false, "", ""},
      {"weight", exec::DataType::kDouble, false, "", ""},
      {"note", exec::DataType::kString, false, "", "gzip"},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "4326", ""},
  };
  shapes.indexes = {{curve::IndexType::kXz2, kMillisPerDay},
                    {curve::IndexType::kXz2T, kMillisPerDay}};
  JUST_RETURN_NOT_OK(engine->CreateTable(shapes));
  JUST_ASSIGN_OR_RETURN(TimestampMs base, ParseTimestamp("2018-10-01"));
  Rng rng(2024);
  rows.clear();
  for (int s = 0; s < 240; ++s) {
    const double lng = 116.2 + rng.NextDouble() * 0.4;
    const double lat = 39.7 + rng.NextDouble() * 0.4;
    geo::Geometry geom =
        s % 3 == 0 ? geo::Geometry::MakePoint({lng, lat})
        : s % 3 == 1
            ? geo::Geometry::MakeLineString(
                  {{lng, lat}, {lng + 0.01, lat + 0.004}, {lng + 0.02, lat}})
            : geo::Geometry::MakePolygon({{lng, lat},
                                          {lng + 0.006, lat},
                                          {lng + 0.006, lat + 0.006},
                                          {lng, lat + 0.006}});
    char fid[16];
    std::snprintf(fid, sizeof(fid), "shape_%04d", s);
    rows.push_back(
        {exec::Value::String(fid),
         exec::Value::String("k" + std::to_string(s % 3)),
         s % 5 == 0 ? exec::Value::Null() : exec::Value::Double(s * 0.5),
         s % 4 == 0 ? exec::Value::Null()
                    : exec::Value::String("delivery note, delivery note #" +
                                          std::to_string(s)),
         exec::Value::Timestamp(base + s * 2 * kMillisPerHour),
         exec::Value::GeometryVal(std::move(geom))});
  }
  JUST_RETURN_NOT_OK(engine->InsertBatch(user, "shapes", rows));

  JUST_RETURN_NOT_OK(
      ql.Execute(user, "CREATE TABLE trips AS trajectory").status());
  workload::TrajOptions traj_options;
  traj_options.num_trajectories = 60;
  traj_options.points_per_traj = 12;
  traj_options.start_date = "2018-10-01";
  traj_options.num_days = 10;
  traj_options.seed = 7;
  rows.clear();
  int t = 0;
  for (auto& trip : workload::GenerateTrajectories(traj_options)) {
    char tid[16];
    std::snprintf(tid, sizeof(tid), "trip_%03d", t++);
    const TimestampMs start = trip.start_time();
    const TimestampMs end = trip.end_time();
    const std::string oid = trip.oid();
    rows.push_back({exec::Value::String(tid), exec::Value::String(oid),
                    exec::Value::Timestamp(start), exec::Value::Timestamp(end),
                    exec::Value::TrajectoryVal(
                        std::make_shared<const traj::Trajectory>(
                            std::move(trip)))});
  }
  JUST_RETURN_NOT_OK(engine->InsertBatch(user, "trips", rows));
  return engine->Finalize();
}

/// SQL over the tables above that drives each shape of the scan's
/// pushdown: SELECT * with a residual reading some columns, kept columns
/// nothing reads, NULL cells, compressed cells, extent geometries,
/// trajectories, and LIMIT with and without a residual. A LIMIT that cuts
/// the answer short appears only on full scans, whose row order the oracle
/// shares; `time < '2018-10-03' LIMIT 500` (a temporal_range scan) keeps
/// its whole answer of a few dozen rows.
inline std::vector<std::string> ScanParityQueries() {
  return {
      // orders
      "SELECT * FROM orders WHERE time < '2018-10-12' AND "
      "fid != 'order_0005'",
      "SELECT city FROM orders WHERE time < '2018-10-10'",
      "SELECT fid, geom FROM orders WHERE city > 'city1' AND "
      "time > '2018-10-05'",
      "SELECT * FROM orders LIMIT 9",
      "SELECT fid, time FROM orders WHERE city != 'city2' LIMIT 11",
      "SELECT fid FROM orders WHERE time < '2018-10-03' LIMIT 500",
      // shapes
      "SELECT * FROM shapes",
      "SELECT * FROM shapes WHERE weight > 30",
      "SELECT kind, note FROM shapes WHERE weight < 40",
      "SELECT fid, note FROM shapes WHERE geom WITHIN "
      "st_makeMBR(116.25, 39.75, 116.50, 40.00)",
      "SELECT note, weight FROM shapes WHERE geom WITHIN "
      "st_makeMBR(116.20, 39.70, 116.60, 40.10) AND "
      "time BETWEEN '2018-10-03' AND '2018-10-12' AND kind = 'k1'",
      "SELECT fid, note FROM shapes WHERE kind = 'k2' LIMIT 5",
      // trips
      "SELECT tid, oid FROM trips WHERE item WITHIN "
      "st_makeMBR(116.30, 39.80, 116.50, 40.00)",
      "SELECT * FROM trips WHERE item WITHIN "
      "st_makeMBR(116.10, 39.70, 116.70, 40.15) AND "
      "start_time BETWEEN '2018-10-02' AND '2018-10-06'",
      "SELECT oid FROM trips WHERE start_time < '2018-10-04'",
      "SELECT * FROM trips LIMIT 4",
  };
}

/// Runs `sql` through the executor and the brute-force oracle and requires
/// the same rows: in order when the statement sorts, as multisets
/// otherwise (index paths return rows in key order).
inline void ExpectSameResult(core::JustEngine* engine, const std::string& user,
                             const std::string& sql,
                             core::QueryStats* stats = nullptr) {
  auto executed = [&]() -> Result<exec::DataFrame> {
    JUST_ASSIGN_OR_RETURN(auto stmt, sql::ParseStatement(sql));
    sql::Analyzer analyzer(engine, user);
    JUST_ASSIGN_OR_RETURN(auto plan, analyzer.Analyze(*stmt.select));
    JUST_ASSIGN_OR_RETURN(plan, sql::Optimize(std::move(plan)));
    sql::Executor executor(engine, user);
    return executor.Execute(*plan, stats);
  }();
  auto oracle = OracleSelect(engine, user, sql);
  ASSERT_TRUE(oracle.ok()) << sql << " -> " << oracle.status().ToString();
  ASSERT_TRUE(executed.ok()) << sql << " -> " << executed.status().ToString();
  ASSERT_EQ(oracle->num_rows(), executed->num_rows()) << sql;
  ASSERT_EQ(oracle->schema().ToString(), executed->schema().ToString())
      << sql;
  std::vector<exec::Row> want = oracle->rows();
  std::vector<exec::Row> got = executed->rows();
  if (sql.find("ORDER BY") == std::string::npos) {
    auto key = [](const exec::Row& row) {
      std::string k;
      for (const exec::Value& v : row) k += v.ToString() + '\x1f';
      return k;
    };
    auto by_key = [&](const exec::Row& a, const exec::Row& b) {
      return key(a) < key(b);
    };
    std::sort(want.begin(), want.end(), by_key);
    std::sort(got.begin(), got.end(), by_key);
  }
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(want[r].size(), got[r].size());
    for (size_t c = 0; c < want[r].size(); ++c) {
      EXPECT_TRUE(want[r][c].Equals(got[r][c]))
          << sql << " row " << r << " col " << c << ": "
          << want[r][c].ToString() << " vs " << got[r][c].ToString();
    }
  }
}

}  // namespace just::testing

#endif  // JUST_TESTS_SCAN_PARITY_H_
