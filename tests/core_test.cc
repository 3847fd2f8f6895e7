#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "core/engine.h"
#include "core/loader.h"
#include "core/plugins.h"
#include "core/result_set.h"
#include "core/row_codec.h"
#include "query_oracle.h"
#include "test_util.h"
#include "workload/generators.h"

namespace just::core {
namespace {

using just::testing::QueryFrame;
using just::testing::TempDir;

EngineOptions SmallEngine(const std::string& dir) {
  EngineOptions opts;
  opts.data_dir = dir;
  opts.num_servers = 3;
  opts.num_shards = 6;
  opts.store.memtable_bytes = 256 << 10;
  return opts;
}

meta::TableMeta PointTableMeta(const std::string& user,
                               const std::string& name) {
  meta::TableMeta table;
  table.user = user;
  table.name = name;
  table.columns = {
      {"fid", exec::DataType::kString, true, "", ""},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "4326", ""},
  };
  return table;
}

exec::Row PointRow(const std::string& fid, double lng, double lat,
                   TimestampMs t) {
  return {exec::Value::String(fid), exec::Value::Timestamp(t),
          exec::Value::GeometryVal(geo::Geometry::MakePoint({lng, lat}))};
}

// --- row codec ---

TEST(RowCodecTest, RoundTripAllColumnTypes) {
  meta::TableMeta table = PointTableMeta("u", "t");
  exec::Row row = PointRow("f1", 116.4, 39.9, 1393632000000LL);
  auto encoded = EncodeRow(table, row);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeRow(table, *encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].string_value(), "f1");
  EXPECT_EQ((*decoded)[1].timestamp_value(), 1393632000000LL);
  EXPECT_NEAR((*decoded)[2].geometry_value().AsPoint().lng, 116.4, 1e-9);
}

TEST(RowCodecTest, CompressedTrajectoryColumnRoundTrip) {
  auto plugin = MakePluginTable("trajectory", "u", "traj");
  ASSERT_TRUE(plugin.ok());
  std::vector<traj::GpsPoint> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back(traj::GpsPoint{{116.4 + i * 1e-4, 39.9 + i * 5e-5},
                                 1393632000000LL + i * 15000});
  }
  auto t = std::make_shared<const traj::Trajectory>("t1", pts);
  exec::Row row = {exec::Value::String("t1"), exec::Value::String("courier1"),
                   exec::Value::Timestamp(t->start_time()),
                   exec::Value::Timestamp(t->end_time()),
                   exec::Value::TrajectoryVal(t)};
  auto encoded = EncodeRow(*plugin, row);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeRow(*plugin, *encoded);
  ASSERT_TRUE(decoded.ok());
  const auto& back = (*decoded)[4].trajectory_value();
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->size(), 200u);
  EXPECT_NEAR(back->points()[100].position.lng,
              pts[100].position.lng, 1e-6);
}

TEST(RowCodecTest, CompressionShrinksPluginRows) {
  auto compressed = MakePluginTable("trajectory", "u", "a");
  ASSERT_TRUE(compressed.ok());
  meta::TableMeta uncompressed = *compressed;  // JUSTnc: no codec
  for (auto& col : uncompressed.columns) col.compress.clear();

  std::vector<traj::GpsPoint> pts;
  for (int i = 0; i < 2000; ++i) {
    pts.push_back(traj::GpsPoint{{116.4 + i * 1e-5, 39.9 + i * 1e-5},
                                 1393632000000LL + i * 15000});
  }
  auto t = std::make_shared<const traj::Trajectory>("t1", pts);
  exec::Row row = {exec::Value::String("t1"), exec::Value::String("c1"),
                   exec::Value::Timestamp(t->start_time()),
                   exec::Value::Timestamp(t->end_time()),
                   exec::Value::TrajectoryVal(t)};
  auto small = EncodeRow(*compressed, row);
  auto big = EncodeRow(uncompressed, row);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  EXPECT_LT(small->size(), big->size() / 4);  // Figure 10b shape
}

TEST(RowCodecTest, WidthMismatchRejected) {
  meta::TableMeta table = PointTableMeta("u", "t");
  exec::Row row = {exec::Value::String("f")};
  EXPECT_FALSE(EncodeRow(table, row).ok());
}

// --- engine DDL ---

TEST(EngineTest, CreateShowDescribeDrop) {
  TempDir dir("engine_ddl");
  auto engine = JustEngine::Open(SmallEngine(dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->CreateTable(PointTableMeta("alice", "orders")).ok());
  ASSERT_TRUE((*engine)->CreatePluginTable("alice", "traj", "trajectory").ok());
  auto tables = (*engine)->ShowTables("alice");
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0], "orders");
  EXPECT_EQ(tables[1], "traj");
  auto desc = (*engine)->DescribeTable("alice", "orders");
  ASSERT_TRUE(desc.ok());
  // Defaults applied: point table gets Z2 + Z2T (Section V-C).
  ASSERT_EQ(desc->indexes.size(), 2u);
  EXPECT_EQ(desc->indexes[0].type, curve::IndexType::kZ2);
  EXPECT_EQ(desc->indexes[1].type, curve::IndexType::kZ2T);
  EXPECT_EQ(desc->fid_column, "fid");
  EXPECT_EQ(desc->geom_column, "geom");
  ASSERT_TRUE((*engine)->DropTable("alice", "orders").ok());
  EXPECT_EQ((*engine)->ShowTables("alice").size(), 1u);
  EXPECT_FALSE((*engine)->DescribeTable("alice", "orders").ok());
}

TEST(EngineTest, UserNamespacesIsolated) {
  TempDir dir("engine_ns");
  auto engine = JustEngine::Open(SmallEngine(dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->CreateTable(PointTableMeta("alice", "t")).ok());
  ASSERT_TRUE((*engine)->CreateTable(PointTableMeta("bob", "t")).ok());
  ASSERT_TRUE(
      (*engine)->Insert("alice", "t", PointRow("a1", 116.4, 39.9, 1000)).ok());
  auto alice = QueryFrame(engine->get(), "alice", "t");
  auto bob = QueryFrame(engine->get(), "bob", "t");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(alice->num_rows(), 1u);
  EXPECT_EQ(bob->num_rows(), 0u);
}

// --- queries vs brute force ---

struct Dataset {
  std::vector<exec::Row> rows;
  std::vector<geo::Point> points;
  std::vector<TimestampMs> times;
};

Dataset InsertRandomPoints(JustEngine* engine, const std::string& user,
                           const std::string& table, int n, uint64_t seed) {
  Dataset data;
  Rng rng(seed);
  TimestampMs base = ParseTimestamp("2018-10-01").value();
  for (int i = 0; i < n; ++i) {
    geo::Point p{rng.Uniform(116.0, 117.0), rng.Uniform(39.0, 40.0)};
    TimestampMs t = base + static_cast<int64_t>(rng.Uniform(20)) *
                               kMillisPerDay +
                    static_cast<int64_t>(rng.Uniform(24)) * kMillisPerHour;
    exec::Row row = PointRow("p" + std::to_string(i), p.lng, p.lat, t);
    EXPECT_TRUE(engine->Insert(user, table, row).ok());
    data.rows.push_back(row);
    data.points.push_back(p);
    data.times.push_back(t);
  }
  return data;
}

TEST(EngineQueryTest, SpatialRangeMatchesBruteForce) {
  TempDir dir("engine_srq");
  auto engine = JustEngine::Open(SmallEngine(dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->CreateTable(PointTableMeta("u", "pts")).ok());
  Dataset data = InsertRandomPoints(engine->get(), "u", "pts", 2000, 11);
  ASSERT_TRUE((*engine)->Finalize().ok());

  Rng rng(12);
  for (int trial = 0; trial < 10; ++trial) {
    double lng = rng.Uniform(116.0, 116.8);
    double lat = rng.Uniform(39.0, 39.8);
    geo::Mbr box = geo::Mbr::Of(lng, lat, lng + 0.2, lat + 0.2);
    QueryStats stats;
    auto result = QueryFrame(engine->get(), "u", "pts",
                             QuerySpec::SpatialRange(box), &stats);
    ASSERT_TRUE(result.ok());
    std::set<std::string> got;
    for (const auto& row : result->rows()) got.insert(row[0].string_value());
    std::set<std::string> expected;
    for (size_t i = 0; i < data.points.size(); ++i) {
      if (box.Contains(data.points[i])) {
        expected.insert("p" + std::to_string(i));
      }
    }
    EXPECT_EQ(got, expected);
    EXPECT_GE(stats.rows_scanned, stats.rows_matched);
    // Filtering must be effective: scanned rows far below table size.
    EXPECT_LT(stats.rows_scanned, 2000u);
  }
}

TEST(EngineQueryTest, StRangeMatchesBruteForce) {
  TempDir dir("engine_strq");
  auto engine = JustEngine::Open(SmallEngine(dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->CreateTable(PointTableMeta("u", "pts")).ok());
  Dataset data = InsertRandomPoints(engine->get(), "u", "pts", 2000, 13);
  ASSERT_TRUE((*engine)->Finalize().ok());

  TimestampMs base = ParseTimestamp("2018-10-01").value();
  Rng rng(14);
  for (int trial = 0; trial < 10; ++trial) {
    double lng = rng.Uniform(116.0, 116.7);
    double lat = rng.Uniform(39.0, 39.7);
    geo::Mbr box = geo::Mbr::Of(lng, lat, lng + 0.3, lat + 0.3);
    TimestampMs t0 = base + static_cast<int64_t>(rng.Uniform(15)) *
                                kMillisPerDay;
    TimestampMs t1 = t0 + 2 * kMillisPerDay + 11 * kMillisPerHour;
    auto result = QueryFrame(engine->get(), "u", "pts",
                             QuerySpec::StRange(box, t0, t1));
    ASSERT_TRUE(result.ok());
    std::set<std::string> got;
    for (const auto& row : result->rows()) got.insert(row[0].string_value());
    std::set<std::string> expected;
    for (size_t i = 0; i < data.points.size(); ++i) {
      if (box.Contains(data.points[i]) && data.times[i] >= t0 &&
          data.times[i] <= t1) {
        expected.insert("p" + std::to_string(i));
      }
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(EngineQueryTest, KnnMatchesBruteForce) {
  TempDir dir("engine_knn");
  auto engine = JustEngine::Open(SmallEngine(dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->CreateTable(PointTableMeta("u", "pts")).ok());
  Dataset data = InsertRandomPoints(engine->get(), "u", "pts", 1500, 15);
  ASSERT_TRUE((*engine)->Finalize().ok());

  Rng rng(16);
  for (int trial = 0; trial < 8; ++trial) {
    geo::Point q{rng.Uniform(116.1, 116.9), rng.Uniform(39.1, 39.9)};
    int k = 1 + static_cast<int>(rng.Uniform(50));
    auto result = QueryFrame(engine->get(), "u", "pts",
                             QuerySpec::Knn(q, k));
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->num_rows(), static_cast<size_t>(k));
    // Brute-force distances.
    std::vector<double> expected;
    for (const geo::Point& p : data.points) {
      expected.push_back(geo::EuclideanDistance(q, p));
    }
    std::sort(expected.begin(), expected.end());
    // Results are nearest-first and match the k smallest distances.
    double prev = -1;
    for (int i = 0; i < k; ++i) {
      const auto& row = result->rows()[i];
      double d = geo::EuclideanDistance(
          q, row[2].geometry_value().AsPoint());
      EXPECT_NEAR(d, expected[i], 1e-9) << "rank " << i;
      EXPECT_GE(d, prev);
      prev = d;
    }
  }
}

// A table whose only curve index is time-aware answers spatial-only and
// k-NN queries by scanning that index's slot, one range per shard (not by
// enumerating every time period since the epoch), with exact results.
TEST(EngineQueryTest, TimeAwareOnlyIndexAnswersSpatialAndKnn) {
  for (curve::IndexType type : {curve::IndexType::kZ2T,
                                curve::IndexType::kXz2T}) {
    SCOPED_TRACE(curve::IndexTypeName(type));
    TempDir dir("engine_time_aware_only");
    const EngineOptions options = SmallEngine(dir.path());
    auto engine = JustEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    meta::TableMeta table = PointTableMeta("u", "pts");
    table.indexes = {{type, kMillisPerDay}};
    ASSERT_TRUE((*engine)->CreateTable(table).ok());
    Dataset data = InsertRandomPoints(engine->get(), "u", "pts", 600, 21);
    ASSERT_TRUE((*engine)->Finalize().ok());

    Rng rng(22);
    for (int trial = 0; trial < 5; ++trial) {
      double lng = rng.Uniform(116.0, 116.7);
      double lat = rng.Uniform(39.0, 39.7);
      geo::Mbr box = geo::Mbr::Of(lng, lat, lng + 0.3, lat + 0.3);
      QueryStats stats;
      auto result = QueryFrame(engine->get(), "u", "pts",
                               QuerySpec::SpatialRange(box), &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::set<std::string> got;
      for (const auto& row : result->rows()) got.insert(row[0].string_value());
      std::set<std::string> expected;
      for (size_t i = 0; i < data.points.size(); ++i) {
        if (box.Contains(data.points[i])) {
          expected.insert("p" + std::to_string(i));
        }
      }
      EXPECT_EQ(got, expected);
      EXPECT_LE(stats.key_ranges, static_cast<size_t>(options.num_shards));

      geo::Point q{rng.Uniform(116.1, 116.9), rng.Uniform(39.1, 39.9)};
      const int k = 1 + static_cast<int>(rng.Uniform(30));
      auto knn = QueryFrame(engine->get(), "u", "pts", QuerySpec::Knn(q, k));
      ASSERT_TRUE(knn.ok()) << knn.status().ToString();
      ASSERT_EQ(knn->num_rows(), static_cast<size_t>(k));
      std::vector<double> want;
      for (const geo::Point& p : data.points) {
        want.push_back(geo::EuclideanDistance(q, p));
      }
      std::sort(want.begin(), want.end());
      std::set<std::string> fids;
      for (int i = 0; i < k; ++i) {
        const auto& row = knn->rows()[i];
        fids.insert(row[0].string_value());
        EXPECT_NEAR(geo::EuclideanDistance(
                        q, row[2].geometry_value().AsPoint()),
                    want[i], 1e-9)
            << "rank " << i;
      }
      EXPECT_EQ(fids.size(), static_cast<size_t>(k)) << "a row came twice";
    }
  }
}

TEST(EngineQueryTest, UpdateEnabledInsertOverwritesAndExtends) {
  TempDir dir("engine_update");
  auto engine = JustEngine::Open(SmallEngine(dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->CreateTable(PointTableMeta("u", "pts")).ok());
  TimestampMs base = ParseTimestamp("2018-10-05").value();
  // Historical data, then flush (simulating an indexed dataset).
  ASSERT_TRUE(
      (*engine)->Insert("u", "pts", PointRow("old", 116.4, 39.9, base)).ok());
  ASSERT_TRUE((*engine)->Finalize().ok());
  // New insertion *and* historical insertion without any index rebuild.
  ASSERT_TRUE((*engine)
                  ->Insert("u", "pts",
                           PointRow("new", 116.41, 39.91, base + 30 *
                                                              kMillisPerDay))
                  .ok());
  ASSERT_TRUE((*engine)
                  ->Insert("u", "pts",
                           PointRow("hist", 116.42, 39.92,
                                    base - 10 * kMillisPerDay))
                  .ok());
  geo::Mbr box = geo::Mbr::Of(116.3, 39.8, 116.5, 40.0);
  auto result = QueryFrame(
      engine->get(), "u", "pts",
      QuerySpec::StRange(box, base - 20 * kMillisPerDay,
                         base + 40 * kMillisPerDay));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3u);
}

TEST(EngineQueryTest, TrajectoryPluginStQueries) {
  TempDir dir("engine_traj");
  auto engine = JustEngine::Open(SmallEngine(dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->CreatePluginTable("u", "traj", "trajectory").ok());
  workload::TrajOptions opts;
  opts.num_trajectories = 60;
  opts.points_per_traj = 80;
  opts.num_days = 5;
  auto trajectories = workload::GenerateTrajectories(opts);
  for (const auto& t : trajectories) {
    auto shared = std::make_shared<const traj::Trajectory>(t);
    exec::Row row = {exec::Value::String(t.oid()),
                     exec::Value::String("courier_" + t.oid()),
                     exec::Value::Timestamp(t.start_time()),
                     exec::Value::Timestamp(t.end_time()),
                     exec::Value::TrajectoryVal(shared)};
    ASSERT_TRUE((*engine)->Insert("u", "traj", row).ok());
  }
  ASSERT_TRUE((*engine)->Finalize().ok());

  TimestampMs base = ParseTimestamp(opts.start_date).value();
  geo::Mbr box = geo::Mbr::Of(116.2, 39.8, 116.6, 40.1);
  auto result = QueryFrame(
      engine->get(), "u", "traj",
      QuerySpec::StRange(box, base, base + 5 * kMillisPerDay));
  ASSERT_TRUE(result.ok());
  std::set<std::string> got;
  for (const auto& row : result->rows()) got.insert(row[0].string_value());
  std::set<std::string> expected;
  for (const auto& t : trajectories) {
    if (t.Bounds().Intersects(box) && t.start_time() >= base &&
        t.start_time() <= base + 5 * kMillisPerDay) {
      expected.insert(t.oid());
    }
  }
  EXPECT_EQ(got, expected);
}

// --- views ---

TEST(EngineViewTest, CreateQueryStoreDrop) {
  TempDir dir("engine_views");
  auto engine = JustEngine::Open(SmallEngine(dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->CreateTable(PointTableMeta("u", "pts")).ok());
  InsertRandomPoints(engine->get(), "u", "pts", 100, 17);
  auto frame = QueryFrame(engine->get(), "u", "pts");
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*engine)->CreateView("u", "v1", *frame).ok());
  EXPECT_TRUE((*engine)->ViewExists("u", "v1"));
  EXPECT_EQ((*engine)->ShowViews("u").size(), 1u);
  auto view = (*engine)->GetView("u", "v1");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_rows(), 100u);
  // STORE VIEW TO TABLE auto-creates the target.
  ASSERT_TRUE((*engine)->StoreViewToTable("u", "v1", "pts_copy").ok());
  auto copied = QueryFrame(engine->get(), "u", "pts_copy");
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(copied->num_rows(), 100u);
  ASSERT_TRUE((*engine)->DropView("u", "v1").ok());
  EXPECT_FALSE((*engine)->ViewExists("u", "v1"));
  EXPECT_TRUE((*engine)->DropView("u", "v1").IsNotFound());
}

// --- result set ---

TEST(ResultSetTest, DirectModeBelowThreshold) {
  auto schema = std::make_shared<exec::Schema>();
  schema->AddField({"n", exec::DataType::kInt});
  exec::DataFrame frame(schema);
  for (int i = 0; i < 100; ++i) frame.AddRow({exec::Value::Int(i)});
  ResultSet::Options opts;
  opts.direct_row_limit = 1000;
  auto rs = ResultSet::Make(std::move(frame), opts);
  ASSERT_TRUE(rs.ok());
  EXPECT_FALSE((*rs)->spilled());
  int sum = 0;
  while ((*rs)->HasNext()) {
    auto row = (*rs)->Next();
    ASSERT_TRUE(row.ok());
    sum += static_cast<int>((*row)[0].int_value());
  }
  EXPECT_EQ(sum, 4950);
}

TEST(ResultSetTest, SpillsLargeResultsAndStreamsBack) {
  TempDir dir("rs_spill");
  auto schema = std::make_shared<exec::Schema>();
  schema->AddField({"n", exec::DataType::kInt});
  schema->AddField({"s", exec::DataType::kString});
  exec::DataFrame frame(schema);
  const int kRows = 5000;
  for (int i = 0; i < kRows; ++i) {
    frame.AddRow({exec::Value::Int(i),
                  exec::Value::String("row" + std::to_string(i))});
  }
  ResultSet::Options opts;
  opts.direct_row_limit = 500;   // force spill
  opts.rows_per_chunk = 512;     // multiple chunk files
  opts.spill_dir = dir.path();
  auto rs = ResultSet::Make(std::move(frame), opts);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE((*rs)->spilled());
  EXPECT_EQ((*rs)->total_rows(), static_cast<size_t>(kRows));
  int i = 0;
  while ((*rs)->HasNext()) {
    auto row = (*rs)->Next();
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[0].int_value(), i);
    EXPECT_EQ((*row)[1].string_value(), "row" + std::to_string(i));
    ++i;
  }
  EXPECT_EQ(i, kRows);
  EXPECT_FALSE((*rs)->Next().ok());  // exhausted
}

TEST(ResultSetTest, ToDataFrameDrains) {
  auto schema = std::make_shared<exec::Schema>();
  schema->AddField({"n", exec::DataType::kInt});
  exec::DataFrame frame(schema);
  for (int i = 0; i < 10; ++i) frame.AddRow({exec::Value::Int(i)});
  auto rs = ResultSet::Make(std::move(frame), ResultSet::Options());
  ASSERT_TRUE(rs.ok());
  auto back = (*rs)->ToDataFrame();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 10u);
}

// --- loader ---

TEST(LoaderTest, LoadsCsvWithTransforms) {
  TempDir dir("loader");
  auto engine = JustEngine::Open(SmallEngine(dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->CreateTable(PointTableMeta("u", "pts")).ok());
  std::string csv_path = dir.path() + "/orders.csv";
  std::FILE* f = std::fopen(csv_path.c_str(), "wb");
  std::fputs("orderId,ts,lng,lat\n", f);
  std::fputs("o1,1538352000000,116.40,39.90\n", f);
  std::fputs("o2,1538438400000,116.45,39.95\n", f);
  std::fputs("o3,1538524800000,116.50,39.85\n", f);
  std::fclose(f);
  LoadConfig config;
  config.mapping = {{"fid", "orderId"},
                    {"time", "long_to_date_ms(ts)"},
                    {"geom", "lng_lat_to_point(lng, lat)"}};
  auto loaded = LoadCsv(engine->get(), "u", "pts", csv_path, config);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 3u);
  auto rows = QueryFrame(engine->get(), "u", "pts");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 3u);
}

TEST(LoaderTest, RespectsLimit) {
  TempDir dir("loader_limit");
  auto engine = JustEngine::Open(SmallEngine(dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->CreateTable(PointTableMeta("u", "pts")).ok());
  std::string csv_path = dir.path() + "/pts.csv";
  std::FILE* f = std::fopen(csv_path.c_str(), "wb");
  std::fputs("fid,time,lng,lat\n", f);
  for (int i = 0; i < 50; ++i) {
    std::fprintf(f, "p%d,2018-10-01 10:00:00,116.4,39.9\n", i);
  }
  std::fclose(f);
  LoadConfig config;
  config.mapping = {{"fid", "fid"},
                    {"time", "parse_date(time)"},
                    {"geom", "lng_lat_to_point(lng, lat)"}};
  config.limit = 10;
  auto loaded = LoadCsv(engine->get(), "u", "pts", csv_path, config);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 10u);
}

TEST(LoaderTest, MissingSourceFieldFails) {
  TempDir dir("loader_bad");
  auto engine = JustEngine::Open(SmallEngine(dir.path()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->CreateTable(PointTableMeta("u", "pts")).ok());
  std::string csv_path = dir.path() + "/bad.csv";
  std::FILE* f = std::fopen(csv_path.c_str(), "wb");
  std::fputs("a,b\n1,2\n", f);
  std::fclose(f);
  LoadConfig config;
  config.mapping = {{"fid", "nope"}};
  EXPECT_FALSE(LoadCsv(engine->get(), "u", "pts", csv_path, config).ok());
}

// --- plugin registry ---

TEST(PluginTest, KnownPlugins) {
  EXPECT_TRUE(IsKnownPlugin("trajectory"));
  EXPECT_TRUE(IsKnownPlugin("point_series"));
  EXPECT_FALSE(IsKnownPlugin("roadmap"));
  EXPECT_FALSE(MakePluginTable("roadmap", "u", "t").ok());
}

TEST(PluginTest, TrajectoryPluginMatchesFigure6) {
  auto table = MakePluginTable("trajectory", "u", "t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->kind, meta::TableKind::kPlugin);
  // gzip-compressed GPS list; XZ2 + XZ2T indexes (Table III).
  int item = table->ColumnIndex("item");
  ASSERT_GE(item, 0);
  EXPECT_EQ(table->columns[item].compress, "gzip");
  ASSERT_EQ(table->indexes.size(), 2u);
  EXPECT_EQ(table->indexes[0].type, curve::IndexType::kXz2);
  EXPECT_EQ(table->indexes[1].type, curve::IndexType::kXz2T);
}

}  // namespace
}  // namespace just::core
