// Tests for Figure 1's "Attribute Indexing" box as declared at CREATE TABLE
// (USERDATA {'just.attr.indexes':'col'}): the declaration makes ready
// secondary indexes, and equality lookups and SQL go through them.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/engine.h"
#include "sql/analyzer.h"
#include "sql/executor.h"
#include "sql/justql.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "query_oracle.h"
#include "test_util.h"

namespace just::core {
namespace {

using just::testing::OracleSelect;
using just::testing::QueryFrame;
using just::testing::TempDir;

/// Equality lookup through the ready secondary index on `column`.
QuerySpec Equals(const std::string& column, exec::Value value) {
  QuerySpec spec;
  spec.kind = QuerySpec::Kind::kSecondaryIndex;
  spec.index_column = column;
  spec.lower = AttrBound{true, true, value};
  spec.upper = AttrBound{true, true, std::move(value)};
  return spec;
}

std::multiset<std::string> RowSet(const exec::DataFrame& frame) {
  std::multiset<std::string> rows;
  for (const auto& row : frame.rows()) {
    std::string key;
    for (const auto& v : row) key += v.ToString() + "|";
    rows.insert(key);
  }
  return rows;
}

class AttrIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("attr");
    EngineOptions options;
    options.data_dir = dir_->path();
    options.num_servers = 2;
    options.num_shards = 4;
    auto engine = JustEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(engine).value();

    sql::JustQL ql(engine_.get());
    auto created = ql.Execute(
        "u",
        "CREATE TABLE orders (fid string:primary key, city string, "
        "amount integer, time date, geom point) "
        "USERDATA {'just.attr.indexes':'city,amount'}");
    ASSERT_TRUE(created.ok()) << created.status().ToString();

    TimestampMs base = ParseTimestamp("2018-10-01").value();
    Rng rng(5);
    const char* cities[] = {"beijing", "shanghai", "chengdu"};
    for (int i = 0; i < 300; ++i) {
      exec::Row row = {
          exec::Value::String("o" + std::to_string(i)),
          exec::Value::String(cities[i % 3]),
          exec::Value::Int(i % 10),
          exec::Value::Timestamp(base + i * kMillisPerMinute),
          exec::Value::GeometryVal(geo::Geometry::MakePoint(
              {116.0 + rng.NextDouble() * 0.5, 39.5 + rng.NextDouble() * 0.5})),
      };
      ASSERT_TRUE(engine_->Insert("u", "orders", row).ok());
    }
    ASSERT_TRUE(engine_->Finalize().ok());
  }

  /// The executor's answer equals the brute-force oracle's.
  void ExpectOracleRows(const std::string& sql) {
    sql::JustQL ql(engine_.get());
    auto got = ql.Execute("u", sql);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
    auto want = OracleSelect(engine_.get(), "u", sql);
    ASSERT_TRUE(want.ok()) << sql << " -> " << want.status().ToString();
    EXPECT_EQ(RowSet(got->frame), RowSet(*want)) << sql;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<JustEngine> engine_;
};

TEST_F(AttrIndexTest, StringEqualityLookup) {
  QueryStats stats;
  auto result = QueryFrame(engine_.get(), "u", "orders",
                           Equals("city", exec::Value::String("shanghai")),
                           &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 100u);
  for (const auto& row : result->rows()) {
    EXPECT_EQ(row[1].string_value(), "shanghai");
  }
  // The index reads only matching rows, not the whole table.
  EXPECT_EQ(stats.rows_scanned, 100u);
}

TEST_F(AttrIndexTest, IntEqualityLookup) {
  auto result = QueryFrame(engine_.get(), "u", "orders",
                           Equals("amount", exec::Value::Int(7)));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 30u);
}

TEST_F(AttrIndexTest, MissingValueReturnsEmpty) {
  auto result = QueryFrame(engine_.get(), "u", "orders",
                           Equals("city", exec::Value::String("atlantis")));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(AttrIndexTest, UnindexedColumnRejected) {
  auto result = engine_->Query("u", "orders",
                               Equals("fid", exec::Value::String("o1")));
  EXPECT_FALSE(result.ok());
}

TEST_F(AttrIndexTest, SqlEqualityUsesIndexNotFullScan) {
  sql::Analyzer analyzer(engine_.get(), "u");
  auto stmt = sql::ParseStatement(
      "SELECT fid, city FROM orders WHERE city = 'beijing'");
  ASSERT_TRUE(stmt.ok());
  auto plan = analyzer.Analyze(*stmt->select);
  ASSERT_TRUE(plan.ok());
  auto optimized = sql::Optimize(std::move(*plan));
  ASSERT_TRUE(optimized.ok());
  sql::Executor executor(engine_.get(), "u");
  core::QueryStats stats;
  auto frame = executor.Execute(**optimized, &stats);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->num_rows(), 100u);
  // rows_scanned == matches proves the index path was taken (a full scan
  // reads all 300 rows).
  EXPECT_EQ(stats.rows_scanned, 100u);
}

TEST_F(AttrIndexTest, SqlCombinesAttrWithResidualPredicates) {
  sql::JustQL ql(engine_.get());
  const std::string q =
      "SELECT fid FROM orders WHERE city = 'chengdu' AND amount > 7";
  auto result = ql.Execute("u", q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // city == chengdu: i % 3 == 2; amount > 7: i % 10 in {8, 9}.
  std::set<int> expected;
  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 2 && i % 10 > 7) expected.insert(i);
  }
  EXPECT_EQ(result->frame.num_rows(), expected.size());
  ExpectOracleRows(q);
}

TEST_F(AttrIndexTest, SpatialPredicateStillPreferredOverAttr) {
  // Both a WITHIN and an attr equality. The cardinality probe decides which
  // index drives (100 city entries sit below the intersection threshold, so
  // the secondary index does); the rows are the same either way.
  const std::string q =
      "SELECT fid, city, geom FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.0, 39.5, 116.25, 40.0) AND city = 'beijing'";
  sql::JustQL ql(engine_.get());
  auto result = ql.Execute("u", q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  geo::Mbr box = geo::Mbr::Of(116.0, 39.5, 116.25, 40.0);
  EXPECT_GT(result->frame.num_rows(), 0u);
  for (const auto& row : result->frame.rows()) {
    EXPECT_EQ(row[1].string_value(), "beijing");
    EXPECT_TRUE(row[2].geometry_value().Within(box));
  }
  ExpectOracleRows(q);
}

TEST_F(AttrIndexTest, UpdatedRowVisibleUnderNewAttrValue) {
  // Upsert o5 with a new city: the index must serve the new value.
  TimestampMs base = ParseTimestamp("2018-10-01").value();
  auto original = QueryFrame(engine_.get(), "u", "orders",
                             Equals("city", exec::Value::String("moved")));
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(original->num_rows(), 0u);
  exec::Row updated = {
      exec::Value::String("o5"), exec::Value::String("moved"),
      exec::Value::Int(5), exec::Value::Timestamp(base + 5 * kMillisPerMinute),
      exec::Value::GeometryVal(geo::Geometry::MakePoint({116.2, 39.7}))};
  ASSERT_TRUE(engine_->Insert("u", "orders", updated).ok());
  auto moved = QueryFrame(engine_.get(), "u", "orders",
                          Equals("city", exec::Value::String("moved")));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->num_rows(), 1u);
  EXPECT_EQ(moved->rows()[0][0].string_value(), "o5");
}

TEST_F(AttrIndexTest, CreatedViaUserdataSql) {
  sql::JustQL ql(engine_.get());
  auto created = ql.Execute(
      "u",
      "CREATE TABLE tagged (fid string:primary key, tag string, time date, "
      "geom point) USERDATA {'just.attr.indexes':'tag'}");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto meta = engine_->DescribeTable("u", "tagged");
  ASSERT_TRUE(meta.ok());
  ASSERT_EQ(meta->secondary_indexes.size(), 1u);
  EXPECT_EQ(meta->secondary_indexes[0].column, "tag");
  EXPECT_EQ(meta->secondary_indexes[0].state, meta::IndexState::kReady);
  // The declared index sits above the curve-index slots.
  EXPECT_GE(meta->secondary_indexes[0].slot, meta->indexes.size());
  ASSERT_TRUE(ql.Execute("u",
                         "INSERT INTO tagged VALUES "
                         "('a', 'hot', '2018-10-01 00:00:00', "
                         "st_makePoint(116.4, 39.9)), "
                         "('b', 'cold', '2018-10-01 00:00:00', "
                         "st_makePoint(116.5, 39.8))")
                  .ok());
  auto hot = ql.Execute("u", "SELECT fid FROM tagged WHERE tag = 'hot'");
  ASSERT_TRUE(hot.ok());
  ASSERT_EQ(hot->frame.num_rows(), 1u);
  EXPECT_EQ(hot->frame.rows()[0][0].string_value(), "a");
  auto plan = ql.ExplainSelect("u", "SELECT fid FROM tagged WHERE tag = 'hot'");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("access: secondary_index"), std::string::npos) << *plan;

  // Declaring an index on a missing column fails the CREATE.
  EXPECT_FALSE(ql.Execute("u",
                          "CREATE TABLE bad (fid string:primary key, "
                          "time date, geom point) "
                          "USERDATA {'just.attr.indexes':'nope'}")
                   .ok());
}

TEST_F(AttrIndexTest, DeclaredIndexesSurviveReopen) {
  ASSERT_TRUE(engine_->Finalize().ok());
  engine_.reset();
  EngineOptions options;
  options.data_dir = dir_->path();
  options.num_servers = 2;
  options.num_shards = 4;
  auto engine = JustEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  engine_ = std::move(engine).value();
  auto meta = engine_->DescribeTable("u", "orders");
  ASSERT_TRUE(meta.ok());
  EXPECT_NE(meta->ReadySecondaryIndexOn("city"), nullptr);
  EXPECT_NE(meta->ReadySecondaryIndexOn("amount"), nullptr);
  ExpectOracleRows("SELECT fid, amount FROM orders WHERE amount = 3");
}

}  // namespace
}  // namespace just::core
