// Tests for Figure 1's "Attribute Indexing" box as declared at CREATE TABLE
// (USERDATA {'just.attr.indexes':'col'}): the declaration makes ready
// secondary indexes, equality lookups and SQL go through them, and catalogs
// written with the older equality-only attribute indexes upgrade on open.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/engine.h"
#include "kvstore/fault_env.h"
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

// --- Legacy-catalog upgrade ----------------------------------------------

/// How the catalog written by the older attribute-index code is reopened.
enum class UpgradeMode {
  kClean,        ///< plain reopen
  kCrashedBuild, ///< a prior upgrade died mid-build (`building` leftover)
  kFaultedBuild, ///< the first upgrade attempt hits a dead disk mid-build
};

class LegacyUpgradeTest : public ::testing::TestWithParam<UpgradeMode> {
 protected:
  EngineOptions Options() {
    EngineOptions options;
    options.data_dir = dir_.path();
    options.num_servers = 2;
    options.num_shards = 4;
    options.store.env = &env_;
    options.index_build_batch_rows = 16;  // several build batches
    return options;
  }

  /// Keys in `slot` of the table's key space, over every shard.
  size_t SlotKeys(JustEngine* engine, const meta::TableMeta& meta,
                  uint32_t slot) {
    size_t count = 0;
    for (int shard = 0; shard < 4; ++shard) {
      std::string start(1, static_cast<char>(shard));
      PutFixed32BE(&start, static_cast<uint32_t>(meta.table_id));
      std::string end = start;
      start.push_back(static_cast<char>(slot));
      end.push_back(static_cast<char>(slot + 1));
      auto rows = just::testing::ScanRows(*engine->cluster(),
                                          {curve::KeyRange{start, end}});
      EXPECT_TRUE(rows.ok());
      if (rows.ok()) count += rows->size();
    }
    return count;
  }

  /// Stray entries under `slot`, one per shard.
  void WriteStrayKeys(JustEngine* engine, const meta::TableMeta& meta,
                      uint32_t slot) {
    for (int shard = 0; shard < 4; ++shard) {
      std::string key(1, static_cast<char>(shard));
      PutFixed32BE(&key, static_cast<uint32_t>(meta.table_id));
      key.push_back(static_cast<char>(slot));
      key += "stale-entry";
      ASSERT_TRUE(
          just::testing::PutKey(*engine->cluster(), key, "not a row").ok());
    }
  }

  std::string ReadCatalog() {
    std::ifstream in(dir_.path() + "/catalog.jsonl");
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }

  TempDir dir_{"attr_upgrade"};
  kv::FaultInjectionEnv env_;
};

TEST_P(LegacyUpgradeTest, LegacyAttrIndexBecomesSecondaryIndex) {
  const std::string q = "SELECT * FROM orders WHERE city = 'shanghai'";
  meta::TableMeta meta;
  {
    auto engine = JustEngine::Open(Options());
    ASSERT_TRUE(engine.ok());
    meta.user = "u";
    meta.name = "orders";
    meta.columns = {
        {"fid", exec::DataType::kString, true, "", ""},
        {"city", exec::DataType::kString, false, "", ""},
        {"time", exec::DataType::kTimestamp, false, "", ""},
        {"geom", exec::DataType::kGeometry, false, "", ""},
    };
    ASSERT_TRUE((*engine)->CreateTable(meta).ok());
    TimestampMs base = ParseTimestamp("2018-10-01").value();
    Rng rng(17);
    std::vector<exec::Row> rows;
    const char* cities[] = {"beijing", "shanghai", "chengdu", "xian"};
    for (int i = 0; i < 120; ++i) {
      rows.push_back({
          exec::Value::String("o" + std::to_string(i)),
          exec::Value::String(cities[i % 4]),
          exec::Value::Timestamp(base + i * kMillisPerMinute),
          exec::Value::GeometryVal(geo::Geometry::MakePoint(
              {116.0 + rng.NextDouble(), 39.5 + rng.NextDouble()})),
      });
    }
    ASSERT_TRUE((*engine)->InsertBatch("u", "orders", rows).ok());
    auto described = (*engine)->DescribeTable("u", "orders");
    ASSERT_TRUE(described.ok());
    meta = *described;
    // What the old attribute index left behind in its slot (the first one
    // after the curve indexes), plus — for the crashed build — half-built
    // entries one slot further up.
    WriteStrayKeys(engine->get(), meta,
                   static_cast<uint32_t>(meta.indexes.size()));
    if (GetParam() == UpgradeMode::kCrashedBuild) {
      WriteStrayKeys(engine->get(), meta,
                     static_cast<uint32_t>(meta.indexes.size() + 1));
    }
    ASSERT_TRUE((*engine)->Finalize().ok());
  }
  const uint32_t legacy_slot = static_cast<uint32_t>(meta.indexes.size());

  // Rewrite the catalog line as the older code wrote it: with "attrs".
  std::string catalog = ReadCatalog();
  size_t at = catalog.find("\"name\":\"orders\"");
  ASSERT_NE(at, std::string::npos);
  size_t line_start = catalog.rfind('\n', at);
  line_start = line_start == std::string::npos ? 0 : line_start + 1;
  ASSERT_EQ(catalog[line_start], '{');
  catalog.insert(line_start + 1, "\"attrs\":[\"city\"],");
  {
    std::ofstream out(dir_.path() + "/catalog.jsonl", std::ios::trunc);
    out << catalog;
  }
  if (GetParam() == UpgradeMode::kCrashedBuild) {
    // The process died after registering the upgrade's index as `building`.
    auto legacy = meta::Catalog::Open(dir_.path() + "/catalog.jsonl");
    ASSERT_TRUE(legacy.ok());
    meta::SecondaryIndexDef def;
    def.name = "attr_city";
    def.column = "city";
    def.slot = legacy_slot + 1;
    def.state = meta::IndexState::kBuilding;
    ASSERT_TRUE((*legacy)->AddIndex("u", "orders", def).ok());
  }
  ASSERT_NE(ReadCatalog().find("\"attrs\""), std::string::npos);
  if (GetParam() == UpgradeMode::kFaultedBuild) {
    // The disk dies at a later write on every attempt — during the store
    // open, the backfill, the purge — until one Open gets through; each
    // attempt resumes from whatever the one before left.
    int attempts = 0;
    for (int fail_at = 1;; fail_at += 3) {
      ASSERT_LT(fail_at, 1000) << "the upgrade never completed";
      env_.FailWriteOp(env_.write_ops() + fail_at, /*all_after=*/true);
      auto engine = JustEngine::Open(Options());
      env_.ClearFaults();
      if (engine.ok()) break;
      ++attempts;
    }
    EXPECT_GT(attempts, 0);
  }

  for (int reopen = 0; reopen < 2; ++reopen) {
    SCOPED_TRACE("reopen " + std::to_string(reopen));
    auto engine = JustEngine::Open(Options());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto described = (*engine)->DescribeTable("u", "orders");
    ASSERT_TRUE(described.ok());
    EXPECT_TRUE(described->legacy_attr_columns.empty());
    ASSERT_EQ(described->secondary_indexes.size(), 1u);
    const meta::SecondaryIndexDef* def =
        described->ReadySecondaryIndexOn("city");
    ASSERT_NE(def, nullptr);
    EXPECT_GT(def->slot, legacy_slot);  // never aliases the legacy slot
    EXPECT_GT(described->next_index_slot, def->slot);
    EXPECT_EQ(SlotKeys(engine->get(), *described, legacy_slot), 0u);
    if (GetParam() == UpgradeMode::kCrashedBuild) {
      EXPECT_GT(def->slot, legacy_slot + 1);
      EXPECT_EQ(SlotKeys(engine->get(), *described, legacy_slot + 1), 0u);
    }
    EXPECT_EQ(ReadCatalog().find("\"attrs\""), std::string::npos);

    sql::JustQL ql(engine->get());
    auto plan = ql.ExplainSelect("u", q);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE(plan->find("access: secondary_index"), std::string::npos)
        << *plan;
    auto got = ql.Execute("u", q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = OracleSelect(engine->get(), "u", q);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(got->frame.num_rows(), 30u);
    EXPECT_EQ(RowSet(got->frame), RowSet(*want));
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, LegacyUpgradeTest,
                         ::testing::Values(UpgradeMode::kClean,
                                           UpgradeMode::kCrashedBuild,
                                           UpgradeMode::kFaultedBuild),
                         [](const auto& info) {
                           switch (info.param) {
                             case UpgradeMode::kClean:
                               return std::string("Clean");
                             case UpgradeMode::kCrashedBuild:
                               return std::string("CrashedBuild");
                             case UpgradeMode::kFaultedBuild:
                               return std::string("FaultedBuild");
                           }
                           return std::string("Unknown");
                         });

}  // namespace
}  // namespace just::core
