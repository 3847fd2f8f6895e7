// Tests for hybrid secondary indexing (CREATE INDEX): DDL round-trips,
// covering point/range lookups, curve-intersection access-path selection,
// write-path index maintenance (tombstones ride the same group-commit
// batch), the online non-blocking build protocol, crash/fault recovery,
// and the two rider bugfixes (LIMIT scan budgets, plan-cache invalidation
// across DDL).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "kvstore/fault_env.h"
#include "obs/metrics.h"
#include "sql/analyzer.h"
#include "sql/executor.h"
#include "sql/justql.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/predicate_program.h"
#include "query_oracle.h"
#include "test_util.h"

namespace just::core {
namespace {

using just::testing::QueryFrame;
using just::testing::TempDir;

uint64_t CounterValue(const std::string& name) {
  return obs::Registry::Global().GetCounter(name)->Value();
}

/// Parse -> analyze -> optimize -> execute, surfacing QueryStats (JustQL's
/// public Execute has no stats out-param).
Result<exec::DataFrame> RunSelect(JustEngine* engine, const std::string& sql,
                                  QueryStats* stats = nullptr) {
  sql::Analyzer analyzer(engine, "u");
  JUST_ASSIGN_OR_RETURN(auto stmt, sql::ParseStatement(sql));
  JUST_ASSIGN_OR_RETURN(auto plan, analyzer.Analyze(*stmt.select));
  JUST_ASSIGN_OR_RETURN(plan, sql::Optimize(std::move(plan)));
  sql::Executor executor(engine, "u");
  return executor.Execute(*plan, stats);
}

std::multiset<std::string> FidSet(const exec::DataFrame& frame, int col = 0) {
  std::multiset<std::string> fids;
  for (const auto& row : frame.rows()) {
    fids.insert(row[static_cast<size_t>(col)].string_value());
  }
  return fids;
}

class SecondaryIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("secidx");
    OpenEngine();

    meta::TableMeta table;
    table.user = "u";
    table.name = "orders";
    table.columns = {
        {"fid", exec::DataType::kString, true, "", ""},
        {"courier", exec::DataType::kString, false, "", ""},
        {"amount", exec::DataType::kInt, false, "", ""},
        {"time", exec::DataType::kTimestamp, false, "", ""},
        {"geom", exec::DataType::kGeometry, false, "", ""},
    };
    ASSERT_TRUE(engine_->CreateTable(table).ok());

    TimestampMs base = ParseTimestamp("2018-10-01").value();
    Rng rng(7);
    std::vector<exec::Row> rows;
    for (int i = 0; i < 400; ++i) {
      rows.push_back({
          exec::Value::String("o" + std::to_string(i)),
          exec::Value::String("c" + std::to_string(i % 20)),
          exec::Value::Int(i % 50),
          exec::Value::Timestamp(base + i * kMillisPerMinute),
          exec::Value::GeometryVal(geo::Geometry::MakePoint(
              {116.0 + rng.NextDouble(), 39.5 + rng.NextDouble()})),
      });
    }
    ASSERT_TRUE(engine_->InsertBatch("u", "orders", rows).ok());
    ASSERT_TRUE(engine_->Finalize().ok());
  }

  void OpenEngine() {
    EngineOptions options;
    options.data_dir = dir_->path();
    options.num_servers = 2;
    options.num_shards = 4;
    auto engine = JustEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<JustEngine> engine_;
};

// --- DDL -----------------------------------------------------------------

TEST_F(SecondaryIndexTest, CreateAndDropIndexSql) {
  sql::JustQL ql(engine_.get());
  auto created = ql.Execute("u", "CREATE INDEX idx_courier ON orders (courier)");
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  auto described = engine_->DescribeTable("u", "orders");
  ASSERT_TRUE(described.ok());
  ASSERT_EQ(described->secondary_indexes.size(), 1u);
  EXPECT_EQ(described->secondary_indexes[0].name, "idx_courier");
  EXPECT_EQ(described->secondary_indexes[0].column, "courier");
  EXPECT_EQ(described->secondary_indexes[0].state, meta::IndexState::kReady);

  // Duplicate names and unknown columns are rejected.
  EXPECT_FALSE(
      ql.Execute("u", "CREATE INDEX idx_courier ON orders (amount)").ok());
  EXPECT_FALSE(
      ql.Execute("u", "CREATE INDEX idx_nope ON orders (no_such_col)").ok());

  auto dropped = ql.Execute("u", "DROP INDEX idx_courier ON orders");
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  described = engine_->DescribeTable("u", "orders");
  ASSERT_TRUE(described.ok());
  EXPECT_TRUE(described->secondary_indexes.empty());
  EXPECT_FALSE(ql.Execute("u", "DROP INDEX idx_courier ON orders").ok());
}

// --- Lookup correctness --------------------------------------------------

TEST_F(SecondaryIndexTest, PointLookupMatchesFullScanAndReadsOnlyMatches) {
  const std::string q = "SELECT fid FROM orders WHERE courier = 'c7'";
  auto before = RunSelect(engine_.get(), q);  // pre-index: full scan path
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->num_rows(), 20u);

  ASSERT_TRUE(engine_->CreateIndex("u", "orders", "idx_c", "courier").ok());
  QueryStats stats;
  auto after = RunSelect(engine_.get(), q, &stats);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(FidSet(*after), FidSet(*before));
  // Covering index: only the matching entries are read, not the table.
  EXPECT_EQ(stats.rows_scanned, 20u);
}

TEST_F(SecondaryIndexTest, RangeLookupsMatchFullScan) {
  const std::string gt = "SELECT fid FROM orders WHERE amount > 44";
  const std::string between =
      "SELECT fid FROM orders WHERE amount BETWEEN 10 AND 12";
  auto gt_before = RunSelect(engine_.get(), gt);
  auto between_before = RunSelect(engine_.get(), between);
  ASSERT_TRUE(gt_before.ok());
  ASSERT_TRUE(between_before.ok());
  ASSERT_EQ(gt_before->num_rows(), 40u);   // amounts 45..49, 8 rows each
  ASSERT_EQ(between_before->num_rows(), 24u);

  ASSERT_TRUE(engine_->CreateIndex("u", "orders", "idx_a", "amount").ok());
  QueryStats stats;
  auto gt_after = RunSelect(engine_.get(), gt, &stats);
  ASSERT_TRUE(gt_after.ok());
  EXPECT_EQ(FidSet(*gt_after), FidSet(*gt_before));
  EXPECT_EQ(stats.rows_scanned, 40u);  // the order-preserving key range

  auto between_after = RunSelect(engine_.get(), between);
  ASSERT_TRUE(between_after.ok());
  EXPECT_EQ(FidSet(*between_after), FidSet(*between_before));
}

TEST_F(SecondaryIndexTest, CoveringLookupReturnsFullRows) {
  ASSERT_TRUE(engine_->CreateIndex("u", "orders", "idx_c", "courier").ok());
  auto frame = RunSelect(engine_.get(),
                         "SELECT * FROM orders WHERE courier = 'c3'");
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->num_rows(), 20u);
  for (const auto& row : frame->rows()) {
    int i = std::stoi(row[0].string_value().substr(1));
    EXPECT_EQ(i % 20, 3);
    EXPECT_EQ(row[1].string_value(), "c3");
    EXPECT_EQ(row[2].int_value(), i % 50);  // entries cover every column
  }
}

// --- Access-path selection (EXPLAIN) -------------------------------------

TEST_F(SecondaryIndexTest, ExplainShowsChosenAccessPath) {
  sql::JustQL ql(engine_.get());
  constexpr const char* kBoxed =
      "SELECT fid FROM orders WHERE courier = 'c7' AND geom WITHIN "
      "st_makeMBR(116.0, 39.5, 116.5, 40.5)";

  // Before the index exists the spatial curve drives.
  auto plan = ql.ExplainSelect("u", kBoxed);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("access: spatial_range"), std::string::npos) << *plan;

  ASSERT_TRUE(engine_->CreateIndex("u", "orders", "idx_c", "courier").ok());
  plan = ql.ExplainSelect("u", "SELECT fid FROM orders WHERE courier = 'c7'");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("access: secondary_index"), std::string::npos) << *plan;

  // 20 index entries is far below the intersection threshold: the index
  // drives and the box refines the covering values.
  plan = ql.ExplainSelect("u", kBoxed);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("access: index_intersection"), std::string::npos)
      << *plan;

  plan = ql.ExplainSelect("u", "SELECT fid FROM orders");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("access: full_scan"), std::string::npos) << *plan;
}

TEST_F(SecondaryIndexTest, IntersectionMatchesPreIndexResult) {
  constexpr const char* kBoxed =
      "SELECT fid FROM orders WHERE courier = 'c3' AND geom WITHIN "
      "st_makeMBR(116.0, 39.5, 116.5, 40.5)";
  auto before = RunSelect(engine_.get(), kBoxed);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(before->num_rows(), 0u);
  ASSERT_LT(before->num_rows(), 20u);  // the box must actually cut

  ASSERT_TRUE(engine_->CreateIndex("u", "orders", "idx_c", "courier").ok());
  uint64_t intersections = CounterValue("just_idx_intersections_total");
  QueryStats stats;
  auto after = RunSelect(engine_.get(), kBoxed, &stats);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(FidSet(*after), FidSet(*before));
  // The index drove: only its 20 entries were read, not a curve range.
  EXPECT_EQ(stats.rows_scanned, 20u);
  EXPECT_GT(CounterValue("just_idx_intersections_total"), intersections);
}

TEST_F(SecondaryIndexTest, UnselectiveIndexDemotesToCurveScan) {
  // With the intersection threshold at zero the cardinality probe always
  // says "too wide": the curve index must drive and the attribute bound
  // becomes residual refinement — same rows, different path.
  TempDir dir("secidx_demote");
  EngineOptions options;
  options.data_dir = dir.path();
  options.num_servers = 2;
  options.num_shards = 4;
  options.index_intersection_threshold = 0;
  auto engine = JustEngine::Open(options);
  ASSERT_TRUE(engine.ok());

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
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    exec::Row row = {
        exec::Value::String("o" + std::to_string(i)),
        exec::Value::String("c" + std::to_string(i % 3)),
        exec::Value::Timestamp(base + i * kMillisPerMinute),
        exec::Value::GeometryVal(geo::Geometry::MakePoint(
            {116.0 + rng.NextDouble(), 39.5 + rng.NextDouble()})),
    };
    ASSERT_TRUE((*engine)->Insert("u", "orders", row).ok());
  }
  ASSERT_TRUE((*engine)->Finalize().ok());
  ASSERT_TRUE((*engine)->CreateIndex("u", "orders", "idx_c", "courier").ok());

  sql::JustQL ql(engine->get());
  constexpr const char* kBoxed =
      "SELECT fid FROM orders WHERE courier = 'c1' AND geom WITHIN "
      "st_makeMBR(116.0, 39.5, 117.5, 41.0)";
  auto plan = ql.ExplainSelect("u", kBoxed);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("access: spatial_range"), std::string::npos) << *plan;
  auto frame = ql.Execute("u", kBoxed);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->frame.num_rows(), 20u);
}

// --- Write-path maintenance ----------------------------------------------

TEST_F(SecondaryIndexTest, DeleteTombstonesIndexEntriesInSameBatch) {
  ASSERT_TRUE(engine_->CreateIndex("u", "orders", "idx_c", "courier").ok());
  auto full = QueryFrame(engine_.get(), "u", "orders");
  ASSERT_TRUE(full.ok());
  exec::Row doomed;
  for (const auto& row : full->rows()) {
    if (row[0].string_value() == "o7") doomed = row;
  }
  ASSERT_EQ(doomed.size(), 5u);
  ASSERT_TRUE(engine_->Remove("u", "orders", doomed).ok());

  // The tombstone rode the same group-commit batch as the base-row delete:
  // an index lookup immediately after must not resurrect the row.
  auto frame = RunSelect(engine_.get(),
                         "SELECT fid FROM orders WHERE courier = 'c7'");
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 19u);
  EXPECT_EQ(FidSet(*frame).count("o7"), 0u);
}

TEST_F(SecondaryIndexTest, ReplaceRetiresStaleIndexEntry) {
  ASSERT_TRUE(engine_->CreateIndex("u", "orders", "idx_c", "courier").ok());
  auto full = QueryFrame(engine_.get(), "u", "orders");
  ASSERT_TRUE(full.ok());
  exec::Row old_row;
  for (const auto& row : full->rows()) {
    if (row[0].string_value() == "o1") old_row = row;
  }
  ASSERT_EQ(old_row.size(), 5u);
  exec::Row new_row = old_row;
  new_row[1] = exec::Value::String("zz");
  ASSERT_TRUE(engine_->Replace("u", "orders", old_row, new_row).ok());

  auto stale = RunSelect(engine_.get(),
                         "SELECT fid FROM orders WHERE courier = 'c1'");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->num_rows(), 19u);
  EXPECT_EQ(FidSet(*stale).count("o1"), 0u);

  auto fresh = RunSelect(engine_.get(),
                         "SELECT fid FROM orders WHERE courier = 'zz'");
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->num_rows(), 1u);
  EXPECT_EQ(fresh->rows()[0][0].string_value(), "o1");
}

// --- Online, non-blocking build ------------------------------------------

TEST_F(SecondaryIndexTest, ConcurrentWritersAreNeverBlockedAndIndexIsExact) {
  // A writer hammers Puts while CREATE INDEX backfills. Every Put must
  // succeed (the build never blocks writers), and the finished index must
  // agree exactly with a post-hoc scan of the base table: backfilled rows,
  // rows dual-written during the build, and rows replayed from the
  // catch-up journal are all indistinguishable.
  std::atomic<bool> writer_ok{true};
  std::thread writer([&] {
    TimestampMs base = ParseTimestamp("2018-10-02").value();
    Rng rng(23);
    for (int i = 0; i < 300; ++i) {
      exec::Row row = {
          exec::Value::String("w" + std::to_string(i)),
          exec::Value::String("c" + std::to_string(i % 20)),
          exec::Value::Int(i % 50),
          exec::Value::Timestamp(base + i * kMillisPerMinute),
          exec::Value::GeometryVal(geo::Geometry::MakePoint(
              {116.0 + rng.NextDouble(), 39.5 + rng.NextDouble()})),
      };
      if (!engine_->Insert("u", "orders", row).ok()) {
        writer_ok.store(false);
        return;
      }
    }
  });
  Status built = engine_->CreateIndex("u", "orders", "idx_c", "courier");
  writer.join();
  ASSERT_TRUE(built.ok()) << built.ToString();
  ASSERT_TRUE(writer_ok.load()) << "a Put failed during the online build";

  auto full = QueryFrame(engine_.get(), "u", "orders");
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->num_rows(), 700u);
  for (int c = 0; c < 20; ++c) {
    std::string courier = "c" + std::to_string(c);
    std::multiset<std::string> oracle;
    for (const auto& row : full->rows()) {
      if (row[1].string_value() == courier) {
        oracle.insert(row[0].string_value());
      }
    }
    QueryStats stats;
    auto frame = RunSelect(
        engine_.get(), "SELECT fid FROM orders WHERE courier = '" + courier +
                           "'", &stats);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(FidSet(*frame), oracle) << courier;
    EXPECT_EQ(stats.rows_scanned, oracle.size()) << courier;
  }
}

// --- Persistence and crash recovery --------------------------------------

TEST_F(SecondaryIndexTest, ReadyIndexSurvivesReopen) {
  ASSERT_TRUE(engine_->CreateIndex("u", "orders", "idx_c", "courier").ok());
  ASSERT_TRUE(engine_->Finalize().ok());
  engine_.reset();
  OpenEngine();

  auto described = engine_->DescribeTable("u", "orders");
  ASSERT_TRUE(described.ok());
  const meta::SecondaryIndexDef* def = described->FindSecondaryIndex("idx_c");
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->state, meta::IndexState::kReady);

  QueryStats stats;
  auto frame = RunSelect(engine_.get(),
                         "SELECT fid FROM orders WHERE courier = 'c7'", &stats);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 20u);
  EXPECT_EQ(stats.rows_scanned, 20u);
}

TEST_F(SecondaryIndexTest, LeftoverBuildingIndexIsDroppedOnOpen) {
  // Simulate a process that died mid-build: a `building` catalog entry with
  // no living journal. Open() must drop it; CREATE INDEX can then be rerun.
  auto described = engine_->DescribeTable("u", "orders");
  ASSERT_TRUE(described.ok());
  meta::SecondaryIndexDef def;
  def.name = "idx_zombie";
  def.column = "courier";
  def.slot = std::max<uint32_t>(
      static_cast<uint32_t>(described->indexes.size()),
      described->next_index_slot);
  def.state = meta::IndexState::kBuilding;
  ASSERT_TRUE(engine_->catalog()->AddIndex("u", "orders", def).ok());
  ASSERT_TRUE(engine_->Finalize().ok());
  engine_.reset();
  OpenEngine();

  described = engine_->DescribeTable("u", "orders");
  ASSERT_TRUE(described.ok());
  EXPECT_EQ(described->FindSecondaryIndex("idx_zombie"), nullptr);
  ASSERT_TRUE(engine_->CreateIndex("u", "orders", "idx_zombie", "courier").ok());
  auto frame = RunSelect(engine_.get(),
                         "SELECT fid FROM orders WHERE courier = 'c0'");
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 20u);
}

// --- Observability -------------------------------------------------------

TEST_F(SecondaryIndexTest, CountersAdvanceThroughTheIndexLifecycle) {
  uint64_t build = CounterValue("just_idx_build_rows_total");
  uint64_t written = CounterValue("just_idx_entries_written_total");
  uint64_t lookups = CounterValue("just_idx_lookups_total");

  ASSERT_TRUE(engine_->CreateIndex("u", "orders", "idx_c", "courier").ok());
  EXPECT_GE(CounterValue("just_idx_build_rows_total"), build + 400);

  TimestampMs base = ParseTimestamp("2018-10-03").value();
  exec::Row row = {
      exec::Value::String("extra"),
      exec::Value::String("c0"),
      exec::Value::Int(1),
      exec::Value::Timestamp(base),
      exec::Value::GeometryVal(geo::Geometry::MakePoint({116.5, 40.0})),
  };
  ASSERT_TRUE(engine_->Insert("u", "orders", row).ok());
  EXPECT_GT(CounterValue("just_idx_entries_written_total"), written);

  auto frame = RunSelect(engine_.get(),
                         "SELECT fid FROM orders WHERE courier = 'c0'");
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 21u);
  EXPECT_GT(CounterValue("just_idx_lookups_total"), lookups);
}

// --- Bugfix regressions --------------------------------------------------

TEST_F(SecondaryIndexTest, PlanCacheInvalidatedByDdl) {
  // The compiled-predicate cache key folds in the table's catalog
  // generation. Dropping and recreating a table (same name, same schema)
  // or adding an index must not serve a stale program.
  meta::TableMeta table;
  table.user = "u";
  table.name = "t2";
  table.columns = {
      {"fid", exec::DataType::kString, true, "", ""},
      {"v", exec::DataType::kInt, false, "", ""},
      {"w", exec::DataType::kInt, false, "", ""},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "", ""},
  };
  TimestampMs base = ParseTimestamp("2018-10-01").value();
  auto insert_rows = [&](int value_base) {
    for (int i = 0; i < 10; ++i) {
      exec::Row row = {
          exec::Value::String("r" + std::to_string(i)),
          exec::Value::Int(value_base + i),
          exec::Value::Int(i),
          exec::Value::Timestamp(base + i * kMillisPerMinute),
          exec::Value::GeometryVal(geo::Geometry::MakePoint({116.1, 39.9})),
      };
      ASSERT_TRUE(engine_->Insert("u", "t2", row).ok());
    }
  };
  ASSERT_TRUE(engine_->CreateTable(table).ok());
  insert_rows(0);  // v = 0..9
  ASSERT_TRUE(engine_->Finalize().ok());

  const std::string q = "SELECT fid FROM t2 WHERE v >= 5";
  auto frame = RunSelect(engine_.get(), q);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->num_rows(), 5u);

  // Warm: the same statement against the unchanged table is a cache hit.
  uint64_t misses = sql::PredicateProgramCache::Global().misses();
  frame = RunSelect(engine_.get(), q);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 5u);
  EXPECT_EQ(sql::PredicateProgramCache::Global().misses(), misses);

  // Drop + recreate with different data: same SQL text, same schema — the
  // generation-scoped key forces a recompile and the fresh rows win.
  ASSERT_TRUE(engine_->DropTable("u", "t2").ok());
  ASSERT_TRUE(engine_->CreateTable(table).ok());
  insert_rows(100);  // v = 100..109: all match now
  ASSERT_TRUE(engine_->Finalize().ok());
  frame = RunSelect(engine_.get(), q);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 10u);
  EXPECT_GT(sql::PredicateProgramCache::Global().misses(), misses);

  // CREATE INDEX bumps the generation too (on an unrelated column, so the
  // probe query still carries a compiled residual).
  misses = sql::PredicateProgramCache::Global().misses();
  ASSERT_TRUE(engine_->CreateIndex("u", "t2", "idx_w", "w").ok());
  frame = RunSelect(engine_.get(), q);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 10u);
  EXPECT_GT(sql::PredicateProgramCache::Global().misses(), misses);
}

TEST(SecondaryIndexLimitTest, LimitStopsScanningEarly) {
  // Regression for the LIMIT full-materialization bug: LIMIT 10 over a
  // 100k-row table must not scan anywhere near 100k rows.
  TempDir dir("secidx_limit");
  EngineOptions options;
  options.data_dir = dir.path();
  options.num_servers = 2;
  options.num_shards = 4;
  auto engine = JustEngine::Open(options);
  ASSERT_TRUE(engine.ok());

  meta::TableMeta table;
  table.user = "u";
  table.name = "big";
  table.columns = {
      {"fid", exec::DataType::kString, true, "", ""},
      {"amount", exec::DataType::kInt, false, "", ""},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "", ""},
  };
  ASSERT_TRUE((*engine)->CreateTable(table).ok());
  TimestampMs base = ParseTimestamp("2018-10-01").value();
  Rng rng(41);
  constexpr int kRows = 100000;
  std::vector<exec::Row> chunk;
  chunk.reserve(10000);
  for (int i = 0; i < kRows; ++i) {
    chunk.push_back({
        exec::Value::String("o" + std::to_string(i)),
        exec::Value::Int(i % 1000),
        exec::Value::Timestamp(base + (i % 100000) * 100),
        exec::Value::GeometryVal(geo::Geometry::MakePoint(
            {116.0 + rng.NextDouble(), 39.5 + rng.NextDouble()})),
    });
    if (chunk.size() == 10000) {
      ASSERT_TRUE((*engine)->InsertBatch("u", "big", chunk).ok());
      chunk.clear();
    }
  }
  ASSERT_TRUE((*engine)->Finalize().ok());

  {
    QueryStats stats;
    auto frame = RunSelect(engine->get(), "SELECT fid FROM big LIMIT 10",
                           &stats);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->num_rows(), 10u);
    EXPECT_LT(stats.rows_scanned, static_cast<size_t>(kRows) / 10)
        << "LIMIT did not stop the scan";
    EXPECT_GT(stats.rows_scanned, 0u);
  }
  {
    // With a residual predicate: the budget applies it per batch and still
    // stops early.
    QueryStats stats;
    auto frame = RunSelect(
        engine->get(), "SELECT fid FROM big WHERE amount >= 0 LIMIT 10",
        &stats);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->num_rows(), 10u);
    EXPECT_LT(stats.rows_scanned, static_cast<size_t>(kRows) / 10);
  }
  {
    // A LIMIT beyond the table must still return everything.
    auto frame = RunSelect(engine->get(),
                           "SELECT fid FROM big WHERE amount < 3 LIMIT 500");
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->num_rows(), 300u);
  }
}

// --- Storage-fault sweep -------------------------------------------------

TEST(SecondaryIndexFaultTest, OnlineBuildIsAtomicUnderDiskFaults) {
  // Inject storage faults at varied points of the online build — one-shot
  // (transient) and dead-disk — then reopen. In every outcome the index
  // must be atomic: either absent (rolled back / swept) or `ready` and
  // exactly matching the base table. Never half-built-but-queryable.
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    TempDir dir("secidx_fault" + std::to_string(round));
    kv::FaultInjectionEnv env;
    EngineOptions options;
    options.data_dir = dir.path();
    options.num_servers = 2;
    options.num_shards = 4;
    options.store.env = &env;
    options.index_build_batch_rows = 32;  // several batches -> several ops

    meta::TableMeta table;
    table.user = "u";
    table.name = "orders";
    table.columns = {
        {"fid", exec::DataType::kString, true, "", ""},
        {"courier", exec::DataType::kString, false, "", ""},
        {"time", exec::DataType::kTimestamp, false, "", ""},
        {"geom", exec::DataType::kGeometry, false, "", ""},
    };

    Status built;
    {
      auto engine = JustEngine::Open(options);
      ASSERT_TRUE(engine.ok());
      ASSERT_TRUE((*engine)->CreateTable(table).ok());
      TimestampMs base = ParseTimestamp("2018-10-01").value();
      Rng rng(100 + round);
      std::vector<exec::Row> rows;
      for (int i = 0; i < 160; ++i) {
        rows.push_back({
            exec::Value::String("o" + std::to_string(i)),
            exec::Value::String("c" + std::to_string(i % 4)),
            exec::Value::Timestamp(base + i * kMillisPerMinute),
            exec::Value::GeometryVal(geo::Geometry::MakePoint(
                {116.0 + rng.NextDouble(), 39.5 + rng.NextDouble()})),
        });
      }
      ASSERT_TRUE((*engine)->InsertBatch("u", "orders", rows).ok());
      ASSERT_TRUE((*engine)->Finalize().ok());

      env.FailWriteOp(env.write_ops() + 1 + round * 3,
                      /*all_after=*/round % 2 == 0);
      built = (*engine)->CreateIndex("u", "orders", "idx_c", "courier");
      env.ClearFaults();
    }

    auto engine = JustEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto described = (*engine)->DescribeTable("u", "orders");
    ASSERT_TRUE(described.ok());
    const meta::SecondaryIndexDef* def =
        described->FindSecondaryIndex("idx_c");
    if (def == nullptr) {
      EXPECT_FALSE(built.ok());
      // The build can simply be rerun on the recovered disk.
      ASSERT_TRUE(
          (*engine)->CreateIndex("u", "orders", "idx_c", "courier").ok());
    } else {
      EXPECT_EQ(def->state, meta::IndexState::kReady);
    }
    QueryStats stats;
    auto frame = RunSelect(engine->get(),
                           "SELECT fid FROM orders WHERE courier = 'c2'",
                           &stats);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->num_rows(), 40u);
    EXPECT_EQ(stats.rows_scanned, 40u);
  }
}

}  // namespace
}  // namespace just::core
