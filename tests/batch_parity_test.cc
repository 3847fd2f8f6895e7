// Differential tests of the columnar execution path against row-at-a-time
// oracles. Two layers:
//
//  1. PredicateProgram vs EvaluateExpr on hand-built and randomized frames
//     (NULLs, mixed int/double columns, strings, constant folding,
//     interpreted fallback shapes) — the program must keep exactly the rows
//     the tree-walking evaluator keeps.
//  2. Full SQL statements through the executor, whatever access path it
//     picks, against the brute-force oracle (query_oracle.h, through
//     scan_parity.h: a full scan filtered by EvaluateExpr(WHERE)) — the
//     frames must hold the same rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/column_batch.h"
#include "sql/expr_eval.h"
#include "sql/parser.h"
#include "sql/predicate_program.h"
#include "scan_parity.h"
#include "test_util.h"

namespace just::sql {
namespace {

using just::testing::FrameBuilder;
using just::testing::TempDir;

Statement ParsePred(const std::string& pred) {
  auto stmt = ParseStatement("SELECT * FROM t WHERE " + pred);
  EXPECT_TRUE(stmt.ok()) << pred << " -> " << stmt.status().ToString();
  return std::move(*stmt);
}

/// Row-at-a-time oracle: EvaluateExpr with the Filter conventions (NULL is
/// false, evaluation errors drop the row).
std::vector<uint32_t> OracleFilter(const Expr& pred,
                                   const exec::DataFrame& frame) {
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < frame.num_rows(); ++i) {
    auto v = EvaluateExpr(pred, frame.schema(), frame.rows()[i]);
    if (v.ok() && !v->is_null() && v->type() == exec::DataType::kBool &&
        v->bool_value()) {
      kept.push_back(static_cast<uint32_t>(i));
    }
  }
  return kept;
}

/// Vectorized path: compile once, run over the batched frame, flatten the
/// surviving selections back to global row numbers.
std::vector<uint32_t> VectorizedFilter(const Expr& pred,
                                       const exec::DataFrame& frame) {
  auto program = PredicateProgram::Compile(pred, frame.schema());
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return {};
  exec::BatchVector batches = exec::BatchesFromDataFrame(frame);
  std::vector<uint32_t> kept;
  uint32_t base = 0;
  for (exec::ColumnBatch& batch : batches) {
    uint32_t rows = static_cast<uint32_t>(batch.num_rows());
    EXPECT_TRUE((*program)->Run(&batch).ok());
    if (batch.has_selection()) {
      for (uint32_t row : batch.selection()) kept.push_back(base + row);
    } else {
      for (uint32_t row = 0; row < rows; ++row) kept.push_back(base + row);
    }
    base += rows;
  }
  return kept;
}

void ExpectParity(const std::string& pred, const exec::DataFrame& frame) {
  Statement stmt = ParsePred(pred);
  const Expr& where = *stmt.select->where;
  EXPECT_EQ(OracleFilter(where, frame), VectorizedFilter(where, frame))
      << "predicate: " << pred;
}

exec::DataFrame TypedFrame() {
  FrameBuilder b;
  b.Col("id", exec::DataType::kInt)
      .Col("score", exec::DataType::kDouble)
      .Col("name", exec::DataType::kString)
      .Col("t", exec::DataType::kTimestamp);
  for (int i = 0; i < 50; ++i) {
    exec::Value id = (i % 7 == 3) ? exec::Value::Null() : exec::Value::Int(i);
    exec::Value score = (i % 11 == 5) ? exec::Value::Null()
                                      : exec::Value::Double(i * 0.5 - 3.0);
    b.Row({std::move(id), std::move(score),
           exec::Value::String(i % 2 ? "odd" : "even"),
           exec::Value::Timestamp(1000 + i * 10)});
  }
  return b.Frame();
}

TEST(PredicateParityTest, NumericComparisonsWithNulls) {
  exec::DataFrame frame = TypedFrame();
  for (const char* pred :
       {"id = 21", "id != 21", "id < 10", "id <= 10", "id > 40", "id >= 40",
        "score < 0.0", "score >= 12.5", "id BETWEEN 5 AND 15",
        "score BETWEEN -1.0 AND 4.0", "id > 3 AND score < 20.0",
        "id >= 0 AND id <= 49 AND score > -100.0"}) {
    ExpectParity(pred, frame);
  }
}

TEST(PredicateParityTest, StringAndCrossColumn) {
  exec::DataFrame frame = TypedFrame();
  for (const char* pred :
       {"name = 'odd'", "name != 'even'", "name < 'f'", "id = score",
        "id < score", "name = 'odd' AND id > 25"}) {
    ExpectParity(pred, frame);
  }
}

TEST(PredicateParityTest, ConstantFolding) {
  exec::DataFrame frame = TypedFrame();
  ExpectParity("1 = 1 AND id > 10", frame);   // const-true conjunct drops out
  ExpectParity("1 = 2 AND id > 10", frame);   // whole program folds to false
  ExpectParity("id = 2 + 3 * 4", frame);      // constant subtree folds
  Statement stmt = ParsePred("1 = 2");
  auto program = PredicateProgram::Compile(*stmt.select->where,
                                           frame.schema());
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE((*program)->fully_specialized());
}

TEST(PredicateParityTest, FallbackShapesStayCorrect) {
  exec::DataFrame frame = TypedFrame();
  // Arithmetic over columns has no specialized kernel: it must run through
  // the interpreted fallback step and still agree with the oracle.
  Statement stmt = ParsePred("id + 1 > 10");
  auto program =
      PredicateProgram::Compile(*stmt.select->where, frame.schema());
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE((*program)->fully_specialized());
  EXPECT_STREQ((*program)->ModeLabel(), "interpreted");
  for (const char* pred :
       {"id + 1 > 10", "score * 2.0 < id", "id / 2 = 5 AND score > 0.0"}) {
    ExpectParity(pred, frame);
  }
  // Mixed specialized + fallback steps -> "partial".
  Statement mixed = ParsePred("id > 3 AND id + 1 > 10");
  auto partial =
      PredicateProgram::Compile(*mixed.select->where, frame.schema());
  ASSERT_TRUE(partial.ok());
  EXPECT_STREQ((*partial)->ModeLabel(), "partial");
}

TEST(PredicateParityTest, MixedIntDoubleColumnDegradesAndAgrees) {
  // A column whose runtime values mix int and double degrades to object
  // storage; comparisons must match Value::Compare's cross-type ordering.
  FrameBuilder b;
  b.Col("x", exec::DataType::kInt);
  for (int i = 0; i < 30; ++i) {
    if (i % 5 == 0) {
      b.Row({exec::Value::Null()});
    } else if (i % 2 == 0) {
      b.Row({exec::Value::Int(i - 10)});
    } else {
      b.Row({exec::Value::Double(i * 0.7 - 9.5)});
    }
  }
  exec::DataFrame frame = b.Frame();
  for (const char* pred : {"x = 2", "x < 0", "x >= 2.5", "x != 4",
                           "x BETWEEN -3 AND 6", "x BETWEEN -2.5 AND 5.5"}) {
    ExpectParity(pred, frame);
  }
}

TEST(PredicateParityTest, RandomizedDifferential) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> val(-20, 20);
  std::uniform_int_distribution<int> pick(0, 9);
  FrameBuilder b;
  b.Col("a", exec::DataType::kInt).Col("b", exec::DataType::kDouble);
  for (int i = 0; i < 500; ++i) {
    exec::Value a =
        pick(rng) == 0 ? exec::Value::Null() : exec::Value::Int(val(rng));
    exec::Value bv = pick(rng) == 0 ? exec::Value::Null()
                                    : exec::Value::Double(val(rng) * 0.25);
    b.Row({std::move(a), std::move(bv)});
  }
  exec::DataFrame frame = b.Frame();
  const char* cmps[] = {"=", "!=", "<", "<=", ">", ">="};
  for (int trial = 0; trial < 40; ++trial) {
    std::string pred = std::string("a ") + cmps[trial % 6] + " " +
                       std::to_string(val(rng));
    if (trial % 2) {
      pred += " AND b " + std::string(cmps[(trial + 3) % 6]) + " " +
              std::to_string(val(rng) * 0.25);
    }
    ExpectParity(pred, frame);
  }
}

TEST(PredicateProgramCacheTest, HitsMissesEvictions) {
  PredicateProgramCache cache(2);
  exec::DataFrame frame = TypedFrame();
  Statement s1 = ParsePred("id > 1");
  Statement s2 = ParsePred("id > 2");
  Statement s3 = ParsePred("id > 3");
  std::vector<const Expr*> c1 = {s1.select->where.get()};
  std::vector<const Expr*> c2 = {s2.select->where.get()};
  std::vector<const Expr*> c3 = {s3.select->where.get()};
  ASSERT_TRUE(cache.GetOrCompile(c1, frame.schema()).ok());
  ASSERT_TRUE(cache.GetOrCompile(c1, frame.schema()).ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  ASSERT_TRUE(cache.GetOrCompile(c2, frame.schema()).ok());
  ASSERT_TRUE(cache.GetOrCompile(c3, frame.schema()).ok());  // evicts c1
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.GetOrCompile(c1, frame.schema()).ok());  // miss again
  EXPECT_EQ(cache.misses(), 4u);
}

// --- End-to-end: executor vs the brute-force oracle ---

class ExecutorParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("batch_parity");
    core::EngineOptions options;
    options.data_dir = dir_->path();
    options.num_servers = 2;
    options.num_shards = 4;
    auto engine = core::JustEngine::Open(options);
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(engine).value();
    Status loaded =
        just::testing::LoadScanParityTables(engine_.get(), "tester");
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  }

  void ExpectSameResult(const std::string& sql) {
    just::testing::ExpectSameResult(engine_.get(), "tester", sql);
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<core::JustEngine> engine_;
};

TEST_F(ExecutorParityTest, ScansFiltersProjectionsAggregates) {
  ExpectSameResult("SELECT * FROM orders");
  ExpectSameResult("SELECT fid, city FROM orders");
  ExpectSameResult(
      "SELECT fid FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.30, 39.80, 116.45, 39.95)");
  ExpectSameResult(
      "SELECT fid, time FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.30, 39.80, 116.45, 39.95) AND city = 'city1'");
  ExpectSameResult("SELECT fid FROM orders WHERE city = 'city2'");
  ExpectSameResult("SELECT count(*) AS n FROM orders");
  ExpectSameResult(
      "SELECT count(*) AS n, min(time) AS lo, max(time) AS hi FROM orders "
      "WHERE city = 'city3'");
  ExpectSameResult("SELECT fid FROM orders WHERE city != 'city0'");
  ExpectSameResult(
      "SELECT fid FROM orders WHERE city = 'city1' AND fid < 'order_0005'");
}

TEST_F(ExecutorParityTest, EveryAccessPathMatchesTheOracle) {
  // st_range, temporal_range, secondary-index range, index intersection,
  // k-NN and a budgeted (LIMIT-pushdown) full scan; the cases above cover
  // spatial_range, secondary_index and full_scan.
  // Time bounds as epoch-ms literals (2018-10-05 .. 2018-10-25 and
  // 2018-10-10 .. 2018-10-12 UTC here) and as the date strings they name.
  ExpectSameResult(
      "SELECT fid FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.20, 39.70, 116.60, 40.10) AND "
      "time BETWEEN 1538697600000 AND 1540425600000");
  ExpectSameResult(
      "SELECT fid FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.20, 39.70, 116.60, 40.10) AND "
      "time BETWEEN '2018-10-05' AND '2018-10-25'");
  ExpectSameResult(
      "SELECT fid, city FROM orders WHERE "
      "time BETWEEN 1539129600000 AND 1539302400000");
  ExpectSameResult(
      "SELECT fid, city FROM orders WHERE "
      "time BETWEEN '2018-10-10' AND '2018-10-12'");
  ExpectSameResult("SELECT fid FROM orders WHERE city > 'city1'");
  ExpectSameResult(
      "SELECT fid FROM orders WHERE city BETWEEN 'city1' AND 'city2' AND "
      "geom WITHIN st_makeMBR(116.30, 39.80, 116.45, 39.95)");
  ExpectSameResult("SELECT fid, city FROM orders LIMIT 7");
  // Date strings in residual comparisons compare as instants.
  ExpectSameResult(
      "SELECT fid FROM orders WHERE city = 'city1' AND time < '2018-10-12'");
  ExpectSameResult(
      "SELECT fid FROM orders WHERE time >= '2018-10-10' AND "
      "time < '2018-10-12' AND fid > 'order_0100'");
  ExpectSameResult(
      "SELECT fid FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.20, 39.70, 116.60, 40.10) AND "
      "(time < '2018-10-08' OR time > '2018-10-20')");
  // k-NN answers the k nearest; a box or time window also in the query
  // filters those k rows.
  ExpectSameResult(
      "SELECT fid FROM orders WHERE "
      "geom IN st_KNN(st_makePoint(116.40, 39.90), 40)");
  ExpectSameResult(
      "SELECT fid FROM orders WHERE "
      "geom IN st_KNN(st_makePoint(116.40, 39.90), 40) AND "
      "geom WITHIN st_makeMBR(116.30, 39.80, 116.40, 39.90)");
  ExpectSameResult(
      "SELECT fid, time FROM orders WHERE "
      "geom IN st_KNN(st_makePoint(116.40, 39.90), 40) AND "
      "time BETWEEN '2018-10-10' AND '2018-10-20'");
  // The streaming scan's decode shapes: residual and kept columns pushed
  // into the scan, NULL and compressed cells, extent geometries,
  // trajectories, LIMIT with and without a residual.
  for (const std::string& sql : just::testing::ScanParityQueries()) {
    ExpectSameResult(sql);
  }
}

TEST_F(ExecutorParityTest, RowOnlyOperatorsStillWork) {
  // Sort/limit and grouped aggregation cross the batch->row boundary.
  ExpectSameResult("SELECT fid FROM orders ORDER BY time LIMIT 10");
  ExpectSameResult(
      "SELECT city, count(*) AS n FROM orders GROUP BY city ORDER BY city");
}

}  // namespace
}  // namespace just::sql
