#include <gtest/gtest.h>

#include "exec/column_batch.h"
#include "exec/dataframe.h"
#include "exec/memory.h"
#include "exec/operators.h"
#include "exec/value.h"
#include "test_util.h"

namespace just::exec {
namespace {

just::testing::FrameBuilder TestBuilder() {
  just::testing::FrameBuilder b;
  b.Col("id", DataType::kInt)
      .Col("name", DataType::kString)
      .Col("score", DataType::kDouble)
      .Row({Value::Int(1), Value::String("alice"), Value::Double(3.5)})
      .Row({Value::Int(2), Value::String("bob"), Value::Double(1.5)})
      .Row({Value::Int(3), Value::String("carol"), Value::Double(2.5)})
      .Row({Value::Int(4), Value::String("bob"), Value::Double(4.0)});
  return b;
}

std::shared_ptr<Schema> TestSchema() { return TestBuilder().schema(); }

DataFrame TestFrame() { return TestBuilder().Frame(); }

// --- Value ---

TEST(ValueTest, TypeAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).int_value(), 5);
  EXPECT_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("x").string_value(), "x");
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Timestamp(123).timestamp_value(), 123);
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_EQ(Value::Int(3).AsDouble().value(), 3.0);
  EXPECT_EQ(Value::Double(2.9).AsInt().value(), 2);
  EXPECT_EQ(Value::Bool(true).AsDouble().value(), 1.0);
  EXPECT_FALSE(Value::String("x").AsDouble().ok());
}

TEST(ValueTest, CompareNumericCrossType) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(3.0).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, HashConsistentWithEquals) {
  EXPECT_EQ(Value::Int(1).Hash(), Value::Double(1.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
}

TEST(ValueTest, SerializeRoundTripAllTypes) {
  std::vector<Value> values = {
      Value::Null(),
      Value::Bool(true),
      Value::Int(-42),
      Value::Double(3.14159),
      Value::String("hello"),
      Value::Timestamp(1393632000000LL),
      Value::GeometryVal(geo::Geometry::MakePoint({116.4, 39.9})),
  };
  std::string buf;
  for (const Value& v : values) v.SerializeTo(&buf);
  const char* p = buf.data();
  const char* limit = p + buf.size();
  for (const Value& v : values) {
    auto back = Value::Deserialize(&p, limit);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back->Equals(v)) << v.ToString();
  }
  EXPECT_EQ(p, limit);
}

TEST(ValueTest, TrajectorySerializeRoundTrip) {
  auto t = std::make_shared<const traj::Trajectory>(
      "oid1", std::vector<traj::GpsPoint>{{{116.4, 39.9}, 1000},
                                          {{116.41, 39.91}, 2000}});
  Value v = Value::TrajectoryVal(t);
  std::string buf;
  v.SerializeTo(&buf);
  const char* p = buf.data();
  auto back = Value::Deserialize(&p, buf.data() + buf.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->trajectory_value()->oid(), "oid1");
  EXPECT_EQ(back->trajectory_value()->size(), 2u);
}

TEST(ValueTest, TrajectoriesWithSameOidButDifferentPointsDiffer) {
  const std::vector<traj::GpsPoint> points = {{{116.4, 39.9}, 1000},
                                              {{116.41, 39.91}, 2000}};
  auto traj_value = [](std::vector<traj::GpsPoint> pts) {
    return Value::TrajectoryVal(
        std::make_shared<const traj::Trajectory>("oid1", std::move(pts)));
  };
  const Value full = traj_value(points);
  EXPECT_TRUE(full.Equals(traj_value(points)));
  EXPECT_EQ(full.Hash(), traj_value(points).Hash());

  // One point moved, one time shifted, one point dropped: all differ, and
  // the order is by point count, then (time, lng, lat).
  auto moved = points;
  moved[1].position.lat = 39.92;
  EXPECT_LT(full.Compare(traj_value(moved)), 0);
  EXPECT_GT(traj_value(moved).Compare(full), 0);
  auto later = points;
  later[0].time = 1001;
  EXPECT_LT(full.Compare(traj_value(later)), 0);
  EXPECT_GT(full.Compare(traj_value({points[0]})), 0);

  // A summary-only copy claims the same count but carries no points.
  const traj::Trajectory& t = *full.trajectory_value();
  const Value summary = Value::TrajectoryVal(
      std::make_shared<const traj::Trajectory>(traj::Trajectory::SummaryOnly(
          "oid1", t.Bounds(), t.start_time(), t.end_time(), t.point_count())));
  EXPECT_FALSE(full.Equals(summary));
  EXPECT_NE(full.Compare(summary), 0);
  EXPECT_EQ(full.Compare(summary), -summary.Compare(full));

  // Different oids still order by oid first.
  const Value other = Value::TrajectoryVal(
      std::make_shared<const traj::Trajectory>("oid0", moved));
  EXPECT_GT(full.Compare(other), 0);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Timestamp(0).ToString(), "1970-01-01 00:00:00");
}

TEST(ValueTest, ParseDataTypeNames) {
  EXPECT_EQ(ParseDataType("integer").value(), DataType::kInt);
  EXPECT_EQ(ParseDataType("point").value(), DataType::kGeometry);
  EXPECT_EQ(ParseDataType("st_series").value(), DataType::kTrajectory);
  EXPECT_EQ(ParseDataType("DATE").value(), DataType::kTimestamp);
  EXPECT_FALSE(ParseDataType("blob").ok());
}

// --- Schema / DataFrame ---

TEST(ColumnVectorTest, NullsThenValuesStayNonNull) {
  // The null bitmap ends at the last null; cells appended after it — well
  // past the bitmap's last word — must read as non-null.
  for (DataType type : {DataType::kInt, DataType::kDouble, DataType::kString}) {
    ColumnVector col(type);
    col.AppendNulls(3);
    col.AppendNull();
    for (int i = 0; i < 300; ++i) {
      if (type == DataType::kInt) col.AppendInt64(i);
      if (type == DataType::kDouble) col.AppendDouble(i);
      if (type == DataType::kString) col.AppendString("s");
    }
    col.AppendNulls(2);
    ASSERT_EQ(col.size(), 306u);
    for (size_t row = 0; row < col.size(); ++row) {
      EXPECT_EQ(col.IsNull(row), row < 4 || row >= 304) << row;
      EXPECT_EQ(col.ValueAt(row).is_null(), row < 4 || row >= 304) << row;
    }
  }
}

TEST(SchemaTest, IndexOfCaseInsensitive) {
  Schema s({{"Fid", DataType::kInt}, {"geom", DataType::kGeometry}});
  EXPECT_EQ(s.IndexOf("fid"), 0);
  EXPECT_EQ(s.IndexOf("GEOM"), 1);
  EXPECT_EQ(s.IndexOf("missing"), -1);
}

TEST(DataFrameTest, DisplayString) {
  DataFrame df = TestFrame();
  std::string out = df.ToDisplayString(2);
  EXPECT_NE(out.find("alice"), std::string::npos);
  EXPECT_NE(out.find("(2 more rows)"), std::string::npos);
  EXPECT_EQ(out.find("carol"), std::string::npos);  // truncated
}

TEST(DataFrameTest, ApproxBytesGrowsWithRows) {
  DataFrame small = TestFrame();
  DataFrame big(TestSchema());
  for (int i = 0; i < 100; ++i) {
    big.AddRow({Value::Int(i), Value::String("user" + std::to_string(i)),
                Value::Double(i)});
  }
  EXPECT_GT(big.ApproxBytes(), small.ApproxBytes());
}

// --- Operators ---

TEST(OperatorsTest, ProjectReordersColumns) {
  auto out = Project(TestFrame(), {"score", "id"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().field(0).name, "score");
  EXPECT_EQ(out->rows()[0][1].int_value(), 1);
  EXPECT_FALSE(Project(TestFrame(), {"nope"}).ok());
}

TEST(OperatorsTest, SortMultiKey) {
  auto out = Sort(TestFrame(), {{"name", true}, {"score", false}});
  ASSERT_TRUE(out.ok());
  // alice, bob(4.0), bob(1.5), carol.
  EXPECT_EQ(out->rows()[0][1].string_value(), "alice");
  EXPECT_EQ(out->rows()[1][2].double_value(), 4.0);
  EXPECT_EQ(out->rows()[2][2].double_value(), 1.5);
  EXPECT_EQ(out->rows()[3][1].string_value(), "carol");
}

TEST(OperatorsTest, SortDescending) {
  auto out = Sort(TestFrame(), {{"score", false}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows()[0][2].double_value(), 4.0);
  EXPECT_EQ(out->rows()[3][2].double_value(), 1.5);
}

TEST(OperatorsTest, Limit) {
  EXPECT_EQ(Limit(TestFrame(), 2).num_rows(), 2u);
  EXPECT_EQ(Limit(TestFrame(), 100).num_rows(), 4u);
  EXPECT_EQ(Limit(TestFrame(), 0).num_rows(), 0u);
}

TEST(OperatorsTest, GroupByWithAggregates) {
  auto out = GroupBy(TestFrame(), {"name"},
                     {{AggFunc::kCount, "", "cnt"},
                      {AggFunc::kSum, "score", "total"},
                      {AggFunc::kMax, "score", "best"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);
  // Find bob's row.
  for (const Row& row : out->rows()) {
    if (row[0].string_value() == "bob") {
      EXPECT_EQ(row[1].int_value(), 2);
      EXPECT_EQ(row[2].double_value(), 5.5);
      EXPECT_EQ(row[3].double_value(), 4.0);
    }
  }
}

TEST(OperatorsTest, GlobalAggregateOnEmptyInput) {
  DataFrame empty(TestSchema());
  auto out = GroupBy(empty, {}, {{AggFunc::kCount, "", "cnt"}});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->rows()[0][0].int_value(), 0);
}

TEST(OperatorsTest, AvgAndMin) {
  auto out = GroupBy(TestFrame(), {},
                     {{AggFunc::kAvg, "score", "avg"},
                      {AggFunc::kMin, "score", "min"}});
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->rows()[0][0].double_value(), 11.5 / 4, 1e-9);
  EXPECT_EQ(out->rows()[0][1].double_value(), 1.5);
}

TEST(OperatorsTest, HashJoin) {
  auto right_schema = std::make_shared<Schema>();
  right_schema->AddField({"name", DataType::kString});
  right_schema->AddField({"dept", DataType::kString});
  DataFrame right(right_schema);
  right.AddRow({Value::String("bob"), Value::String("eng")});
  right.AddRow({Value::String("carol"), Value::String("ops")});

  auto out = HashJoin(TestFrame(), right, "name", "name");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);  // bob x2, carol x1
  // Clashing column renamed.
  EXPECT_GE(out->schema().IndexOf("name_r"), 0);
}

// --- ColumnBatch ---

TEST(ColumnBatchTest, TypedStorageSelection) {
  DataFrame df = TestFrame();
  ColumnBatch batch = ColumnBatch::FromDataFrame(df);
  ASSERT_EQ(batch.num_rows(), 4u);
  EXPECT_EQ(batch.column(0).storage(), ColumnVector::Storage::kInt64);
  EXPECT_EQ(batch.column(1).storage(), ColumnVector::Storage::kString);
  EXPECT_EQ(batch.column(2).storage(), ColumnVector::Storage::kDouble);
  EXPECT_EQ(batch.column(0).Int64At(2), 3);
  EXPECT_EQ(batch.column(2).DoubleAt(3), 4.0);

  batch.SetSelection({1, 3});
  EXPECT_EQ(batch.num_active(), 2u);
  DataFrame out = batch.ToDataFrame();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.rows()[0][1].string_value(), "bob");
  EXPECT_EQ(out.rows()[1][2].double_value(), 4.0);
}

TEST(ColumnBatchTest, NullBitmapRoundTrip) {
  just::testing::FrameBuilder b;
  b.Col("x", DataType::kInt)
      .Row({Value::Int(1)})
      .Row({Value::Null()})
      .Row({Value::Int(3)});
  ColumnBatch batch = ColumnBatch::FromDataFrame(b.Frame());
  EXPECT_EQ(batch.column(0).storage(), ColumnVector::Storage::kInt64);
  EXPECT_TRUE(batch.column(0).has_nulls());
  EXPECT_FALSE(batch.column(0).IsNull(0));
  EXPECT_TRUE(batch.column(0).IsNull(1));
  DataFrame out = batch.ToDataFrame();
  EXPECT_TRUE(out.rows()[1][0].is_null());
  EXPECT_EQ(out.rows()[2][0].int_value(), 3);
}

TEST(ColumnBatchTest, MixedTypesDegradeToObjectStorage) {
  just::testing::FrameBuilder b;
  b.Col("x", DataType::kInt)
      .Row({Value::Int(1)})
      .Row({Value::Double(2.5)});  // runtime type strays from declared
  ColumnBatch batch = ColumnBatch::FromDataFrame(b.Frame());
  EXPECT_EQ(batch.column(0).storage(), ColumnVector::Storage::kObject);
  // The exact per-row Values survive (no silent coercion).
  EXPECT_EQ(batch.column(0).ValueAt(0).type(), DataType::kInt);
  EXPECT_EQ(batch.column(0).ValueAt(1).double_value(), 2.5);
}

TEST(ColumnBatchTest, DeclaredTypeAwareValueAt) {
  just::testing::FrameBuilder b;
  b.Col("flag", DataType::kBool)
      .Col("t", DataType::kTimestamp)
      .Row({Value::Bool(true), Value::Timestamp(1000)});
  ColumnBatch batch = ColumnBatch::FromDataFrame(b.Frame());
  EXPECT_EQ(batch.column(0).ValueAt(0).type(), DataType::kBool);
  EXPECT_TRUE(batch.column(0).ValueAt(0).bool_value());
  EXPECT_EQ(batch.column(1).ValueAt(0).type(), DataType::kTimestamp);
  EXPECT_EQ(batch.column(1).ValueAt(0).timestamp_value(), 1000);
}

TEST(ColumnBatchTest, GatherCompactsSurvivors) {
  ColumnBatch batch = ColumnBatch::FromDataFrame(TestFrame());
  const uint32_t rows[] = {0, 2};
  ColumnVector names = batch.column(1).Gather(rows, 2);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names.StringAt(0), "alice");
  EXPECT_EQ(names.StringAt(1), "carol");

  std::vector<ColumnVector> cols;
  cols.push_back(std::move(names));
  auto schema = std::make_shared<Schema>();
  schema->AddField({"name", DataType::kString});
  ColumnBatch packed = ColumnBatch::FromColumns(schema, std::move(cols), 2);
  EXPECT_EQ(packed.num_active(), 2u);
  EXPECT_FALSE(packed.has_selection());
}

TEST(ColumnBatchTest, BatchVectorChunksAtBatchRows) {
  DataFrame df(TestSchema());
  const size_t n = kBatchRows + 10;
  for (size_t i = 0; i < n; ++i) {
    df.AddRow({Value::Int(static_cast<int64_t>(i)), Value::String("u"),
               Value::Double(static_cast<double>(i))});
  }
  BatchVector batches = BatchesFromDataFrame(std::move(df));
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].num_rows(), kBatchRows);
  EXPECT_EQ(batches[1].num_rows(), 10u);
  EXPECT_EQ(BatchesActiveRows(batches), n);
  DataFrame back = BatchesToDataFrame(TestSchema(), batches);
  ASSERT_EQ(back.num_rows(), n);
  EXPECT_EQ(back.rows()[n - 1][0].int_value(),
            static_cast<int64_t>(n - 1));
}

// --- MemoryBudget ---

TEST(MemoryBudgetTest, ChargesAndReleases) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.Charge(60).ok());
  EXPECT_TRUE(budget.Charge(40).ok());
  Status st = budget.Charge(1);
  EXPECT_TRUE(st.IsResourceExhausted());
  budget.Release(50);
  EXPECT_TRUE(budget.Charge(30).ok());
  EXPECT_EQ(budget.used(), 80u);
}

TEST(MemoryBudgetTest, ZeroMeansUnlimited) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.Charge(SIZE_MAX / 2).ok());
}

TEST(MemoryBudgetTest, FailedChargeDoesNotLeak) {
  MemoryBudget budget(10);
  EXPECT_FALSE(budget.Charge(11).ok());
  EXPECT_EQ(budget.used(), 0u);
}

}  // namespace
}  // namespace just::exec
