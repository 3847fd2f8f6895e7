// The masked row decoder against malformed input. Rows reach the client
// from remote region servers, so the decoder treats them as outside input:
// every malformed row must come back as Corruption — never a crash, never a
// read past the row — under every column mask, including the scan's
// two-phase use (early columns first, the rest for survivors).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "compress/codec.h"
#include "core/row_codec.h"

namespace just::core {
namespace {

meta::TableMeta SweepTable() {
  meta::TableMeta table;
  table.name = "sweep";
  table.columns = {
      {"fid", exec::DataType::kString, true, "", ""},
      {"amount", exec::DataType::kDouble, false, "", ""},
      {"flag", exec::DataType::kBool, false, "", ""},
      {"note", exec::DataType::kString, false, "", "gzip"},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "", ""},
      {"path", exec::DataType::kTrajectory, false, "", "gzip"},
  };
  return table;
}

std::shared_ptr<const traj::Trajectory> SmallTrajectory() {
  std::vector<traj::GpsPoint> points = {
      {{116.30, 39.90}, 1000}, {{116.31, 39.91}, 2000}, {{116.33, 39.92}, 3000}};
  return std::make_shared<const traj::Trajectory>("t1", std::move(points));
}

/// Valid stored rows: a point row, a NULL-heavy row, and a polygon row.
std::vector<std::string> ValidRows(const meta::TableMeta& table) {
  std::vector<exec::Row> rows = {
      {exec::Value::String("order_1"), exec::Value::Double(12.5),
       exec::Value::Bool(true), exec::Value::String("leave at the door"),
       exec::Value::Timestamp(1538352000000),
       exec::Value::GeometryVal(geo::Geometry::MakePoint({116.4, 39.9})),
       exec::Value::TrajectoryVal(SmallTrajectory())},
      {exec::Value::String("order_2"), exec::Value::Null(),
       exec::Value::Null(), exec::Value::Null(), exec::Value::Null(),
       exec::Value::GeometryVal(geo::Geometry::MakeLineString(
           {{116.1, 39.1}, {116.2, 39.2}})),
       exec::Value::Null()},
      {exec::Value::String("order_3"), exec::Value::Double(-1),
       exec::Value::Bool(false), exec::Value::String(""),
       exec::Value::Timestamp(0),
       exec::Value::GeometryVal(geo::Geometry::MakePolygon(
           {{116.0, 39.0}, {116.5, 39.0}, {116.5, 39.5}})),
       exec::Value::TrajectoryVal(SmallTrajectory())},
  };
  std::vector<std::string> out;
  for (const exec::Row& row : rows) {
    auto bytes = EncodeRow(table, row);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    out.push_back(*bytes);
  }
  return out;
}

/// Every mask over `n` columns, as the scan's early set.
std::vector<ColumnMask> AllMasks(size_t n) {
  std::vector<ColumnMask> masks;
  for (uint32_t bits = 0; bits < (1u << n); ++bits) {
    ColumnMask mask(n);
    for (size_t c = 0; c < n; ++c) mask[c] = ((bits >> c) & 1) != 0;
    masks.push_back(std::move(mask));
  }
  return masks;
}

/// The scan's use of the decoder: `early` first, then the other columns,
/// into one batch. OK only when both phases are.
Status TwoPhase(const meta::TableMeta& table, std::string_view bytes,
                const ColumnMask& early) {
  BatchRowDecoder decoder(table);
  exec::ColumnBatch batch(table.MakeSchema());
  JUST_RETURN_NOT_OK(decoder.DecodeColumns(bytes, early, &batch));
  ColumnMask late(early.size());
  for (size_t c = 0; c < early.size(); ++c) late[c] = !early[c];
  return decoder.DecodeColumns(bytes, late, &batch);
}

/// The row's cells (the framed bytes between length prefixes).
std::vector<std::string> SplitCells(std::string_view row) {
  std::vector<std::string> cells;
  const char* p = row.data();
  const char* limit = p + row.size();
  std::string_view cell;
  while (p < limit && GetLengthPrefixed(&p, limit, &cell)) {
    cells.emplace_back(cell);
  }
  return cells;
}

std::string JoinCells(const std::vector<std::string>& cells) {
  std::string out;
  for (const std::string& cell : cells) PutLengthPrefixed(&out, cell);
  return out;
}

void ExpectCorruptionUnderEveryMask(const meta::TableMeta& table,
                                    const std::string& bytes,
                                    const std::string& what) {
  for (const ColumnMask& mask : AllMasks(table.columns.size())) {
    Status st = TwoPhase(table, bytes, mask);
    ASSERT_TRUE(st.IsCorruption()) << what << ": " << st.ToString();
  }
}

TEST(RowCodecTest, EveryMaskDecodesTheSameRow) {
  const meta::TableMeta table = SweepTable();
  BatchRowDecoder decoder(table);
  for (const std::string& bytes : ValidRows(table)) {
    auto want = DecodeRow(table, bytes);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (const ColumnMask& mask : AllMasks(table.columns.size())) {
      exec::ColumnBatch batch(table.MakeSchema());
      ASSERT_TRUE(decoder.DecodeColumns(bytes, mask, &batch).ok());
      ColumnMask late(mask.size());
      for (size_t c = 0; c < mask.size(); ++c) late[c] = !mask[c];
      ASSERT_TRUE(decoder.DecodeColumns(bytes, late, &batch).ok());
      batch.FinishRow();
      exec::Row got = batch.MaterializeRow(0);
      ASSERT_EQ(got.size(), want->size());
      for (size_t c = 0; c < got.size(); ++c) {
        EXPECT_EQ(got[c].ToString(), (*want)[c].ToString()) << "column " << c;
      }
    }
  }
}

TEST(RowCodecTest, TruncationAtEveryByteIsCorruption) {
  const meta::TableMeta table = SweepTable();
  for (const std::string& bytes : ValidRows(table)) {
    for (size_t len = 0; len < bytes.size(); ++len) {
      ExpectCorruptionUnderEveryMask(table, bytes.substr(0, len),
                                     "truncated at " + std::to_string(len));
    }
  }
}

TEST(RowCodecTest, SingleBitFlipsNeverCrash) {
  // Row bytes carry no checksum (the store's blocks do), so a flip may land
  // on a value and decode to a different valid row; anything else must be
  // Corruption.
  const meta::TableMeta table = SweepTable();
  const auto masks = AllMasks(table.columns.size());
  for (const std::string& bytes : ValidRows(table)) {
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = bytes;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        for (const ColumnMask& mask : masks) {
          Status st = TwoPhase(table, flipped, mask);
          ASSERT_TRUE(st.ok() || st.IsCorruption())
              << "byte " << i << " bit " << bit << ": " << st.ToString();
        }
      }
    }
  }
}

TEST(RowCodecTest, MalformedCellsAreCorruption) {
  const meta::TableMeta table = SweepTable();
  const std::string row = ValidRows(table)[0];
  const std::vector<std::string> cells = SplitCells(row);
  ASSERT_EQ(cells.size(), table.columns.size());

  // A cell length running past the end of the row.
  {
    std::string bytes;
    PutVarint64(&bytes, row.size() + 10);
    bytes += row;
    ExpectCorruptionUnderEveryMask(table, bytes, "length past the end");
  }
  // An unterminated varint as a cell length.
  {
    std::string bytes(10, '\xFF');
    ExpectCorruptionUnderEveryMask(table, bytes + row, "bad length varint");
  }
  // An unterminated varint as a cell's raw size, in each cell in turn.
  for (size_t c = 0; c < cells.size(); ++c) {
    std::vector<std::string> bad = cells;
    bad[c] = std::string(1, bad[c][0]) + std::string(10, '\x80');
    ExpectCorruptionUnderEveryMask(table, JoinCells(bad),
                                   "bad raw-size varint in cell " +
                                       std::to_string(c));
  }
  // An unknown codec id, in each cell in turn.
  for (size_t c = 0; c < cells.size(); ++c) {
    std::vector<std::string> bad = cells;
    bad[c][0] = '\x07';
    ExpectCorruptionUnderEveryMask(
        table, JoinCells(bad), "unknown codec in cell " + std::to_string(c));
  }
  // An int payload whose varint never terminates.
  {
    std::vector<std::string> bad = cells;
    std::string raw(1, static_cast<char>(exec::DataType::kTimestamp));
    raw += std::string(12, '\xFF');
    bad[4] = compress::EncodeCell(*compress::NoneCodec(), raw);
    ExpectCorruptionUnderEveryMask(table, JoinCells(bad), "bad int varint");
  }
  // A point geometry claiming more points than its bytes hold.
  {
    std::vector<std::string> bad = cells;
    std::string geometry(1, '\0');  // GeometryType::kPoint
    PutVarint64(&geometry, uint64_t{1} << 60);
    std::string raw(1, static_cast<char>(exec::DataType::kGeometry));
    PutLengthPrefixed(&raw, geometry);
    bad[5] = compress::EncodeCell(*compress::NoneCodec(), raw);
    ExpectCorruptionUnderEveryMask(table, JoinCells(bad), "huge point count");
  }
}

TEST(RowCodecTest, MalformedSkippedLateCellFailsWhenDecoded) {
  // The early phase only reads a skipped cell's length prefix, so a
  // malformed late cell passes it; decoding that cell for a survivor then
  // fails with Corruption, and never reads outside the row.
  const meta::TableMeta table = SweepTable();
  const std::vector<std::string> cells = SplitCells(ValidRows(table)[0]);
  BatchRowDecoder decoder(table);
  const size_t late = 6;  // path: a compressed trajectory cell
  std::vector<std::vector<std::string>> variants;
  {
    std::vector<std::string> bad = cells;
    bad[late][0] = '\x09';  // unknown codec
    variants.push_back(bad);
  }
  {
    std::vector<std::string> bad = cells;
    bad[late].resize(bad[late].size() / 2);  // compressed stream cut short
    variants.push_back(bad);
  }
  {
    std::vector<std::string> bad = cells;
    bad[late] = std::string(1, '\x01');  // lz77 codec id, no raw size
    variants.push_back(bad);
  }
  for (const auto& bad : variants) {
    const std::string bytes = JoinCells(bad);
    ColumnMask early(table.columns.size(), true);
    early[late] = false;
    exec::ColumnBatch batch(table.MakeSchema());
    ASSERT_TRUE(decoder.DecodeColumns(bytes, early, &batch).ok());
    ColumnMask late_mask(table.columns.size(), false);
    late_mask[late] = true;
    EXPECT_TRUE(decoder.DecodeColumns(bytes, late_mask, &batch).IsCorruption());
    ExpectCorruptionUnderEveryMask(table, bytes, "malformed late cell");
  }
}

}  // namespace
}  // namespace just::core
