// The masked row decoder against malformed input. Rows reach the client
// from remote region servers, so the decoder treats them as outside input:
// every malformed row must come back as Corruption — never a crash, never a
// read past the row — under every column mask, including the scan's
// two-phase use (early columns first, the rest for survivors) with and
// without the trajectory column read summary-only in the early phase.

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

constexpr size_t kPath = 6;  // SweepTable's st_series column

/// SweepTable with its trajectory column gzip'd (a delta GPS list under
/// LZ77 in the summary cell) and uncompressed (a raw list).
std::vector<meta::TableMeta> SweepTables() {
  meta::TableMeta raw = SweepTable();
  raw.columns[kPath].compress = "";
  return {SweepTable(), raw};
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

/// The same cell: trajectories compared point by point (Value::Equals
/// compares only their oids), every other value by type and text.
bool SameCell(const exec::Value& a, const exec::Value& b) {
  if (a.type() == exec::DataType::kTrajectory &&
      b.type() == exec::DataType::kTrajectory &&
      a.trajectory_value() != nullptr && b.trajectory_value() != nullptr) {
    return *a.trajectory_value() == *b.trajectory_value();
  }
  return a.ToString() == b.ToString();
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
/// into one batch. With `summary`, an early trajectory column is read
/// summary-only and then, as BatchSink does, started over and decoded in
/// full with the late columns. Returns the decoded row when both phases are
/// OK.
Result<exec::Row> TwoPhase(const meta::TableMeta& table,
                           std::string_view bytes, const ColumnMask& early,
                           bool summary) {
  BatchRowDecoder decoder(table);
  exec::ColumnBatch batch(table.MakeSchema());
  const int path = summary && early[kPath] ? static_cast<int>(kPath) : -1;
  JUST_RETURN_NOT_OK(decoder.DecodeColumns(bytes, early, &batch, path));
  ColumnMask late(early.size());
  for (size_t c = 0; c < early.size(); ++c) late[c] = !early[c];
  if (path >= 0) {
    batch.column(kPath) = exec::ColumnVector(exec::DataType::kTrajectory);
    late[kPath] = true;
  }
  JUST_RETURN_NOT_OK(decoder.DecodeColumns(bytes, late, &batch));
  batch.FinishRow();
  return batch.MaterializeRow(0);
}

/// Reads `bytes` with only the trajectory column early, summary-only.
Result<exec::Value> EarlySummary(const meta::TableMeta& table,
                                 std::string_view bytes) {
  BatchRowDecoder decoder(table);
  exec::ColumnBatch batch(table.MakeSchema());
  ColumnMask early(table.columns.size(), false);
  early[kPath] = true;
  JUST_RETURN_NOT_OK(
      decoder.DecodeColumns(bytes, early, &batch, static_cast<int>(kPath)));
  return batch.column(kPath).ObjectAt(0);
}

/// A summary-layout st_series cell built field by field: the identity
/// frame around ['S'][summary][oid lp][lp: `gps_frame`].
std::string SummaryCell(const geo::Mbr& mbr, TimestampMs start,
                        TimestampMs end, uint64_t count,
                        std::string_view oid, std::string_view gps_frame) {
  std::string raw(1, 'S');
  for (double d : {mbr.lng_min, mbr.lat_min, mbr.lng_max, mbr.lat_max}) {
    PutFixed64(&raw, OrderedDoubleBits(d));
  }
  PutFixed64(&raw, static_cast<uint64_t>(start));
  PutFixed64(&raw, static_cast<uint64_t>(end));
  PutVarint64(&raw, count);
  PutLengthPrefixed(&raw, oid);
  PutLengthPrefixed(&raw, gps_frame);
  return compress::EncodeCell(*compress::NoneCodec(), raw);
}

/// SmallTrajectory's GPS list as the delta encoding under LZ77, framed.
std::string SmallGpsFrame() {
  return compress::EncodeCell(*compress::Lz77Codec(),
                              "D" + SmallTrajectory()->SerializeDelta());
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
    for (bool summary : {false, true}) {
      Status st = TwoPhase(table, bytes, mask, summary).status();
      ASSERT_TRUE(st.IsCorruption())
          << what << (summary ? " (summary)" : "") << ": " << st.ToString();
    }
  }
}

TEST(RowCodecTest, EveryMaskDecodesTheSameRow) {
  for (const meta::TableMeta& table : SweepTables()) {
    for (const std::string& bytes : ValidRows(table)) {
      auto want = DecodeRow(table, bytes);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      for (const ColumnMask& mask : AllMasks(table.columns.size())) {
        for (bool summary : {false, true}) {
          auto got = TwoPhase(table, bytes, mask, summary);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got->size(), want->size());
          for (size_t c = 0; c < got->size(); ++c) {
            EXPECT_TRUE(SameCell((*got)[c], (*want)[c]))
                << "column " << c << ": " << (*got)[c].ToString() << " vs "
                << (*want)[c].ToString();
          }
        }
      }
    }
  }
}

TEST(RowCodecTest, SummaryEarlyPhaseMatchesTheDecodedList) {
  // Compressed (delta-quantized) and uncompressed (raw) cells: the
  // summary-only read carries exactly the full decode's MBR, times and
  // point count, and no points.
  for (const char* compress : {"gzip", ""}) {
    meta::TableMeta table = SweepTable();
    table.columns[kPath].compress = compress;
    const std::string bytes = ValidRows(table)[0];
    auto full = DecodeRow(table, bytes);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    const auto& t = (*full)[kPath].trajectory_value();
    ASSERT_EQ(t->points().size(), 3u);
    EXPECT_FALSE(t->summary_only());
    auto early = EarlySummary(table, bytes);
    ASSERT_TRUE(early.ok()) << early.status().ToString();
    const auto& s = early->trajectory_value();
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->summary_only());
    EXPECT_TRUE(s->points().empty());
    EXPECT_EQ(s->point_count(), 3u);
    EXPECT_EQ(s->oid(), "t1");
    EXPECT_EQ(s->Bounds(), t->Bounds()) << compress;
    EXPECT_EQ(s->start_time(), t->start_time());
    EXPECT_EQ(s->end_time(), t->end_time());
  }
}

TEST(RowCodecTest, SummaryThatDisagreesWithItsListIsCorruption) {
  const meta::TableMeta table = SweepTable();
  const std::vector<std::string> cells = SplitCells(ValidRows(table)[0]);
  const auto t = SmallTrajectory();
  const geo::Mbr mbr = t->DeltaBounds();
  const std::string gps = SmallGpsFrame();
  // The faithful hand-built cell is the one EncodeRow writes.
  ASSERT_EQ(SummaryCell(mbr, 1000, 3000, 3, "t1", gps), cells[kPath]);
  geo::Mbr wider = mbr;
  wider.lng_min -= 1e-6;
  geo::Mbr taller = mbr;
  taller.lat_max += 1.0;
  const std::vector<std::pair<std::string, std::string>> lies = {
      {"mbr lng_min", SummaryCell(wider, 1000, 3000, 3, "t1", gps)},
      {"mbr lat_max", SummaryCell(taller, 1000, 3000, 3, "t1", gps)},
      {"t_start", SummaryCell(mbr, 999, 3000, 3, "t1", gps)},
      {"t_end", SummaryCell(mbr, 1000, 3001, 3, "t1", gps)},
      {"fewer points", SummaryCell(mbr, 1000, 3000, 2, "t1", gps)},
      {"more points", SummaryCell(mbr, 1000, 3000, 4, "t1", gps)},
      {"no points", SummaryCell(mbr, 1000, 3000, 0, "t1", gps)},
  };
  for (const auto& [what, cell] : lies) {
    std::vector<std::string> bad = cells;
    bad[kPath] = cell;
    const std::string bytes = JoinCells(bad);
    // Refinement can still read the summary; the list, once decoded, is
    // checked against it.
    auto early = EarlySummary(table, bytes);
    ASSERT_TRUE(early.ok()) << what << ": " << early.status().ToString();
    EXPECT_TRUE(early->trajectory_value()->summary_only()) << what;
    EXPECT_TRUE(DecodeRow(table, bytes).status().IsCorruption()) << what;
    ExpectCorruptionUnderEveryMask(table, bytes, what);
  }
}

TEST(RowCodecTest, TopLevelRawAndDeltaCellsAreCorruption) {
  // An st_series cell whose first byte is 'R' or 'D' ([R|D][oid lp][gps
  // lp], the layout before cells carried a summary) is no cell of this
  // format: it fails loudly under every mask, never becoming a row.
  const auto t = SmallTrajectory();
  for (const bool gzip : {true, false}) {
    meta::TableMeta table = SweepTable();
    table.columns[kPath].compress = gzip ? "gzip" : "";
    for (const char tag : {'R', 'D'}) {
      std::string old_cell(1, tag);
      PutLengthPrefixed(&old_cell, t->oid());
      PutLengthPrefixed(&old_cell, tag == 'D' ? t->SerializeDelta()
                                              : t->SerializeRaw());
      std::vector<std::string> cells = SplitCells(ValidRows(table)[0]);
      cells[kPath] = compress::EncodeCell(
          gzip ? *compress::Lz77Codec() : *compress::NoneCodec(), old_cell);
      const std::string bytes = JoinCells(cells);
      const std::string what = std::string(1, tag) + (gzip ? " gzip" : "");
      EXPECT_TRUE(DecodeRow(table, bytes).status().IsCorruption()) << what;
      EXPECT_TRUE(EarlySummary(table, bytes).status().IsCorruption()) << what;
      ExpectCorruptionUnderEveryMask(table, bytes, what);
    }
  }
}

TEST(RowCodecTest, TruncationAtEveryByteIsCorruption) {
  for (const meta::TableMeta& table : SweepTables()) {
    for (const std::string& bytes : ValidRows(table)) {
      for (size_t len = 0; len < bytes.size(); ++len) {
        ExpectCorruptionUnderEveryMask(table, bytes.substr(0, len),
                                       "truncated at " + std::to_string(len));
      }
    }
  }
}

TEST(RowCodecTest, SingleBitFlipsNeverCrash) {
  // Row bytes carry no checksum (the store's blocks do), so a flip may land
  // on a value and decode to a different valid row; anything else must be
  // Corruption.
  const auto masks = AllMasks(SweepTable().columns.size());
  for (const meta::TableMeta& table : SweepTables()) {
    for (const std::string& bytes : ValidRows(table)) {
      for (size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
          std::string flipped = bytes;
          flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
          for (const ColumnMask& mask : masks) {
            for (bool summary : {false, true}) {
              Status st = TwoPhase(table, flipped, mask, summary).status();
              ASSERT_TRUE(st.ok() || st.IsCorruption())
                  << "byte " << i << " bit " << bit << ": " << st.ToString();
            }
          }
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
  // Summary cells whose fields are malformed: the early phase reads the
  // summary, oid and list prefixes; the list's frame is read when decoded.
  {
    const auto t = SmallTrajectory();
    const geo::Mbr mbr = t->DeltaBounds();
    const std::string gps = SmallGpsFrame();
    auto summary_raw = [](const std::string& raw) {
      return compress::EncodeCell(*compress::NoneCodec(), raw);
    };
    std::vector<std::pair<std::string, std::string>> variants = {
        {"summary cut inside its fixed fields",
         summary_raw("S" + std::string(20, '\0'))},
        {"summary count varint unterminated",
         summary_raw("S" + std::string(48, '\0') + std::string(10, '\x80'))},
        {"oid length past the cell",
         summary_raw("S" + std::string(48, '\0') + "\x03\x7f" + "t1")},
        {"list frame unknown codec",
         SummaryCell(mbr, 1000, 3000, 3, "t1", "\x09" + gps.substr(1))},
        {"list frame cut short",
         SummaryCell(mbr, 1000, 3000, 3, "t1", gps.substr(0, gps.size() / 2))},
        {"list with an unknown tag",
         SummaryCell(mbr, 1000, 3000, 3, "t1",
                     compress::EncodeCell(*compress::NoneCodec(),
                                          "X" + t->SerializeRaw()))},
        {"empty list",
         SummaryCell(mbr, 1000, 3000, 3, "t1",
                     compress::EncodeCell(*compress::NoneCodec(), ""))},
        {"raw list shorter than its count",
         SummaryCell(t->Bounds(), 1000, 3000, 3, "t1",
                     compress::EncodeCell(
                         *compress::NoneCodec(),
                         "R" + t->SerializeRaw().substr(0, 40)))},
    };
    // Bytes after the list's frame.
    auto whole =
        compress::DecodeCell(SummaryCell(mbr, 1000, 3000, 3, "t1", gps));
    ASSERT_TRUE(whole.ok());
    variants.emplace_back("trailing bytes", summary_raw(*whole + "junk"));
    for (const auto& [what, cell] : variants) {
      std::vector<std::string> bad = cells;
      bad[kPath] = cell;
      ExpectCorruptionUnderEveryMask(table, JoinCells(bad), what);
    }
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
