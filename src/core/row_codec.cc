#include "core/row_codec.h"

#include <cstring>

#include "common/bytes.h"
#include "compress/codec.h"

namespace just::core {

namespace {
constexpr char kTrajRaw = 'R';
constexpr char kTrajDelta = 'D';
constexpr char kTrajSummary = 'S';
constexpr size_t kSummaryFixedBytes = 48;  // 4 MBR doubles, t_start, t_end

bool IsTrajectoryTag(char tag) { return tag == kTrajSummary; }

// Cell payload for an st_series value, written inside an identity frame:
// ['S'][summary][oid lp][lp: compress frame of [R|D][GPS bytes]]. The
// summary is the MBR (4 ordered doubles), t_start, t_end (fixed64 each) and
// the point count (varint), taken from the points as the decoder returns
// them, so refining on it decides as refining on the list would. The GPS
// list is raw fixed-width when uncompressed (what JUSTnc measures) and the
// delta transform under `codec`.
std::string EncodeTrajectoryCell(const traj::Trajectory& t,
                                 const compress::Codec& codec,
                                 bool compact) {
  std::string out;
  out.push_back(kTrajSummary);
  const geo::Mbr mbr = compact ? t.DeltaBounds() : t.Bounds();
  for (double d : {mbr.lng_min, mbr.lat_min, mbr.lng_max, mbr.lat_max}) {
    PutFixed64(&out, OrderedDoubleBits(d));
  }
  PutFixed64(&out, static_cast<uint64_t>(t.start_time()));
  PutFixed64(&out, static_cast<uint64_t>(t.end_time()));
  PutVarint64(&out, t.point_count());
  PutLengthPrefixed(&out, t.oid());
  std::string gps(1, compact ? kTrajDelta : kTrajRaw);
  gps += compact ? t.SerializeDelta() : t.SerializeRaw();
  PutLengthPrefixed(&out, compress::EncodeCell(codec, gps));
  return out;
}

Result<traj::Trajectory> DeserializeGps(char tag, const std::string& oid,
                                        std::string_view bytes) {
  if (tag == kTrajDelta) return traj::Trajectory::DeserializeDelta(oid, bytes);
  if (tag == kTrajRaw) return traj::Trajectory::DeserializeRaw(oid, bytes);
  return Status::Corruption("unknown st_series format tag");
}

bool SameBounds(const geo::Mbr& a, const geo::Mbr& b) {
  return std::memcmp(&a, &b, sizeof(geo::Mbr)) == 0;
}

// Decodes an st_series cell payload, whose first byte is kTrajSummary:
// summary-only when `summary_only`, else in full and checked against its
// summary.
Result<exec::Value> DecodeTrajectoryCell(std::string_view cell,
                                         bool summary_only) {
  const char* p = cell.data() + 1;
  const char* limit = cell.data() + cell.size();
  if (static_cast<size_t>(limit - p) < kSummaryFixedBytes) {
    return Status::Corruption("truncated st_series summary");
  }
  geo::Mbr mbr;
  mbr.lng_min = OrderedBitsToDouble(GetFixed64(p));
  mbr.lat_min = OrderedBitsToDouble(GetFixed64(p + 8));
  mbr.lng_max = OrderedBitsToDouble(GetFixed64(p + 16));
  mbr.lat_max = OrderedBitsToDouble(GetFixed64(p + 24));
  const auto start = static_cast<TimestampMs>(GetFixed64(p + 32));
  const auto end = static_cast<TimestampMs>(GetFixed64(p + 40));
  p += kSummaryFixedBytes;
  uint64_t count;
  std::string_view oid, gps_cell;
  if (!GetVarint64(&p, limit, &count) ||
      !GetLengthPrefixed(&p, limit, &oid) ||
      !GetLengthPrefixed(&p, limit, &gps_cell) || p != limit) {
    return Status::Corruption("bad st_series summary cell");
  }
  traj::Trajectory t;
  if (summary_only) {
    t = traj::Trajectory::SummaryOnly(std::string(oid), mbr, start, end,
                                      count);
  } else {
    std::string scratch;  // the decompressed GPS list
    std::string_view gps;
    JUST_RETURN_NOT_OK(compress::DecodeCellView(gps_cell, &scratch, &gps));
    if (gps.empty()) return Status::Corruption("empty st_series GPS list");
    JUST_ASSIGN_OR_RETURN(
        t, DeserializeGps(gps[0], std::string(oid), gps.substr(1)));
    if (t.point_count() != count || !SameBounds(t.Bounds(), mbr) ||
        t.start_time() != start || t.end_time() != end) {
      return Status::Corruption(
          "st_series summary disagrees with its GPS list");
    }
  }
  return exec::Value::TrajectoryVal(
      std::make_shared<const traj::Trajectory>(std::move(t)));
}
}  // namespace

Result<std::string> EncodeRow(const meta::TableMeta& table,
                              const exec::Row& row) {
  if (row.size() != table.columns.size()) {
    return Status::InvalidArgument(
        "row width " + std::to_string(row.size()) + " != table width " +
        std::to_string(table.columns.size()));
  }
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    const meta::ColumnDef& col = table.columns[i];
    bool compressed = !col.compress.empty();
    const compress::Codec* codec = compress::NoneCodec();
    if (compressed) {
      JUST_ASSIGN_OR_RETURN(codec, compress::GetCodec(col.compress));
    }
    std::string cell_raw;
    if (col.type == exec::DataType::kTrajectory &&
        row[i].type() == exec::DataType::kTrajectory) {
      // The codec applies to the GPS list inside; the summary stays plain.
      const auto& t = row[i].trajectory_value();
      cell_raw = EncodeTrajectoryCell(t != nullptr ? *t : traj::Trajectory(),
                                      *codec, /*compact=*/compressed);
      codec = compress::NoneCodec();
    } else {
      row[i].SerializeTo(&cell_raw);
    }
    PutLengthPrefixed(&out, compress::EncodeCell(*codec, cell_raw));
  }
  return out;
}

Result<exec::Row> DecodeRow(const meta::TableMeta& table,
                            std::string_view bytes) {
  exec::Row row;
  row.reserve(table.columns.size());
  const char* p = bytes.data();
  const char* limit = p + bytes.size();
  for (const meta::ColumnDef& col : table.columns) {
    std::string_view cell;
    if (!GetLengthPrefixed(&p, limit, &cell)) {
      return Status::Corruption("truncated row for table " + table.name);
    }
    JUST_ASSIGN_OR_RETURN(std::string cell_raw, compress::DecodeCell(cell));
    if (col.type == exec::DataType::kTrajectory && !cell_raw.empty() &&
        IsTrajectoryTag(cell_raw[0])) {
      JUST_ASSIGN_OR_RETURN(
          auto value, DecodeTrajectoryCell(cell_raw, /*summary_only=*/false));
      row.push_back(std::move(value));
    } else {
      const char* q = cell_raw.data();
      JUST_ASSIGN_OR_RETURN(
          auto value,
          exec::Value::Deserialize(&q, cell_raw.data() + cell_raw.size()));
      row.push_back(std::move(value));
    }
  }
  return row;
}

BatchRowDecoder::BatchRowDecoder(const meta::TableMeta& table)
    : table_(table) {
  is_trajectory_.reserve(table.columns.size());
  for (const meta::ColumnDef& col : table.columns) {
    is_trajectory_.push_back(col.type == exec::DataType::kTrajectory);
  }
}

Status BatchRowDecoder::DecodeInto(std::string_view bytes,
                                   exec::ColumnBatch* batch) const {
  JUST_RETURN_NOT_OK(DecodeColumns(bytes, {}, batch));
  batch->FinishRow();
  return Status::OK();
}

Status BatchRowDecoder::DecodeColumns(std::string_view bytes,
                                      const ColumnMask& mask,
                                      exec::ColumnBatch* batch,
                                      int summary_column) const {
  const char* p = bytes.data();
  const char* limit = p + bytes.size();
  std::string scratch;  // decompressed payload; untouched for kNone cells
  for (size_t i = 0; i < table_.columns.size(); ++i) {
    std::string_view cell;
    if (!GetLengthPrefixed(&p, limit, &cell)) {
      return Status::Corruption("truncated row for table " + table_.name);
    }
    if (!mask.empty() && !mask[i]) continue;
    std::string_view raw;
    JUST_RETURN_NOT_OK(compress::DecodeCellView(cell, &scratch, &raw));
    JUST_RETURN_NOT_OK(AppendCell(i, raw, static_cast<int>(i) == summary_column,
                                  &batch->column(i)));
  }
  return Status::OK();
}

Status BatchRowDecoder::AppendCell(size_t column, std::string_view raw,
                                   bool summary_only,
                                   exec::ColumnVector* col) const {
  using Storage = exec::ColumnVector::Storage;
  if (is_trajectory_[column] && !raw.empty() && IsTrajectoryTag(raw[0])) {
    JUST_ASSIGN_OR_RETURN(auto value, DecodeTrajectoryCell(raw, summary_only));
    col->AppendValue(std::move(value));
    return Status::OK();
  }
  const char* q = raw.data();
  const char* qlimit = q + raw.size();
  if (q >= qlimit) return Status::Corruption("empty cell");
  const auto wire = static_cast<exec::DataType>(*q);
  if (wire == exec::DataType::kNull && col->storage() != Storage::kObject) {
    col->AppendNull();
    return Status::OK();
  }
  // Typed fast paths: parse the payload straight into the column's storage,
  // skipping the Value round-trip.
  if (wire == col->declared_type()) {
    ++q;  // type byte
    switch (col->storage()) {
      case Storage::kInt64:
        if (wire == exec::DataType::kBool) {
          if (q >= qlimit) return Status::Corruption("truncated bool");
          col->AppendInt64(*q != 0);
        } else {  // kInt / kTimestamp
          int64_t v;
          if (!GetVarintSigned(&q, qlimit, &v)) {
            return Status::Corruption("truncated int");
          }
          col->AppendInt64(v);
        }
        return Status::OK();
      case Storage::kDouble:
        if (qlimit - q < 8) return Status::Corruption("truncated double");
        col->AppendDouble(OrderedBitsToDouble(GetFixed64(q)));
        return Status::OK();
      case Storage::kString: {
        std::string_view s;
        if (!GetLengthPrefixed(&q, qlimit, &s)) {
          return Status::Corruption("truncated string");
        }
        col->AppendString(std::string(s));
        return Status::OK();
      }
      case Storage::kObject:
        if (wire == exec::DataType::kGeometry) {
          std::string_view g;
          if (!GetLengthPrefixed(&q, qlimit, &g)) {
            return Status::Corruption("truncated geometry");
          }
          JUST_ASSIGN_OR_RETURN(auto geometry, geo::Geometry::Deserialize(g));
          col->AppendValue(exec::Value::GeometryVal(std::move(geometry)));
          return Status::OK();
        }
        break;  // generic path below
    }
  }
  const char* r = raw.data();
  JUST_ASSIGN_OR_RETURN(auto value, exec::Value::Deserialize(&r, qlimit));
  col->AppendValue(std::move(value));
  return Status::OK();
}

}  // namespace just::core
