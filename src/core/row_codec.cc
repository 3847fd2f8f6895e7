#include "core/row_codec.h"

#include "common/bytes.h"
#include "compress/codec.h"

namespace just::core {

namespace {
constexpr char kTrajRaw = 'R';
constexpr char kTrajDelta = 'D';

// Cell payload for an st_series value: [format tag][oid lp][gps bytes].
std::string EncodeTrajectoryCell(const exec::Value& value, bool compact) {
  std::string out;
  const auto& t = value.trajectory_value();
  out.push_back(compact ? kTrajDelta : kTrajRaw);
  if (t == nullptr) {
    PutLengthPrefixed(&out, "");
    PutLengthPrefixed(&out, "");
    return out;
  }
  PutLengthPrefixed(&out, t->oid());
  PutLengthPrefixed(&out, compact ? t->SerializeDelta() : t->SerializeRaw());
  return out;
}

Result<exec::Value> DecodeTrajectoryCell(std::string_view cell) {
  if (cell.empty()) return Status::Corruption("empty st_series cell");
  char tag = cell[0];
  const char* p = cell.data() + 1;
  const char* limit = cell.data() + cell.size();
  std::string_view oid, payload;
  if (!GetLengthPrefixed(&p, limit, &oid) ||
      !GetLengthPrefixed(&p, limit, &payload)) {
    return Status::Corruption("bad st_series cell");
  }
  traj::Trajectory t;
  if (tag == kTrajDelta) {
    JUST_ASSIGN_OR_RETURN(
        t, traj::Trajectory::DeserializeDelta(std::string(oid), payload));
  } else if (tag == kTrajRaw) {
    JUST_ASSIGN_OR_RETURN(
        t, traj::Trajectory::DeserializeRaw(std::string(oid), payload));
  } else {
    return Status::Corruption("unknown st_series format tag");
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
      cell_raw = EncodeTrajectoryCell(row[i], /*compact=*/compressed);
    } else {
      row[i].SerializeTo(&cell_raw);
    }
    std::string cell = compress::EncodeCell(*codec, cell_raw);
    PutLengthPrefixed(&out, cell);
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
        (cell_raw[0] == kTrajRaw || cell_raw[0] == kTrajDelta)) {
      JUST_ASSIGN_OR_RETURN(auto value, DecodeTrajectoryCell(cell_raw));
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
                                      exec::ColumnBatch* batch) const {
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
    JUST_RETURN_NOT_OK(AppendCell(i, raw, &batch->column(i)));
  }
  return Status::OK();
}

Status BatchRowDecoder::AppendCell(size_t column, std::string_view raw,
                                   exec::ColumnVector* col) const {
  using Storage = exec::ColumnVector::Storage;
  if (is_trajectory_[column] && !raw.empty() &&
      (raw[0] == kTrajRaw || raw[0] == kTrajDelta)) {
    JUST_ASSIGN_OR_RETURN(auto value, DecodeTrajectoryCell(raw));
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
