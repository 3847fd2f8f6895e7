#include "exec/value.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <functional>
#include <tuple>

#include "common/bytes.h"

namespace just::exec {

std::string DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "null";
    case DataType::kBool:
      return "bool";
    case DataType::kInt:
      return "integer";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
    case DataType::kTimestamp:
      return "date";
    case DataType::kGeometry:
      return "geometry";
    case DataType::kTrajectory:
      return "st_series";
  }
  return "?";
}

Result<DataType> ParseDataType(const std::string& name) {
  std::string lower;
  for (char c : name) lower += static_cast<char>(std::tolower(c));
  if (lower == "bool" || lower == "boolean") return DataType::kBool;
  if (lower == "int" || lower == "integer" || lower == "long" ||
      lower == "bigint") {
    return DataType::kInt;
  }
  if (lower == "double" || lower == "float" || lower == "real") {
    return DataType::kDouble;
  }
  if (lower == "string" || lower == "varchar" || lower == "text") {
    return DataType::kString;
  }
  if (lower == "date" || lower == "time" || lower == "timestamp") {
    return DataType::kTimestamp;
  }
  if (lower == "geometry" || lower == "point" || lower == "linestring" ||
      lower == "polygon" || lower == "geom") {
    return DataType::kGeometry;
  }
  if (lower == "st_series" || lower == "trajectory" || lower == "t_series") {
    return DataType::kTrajectory;
  }
  return Status::InvalidArgument("unknown data type: " + name);
}

Value Value::Bool(bool b) {
  Value v;
  v.type_ = DataType::kBool;
  v.data_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.type_ = DataType::kInt;
  v.data_ = i;
  return v;
}

Value Value::Double(double d) {
  Value v;
  v.type_ = DataType::kDouble;
  v.data_ = d;
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.type_ = DataType::kString;
  v.data_ = std::move(s);
  return v;
}

Value Value::Timestamp(TimestampMs t) {
  Value v;
  v.type_ = DataType::kTimestamp;
  v.data_ = static_cast<int64_t>(t);
  return v;
}

Value Value::GeometryVal(geo::Geometry g) {
  Value v;
  v.type_ = DataType::kGeometry;
  v.data_ = std::move(g);
  return v;
}

Value Value::TrajectoryVal(std::shared_ptr<const traj::Trajectory> t) {
  Value v;
  v.type_ = DataType::kTrajectory;
  v.data_ = std::move(t);
  return v;
}

Result<double> Value::AsDouble() const {
  switch (type_) {
    case DataType::kBool:
      return bool_value() ? 1.0 : 0.0;
    case DataType::kInt:
    case DataType::kTimestamp:
      return static_cast<double>(std::get<int64_t>(data_));
    case DataType::kDouble:
      return double_value();
    default:
      return Status::InvalidArgument("value is not numeric: " + ToString());
  }
}

Result<int64_t> Value::AsInt() const {
  switch (type_) {
    case DataType::kBool:
      return static_cast<int64_t>(bool_value());
    case DataType::kInt:
    case DataType::kTimestamp:
      return std::get<int64_t>(data_);
    case DataType::kDouble:
      return static_cast<int64_t>(double_value());
    default:
      return Status::InvalidArgument("value is not numeric: " + ToString());
  }
}

namespace {
bool IsNumeric(DataType t) {
  return t == DataType::kBool || t == DataType::kInt ||
         t == DataType::kDouble || t == DataType::kTimestamp;
}
}  // namespace

int Value::Compare(const Value& other) const {
  if (type_ == DataType::kNull || other.type_ == DataType::kNull) {
    if (type_ == other.type_) return 0;
    return type_ == DataType::kNull ? -1 : 1;
  }
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    double a = AsDouble().value();
    double b = other.AsDouble().value();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  switch (type_) {
    case DataType::kString: {
      int c = string_value().compare(other.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case DataType::kGeometry: {
      std::string a = geometry_value().Serialize();
      std::string b = other.geometry_value().Serialize();
      int c = a.compare(b);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case DataType::kTrajectory: {
      const auto& a = trajectory_value();
      const auto& b = other.trajectory_value();
      if (a == b) return 0;
      if (a == nullptr || b == nullptr) return a == nullptr ? -1 : 1;
      // By oid, then point count, then the points (time, lng, lat): two
      // copies of one trajectory with different GPS lists (a summary-only
      // one among them) are different values.
      if (int c = a->oid().compare(b->oid()); c != 0) return c < 0 ? -1 : 1;
      if (a->point_count() != b->point_count()) {
        return a->point_count() < b->point_count() ? -1 : 1;
      }
      const auto less = [](const traj::GpsPoint& x, const traj::GpsPoint& y) {
        return std::tie(x.time, x.position.lng, x.position.lat) <
               std::tie(y.time, y.position.lng, y.position.lat);
      };
      const auto& pa = a->points();
      const auto& pb = b->points();
      if (std::lexicographical_compare(pa.begin(), pa.end(), pb.begin(),
                                       pb.end(), less)) {
        return -1;
      }
      return std::lexicographical_compare(pb.begin(), pb.end(), pa.begin(),
                                          pa.end(), less)
                 ? 1
                 : 0;
    }
    default:
      return 0;
  }
}

size_t Value::Hash() const {
  switch (type_) {
    case DataType::kNull:
      return 0x9E3779B9;
    case DataType::kBool:
    case DataType::kInt:
    case DataType::kTimestamp:
    case DataType::kDouble: {
      // Hash the numeric value as a double so 1 == 1.0 hash-match.
      double d = AsDouble().value();
      if (d == 0) d = 0;  // normalize -0.0
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      return std::hash<uint64_t>{}(bits);
    }
    case DataType::kString:
      return std::hash<std::string>{}(string_value());
    case DataType::kGeometry:
      return std::hash<std::string>{}(geometry_value().Serialize());
    case DataType::kTrajectory:
      return trajectory_value() == nullptr
                 ? 1
                 : std::hash<std::string>{}(trajectory_value()->oid());
  }
  return 0;
}

size_t Value::ApproxBytes() const {
  switch (type_) {
    case DataType::kString:
      return 32 + string_value().size();
    case DataType::kGeometry:
      return 32 + geometry_value().points().size() * sizeof(geo::Point);
    case DataType::kTrajectory:
      return 32 + (trajectory_value() == nullptr
                       ? 0
                       : trajectory_value()->size() * sizeof(traj::GpsPoint));
    default:
      return 16;
  }
}

std::string Value::ToString() const {
  switch (type_) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return bool_value() ? "true" : "false";
    case DataType::kInt:
      return std::to_string(int_value());
    case DataType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", double_value());
      return buf;
    }
    case DataType::kString:
      return string_value();
    case DataType::kTimestamp:
      return FormatTimestamp(timestamp_value());
    case DataType::kGeometry:
      return geometry_value().ToWkt();
    case DataType::kTrajectory: {
      const auto& t = trajectory_value();
      if (t == nullptr) return "TRAJECTORY()";
      return "TRAJECTORY(" + t->oid() + ", " + std::to_string(t->size()) +
             " pts)";
    }
  }
  return "?";
}

void Value::SerializeTo(std::string* out) const {
  out->push_back(static_cast<char>(type_));
  switch (type_) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      out->push_back(bool_value() ? 1 : 0);
      break;
    case DataType::kInt:
    case DataType::kTimestamp:
      PutVarintSigned(out, std::get<int64_t>(data_));
      break;
    case DataType::kDouble:
      PutFixed64(out, OrderedDoubleBits(double_value()));
      break;
    case DataType::kString:
      PutLengthPrefixed(out, string_value());
      break;
    case DataType::kGeometry:
      PutLengthPrefixed(out, geometry_value().Serialize());
      break;
    case DataType::kTrajectory: {
      const auto& t = trajectory_value();
      if (t == nullptr) {
        PutLengthPrefixed(out, "");
        PutLengthPrefixed(out, "");
      } else {
        PutLengthPrefixed(out, t->oid());
        PutLengthPrefixed(out, t->SerializeDelta());
      }
      break;
    }
  }
}

Result<Value> Value::Deserialize(const char** p, const char* limit) {
  if (*p >= limit) return Status::Corruption("truncated value");
  auto type = static_cast<DataType>(*(*p)++);
  switch (type) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool: {
      if (*p >= limit) return Status::Corruption("truncated bool");
      return Value::Bool(*(*p)++ != 0);
    }
    case DataType::kInt:
    case DataType::kTimestamp: {
      int64_t v;
      if (!GetVarintSigned(p, limit, &v)) {
        return Status::Corruption("truncated int");
      }
      return type == DataType::kInt ? Value::Int(v) : Value::Timestamp(v);
    }
    case DataType::kDouble: {
      if (limit - *p < 8) return Status::Corruption("truncated double");
      double d = OrderedBitsToDouble(GetFixed64(*p));
      *p += 8;
      return Value::Double(d);
    }
    case DataType::kString: {
      std::string_view s;
      if (!GetLengthPrefixed(p, limit, &s)) {
        return Status::Corruption("truncated string");
      }
      return Value::String(std::string(s));
    }
    case DataType::kGeometry: {
      std::string_view s;
      if (!GetLengthPrefixed(p, limit, &s)) {
        return Status::Corruption("truncated geometry");
      }
      JUST_ASSIGN_OR_RETURN(auto g,
                            geo::Geometry::Deserialize(s));
      return Value::GeometryVal(std::move(g));
    }
    case DataType::kTrajectory: {
      std::string_view oid, payload;
      if (!GetLengthPrefixed(p, limit, &oid) ||
          !GetLengthPrefixed(p, limit, &payload)) {
        return Status::Corruption("truncated trajectory");
      }
      JUST_ASSIGN_OR_RETURN(
          auto t, traj::Trajectory::DeserializeDelta(std::string(oid),
                                                     payload));
      return Value::TrajectoryVal(
          std::make_shared<const traj::Trajectory>(std::move(t)));
    }
  }
  return Status::Corruption("unknown value type");
}

}  // namespace just::exec
