#include "traj/trajectory.h"

#include <cmath>

#include "common/bytes.h"

namespace just::traj {

Trajectory::Trajectory(std::string oid, std::vector<GpsPoint> points)
    : oid_(std::move(oid)),
      points_(std::move(points)),
      point_count_(points_.size()) {
  for (const GpsPoint& p : points_) bounds_.Expand(p.position);
  if (!points_.empty()) {
    start_time_ = points_.front().time;
    end_time_ = points_.back().time;
  }
}

Trajectory Trajectory::SummaryOnly(std::string oid, const geo::Mbr& bounds,
                                   TimestampMs start_time,
                                   TimestampMs end_time,
                                   uint64_t point_count) {
  Trajectory t;
  t.oid_ = std::move(oid);
  t.bounds_ = bounds;
  t.start_time_ = start_time;
  t.end_time_ = end_time;
  t.point_count_ = point_count;
  t.summary_only_ = true;
  return t;
}

double Trajectory::LengthMeters() const {
  double total = 0;
  for (size_t i = 1; i < points_.size(); ++i) {
    total += geo::HaversineMeters(points_[i - 1].position,
                                  points_[i].position);
  }
  return total;
}

std::string Trajectory::SerializeRaw() const {
  std::string out;
  PutVarint64(&out, points_.size());
  for (const GpsPoint& p : points_) {
    PutFixed64(&out, OrderedDoubleBits(p.position.lng));
    PutFixed64(&out, OrderedDoubleBits(p.position.lat));
    PutFixed64(&out, static_cast<uint64_t>(p.time));
  }
  return out;
}

Result<Trajectory> Trajectory::DeserializeRaw(const std::string& oid,
                                              std::string_view bytes) {
  const char* p = bytes.data();
  const char* limit = p + bytes.size();
  uint64_t n;
  if (!GetVarint64(&p, limit, &n)) return Status::Corruption("bad gps list");
  if (n > static_cast<uint64_t>(limit - p) / 24) {
    return Status::Corruption("truncated gps list");
  }
  std::vector<GpsPoint> points;
  points.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    GpsPoint gp;
    gp.position.lng = OrderedBitsToDouble(GetFixed64(p));
    gp.position.lat = OrderedBitsToDouble(GetFixed64(p + 8));
    gp.time = static_cast<TimestampMs>(GetFixed64(p + 16));
    p += 24;
    points.push_back(gp);
  }
  return Trajectory(oid, std::move(points));
}

namespace {
constexpr double kQuantum = 1e-6;  // ~0.11 m of longitude at the equator

int64_t Quantize(double deg) {
  return static_cast<int64_t>(std::llround(deg / kQuantum));
}
double Dequantize(int64_t q) { return static_cast<double>(q) * kQuantum; }
}  // namespace

geo::Mbr Trajectory::DeltaBounds() const {
  if (points_.empty()) return bounds_;
  auto q = [](double deg) { return Dequantize(Quantize(deg)); };
  return geo::Mbr{q(bounds_.lng_min), q(bounds_.lat_min), q(bounds_.lng_max),
                  q(bounds_.lat_max)};
}

std::string Trajectory::SerializeDelta() const {
  std::string out;
  PutVarint64(&out, points_.size());
  int64_t prev_lng = 0, prev_lat = 0, prev_t = 0;
  for (const GpsPoint& p : points_) {
    int64_t qlng = Quantize(p.position.lng);
    int64_t qlat = Quantize(p.position.lat);
    PutVarintSigned(&out, qlng - prev_lng);
    PutVarintSigned(&out, qlat - prev_lat);
    PutVarintSigned(&out, p.time - prev_t);
    prev_lng = qlng;
    prev_lat = qlat;
    prev_t = p.time;
  }
  return out;
}

Result<Trajectory> Trajectory::DeserializeDelta(const std::string& oid,
                                                std::string_view bytes) {
  const char* p = bytes.data();
  const char* limit = p + bytes.size();
  uint64_t n;
  if (!GetVarint64(&p, limit, &n)) return Status::Corruption("bad gps list");
  // Every point takes at least three varint bytes.
  if (n > static_cast<uint64_t>(limit - p) / 3) {
    return Status::Corruption("truncated delta gps list");
  }
  std::vector<GpsPoint> points;
  points.reserve(n);
  int64_t lng = 0, lat = 0, t = 0;
  for (uint64_t i = 0; i < n; ++i) {
    int64_t dlng, dlat, dt;
    if (!GetVarintSigned(&p, limit, &dlng) ||
        !GetVarintSigned(&p, limit, &dlat) ||
        !GetVarintSigned(&p, limit, &dt)) {
      return Status::Corruption("truncated delta gps list");
    }
    lng += dlng;
    lat += dlat;
    t += dt;
    points.push_back(GpsPoint{geo::Point{Dequantize(lng), Dequantize(lat)},
                              static_cast<TimestampMs>(t)});
  }
  return Trajectory(oid, std::move(points));
}

}  // namespace just::traj
