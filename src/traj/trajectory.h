#ifndef JUST_TRAJ_TRAJECTORY_H_
#define JUST_TRAJ_TRAJECTORY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time_util.h"
#include "geo/point.h"

namespace just::traj {

/// One GPS fix.
struct GpsPoint {
  geo::Point position;
  TimestampMs time = 0;

  bool operator==(const GpsPoint& o) const {
    return position == o.position && time == o.time;
  }
};

/// A trajectory: the entity stored by the paper's "trajectory" plugin table
/// (Figure 6): MBR, start/end times and the GPS list — the big-bytes field
/// the compression mechanism targets. The MBR, times and point count (the
/// summary) are fixed at construction, so reading them is O(1). A
/// summary-only trajectory carries the summary and no points: the scan's
/// refinement phase reads one before deciding whether to decode the list.
class Trajectory {
 public:
  Trajectory() = default;
  Trajectory(std::string oid, std::vector<GpsPoint> points);

  /// A trajectory known by its summary alone (points() is empty).
  static Trajectory SummaryOnly(std::string oid, const geo::Mbr& bounds,
                                TimestampMs start_time, TimestampMs end_time,
                                uint64_t point_count);

  const std::string& oid() const { return oid_; }
  const std::vector<GpsPoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  size_t size() const { return points_.size(); }

  const geo::Mbr& Bounds() const { return bounds_; }
  TimestampMs start_time() const { return start_time_; }
  TimestampMs end_time() const { return end_time_; }
  /// The number of GPS points, also when summary-only.
  uint64_t point_count() const { return point_count_; }
  /// True only for a SummaryOnly() trajectory, whatever its point count.
  bool summary_only() const { return summary_only_; }

  /// Total path length in meters.
  double LengthMeters() const;

  /// GPS-list encodings for the storage layer. Raw: 24 bytes per point
  /// (two doubles + int64 time) — what JUSTnc stores. Delta: quantized
  /// (1e-6 deg, 1 ms) zig-zag varint deltas — the compact transform the
  /// general-purpose codec is applied on top of.
  std::string SerializeRaw() const;
  std::string SerializeDelta() const;
  /// Bounds() of DeserializeDelta(SerializeDelta()): quantization is
  /// monotonic, so these are the quantized bounds.
  geo::Mbr DeltaBounds() const;
  static Result<Trajectory> DeserializeRaw(const std::string& oid,
                                           std::string_view bytes);
  static Result<Trajectory> DeserializeDelta(const std::string& oid,
                                             std::string_view bytes);

  bool operator==(const Trajectory& o) const {
    return oid_ == o.oid_ && summary_only_ == o.summary_only_ &&
           point_count_ == o.point_count_ && points_ == o.points_;
  }

 private:
  std::string oid_;
  std::vector<GpsPoint> points_;
  geo::Mbr bounds_ = geo::Mbr::Empty();
  TimestampMs start_time_ = 0;
  TimestampMs end_time_ = 0;
  uint64_t point_count_ = 0;
  bool summary_only_ = false;
};

}  // namespace just::traj

#endif  // JUST_TRAJ_TRAJECTORY_H_
