#ifndef JUST_GEO_GEOMETRY_H_
#define JUST_GEO_GEOMETRY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "geo/point.h"

namespace just::geo {

/// Geometry kinds supported by JUST tables. Points use Z2/Z2T indexing;
/// non-point geometries (lines, polygons) use XZ2/XZ2T (Section IV).
enum class GeometryType { kPoint, kLineString, kPolygon };

/// A simple geometry: a point, a polyline, or a single-ring polygon.
class Geometry {
 public:
  Geometry() : type_(GeometryType::kPoint), points_{Point{}} {}

  static Geometry MakePoint(Point p);
  static Geometry MakeLineString(std::vector<Point> pts);
  /// The ring may be open; it is treated as closed (last->first edge).
  static Geometry MakePolygon(std::vector<Point> ring);

  GeometryType type() const { return type_; }
  bool is_point() const { return type_ == GeometryType::kPoint; }
  const std::vector<Point>& points() const { return points_; }
  const Point& AsPoint() const { return points_[0]; }

  /// Bounding box of the geometry.
  Mbr Bounds() const;

  /// True if the geometry is entirely inside `box` (the WITHIN predicate).
  bool Within(const Mbr& box) const;

  /// True if the geometry intersects `box`.
  bool Intersects(const Mbr& box) const;

  /// Point-in-polygon test (ray casting); only valid for polygons.
  bool ContainsPoint(const Point& p) const;

  /// Minimum degree-space distance from `q` to this geometry.
  double Distance(const Point& q) const;

  /// WKT rendering: POINT (...) / LINESTRING (...) / POLYGON ((...)).
  std::string ToWkt() const;

  /// Compact binary serialization for storage cells.
  std::string Serialize() const;
  static Result<Geometry> Deserialize(std::string_view bytes);

  /// Parses a WKT string (the three supported types).
  static Result<Geometry> FromWkt(const std::string& wkt);

  bool operator==(const Geometry& o) const {
    return type_ == o.type_ && points_ == o.points_;
  }

 private:
  GeometryType type_;
  std::vector<Point> points_;
};

}  // namespace just::geo

#endif  // JUST_GEO_GEOMETRY_H_
