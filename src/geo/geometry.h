#ifndef JUST_GEO_GEOMETRY_H_
#define JUST_GEO_GEOMETRY_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "geo/point.h"

namespace just::geo {

/// Geometry kinds supported by JUST tables. Points use Z2/Z2T indexing;
/// non-point geometries (lines, polygons) use XZ2/XZ2T (Section IV).
enum class GeometryType { kPoint, kLineString, kPolygon };

/// A simple geometry: a point, a polyline, or a single-ring polygon. A
/// point is stored inline and lines/polygons own a vertex vector, so
/// making, decoding, copying and destroying a point never touches the heap
/// (the scan path decodes one per row). A moved-from line or polygon is the
/// default point; a moved-from point keeps its value.
class Geometry {
 public:
  Geometry() : type_(GeometryType::kPoint), point_{} {}
  Geometry(const Geometry& o) : type_(o.type_) {
    if (o.is_point()) {
      std::construct_at(&point_, o.point_);
    } else {
      std::construct_at(&vertices_, o.vertices_);
    }
  }
  Geometry(Geometry&& o) noexcept : type_(o.type_) {
    if (o.is_point()) {
      std::construct_at(&point_, o.point_);
    } else {
      std::construct_at(&vertices_, std::move(o.vertices_));
      o.ResetToPoint();
    }
  }
  Geometry& operator=(const Geometry& o) {
    if (this != &o) *this = Geometry(o);  // a throwing copy leaves *this
    return *this;
  }
  Geometry& operator=(Geometry&& o) noexcept {
    if (this == &o) return *this;
    ResetToPoint();
    type_ = o.type_;
    if (o.is_point()) {
      point_ = o.point_;
    } else {
      std::destroy_at(&point_);
      std::construct_at(&vertices_, std::move(o.vertices_));
      o.ResetToPoint();
    }
    return *this;
  }
  ~Geometry() { ResetToPoint(); }

  static Geometry MakePoint(Point p);
  static Geometry MakeLineString(std::vector<Point> pts);
  /// The ring may be open; it is treated as closed (last->first edge).
  static Geometry MakePolygon(std::vector<Point> ring);

  GeometryType type() const { return type_; }
  bool is_point() const { return type_ == GeometryType::kPoint; }
  /// The vertices: one for a point, at least one otherwise.
  std::span<const Point> points() const {
    return is_point() ? std::span<const Point>(&point_, 1)
                      : std::span<const Point>(vertices_);
  }
  const Point& AsPoint() const { return points()[0]; }

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

  bool operator==(const Geometry& o) const;

 private:
  /// Line or polygon over `vertices` (never empty).
  Geometry(GeometryType type, std::vector<Point> vertices);
  /// Destroys the vertex vector, if any; the geometry is then the default
  /// point. DropVertices stays out of line: inlined into callers that
  /// destroy a Result<Geometry>, it draws GCC -Wmaybe-uninitialized false
  /// positives on the union.
  void ResetToPoint() noexcept {
    if (!is_point()) DropVertices();
  }
  void DropVertices() noexcept;

  GeometryType type_;
  union {
    Point point_;                  ///< kPoint
    std::vector<Point> vertices_;  ///< kLineString / kPolygon
  };
};

}  // namespace just::geo

#endif  // JUST_GEO_GEOMETRY_H_
