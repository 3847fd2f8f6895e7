#include "geo/geometry.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/bytes.h"

namespace just::geo {

Geometry::Geometry(GeometryType type, std::vector<Point> vertices)
    : type_(type) {
  if (vertices.empty()) vertices.push_back(Point{});
  std::construct_at(&vertices_, std::move(vertices));
}

void Geometry::DropVertices() noexcept {
  std::destroy_at(&vertices_);
  type_ = GeometryType::kPoint;
  std::construct_at(&point_);
}

Geometry Geometry::MakePoint(Point p) {
  Geometry g;
  g.point_ = p;
  return g;
}

Geometry Geometry::MakeLineString(std::vector<Point> pts) {
  return Geometry(GeometryType::kLineString, std::move(pts));
}

Geometry Geometry::MakePolygon(std::vector<Point> ring) {
  // Normalize: drop an explicit closing point equal to the first.
  if (ring.size() > 1 && ring.front() == ring.back()) ring.pop_back();
  return Geometry(GeometryType::kPolygon, std::move(ring));
}

bool Geometry::operator==(const Geometry& o) const {
  std::span<const Point> a = points();
  std::span<const Point> b = o.points();
  return type_ == o.type_ && std::equal(a.begin(), a.end(), b.begin(), b.end());
}

Mbr Geometry::Bounds() const {
  if (is_point()) return Mbr{point_.lng, point_.lat, point_.lng, point_.lat};
  Mbr box = Mbr::Empty();
  for (const Point& p : vertices_) box.Expand(p);
  return box;
}

bool Geometry::Within(const Mbr& box) const { return box.Contains(Bounds()); }

bool Geometry::Intersects(const Mbr& box) const {
  if (!box.Intersects(Bounds())) return false;
  if (type_ == GeometryType::kPoint) return true;
  // Any vertex inside?
  for (const Point& p : vertices_) {
    if (box.Contains(p)) return true;
  }
  // Any edge crossing the box? Conservative: check segment-box overlap by
  // sampling the segment bounding boxes (sufficient for query refinement).
  size_t n = vertices_.size();
  size_t edges = type_ == GeometryType::kPolygon ? n : n - 1;
  for (size_t i = 0; i < edges; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    Mbr seg = Mbr::Of(a.lng, a.lat, b.lng, b.lat);
    if (box.Intersects(seg)) return true;
  }
  // Box fully inside a polygon?
  if (type_ == GeometryType::kPolygon && ContainsPoint(box.Center())) {
    return true;
  }
  return false;
}

bool Geometry::ContainsPoint(const Point& p) const {
  if (type_ != GeometryType::kPolygon || vertices_.size() < 3) return false;
  bool inside = false;
  size_t n = vertices_.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[j];
    bool crosses = (a.lat > p.lat) != (b.lat > p.lat);
    if (crosses) {
      double x = (b.lng - a.lng) * (p.lat - a.lat) / (b.lat - a.lat) + a.lng;
      if (p.lng < x) inside = !inside;
    }
  }
  return inside;
}

double Geometry::Distance(const Point& q) const {
  switch (type_) {
    case GeometryType::kPoint:
      return EuclideanDistance(q, point_);
    case GeometryType::kLineString: {
      double best = std::numeric_limits<double>::infinity();
      if (vertices_.size() == 1) return EuclideanDistance(q, vertices_[0]);
      for (size_t i = 0; i + 1 < vertices_.size(); ++i) {
        best = std::min(
            best, PointSegmentDistance(q, vertices_[i], vertices_[i + 1]));
      }
      return best;
    }
    case GeometryType::kPolygon: {
      if (ContainsPoint(q)) return 0.0;
      double best = std::numeric_limits<double>::infinity();
      size_t n = vertices_.size();
      for (size_t i = 0; i < n; ++i) {
        best = std::min(best, PointSegmentDistance(q, vertices_[i],
                                                   vertices_[(i + 1) % n]));
      }
      return best;
    }
  }
  return 0.0;
}

namespace {
void AppendCoord(std::string* out, const Point& p) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f %.6f", p.lng, p.lat);
  *out += buf;
}
}  // namespace

std::string Geometry::ToWkt() const {
  std::string out;
  switch (type_) {
    case GeometryType::kPoint:
      out = "POINT (";
      AppendCoord(&out, point_);
      out += ")";
      return out;
    case GeometryType::kLineString: {
      out = "LINESTRING (";
      for (size_t i = 0; i < vertices_.size(); ++i) {
        if (i) out += ", ";
        AppendCoord(&out, vertices_[i]);
      }
      out += ")";
      return out;
    }
    case GeometryType::kPolygon: {
      out = "POLYGON ((";
      for (size_t i = 0; i < vertices_.size(); ++i) {
        if (i) out += ", ";
        AppendCoord(&out, vertices_[i]);
      }
      if (!vertices_.empty()) {
        out += ", ";
        AppendCoord(&out, vertices_[0]);  // close the ring
      }
      out += "))";
      return out;
    }
  }
  return out;
}

std::string Geometry::Serialize() const {
  std::string out;
  out.push_back(static_cast<char>(type_));
  std::span<const Point> pts = points();
  PutVarint64(&out, pts.size());
  for (const Point& p : pts) {
    PutFixed64(&out, OrderedDoubleBits(p.lng));
    PutFixed64(&out, OrderedDoubleBits(p.lat));
  }
  return out;
}

Result<Geometry> Geometry::Deserialize(std::string_view bytes) {
  if (bytes.empty()) return Status::Corruption("empty geometry");
  const char* p = bytes.data();
  const char* limit = p + bytes.size();
  auto type = static_cast<GeometryType>(*p++);
  uint64_t n;
  if (!GetVarint64(&p, limit, &n)) return Status::Corruption("bad geometry");
  if (n > static_cast<uint64_t>(limit - p) / 16) {
    return Status::Corruption("truncated geometry");
  }
  auto point_at = [p](uint64_t i) {
    const char* q = p + i * 16;
    return Point{OrderedBitsToDouble(GetFixed64(q)),
                 OrderedBitsToDouble(GetFixed64(q + 8))};
  };
  if (type == GeometryType::kPoint) {
    // The common case parses straight into the geometry, no point list.
    if (n == 0) return Status::Corruption("empty point");
    return Geometry::MakePoint(point_at(0));
  }
  if (type != GeometryType::kLineString && type != GeometryType::kPolygon) {
    return Status::Corruption("unknown geometry type");
  }
  std::vector<Point> pts;
  pts.reserve(n);
  for (uint64_t i = 0; i < n; ++i) pts.push_back(point_at(i));
  if (type == GeometryType::kLineString) {
    return Geometry::MakeLineString(std::move(pts));
  }
  return Geometry::MakePolygon(std::move(pts));
}

namespace {
// Parses "lng lat" pairs separated by commas until ')'.
Result<std::vector<Point>> ParseCoordList(const std::string& s, size_t* pos) {
  std::vector<Point> pts;
  while (*pos < s.size() && s[*pos] != ')') {
    char* end = nullptr;
    double lng = std::strtod(s.c_str() + *pos, &end);
    if (end == s.c_str() + *pos) {
      return Status::InvalidArgument("bad WKT coordinate");
    }
    *pos = end - s.c_str();
    double lat = std::strtod(s.c_str() + *pos, &end);
    if (end == s.c_str() + *pos) {
      return Status::InvalidArgument("bad WKT coordinate");
    }
    *pos = end - s.c_str();
    pts.push_back(Point{lng, lat});
    while (*pos < s.size() && (s[*pos] == ',' || std::isspace(
                                  static_cast<unsigned char>(s[*pos])))) {
      ++(*pos);
    }
  }
  if (*pos >= s.size()) return Status::InvalidArgument("unclosed WKT");
  ++(*pos);  // ')'
  return pts;
}
}  // namespace

Result<Geometry> Geometry::FromWkt(const std::string& wkt) {
  std::string upper;
  upper.reserve(wkt.size());
  for (char c : wkt) upper += static_cast<char>(std::toupper(c));

  auto skip_to_open = [&](size_t from) -> size_t {
    size_t p = upper.find('(', from);
    return p == std::string::npos ? upper.size() : p + 1;
  };

  if (upper.rfind("POINT", 0) == 0) {
    size_t pos = skip_to_open(5);
    JUST_ASSIGN_OR_RETURN(auto pts, ParseCoordList(wkt, &pos));
    if (pts.size() != 1) return Status::InvalidArgument("POINT needs 1 coord");
    return MakePoint(pts[0]);
  }
  if (upper.rfind("LINESTRING", 0) == 0) {
    size_t pos = skip_to_open(10);
    JUST_ASSIGN_OR_RETURN(auto pts, ParseCoordList(wkt, &pos));
    if (pts.empty()) return Status::InvalidArgument("empty LINESTRING");
    return MakeLineString(std::move(pts));
  }
  if (upper.rfind("POLYGON", 0) == 0) {
    size_t pos = skip_to_open(7);
    // POLYGON ((ring)) — skip the inner paren too.
    while (pos < wkt.size() &&
           std::isspace(static_cast<unsigned char>(wkt[pos]))) {
      ++pos;
    }
    if (pos < wkt.size() && wkt[pos] == '(') ++pos;
    JUST_ASSIGN_OR_RETURN(auto pts, ParseCoordList(wkt, &pos));
    if (pts.size() < 3) return Status::InvalidArgument("POLYGON needs a ring");
    return MakePolygon(std::move(pts));
  }
  return Status::InvalidArgument("unsupported WKT: " + wkt);
}

}  // namespace just::geo
