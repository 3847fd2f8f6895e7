#include <gtest/gtest.h>

#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/value.h"
#include "geo/coord_transform.h"
#include "geo/geometry.h"
#include "geo/point.h"

namespace just::geo {
namespace {

TEST(MbrTest, ContainsAndIntersects) {
  Mbr box = Mbr::Of(0, 0, 10, 10);
  EXPECT_TRUE(box.Contains(Point{5, 5}));
  EXPECT_TRUE(box.Contains(Point{0, 0}));
  EXPECT_TRUE(box.Contains(Point{10, 10}));
  EXPECT_FALSE(box.Contains(Point{10.01, 5}));
  EXPECT_TRUE(box.Intersects(Mbr::Of(5, 5, 15, 15)));
  EXPECT_TRUE(box.Intersects(Mbr::Of(10, 10, 20, 20)));  // touching corner
  EXPECT_FALSE(box.Intersects(Mbr::Of(11, 11, 20, 20)));
  EXPECT_TRUE(box.Contains(Mbr::Of(1, 1, 9, 9)));
  EXPECT_FALSE(box.Contains(Mbr::Of(1, 1, 11, 9)));
}

TEST(MbrTest, OfNormalizesCorners) {
  Mbr box = Mbr::Of(10, 20, -10, -20);
  EXPECT_EQ(box.lng_min, -10);
  EXPECT_EQ(box.lat_min, -20);
  EXPECT_EQ(box.lng_max, 10);
  EXPECT_EQ(box.lat_max, 20);
}

TEST(MbrTest, ExpandFromEmpty) {
  Mbr box = Mbr::Empty();
  EXPECT_TRUE(box.IsEmpty());
  box.Expand(Point{1, 2});
  box.Expand(Point{-3, 4});
  EXPECT_EQ(box.lng_min, -3);
  EXPECT_EQ(box.lng_max, 1);
  EXPECT_EQ(box.lat_max, 4);
  EXPECT_FALSE(box.IsEmpty());
}

TEST(MbrTest, MinDistanceMatchesEq4) {
  Mbr box = Mbr::Of(0, 0, 10, 10);
  EXPECT_EQ(box.MinDistance(Point{5, 5}), 0);      // inside
  EXPECT_EQ(box.MinDistance(Point{15, 5}), 5);     // right
  EXPECT_EQ(box.MinDistance(Point{5, -3}), 3);     // below
  EXPECT_NEAR(box.MinDistance(Point{13, 14}), 5.0, 1e-12);  // corner 3-4-5
}

TEST(DistanceTest, HaversineKnownValue) {
  // Beijing to Shanghai is roughly 1070 km.
  double d = HaversineMeters(Point{116.40, 39.90}, Point{121.47, 31.23});
  EXPECT_NEAR(d, 1068000, 15000);
  // Degenerate: zero distance.
  EXPECT_EQ(HaversineMeters(Point{1, 1}, Point{1, 1}), 0);
}

TEST(DistanceTest, SquareWindowHasRequestedSize) {
  Point center{116.4, 39.9};
  Mbr w = SquareWindowKm(center, 3.0);
  double height_km = HaversineMeters(Point{center.lng, w.lat_min},
                                     Point{center.lng, w.lat_max}) /
                     1000.0;
  double width_km = HaversineMeters(Point{w.lng_min, center.lat},
                                    Point{w.lng_max, center.lat}) /
                    1000.0;
  EXPECT_NEAR(height_km, 3.0, 0.05);
  EXPECT_NEAR(width_km, 3.0, 0.05);
}

TEST(DistanceTest, PointSegment) {
  EXPECT_NEAR(PointSegmentDistance(Point{0, 1}, Point{-1, 0}, Point{1, 0}),
              1.0, 1e-12);
  // Beyond segment end: distance to endpoint.
  EXPECT_NEAR(PointSegmentDistance(Point{3, 4}, Point{-1, 0}, Point{0, 0}),
              5.0, 1e-12);
  // Degenerate segment.
  EXPECT_NEAR(PointSegmentDistance(Point{3, 4}, Point{0, 0}, Point{0, 0}),
              5.0, 1e-12);
}

TEST(GeometryTest, PointWktRoundTrip) {
  Geometry g = Geometry::MakePoint(Point{116.397, 39.916});
  auto parsed = Geometry::FromWkt(g.ToWkt());
  ASSERT_TRUE(parsed.ok());
  EXPECT_NEAR(parsed->AsPoint().lng, 116.397, 1e-6);
  EXPECT_NEAR(parsed->AsPoint().lat, 39.916, 1e-6);
}

TEST(GeometryTest, LineStringWktRoundTrip) {
  Geometry g = Geometry::MakeLineString(
      {Point{0, 0}, Point{1, 1}, Point{2, 0.5}});
  auto parsed = Geometry::FromWkt(g.ToWkt());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type(), GeometryType::kLineString);
  EXPECT_EQ(parsed->points().size(), 3u);
}

TEST(GeometryTest, PolygonWktRoundTrip) {
  Geometry g = Geometry::MakePolygon(
      {Point{0, 0}, Point{4, 0}, Point{4, 4}, Point{0, 4}});
  auto parsed = Geometry::FromWkt(g.ToWkt());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type(), GeometryType::kPolygon);
  EXPECT_EQ(parsed->points().size(), 4u);  // closing point dropped
}

TEST(GeometryTest, FromWktRejectsGarbage) {
  EXPECT_FALSE(Geometry::FromWkt("CIRCLE (1 2)").ok());
  EXPECT_FALSE(Geometry::FromWkt("POINT (abc def)").ok());
}

TEST(GeometryTest, BinaryRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    std::vector<Point> pts;
    int n = 1 + static_cast<int>(rng.Uniform(20));
    for (int j = 0; j < n; ++j) {
      pts.push_back(Point{rng.Uniform(-180.0, 180.0),
                          rng.Uniform(-90.0, 90.0)});
    }
    Geometry g = Geometry::MakeLineString(pts);
    auto back = Geometry::Deserialize(g.Serialize());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, g);
  }
}

TEST(GeometryTest, PolygonContainsPoint) {
  Geometry square = Geometry::MakePolygon(
      {Point{0, 0}, Point{4, 0}, Point{4, 4}, Point{0, 4}});
  EXPECT_TRUE(square.ContainsPoint(Point{2, 2}));
  EXPECT_FALSE(square.ContainsPoint(Point{5, 2}));
  EXPECT_FALSE(square.ContainsPoint(Point{-1, -1}));
  // Concave polygon.
  Geometry concave = Geometry::MakePolygon(
      {Point{0, 0}, Point{4, 0}, Point{4, 4}, Point{2, 1}, Point{0, 4}});
  EXPECT_TRUE(concave.ContainsPoint(Point{1, 0.5}));
  EXPECT_FALSE(concave.ContainsPoint(Point{2, 3}));  // inside the notch
}

TEST(GeometryTest, WithinAndIntersects) {
  Geometry line = Geometry::MakeLineString({Point{1, 1}, Point{3, 3}});
  EXPECT_TRUE(line.Within(Mbr::Of(0, 0, 4, 4)));
  EXPECT_FALSE(line.Within(Mbr::Of(0, 0, 2, 2)));
  EXPECT_TRUE(line.Intersects(Mbr::Of(0, 0, 2, 2)));
  EXPECT_FALSE(line.Intersects(Mbr::Of(10, 10, 12, 12)));
  // Diagonal line crossing a box none of whose vertices are inside.
  Geometry diag = Geometry::MakeLineString({Point{0, 0}, Point{10, 10}});
  EXPECT_TRUE(diag.Intersects(Mbr::Of(4, 4, 6, 6)));
}

TEST(GeometryTest, DistanceToShapes) {
  Geometry pt = Geometry::MakePoint(Point{0, 0});
  EXPECT_NEAR(pt.Distance(Point{3, 4}), 5.0, 1e-12);
  Geometry line = Geometry::MakeLineString({Point{-1, 2}, Point{1, 2}});
  EXPECT_NEAR(line.Distance(Point{0, 0}), 2.0, 1e-12);
  Geometry poly = Geometry::MakePolygon(
      {Point{0, 0}, Point{4, 0}, Point{4, 4}, Point{0, 4}});
  EXPECT_EQ(poly.Distance(Point{2, 2}), 0);  // inside
  EXPECT_NEAR(poly.Distance(Point{6, 2}), 2.0, 1e-12);
}

// --- Geometry value semantics: a point lives inline, a line or polygon
// owns its vertex vector; both must copy, move and reassign like values. ---

// A point fits in the vector's slot: geometry cells and exec::Value keep
// the sizes they had when every geometry held a vector.
static_assert(sizeof(Geometry) == 32);
static_assert(sizeof(exec::Value) == 48);

std::vector<Point> Pts(std::span<const Point> span) {
  return {span.begin(), span.end()};
}

TEST(GeometryValueTest, PointsSpanPerType) {
  Geometry def;
  EXPECT_TRUE(def.is_point());
  EXPECT_EQ(Pts(def.points()), std::vector<Point>{Point{}});
  Geometry pt = Geometry::MakePoint({116.5, 39.75});
  EXPECT_EQ(Pts(pt.points()), (std::vector<Point>{Point{116.5, 39.75}}));
  EXPECT_EQ(&pt.AsPoint(), pt.points().data());
  Geometry line = Geometry::MakeLineString({{0, 0}, {1, -1}, {2, 0}});
  EXPECT_EQ(line.points().size(), 3u);
  EXPECT_EQ(line.points()[2], (Point{2, 0}));
  Geometry poly = Geometry::MakePolygon({{0, 0}, {1, 0}, {1, 1}, {0, 0}});
  EXPECT_EQ(Pts(poly.points()),
            (std::vector<Point>{{0, 0}, {1, 0}, {1, 1}}));  // ring not closed
  EXPECT_EQ(Geometry::MakeLineString({}).points().size(), 1u);
  EXPECT_EQ(Geometry::MakePolygon({}).points().size(), 1u);
}

TEST(GeometryValueTest, CopyAndMoveKeepTheValue) {
  const Geometry pt = Geometry::MakePoint({3, 4});
  const Geometry poly =
      Geometry::MakePolygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  for (const Geometry* original : {&pt, &poly}) {
    Geometry copy(*original);
    EXPECT_EQ(copy, *original);
    Geometry moved(std::move(copy));
    EXPECT_EQ(moved, *original);
    // A moved-from geometry is usable: a point keeps its value, a line or
    // polygon becomes the default point.
    EXPECT_TRUE(copy.is_point());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy.AsPoint(), original->is_point() ? original->AsPoint()
                                                   : Point{});
    copy = moved;
    EXPECT_EQ(copy, *original);
    if (!original->is_point()) {
      // The copy owns its vertices.
      EXPECT_NE(copy.points().data(), original->points().data());
    }
  }
}

TEST(GeometryValueTest, SelfAssignmentIsANoOp) {
  Geometry pt = Geometry::MakePoint({1, 2});
  Geometry poly = Geometry::MakePolygon({{0, 0}, {1, 0}, {1, 1}});
  const Geometry pt_before = pt, poly_before = poly;
  Geometry& pt_ref = pt;
  Geometry& poly_ref = poly;
  pt = pt_ref;
  poly = poly_ref;
  EXPECT_EQ(pt, pt_before);
  EXPECT_EQ(poly, poly_before);
  pt = std::move(pt_ref);
  poly = std::move(poly_ref);
  EXPECT_EQ(pt, pt_before);
  EXPECT_EQ(poly, poly_before);
}

TEST(GeometryValueTest, ReassignBetweenPointLineAndPolygon) {
  const Geometry pt = Geometry::MakePoint({5, 6});
  const Geometry line = Geometry::MakeLineString({{0, 0}, {2, 2}});
  const Geometry poly =
      Geometry::MakePolygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  Geometry g;
  for (const Geometry* next : {&poly, &pt, &line, &poly, &line, &pt, &pt}) {
    g = *next;  // copy-assign across every pair of kinds
    EXPECT_EQ(g, *next);
    EXPECT_EQ(g.type(), next->type());
    EXPECT_EQ(g.Bounds().lng_max, next->Bounds().lng_max);
    Geometry tmp(*next);
    Geometry h = Geometry::MakePolygon({{9, 9}, {8, 9}, {8, 8}});
    h = std::move(tmp);  // move-assign over a polygon
    EXPECT_EQ(h, *next);
    g = Geometry::MakePoint({7, 7});  // and back to a point
    EXPECT_EQ(Pts(g.points()), (std::vector<Point>{Point{7, 7}}));
  }
  // Growth moves a vector of mixed geometries element by element.
  std::vector<Geometry> all;
  for (int i = 0; i < 100; ++i) all.push_back(i % 2 ? poly : pt);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(all[i], i % 2 ? poly : pt);
}

TEST(GeometryValueTest, SerializeMatchesGoldenBytes) {
  using namespace std::literals;
  // Type byte, varint vertex count, then (lng, lat) as OrderedDoubleBits
  // fixed64s: the storage and wire format, unchanged by the inline point.
  const std::vector<std::pair<Geometry, std::string_view>> cases = {
      {Geometry::MakePoint({116.5, 39.75}),
       "\x00\x01\x00\x00\x00\x00\x00\x20\x5d\xc0"
       "\x00\x00\x00\x00\x00\xe0\x43\xc0"sv},
      {Geometry::MakeLineString({{0, 0}, {1, -1}}),
       "\x01\x02\x00\x00\x00\x00\x00\x00\x00\x80"
       "\x00\x00\x00\x00\x00\x00\x00\x80"
       "\x00\x00\x00\x00\x00\x00\xf0\xbf"
       "\xff\xff\xff\xff\xff\xff\x0f\x40"sv},
      {Geometry::MakePolygon({{0, 0}, {1, 0}, {1, 1}, {0, 0}}),
       "\x02\x03\x00\x00\x00\x00\x00\x00\x00\x80"
       "\x00\x00\x00\x00\x00\x00\x00\x80"
       "\x00\x00\x00\x00\x00\x00\xf0\xbf"
       "\x00\x00\x00\x00\x00\x00\x00\x80"
       "\x00\x00\x00\x00\x00\x00\xf0\xbf"
       "\x00\x00\x00\x00\x00\x00\xf0\xbf"sv},
  };
  for (const auto& [geometry, golden] : cases) {
    EXPECT_EQ(geometry.Serialize(), golden) << geometry.ToWkt();
    auto back = Geometry::Deserialize(golden);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, geometry);
  }
}

TEST(CoordTransformTest, Gcj02RoundTrip) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    Point wgs{rng.Uniform(110.0, 120.0), rng.Uniform(30.0, 42.0)};
    Point gcj = Wgs84ToGcj02(wgs);
    // GCJ-02 offsets are a few hundred meters, not zero and not huge.
    double shift = HaversineMeters(wgs, gcj);
    EXPECT_GT(shift, 5.0);
    EXPECT_LT(shift, 2000.0);
    Point back = Gcj02ToWgs84(gcj);
    EXPECT_LT(HaversineMeters(wgs, back), 1.0);  // inverse within 1 m
  }
}

TEST(CoordTransformTest, NoOffsetOutsideChina) {
  Point nyc{-73.97, 40.78};
  EXPECT_TRUE(OutsideChina(nyc));
  Point gcj = Wgs84ToGcj02(nyc);
  EXPECT_EQ(gcj.lng, nyc.lng);
  EXPECT_EQ(gcj.lat, nyc.lat);
}

TEST(CoordTransformTest, Bd09RoundTrip) {
  Point gcj{116.40, 39.90};
  Point bd = Gcj02ToBd09(gcj);
  Point back = Bd09ToGcj02(bd);
  EXPECT_LT(HaversineMeters(gcj, back), 1.0);
  EXPECT_GT(HaversineMeters(gcj, bd), 100.0);  // BD-09 shifts ~600m
}

}  // namespace
}  // namespace just::geo
