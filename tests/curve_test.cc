#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "curve/index_strategy.h"
#include "curve/sfc.h"
#include "curve/xz2.h"
#include "curve/xz3.h"
#include "curve/z2.h"
#include "curve/z3.h"
#include "curve/zorder.h"

namespace just::curve {
namespace {

bool InRanges(const std::vector<SfcRange>& ranges, uint64_t v) {
  for (const SfcRange& r : ranges) {
    if (v >= r.lo && v <= r.hi) return true;
  }
  return false;
}

// --- zorder primitives ---

TEST(ZOrderTest, Interleave2RoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    uint32_t x = static_cast<uint32_t>(rng.Next()) & 0x7FFFFFFF;
    uint32_t y = static_cast<uint32_t>(rng.Next()) & 0x7FFFFFFF;
    uint32_t dx, dy;
    Deinterleave2(Interleave2(x, y), &dx, &dy);
    EXPECT_EQ(dx, x);
    EXPECT_EQ(dy, y);
  }
}

TEST(ZOrderTest, Interleave2BitPlacement) {
  EXPECT_EQ(Interleave2(1, 0), 1u);       // x bit 0 -> z bit 0
  EXPECT_EQ(Interleave2(0, 1), 2u);       // y bit 0 -> z bit 1
  EXPECT_EQ(Interleave2(2, 0), 4u);       // x bit 1 -> z bit 2
  EXPECT_EQ(Interleave2(0xFFFFFFFF, 0), 0x5555555555555555ull);
}

TEST(ZOrderTest, Interleave3RoundTrip) {
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    uint32_t x = static_cast<uint32_t>(rng.Next()) & 0x1FFFFF;
    uint32_t y = static_cast<uint32_t>(rng.Next()) & 0x1FFFFF;
    uint32_t t = static_cast<uint32_t>(rng.Next()) & 0x1FFFFF;
    uint32_t dx, dy, dt;
    Deinterleave3(Interleave3(x, y, t), &dx, &dy, &dt);
    EXPECT_EQ(dx, x);
    EXPECT_EQ(dy, y);
    EXPECT_EQ(dt, t);
  }
}

TEST(ZOrderTest, NormalizeClampsAndInverts) {
  EXPECT_EQ(NormalizeToBits(-180, -180, 180, 8), 0u);
  EXPECT_EQ(NormalizeToBits(180, -180, 180, 8), 255u);
  EXPECT_EQ(NormalizeToBits(-200, -180, 180, 8), 0u);   // clamp low
  EXPECT_EQ(NormalizeToBits(200, -180, 180, 8), 255u);  // clamp high
  uint32_t n = NormalizeToBits(10.5, -180, 180, 16);
  double lo = DenormalizeFromBits(n, -180, 180, 16);
  double hi = DenormalizeFromBits(n + 1, -180, 180, 16);
  EXPECT_LE(lo, 10.5);
  EXPECT_GT(hi, 10.5);
}

// --- Z2 ---

TEST(Z2Test, FigureThreeExample) {
  // Figure 3a: lat 40.78 -> 101, lng -73.97 -> 010 at 3 bits;
  // Figure 3b crosswise combination (lng first) = 011001.
  Z2Sfc z2(3);
  uint64_t z = z2.Index(geo::Point{-73.97, 40.78});
  // lng bits x=010 (2), lat bits y=101 (5): interleave x,y with x at even
  // positions: bits: y2 x2 y1 x1 y0 x0 = 1 0 0 1 1 0 = 0b100110 = 38.
  EXPECT_EQ(z, Interleave2(2, 5));
  EXPECT_EQ(z, 38u);
}

TEST(Z2Test, IndexInvertConsistent) {
  Z2Sfc z2(30);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    geo::Point p{rng.Uniform(-180.0, 180.0), rng.Uniform(-90.0, 90.0)};
    geo::Point cell = z2.Invert(z2.Index(p));
    EXPECT_NEAR(cell.lng, p.lng, 360.0 / (1 << 16));
    EXPECT_NEAR(cell.lat, p.lat, 180.0 / (1 << 16));
  }
}

TEST(Z2Test, LocalityNearbyPointsShareHighBits) {
  Z2Sfc z2(30);
  uint64_t a = z2.Index(geo::Point{116.40000, 39.90000});
  uint64_t b = z2.Index(geo::Point{116.40001, 39.90001});
  uint64_t far = z2.Index(geo::Point{-73.97, 40.78});
  int close_xor_msb = 63 - __builtin_clzll(a ^ b | 1);
  int far_xor_msb = 63 - __builtin_clzll(a ^ far | 1);
  EXPECT_LT(close_xor_msb, far_xor_msb);
}

// Property: every point inside the query box is covered by the ranges.
TEST(Z2Test, RangesCoverContainedPoints) {
  Z2Sfc z2(30);
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    double lng = rng.Uniform(-170.0, 160.0);
    double lat = rng.Uniform(-80.0, 70.0);
    geo::Mbr query = geo::Mbr::Of(lng, lat, lng + rng.Uniform(0.01, 5.0),
                                  lat + rng.Uniform(0.01, 5.0));
    auto ranges = z2.Ranges(query);
    ASSERT_FALSE(ranges.empty());
    for (int i = 0; i < 50; ++i) {
      geo::Point p{rng.Uniform(query.lng_min, query.lng_max),
                   rng.Uniform(query.lat_min, query.lat_max)};
      EXPECT_TRUE(InRanges(ranges, z2.Index(p)))
          << "point " << p.lng << "," << p.lat << " missed";
    }
  }
}

TEST(Z2Test, ContainedRangesNeedNoRefinement) {
  Z2Sfc z2(30);
  geo::Mbr query = geo::Mbr::Of(116.0, 39.0, 117.0, 40.0);
  auto ranges = z2.Ranges(query);
  Rng rng(5);
  for (const SfcRange& r : ranges) {
    if (!r.contained) continue;
    // Sample z-values inside the contained range: their cells must be in
    // the query.
    for (int i = 0; i < 5; ++i) {
      uint64_t z = r.lo + rng.Uniform(r.hi - r.lo + 1);
      geo::Point cell = z2.Invert(z);
      EXPECT_TRUE(query.Contains(cell));
    }
  }
}

TEST(Z2Test, RangesAreSortedAndDisjoint) {
  Z2Sfc z2(30);
  auto ranges = z2.Ranges(geo::Mbr::Of(10, 10, 30, 25));
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_GT(ranges[i].lo, ranges[i - 1].hi);
  }
}

TEST(Z2Test, RangeBudgetRespectedApproximately) {
  Z2Sfc z2(30);
  auto ranges = z2.Ranges(geo::Mbr::Of(-170, -80, 170, 80), 16);
  // Budget causes coarser covering, never failure.
  EXPECT_LE(ranges.size(), 200u);
  EXPECT_FALSE(ranges.empty());
}

// --- Z3 ---

TEST(Z3Test, RangesCoverContainedSpaceTimePoints) {
  Z3Sfc z3(20);
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    geo::Mbr query = geo::Mbr::Of(116.0, 39.0, 116.5, 39.5);
    double t0 = rng.Uniform(0.0, 0.5);
    double t1 = t0 + rng.Uniform(0.05, 0.5);
    auto ranges = z3.Ranges(query, t0, t1);
    for (int i = 0; i < 50; ++i) {
      geo::Point p{rng.Uniform(query.lng_min, query.lng_max),
                   rng.Uniform(query.lat_min, query.lat_max)};
      double tf = rng.Uniform(t0, std::min(1.0, t1));
      EXPECT_TRUE(InRanges(ranges, z3.Index(p, tf)));
    }
  }
}

// The Section IV-B pathology: with a large time-window/period ratio, Z3's
// covering scans far more curve volume relative to Z2T's per-period Z2.
TEST(Z3Test, WideTimeWindowDegradesSpatialSelectivity) {
  Z3Sfc z3(20);
  Z2Sfc z2(20);
  geo::Mbr small_box = geo::Mbr::Of(116.0, 39.0, 116.01, 39.01);  // ~1km
  // Z3 with the 1/2-period window (e.g. 01:00-13:00 of a day).
  auto z3_ranges = z3.Ranges(small_box, 0.0, 0.5, 1 << 20);
  auto z2_ranges = z2.Ranges(small_box, 1 << 20);
  long double z3_volume = 0, z2_volume = 0;
  for (const SfcRange& r : z3_ranges) z3_volume += r.hi - r.lo + 1;
  for (const SfcRange& r : z2_ranges) z2_volume += r.hi - r.lo + 1;
  // Normalize by total curve size to compare fractions of the key space.
  long double z3_frac = z3_volume / std::pow(2.0L, 60);
  long double z2_frac = z2_volume / std::pow(2.0L, 40);
  EXPECT_GT(z3_frac, z2_frac * 10);
}

// --- XZ2 ---

TEST(Xz2Test, IndexWithinBounds) {
  Xz2Sfc xz2(12);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    double lng = rng.Uniform(-170.0, 160.0);
    double lat = rng.Uniform(-80.0, 70.0);
    geo::Mbr mbr = geo::Mbr::Of(lng, lat, lng + rng.Uniform(0.0, 3.0),
                                lat + rng.Uniform(0.0, 3.0));
    uint64_t code = xz2.Index(mbr);
    EXPECT_LT(code, xz2.MaxCode());
  }
}

TEST(Xz2Test, PointLikeObjectsGetDeepCodes) {
  Xz2Sfc xz2(12);
  // A tiny object should land at max length (deepest element)...
  geo::Mbr tiny = geo::Mbr::Of(116.4, 39.9, 116.4000001, 39.9000001);
  // ...and a continent-sized object near the root.
  geo::Mbr huge = geo::Mbr::Of(-120, -60, 120, 60);
  EXPECT_GT(xz2.Index(tiny), xz2.Index(huge));
  EXPECT_LE(xz2.Index(huge), 4u);
}

// Core XZ2 property: a query's ranges cover the code of every object whose
// MBR intersects the query.
TEST(Xz2Test, RangesCoverIntersectingObjects) {
  Xz2Sfc xz2(12);
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    geo::Mbr query = geo::Mbr::Of(116.0, 39.0, 117.0, 40.0);
    auto ranges = xz2.Ranges(query, 1 << 16);
    for (int i = 0; i < 60; ++i) {
      // Random objects near and inside the query.
      double lng = rng.Uniform(115.5, 117.2);
      double lat = rng.Uniform(38.5, 40.2);
      geo::Mbr obj = geo::Mbr::Of(lng, lat, lng + rng.Uniform(0.0, 0.5),
                                  lat + rng.Uniform(0.0, 0.5));
      if (!obj.Intersects(query)) continue;
      EXPECT_TRUE(InRanges(ranges, xz2.Index(obj)))
          << "object " << obj.ToString() << " missed";
    }
  }
}

TEST(Xz2Test, DistantObjectsUsuallyExcluded) {
  Xz2Sfc xz2(12);
  geo::Mbr query = geo::Mbr::Of(116.0, 39.0, 116.2, 39.2);
  auto ranges = xz2.Ranges(query, 1 << 16);
  Rng rng(9);
  int excluded = 0, total = 0;
  for (int i = 0; i < 200; ++i) {
    double lng = rng.Uniform(-60.0, 40.0);  // other side of the world
    double lat = rng.Uniform(-60.0, 20.0);
    geo::Mbr obj = geo::Mbr::Of(lng, lat, lng + 0.1, lat + 0.1);
    ++total;
    if (!InRanges(ranges, xz2.Index(obj))) ++excluded;
  }
  EXPECT_GT(excluded, total * 9 / 10);  // XZ2 filtering is effective
}

// --- XZ3 ---

TEST(Xz3Test, RangesCoverIntersectingObjects) {
  Xz3Sfc xz3(8);
  Rng rng(10);
  geo::Mbr query = geo::Mbr::Of(116.0, 39.0, 116.6, 39.6);
  auto ranges = xz3.Ranges(query, 0.2, 0.7, 1 << 16);
  for (int i = 0; i < 100; ++i) {
    double lng = rng.Uniform(115.8, 116.8);
    double lat = rng.Uniform(38.8, 39.8);
    geo::Mbr obj = geo::Mbr::Of(lng, lat, lng + rng.Uniform(0.0, 0.2),
                                lat + rng.Uniform(0.0, 0.2));
    double t0 = rng.Uniform(0.0, 0.9);
    double t1 = t0 + rng.Uniform(0.0, 0.1);
    bool intersects = obj.Intersects(query) && !(t0 > 0.7 || t1 < 0.2);
    if (!intersects) continue;
    EXPECT_TRUE(InRanges(ranges, xz3.Index(obj, t0, t1)));
  }
}

TEST(Xz3Test, CodesWithinMaxCode) {
  Xz3Sfc xz3(8);
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    geo::Mbr obj = geo::Mbr::Of(rng.Uniform(-180.0, 179.0),
                                rng.Uniform(-90.0, 89.0), 180, 90);
    EXPECT_LT(xz3.Index(obj, 0.1, 0.9), xz3.MaxCode());
  }
}

// --- MergeSfcRanges ---

TEST(SfcRangeTest, MergesAdjacentAndOverlapping) {
  std::vector<SfcRange> ranges = {
      {10, 20, true}, {21, 30, true}, {5, 8, false}, {25, 40, false}};
  MergeSfcRanges(&ranges);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].lo, 5u);
  EXPECT_EQ(ranges[0].hi, 8u);
  EXPECT_EQ(ranges[1].lo, 10u);
  EXPECT_EQ(ranges[1].hi, 40u);
  EXPECT_FALSE(ranges[1].contained);  // merged with a non-contained range
}

TEST(SfcRangeTest, KeepsDisjoint) {
  std::vector<SfcRange> ranges = {{1, 2, false}, {4, 5, false}};
  MergeSfcRanges(&ranges);
  EXPECT_EQ(ranges.size(), 2u);
}

// --- Index strategies (Eq. 2 / Eq. 3 keys + query ranges) ---

struct StrategyCase {
  IndexType type;
  bool extent;  // generate non-point records
};

class StrategyCoverageTest : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(StrategyCoverageTest, QueryRangesFindInsertedRecords) {
  const StrategyCase param = GetParam();
  IndexOptions options;
  options.num_shards = 4;
  options.period_len_ms = kMillisPerDay;
  auto strategy = IndexStrategy::Create(param.type, options);
  ASSERT_NE(strategy, nullptr);
  EXPECT_EQ(strategy->type(), param.type);

  Rng rng(12345);
  TimestampMs base = ParseTimestamp("2014-03-01").value();
  // Insert synthetic records into an ordered map (stand-in for the store).
  struct Record {
    RecordRef ref;
    bool hit = false;
  };
  std::vector<Record> records;
  std::map<std::string, size_t> store;
  for (int i = 0; i < 400; ++i) {
    Record r;
    double lng = rng.Uniform(116.0, 117.0);
    double lat = rng.Uniform(39.0, 40.0);
    double w = param.extent ? rng.Uniform(0.0, 0.05) : 0.0;
    r.ref.mbr = geo::Mbr::Of(lng, lat, lng + w, lat + w);
    r.ref.t_min = base + static_cast<int64_t>(rng.Uniform(10)) *
                             kMillisPerDay +
                  static_cast<int64_t>(rng.Uniform(24)) * kMillisPerHour;
    r.ref.t_max = r.ref.t_min + (param.extent ? 2 * kMillisPerHour : 0);
    r.ref.fid = "f" + std::to_string(i);
    records.push_back(r);
    store[strategy->EncodeKey(records.back().ref)] = records.size() - 1;
  }

  geo::Mbr query = geo::Mbr::Of(116.3, 39.3, 116.7, 39.7);
  TimestampMs t0 = base + 2 * kMillisPerDay;
  TimestampMs t1 = base + 5 * kMillisPerDay;
  auto ranges = strategy->QueryRanges(query, t0, t1);
  ASSERT_FALSE(ranges.empty());
  for (const KeyRange& kr : ranges) {
    for (auto it = store.lower_bound(kr.start);
         it != store.end() && it->first < kr.end; ++it) {
      records[it->second].hit = true;
    }
  }
  bool temporal = IsSpatioTemporal(param.type);
  for (const Record& r : records) {
    bool spatial_match = param.extent ? r.ref.mbr.Intersects(query)
                                      : query.Contains(r.ref.mbr.Center());
    bool time_match =
        !temporal || (r.ref.t_min <= t1 && r.ref.t_max >= t0);
    if (spatial_match && time_match) {
      EXPECT_TRUE(r.hit) << IndexTypeName(param.type) << " missed record "
                         << r.ref.fid;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyCoverageTest,
    ::testing::Values(StrategyCase{IndexType::kZ2, false},
                      StrategyCase{IndexType::kZ3, false},
                      StrategyCase{IndexType::kZ2T, false},
                      StrategyCase{IndexType::kXz2, true},
                      StrategyCase{IndexType::kXz3, true},
                      StrategyCase{IndexType::kXz2T, true}),
    [](const ::testing::TestParamInfo<StrategyCase>& info) {
      return IndexTypeName(info.param.type);
    });

// The table scan reads every key of its ranges once and keeps no dedupe
// set, which is only exact if every strategy's ranges are sorted by start,
// pairwise disjoint, and each confined to one shard byte (so each lives on
// one server). Boxes on cell edges, the world box, and windows whose ends
// sit on period boundaries are where a merge slip would show.
class StrategyRangeShapeTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(StrategyRangeShapeTest, RangesAreSortedDisjointAndSingleShard) {
  const TimestampMs day = ParseTimestamp("2014-03-01").value();
  // Edges of level-10 Z2 / XZ2 cells around Beijing (360 / 2^10 degrees of
  // longitude, 180 / 2^10 of latitude), a box off the grid, and the world.
  const double cell_lng = 360.0 / 1024, cell_lat = 180.0 / 1024;
  const double lng0 = -180 + 848 * cell_lng, lat0 = -90 + 739 * cell_lat;
  const std::vector<geo::Mbr> boxes = {
      geo::Mbr::Of(lng0, lat0, lng0 + cell_lng, lat0 + cell_lat),
      geo::Mbr::Of(lng0, lat0, lng0 + 4 * cell_lng, lat0 + 2 * cell_lat),
      geo::Mbr::Of(lng0 - cell_lng, lat0, lng0, lat0),  // degenerate edge
      geo::Mbr::Of(116.31, 39.82, 116.52, 40.01),
      geo::Mbr::Of(0, 0, 90, 45),  // a quadrant, exactly
      geo::Mbr::World(),
  };
  // Windows spanning 1-3 periods, with ends on and next to boundaries.
  const std::vector<std::pair<TimestampMs, TimestampMs>> windows = {
      {day, day},
      {day + kMillisPerHour, day + 5 * kMillisPerHour},
      {day, day + kMillisPerDay - 1},
      {day, day + kMillisPerDay},
      {day - 1, day + kMillisPerDay},
      {day + 3 * kMillisPerHour, day + 2 * kMillisPerDay + kMillisPerHour},
      {day, day + 3 * kMillisPerDay - 1},
  };
  for (int max_ranges : {8, 64}) {
    for (int shards : {1, 4}) {
      IndexOptions options;
      options.num_shards = shards;
      options.max_ranges_per_period = max_ranges;
      auto strategy = IndexStrategy::Create(GetParam(), options);
      for (const geo::Mbr& box : boxes) {
        for (const auto& [t_min, t_max] : windows) {
          auto ranges = strategy->QueryRanges(box, t_min, t_max);
          ASSERT_FALSE(ranges.empty());
          for (size_t i = 0; i < ranges.size(); ++i) {
            const KeyRange& r = ranges[i];
            SCOPED_TRACE(::testing::Message()
                         << IndexTypeName(GetParam()) << " max_ranges="
                         << max_ranges << " shards=" << shards << " box=("
                         << box.lng_min << "," << box.lat_min << ","
                         << box.lng_max << "," << box.lat_max
                         << ") window=[" << t_min << "," << t_max
                         << "] range " << i);
            ASSERT_LT(r.start, r.end);
            ASSERT_EQ(r.start[0], r.end[0]) << "range crosses a shard byte";
            if (i > 0) {
              ASSERT_LE(ranges[i - 1].end, r.start)
                  << "unsorted or overlapping ranges";
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyRangeShapeTest,
    ::testing::Values(IndexType::kZ2, IndexType::kZ3, IndexType::kZ2T,
                      IndexType::kXz2, IndexType::kXz3, IndexType::kXz2T),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      return IndexTypeName(info.param);
    });

// Time-aware keys lead with the period, so a window is a run of periods:
// a box that covers the whole curve, or a window too long to list one range
// per period in one wire window, reads one range per shard over the run.
class TimeAwareRangesTest : public ::testing::TestWithParam<IndexType> {
 protected:
  void SetUp() override {
    IndexOptions options;
    options.num_shards = 4;
    strategy_ = IndexStrategy::Create(GetParam(), options);
  }

  /// The key of a record at time `t` (a degenerate box for points).
  std::string KeyAt(TimestampMs t, const std::string& fid) const {
    RecordRef ref;
    ref.mbr = geo::Mbr::Of(116.3, 39.9, 116.3, 39.9);
    ref.t_min = ref.t_max = t;
    ref.fid = fid;
    return strategy_->EncodeKey(ref);
  }

  static bool Covered(const std::vector<KeyRange>& ranges,
                      const std::string& key) {
    for (const KeyRange& r : ranges) {
      if (key >= r.start && key < r.end) return true;
    }
    return false;
  }

  /// One range per shard, each inside its shard byte.
  static void ExpectOnePerShard(const std::vector<KeyRange>& ranges) {
    ASSERT_EQ(ranges.size(), 4u);
    for (size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_EQ(ranges[i].start[0], static_cast<char>(i));
      EXPECT_EQ(ranges[i].end[0], static_cast<char>(i));
      EXPECT_LT(ranges[i].start, ranges[i].end);
    }
  }

  std::unique_ptr<IndexStrategy> strategy_;
};

TEST_P(TimeAwareRangesTest, WholeCurveWindowIsOneRangePerShard) {
  const TimestampMs day = ParseTimestamp("2014-03-01").value();
  const std::vector<TimestampMs> times = {
      INT64_MIN, INT64_MIN + 1, -4'000'000'000'000'000, -kMillisPerDay - 1,
      -1, 0, 1, day - 1, day, day + kMillisPerDay - 1, day + kMillisPerDay,
      4'000'000'000'000'000, INT64_MAX - 1, INT64_MAX};
  const std::vector<std::pair<TimestampMs, TimestampMs>> windows = {
      {INT64_MIN, INT64_MAX}, {INT64_MIN, day - 1}, {day, INT64_MAX},
      {INT64_MIN, INT64_MIN}, {INT64_MAX, INT64_MAX}, {day, day},
      {day - 1, day + kMillisPerDay}, {0, 9'000'000'000'000'000}};
  for (const auto& [t_min, t_max] : windows) {
    SCOPED_TRACE(::testing::Message() << "window [" << t_min << ", " << t_max
                                      << "]");
    auto ranges = strategy_->QueryRanges(geo::Mbr::World(), t_min, t_max);
    ExpectOnePerShard(ranges);
    for (TimestampMs t : times) {
      if (t < t_min || t > t_max) continue;
      for (const char* fid : {"a", "b", "c", "d", "e"}) {
        EXPECT_TRUE(Covered(ranges, KeyAt(t, fid))) << "t=" << t;
      }
    }
  }
}

// A row with no time is keyed at time 0; a window open below keeps it, so
// its ranges reach period 0 even when the window ends before it.
TEST_P(TimeAwareRangesTest, WindowOpenBelowReachesPeriodZero) {
  for (const geo::Mbr& box : {geo::Mbr::World(),
                              geo::Mbr::Of(116.2, 39.8, 116.4, 40.0)}) {
    for (TimestampMs t_max : {TimestampMs{-1}, -5 * kMillisPerDay,
                              TimestampMs{INT64_MIN}}) {
      auto ranges = strategy_->QueryRanges(box, INT64_MIN, t_max);
      EXPECT_TRUE(Covered(ranges, KeyAt(0, "null_time"))) << t_max;
    }
  }
}

// ~10^11 daily periods: listing ranges per period would never end (and
// period numbers past 2^31 used to wrap); one range per shard spans them,
// and refinement applies the box.
TEST_P(TimeAwareRangesTest, WideWindowFallsBackToOneRangePerShard) {
  const geo::Mbr box = geo::Mbr::Of(116.2, 39.8, 116.4, 40.0);
  for (auto [t_min, t_max] :
       {std::pair<TimestampMs, TimestampMs>{0, 9'000'000'000'000'000},
        {INT64_MIN, INT64_MAX}, {-9'000'000'000'000'000, 0}}) {
    auto ranges = strategy_->QueryRanges(box, t_min, t_max);
    ExpectOnePerShard(ranges);
    for (TimestampMs t : {t_min, t_min / 2 + t_max / 2, t_max}) {
      EXPECT_TRUE(Covered(ranges, KeyAt(t, "x"))) << t;
    }
  }
  // A window of a few periods still lists each period's ranges.
  const TimestampMs day = ParseTimestamp("2014-03-01").value();
  EXPECT_GT(strategy_->QueryRanges(box, day, day + 3 * kMillisPerDay).size(),
            4u);
}

INSTANTIATE_TEST_SUITE_P(
    TimeAware, TimeAwareRangesTest,
    ::testing::Values(IndexType::kZ3, IndexType::kZ2T, IndexType::kXz3,
                      IndexType::kXz2T),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      return IndexTypeName(info.param);
    });

TEST(IndexStrategyTest, ParseNames) {
  EXPECT_EQ(ParseIndexType("Z2T").value(), IndexType::kZ2T);
  EXPECT_EQ(ParseIndexType("xz2t").value(), IndexType::kXz2T);
  EXPECT_FALSE(ParseIndexType("btree").ok());
  for (IndexType t : {IndexType::kZ2, IndexType::kZ3, IndexType::kXz2,
                      IndexType::kXz3, IndexType::kZ2T, IndexType::kXz2T}) {
    EXPECT_EQ(ParseIndexType(IndexTypeName(t)).value(), t);
  }
}

TEST(IndexStrategyTest, ShardsAreStableAndBounded) {
  IndexOptions options;
  options.num_shards = 4;
  auto strategy = IndexStrategy::Create(IndexType::kZ2, options);
  for (int i = 0; i < 100; ++i) {
    std::string fid = "fid" + std::to_string(i);
    int shard = strategy->ShardOf(fid);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, strategy->ShardOf(fid));
  }
}

TEST(IndexStrategyTest, Z2TKeyLayoutMatchesEq2) {
  // Eq. (2): Num(t) :: Z2(lng, lat). Two records one day apart must differ
  // in the period prefix, same-day same-location records must share it.
  IndexOptions options;
  options.num_shards = 1;
  options.period_len_ms = kMillisPerDay;
  auto z2t = IndexStrategy::Create(IndexType::kZ2T, options);
  TimestampMs base = ParseTimestamp("2014-03-05").value();
  RecordRef a{geo::Mbr::Of(116.4, 39.9, 116.4, 39.9), base, base, "a"};
  RecordRef b = a;
  b.t_min = b.t_max = base + kMillisPerDay;
  b.fid = "b";
  RecordRef c = a;
  c.t_min = c.t_max = base + kMillisPerHour;
  c.fid = "c";
  std::string ka = z2t->EncodeKey(a);
  std::string kb = z2t->EncodeKey(b);
  std::string kc = z2t->EncodeKey(c);
  // shard byte(1) + period(4): same day -> same first 5 bytes.
  EXPECT_EQ(ka.substr(0, 5), kc.substr(0, 5));
  EXPECT_NE(ka.substr(0, 5), kb.substr(0, 5));
  // Within a day, the Z2 code ignores time entirely (Eq. 2).
  EXPECT_EQ(ka.substr(5, 8), kc.substr(5, 8));
}

TEST(IndexStrategyTest, Z2TSharesSpatialRangesAcrossPeriods) {
  IndexOptions options;
  options.num_shards = 1;
  auto z2t = IndexStrategy::Create(IndexType::kZ2T, options);
  TimestampMs base = ParseTimestamp("2014-03-01").value();
  geo::Mbr box = geo::Mbr::Of(116.3, 39.3, 116.4, 39.4);
  auto one_day = z2t->QueryRanges(box, base, base + kMillisPerHour);
  auto three_days = z2t->QueryRanges(box, base, base + 2 * kMillisPerDay +
                                                   kMillisPerHour);
  // Ranges scale with qualified periods (Section IV-B step 1).
  EXPECT_EQ(three_days.size(), one_day.size() * 3);
}

}  // namespace
}  // namespace just::curve
