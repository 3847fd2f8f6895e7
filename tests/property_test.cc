// Parameterized property sweeps across module boundaries: encode/decode
// round-trips under random inputs, invariants that must hold for any seed.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "compress/codec.h"
#include "core/row_codec.h"
#include "curve/index_strategy.h"
#include "kvstore/lsm_store.h"
#include "test_util.h"

namespace just {
namespace {

using just::testing::TempDir;

// --- Row codec fuzz: random rows of every type survive the storage path ---

class RowCodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowCodecFuzzTest, RandomRowsRoundTrip) {
  Rng rng(GetParam());
  meta::TableMeta table;
  table.user = "u";
  table.name = "fuzz";
  table.columns = {
      {"s", exec::DataType::kString, false, "", ""},
      {"i", exec::DataType::kInt, false, "", ""},
      {"d", exec::DataType::kDouble, false, "", ""},
      {"b", exec::DataType::kBool, false, "", ""},
      {"t", exec::DataType::kTimestamp, false, "", ""},
      {"g", exec::DataType::kGeometry, false, "", ""},
      {"z", exec::DataType::kString, false, "", "gzip"},  // compressed cell
  };
  for (int trial = 0; trial < 40; ++trial) {
    std::string s;
    for (uint64_t i = rng.Uniform(40); i > 0; --i) {
      s += static_cast<char>(rng.Next() & 0xFF);
    }
    std::string z;
    for (uint64_t i = rng.Uniform(3000); i > 0; --i) {
      z += static_cast<char>('a' + rng.Uniform(4));  // compressible
    }
    exec::Row row = {
        exec::Value::String(s),
        exec::Value::Int(static_cast<int64_t>(rng.Next())),
        exec::Value::Double(rng.Uniform(-1e6, 1e6)),
        exec::Value::Bool(rng.Uniform(2) == 0),
        exec::Value::Timestamp(static_cast<int64_t>(rng.Uniform(1ull << 41))),
        exec::Value::GeometryVal(geo::Geometry::MakePoint(
            {rng.Uniform(-180.0, 180.0), rng.Uniform(-90.0, 90.0)})),
        exec::Value::String(z),
    };
    auto encoded = core::EncodeRow(table, row);
    ASSERT_TRUE(encoded.ok());
    auto decoded = core::DecodeRow(table, *encoded);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->size(), row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_TRUE((*decoded)[c].Equals(row[c]))
          << "column " << c << " trial " << trial;
    }
  }
}

TEST_P(RowCodecFuzzTest, CorruptRowsNeverCrash) {
  Rng rng(GetParam() ^ 0xDEADBEEF);
  meta::TableMeta table;
  table.user = "u";
  table.name = "fuzz";
  table.columns = {
      {"s", exec::DataType::kString, false, "", ""},
      {"g", exec::DataType::kGeometry, false, "", ""},
  };
  exec::Row row = {exec::Value::String("hello"),
                   exec::Value::GeometryVal(
                       geo::Geometry::MakePoint({116.4, 39.9}))};
  auto encoded = core::EncodeRow(table, row);
  ASSERT_TRUE(encoded.ok());
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = *encoded;
    // Flip a few random bytes / truncate randomly.
    for (int flips = 0; flips < 3; ++flips) {
      if (mutated.empty()) break;
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Next() & 0xFF);
    }
    if (rng.Uniform(2) == 0 && !mutated.empty()) {
      mutated.resize(rng.Uniform(mutated.size()));
    }
    // Must either decode to *something* or return an error — never crash.
    auto decoded = core::DecodeRow(table, mutated);
    (void)decoded;
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowCodecFuzzTest,
                         ::testing::Values(1ull, 42ull, 20260705ull));

// --- LSM store: scan after interleaved flush/compaction always ordered ---

class LsmPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LsmPropertyTest, ScansAlwaysSortedAndDeduplicated) {
  TempDir dir("lsm_prop");
  kv::StoreOptions options;
  options.dir = dir.path();
  options.memtable_bytes = 8 << 10;
  options.compaction_trigger = 3;
  auto store = kv::LsmStore::Open(options);
  ASSERT_TRUE(store.ok());
  Rng rng(GetParam());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(300));
    if (rng.Uniform(5) == 0) {
      ASSERT_TRUE((*store)->Delete(key).ok());
      model.erase(key);
    } else {
      std::string value(rng.Uniform(60), 'v');
      ASSERT_TRUE((*store)->Put(key, value).ok());
      model[key] = value;
    }
    if (rng.Uniform(97) == 0) {
      ASSERT_TRUE((*store)->Flush().ok());
    }
    if (i % 500 == 499) {
      std::string prev;
      size_t count = 0;
      ASSERT_TRUE((*store)
                      ->Scan({{"", ""}},
                             [&](size_t, std::string_view k, std::string_view v) {
                               EXPECT_GT(std::string(k), prev);  // ordered,
                               prev = std::string(k);            // no dupes
                               auto it = model.find(prev);
                               EXPECT_NE(it, model.end());
                               if (it != model.end()) {
                                 EXPECT_EQ(v, it->second);
                               }
                               ++count;
                               return true;
                             })
                      .ok());
      EXPECT_EQ(count, model.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmPropertyTest,
                         ::testing::Values(7ull, 1234ull, 987654321ull));

// --- Index strategies: time-period boundary records are never lost ---

class PeriodBoundaryTest
    : public ::testing::TestWithParam<curve::IndexType> {};

TEST_P(PeriodBoundaryTest, RecordsOnPeriodEdgesAreFound) {
  curve::IndexOptions options;
  options.num_shards = 2;
  options.period_len_ms = kMillisPerDay;
  auto strategy = curve::IndexStrategy::Create(GetParam(), options);
  TimestampMs day = ParseTimestamp("2014-03-10").value();
  geo::Point p{116.5, 39.5};
  // Records exactly at period start, end-1ms, and start of next period.
  std::vector<TimestampMs> times = {day, day + kMillisPerDay - 1,
                                    day + kMillisPerDay};
  std::map<std::string, size_t> store;
  for (size_t i = 0; i < times.size(); ++i) {
    curve::RecordRef ref;
    ref.mbr = geo::Mbr::Of(p.lng, p.lat, p.lng, p.lat);
    ref.t_min = ref.t_max = times[i];
    ref.fid = "r" + std::to_string(i);
    store[strategy->EncodeKey(ref)] = i;
  }
  // Query covering the full first day must find records 0 and 1 (and may
  // include 2 as a candidate for refinement).
  geo::Mbr box = geo::Mbr::Of(116.0, 39.0, 117.0, 40.0);
  auto ranges = strategy->QueryRanges(box, day, day + kMillisPerDay - 1);
  std::set<size_t> hit;
  for (const auto& range : ranges) {
    for (auto it = store.lower_bound(range.start);
         it != store.end() && it->first < range.end; ++it) {
      hit.insert(it->second);
    }
  }
  EXPECT_TRUE(hit.count(0)) << "period-start record missed";
  EXPECT_TRUE(hit.count(1)) << "period-end record missed";
}

INSTANTIATE_TEST_SUITE_P(
    TimeAware, PeriodBoundaryTest,
    ::testing::Values(curve::IndexType::kZ3, curve::IndexType::kXz3,
                      curve::IndexType::kZ2T, curve::IndexType::kXz2T),
    [](const ::testing::TestParamInfo<curve::IndexType>& info) {
      return curve::IndexTypeName(info.param);
    });

// --- Index strategies: planner ranges always cover the encoded key ---
//
// The fundamental recall contract of every curve index: if a record lies
// inside a query's box and time window, the key EncodeKey produces for it
// must fall inside at least one of the [start, end) ranges QueryRanges
// plans for that query — otherwise the SCAN layer silently drops a
// qualifying record and no refinement step can get it back.

class CurveCoverageTest
    : public ::testing::TestWithParam<std::tuple<curve::IndexType, uint64_t>> {
};

TEST_P(CurveCoverageTest, PlannerRangesCoverKeysOfQualifyingRecords) {
  auto [type, seed] = GetParam();
  curve::IndexOptions options;
  options.num_shards = 3;
  auto strategy = curve::IndexStrategy::Create(type, options);
  Rng rng(seed);
  TimestampMs day = ParseTimestamp("2014-03-10").value();
  for (int trial = 0; trial < 150; ++trial) {
    // Random query box, kept away from the domain edges.
    double lng0 = rng.Uniform(-170.0, 165.0);
    double lat0 = rng.Uniform(-80.0, 75.0);
    double width = rng.Uniform(0.05, 4.0);
    double height = rng.Uniform(0.05, 4.0);
    geo::Mbr qbox = geo::Mbr::Of(lng0, lat0, lng0 + width, lat0 + height);
    // Random time window between one millisecond and ~two periods long.
    TimestampMs t0 =
        day + static_cast<TimestampMs>(rng.Uniform(3 * kMillisPerDay));
    TimestampMs t1 =
        t0 + 1 + static_cast<TimestampMs>(rng.Uniform(2 * kMillisPerDay));

    // A record strictly inside the box and window. Point indexes get a
    // degenerate MBR; extent indexes get a small box contained in the query.
    double cx = rng.Uniform(lng0 + 0.05 * width, lng0 + 0.7 * width);
    double cy = rng.Uniform(lat0 + 0.05 * height, lat0 + 0.7 * height);
    curve::RecordRef ref;
    if (curve::IsExtentIndex(type)) {
      ref.mbr = geo::Mbr::Of(cx, cy, cx + rng.Uniform(0.0, 0.25 * width),
                             cy + rng.Uniform(0.0, 0.25 * height));
    } else {
      ref.mbr = geo::Mbr::Of(cx, cy, cx, cy);
    }
    ref.t_min = ref.t_max =
        t0 + static_cast<TimestampMs>(rng.Uniform(t1 - t0 + 1));
    ref.fid = "f" + std::to_string(trial);

    std::string key = strategy->EncodeKey(ref);
    auto ranges = strategy->QueryRanges(qbox, t0, t1);
    bool covered = false;
    for (const auto& range : ranges) {
      if (key >= range.start && (range.end.empty() || key < range.end)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << curve::IndexTypeName(type) << " trial " << trial
                         << ": record at (" << cx << ", " << cy
                         << ") t=" << ref.t_min << " escaped all "
                         << ranges.size() << " planned ranges";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, CurveCoverageTest,
    ::testing::Combine(::testing::Values(curve::IndexType::kZ2,
                                         curve::IndexType::kZ3,
                                         curve::IndexType::kXz2,
                                         curve::IndexType::kXz3,
                                         curve::IndexType::kZ2T,
                                         curve::IndexType::kXz2T),
                       ::testing::Values(11ull, 20140310ull)),
    [](const ::testing::TestParamInfo<std::tuple<curve::IndexType, uint64_t>>&
           info) {
      return curve::IndexTypeName(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// --- Compression framing: every payload length round-trips exactly ---

TEST(CompressionPropertyTest, AllSmallLengthsRoundTrip) {
  Rng rng(31337);
  for (size_t len = 0; len < 300; ++len) {
    std::string raw(len, '\0');
    for (char& c : raw) c = static_cast<char>(rng.Next() & 0xFF);
    for (const compress::Codec* codec :
         {compress::NoneCodec(), compress::Lz77Codec()}) {
      std::string cell = compress::EncodeCell(*codec, raw);
      auto back = compress::DecodeCell(cell);
      ASSERT_TRUE(back.ok()) << "len " << len;
      EXPECT_EQ(*back, raw);
    }
  }
}

}  // namespace
}  // namespace just
