#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/json.h"
#include "common/lru_cache.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/time_util.h"

namespace just {
namespace {

// --- Status / Result ---

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing row");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.ToString(), "NotFound: missing row");
}

TEST(StatusTest, ResourceExhaustedPredicate) {
  EXPECT_TRUE(Status::ResourceExhausted("oom").IsResourceExhausted());
  EXPECT_FALSE(Status::IOError("io").IsResourceExhausted());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto fn = [](bool fail) -> Result<int> {
    auto inner = [&]() -> Result<int> {
      if (fail) return Status::Internal("boom");
      return 7;
    };
    JUST_ASSIGN_OR_RETURN(int v, inner());
    return v + 1;
  };
  EXPECT_EQ(fn(false).value(), 8);
  EXPECT_FALSE(fn(true).ok());
}

// --- bytes ---

TEST(BytesTest, Fixed64BigEndianRoundTrip) {
  std::string buf;
  PutFixed64BE(&buf, 0x0102030405060708ull);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0x01);
  EXPECT_EQ(GetFixed64BE(buf.data()), 0x0102030405060708ull);
}

TEST(BytesTest, Fixed64BigEndianPreservesOrder) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.Next();
    uint64_t b = rng.Next();
    std::string sa, sb;
    PutFixed64BE(&sa, a);
    PutFixed64BE(&sb, b);
    EXPECT_EQ(a < b, sa < sb) << a << " vs " << b;
  }
}

TEST(BytesTest, VarintRoundTrip) {
  Rng rng(2);
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384, UINT64_MAX};
  for (int i = 0; i < 100; ++i) values.push_back(rng.Next());
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  const char* p = buf.data();
  const char* limit = p + buf.size();
  for (uint64_t v : values) {
    uint64_t decoded;
    ASSERT_TRUE(GetVarint64(&p, limit, &decoded));
    EXPECT_EQ(decoded, v);
  }
  EXPECT_EQ(p, limit);
}

TEST(BytesTest, VarintRejectsTruncated) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  const char* p = buf.data();
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&p, buf.data() + buf.size(), &v));
}

TEST(BytesTest, ZigZagRoundTrip) {
  for (int64_t v :
       {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-123456789},
        INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(BytesTest, SignedVarintRoundTrip) {
  std::string buf;
  std::vector<int64_t> values = {0, -1, 1, 1000000, -1000000, INT64_MIN,
                                 INT64_MAX};
  for (int64_t v : values) PutVarintSigned(&buf, v);
  const char* p = buf.data();
  const char* limit = p + buf.size();
  for (int64_t v : values) {
    int64_t decoded;
    ASSERT_TRUE(GetVarintSigned(&p, limit, &decoded));
    EXPECT_EQ(decoded, v);
  }
}

TEST(BytesTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  const char* p = buf.data();
  const char* limit = p + buf.size();
  std::string_view s;
  ASSERT_TRUE(GetLengthPrefixed(&p, limit, &s));
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(GetLengthPrefixed(&p, limit, &s));
  EXPECT_EQ(s, "");
  ASSERT_TRUE(GetLengthPrefixed(&p, limit, &s));
  EXPECT_EQ(s.size(), 1000u);
}

TEST(BytesTest, OrderedDoubleRoundTripAndOrder) {
  std::vector<double> values = {-1e300, -42.5, -1.0, -1e-10, 0.0,
                                1e-10,  1.0,   3.14, 42.5,   1e300};
  for (double d : values) {
    EXPECT_EQ(OrderedBitsToDouble(OrderedDoubleBits(d)), d);
  }
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LT(OrderedDoubleBits(values[i - 1]), OrderedDoubleBits(values[i]));
  }
}

// --- time ---

TEST(TimeTest, PeriodNumberFloorSemantics) {
  EXPECT_EQ(TimePeriodNumber(0, kMillisPerDay), 0);
  EXPECT_EQ(TimePeriodNumber(kMillisPerDay - 1, kMillisPerDay), 0);
  EXPECT_EQ(TimePeriodNumber(kMillisPerDay, kMillisPerDay), 1);
  EXPECT_EQ(TimePeriodNumber(-1, kMillisPerDay), -1);
  EXPECT_EQ(TimePeriodNumber(-kMillisPerDay, kMillisPerDay), -1);
}

TEST(TimeTest, PeriodStartInverse) {
  TimestampMs t = 1234567890123;
  int64_t num = TimePeriodNumber(t, kMillisPerWeek);
  EXPECT_LE(TimePeriodStart(num, kMillisPerWeek), t);
  EXPECT_GT(TimePeriodStart(num + 1, kMillisPerWeek), t);
}

TEST(TimeTest, ParseKnownEpochDates) {
  EXPECT_EQ(ParseTimestamp("1970-01-01").value(), 0);
  EXPECT_EQ(ParseTimestamp("1970-01-02").value(), kMillisPerDay);
  // 2014-03-01T00:00:00Z == 1393632000 seconds.
  EXPECT_EQ(ParseTimestamp("2014-03-01").value(), 1393632000000LL);
  EXPECT_EQ(ParseTimestamp("2014-03-01 12:30:45").value(),
            1393632000000LL + (12 * 3600 + 30 * 60 + 45) * 1000LL);
}

TEST(TimeTest, ParseFormatsRoundTrip) {
  for (const char* text :
       {"2018-10-01 00:00:00", "2018-11-30 23:59:59", "2000-02-29 12:00:00"}) {
    auto ts = ParseTimestamp(text);
    ASSERT_TRUE(ts.ok()) << text;
    EXPECT_EQ(FormatTimestamp(ts.value()), text);
  }
}

TEST(TimeTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseTimestamp("not a date").ok());
  EXPECT_FALSE(ParseTimestamp("2014-13-01").ok());
  EXPECT_FALSE(ParseTimestamp("2014-01-99").ok());
}

// --- json ---

TEST(JsonTest, ParsesPaperUserdataHint) {
  auto v = ParseJson("{'geomesa.indices.enabled':'z3'}");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetString("geomesa.indices.enabled"), "z3");
}

TEST(JsonTest, ParsesNestedStructures) {
  auto v = ParseJson(R"({"a": [1, 2.5, true, null], "b": {"c": "x"}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("a").array_items().size(), 4u);
  EXPECT_EQ(v->Get("a").array_items()[0].number_value(), 1);
  EXPECT_TRUE(v->Get("a").array_items()[2].bool_value());
  EXPECT_TRUE(v->Get("a").array_items()[3].is_null());
  EXPECT_EQ(v->Get("b").GetString("c"), "x");
}

TEST(JsonTest, RoundTripsThroughToString) {
  auto v = ParseJson(R"({"fid": "trajId", "n": 3, "flag": false})");
  ASSERT_TRUE(v.ok());
  auto again = ParseJson(v->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->GetString("fid"), "trajId");
  EXPECT_EQ(again->Get("n").number_value(), 3);
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{'a' 1}").ok());
  EXPECT_FALSE(ParseJson("[1,").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
}

TEST(JsonTest, EscapesInStrings) {
  auto v = ParseJson(R"({"s": "line\nbreak\t\"quoted\""})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetString("s"), "line\nbreak\t\"quoted\"");
}

// --- LRU cache ---

TEST(LruCacheTest, InsertLookupEvict) {
  LruCache<int, std::string> cache(100);
  cache.Insert(1, std::make_shared<std::string>("a"), 40);
  cache.Insert(2, std::make_shared<std::string>("b"), 40);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(2), nullptr);
  // Inserting a third 40-byte entry evicts the LRU (key 1 was touched more
  // recently than 2? No: lookups promoted both; 1 then 2, so 1 is LRU).
  cache.Insert(3, std::make_shared<std::string>("c"), 40);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_LE(cache.usage(), cache.capacity());
}

TEST(LruCacheTest, LookupPromotes) {
  LruCache<int, int> cache(3);
  cache.Insert(1, std::make_shared<int>(1), 1);
  cache.Insert(2, std::make_shared<int>(2), 1);
  cache.Insert(3, std::make_shared<int>(3), 1);
  EXPECT_NE(cache.Lookup(1), nullptr);  // promote 1
  cache.Insert(4, std::make_shared<int>(4), 1);  // evicts 2
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.Lookup(2), nullptr);
}

TEST(LruCacheTest, ReplaceUpdatesUsage) {
  LruCache<int, int> cache(10);
  cache.Insert(1, std::make_shared<int>(1), 4);
  cache.Insert(1, std::make_shared<int>(2), 6);
  EXPECT_EQ(cache.usage(), 6u);
  EXPECT_EQ(*cache.Lookup(1), 2);
}

TEST(LruCacheTest, EraseAndClear) {
  LruCache<int, int> cache(10);
  cache.Insert(1, std::make_shared<int>(1), 1);
  cache.Erase(1);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  cache.Insert(2, std::make_shared<int>(2), 1);
  cache.Clear();
  EXPECT_EQ(cache.usage(), 0u);
  EXPECT_EQ(cache.Lookup(2), nullptr);
}

TEST(LruCacheTest, TracksHitsAndMisses) {
  LruCache<int, int> cache(10);
  cache.Insert(1, std::make_shared<int>(1), 1);
  cache.Lookup(1);
  cache.Lookup(2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// --- thread pool ---


TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL(); });
  int count = 0;
  pool.ParallelFor(1, [&](size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

// Every index runs exactly once.
TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  for (size_t n : {0, 1, 2, 5, 100}) {
    // Fast jobs stay on the caller; slow ones and spread_now ones share
    // the cursor with helpers.
    for (bool slow : {false, true}) {
      for (bool spread_now : {false, true}) {
        std::vector<std::atomic<int>> hits(n);
        pool.ParallelFor(
            n,
            [&](size_t i) {
              if (slow && i % 3 == 0) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
              }
              hits[i].fetch_add(1);
            },
            spread_now);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " slow=" << slow
                                       << " spread_now=" << spread_now
                                       << " index " << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, FastJobRunsOnlyOnTheCallingThread) {
  ThreadPool pool(4);
  // A hundred trivial indices end well inside kSpreadAfter; the retries
  // absorb a preemption of this thread that happens to outlast it.
  bool on_caller = false;
  for (int attempt = 0; attempt < 5 && !on_caller; ++attempt) {
    std::vector<std::thread::id> ran_on(100);
    const size_t helpers = pool.ParallelFor(
        100, [&](size_t i) { ran_on[i] = std::this_thread::get_id(); });
    on_caller = helpers == 0 &&
                std::all_of(ran_on.begin(), ran_on.end(), [](auto id) {
                  return id == std::this_thread::get_id();
                });
  }
  EXPECT_TRUE(on_caller);
}

TEST(ThreadPoolTest, SlowJobSpreadsToHelpers) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> threads;
  const size_t helpers = pool.ParallelFor(8, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_GE(threads.size(), 2u);
  // The caller runs index 0 before anything spreads.
  EXPECT_EQ(threads.size(), helpers + 1);
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 1u);
}

// fn on the caller reports progress or an upcoming block: the other
// indices go to helpers while the caller is still inside fn(0).
TEST(ThreadPoolTest, FnOnTheCallerSpreadsTheJob) {
  ThreadPool pool(4);
  for (bool wait_for_time : {true, false}) {
    std::atomic<int> others{0};
    bool shared = false;
    pool.ParallelFor(4, [&](size_t i) {
      if (i != 0) {
        others.fetch_add(1);
        return;
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (others.load() < 3 && std::chrono::steady_clock::now() < deadline) {
        if (wait_for_time) {
          ThreadPool::SpreadIfSlow();
        } else {
          ThreadPool::Spread();
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      shared = others.load() == 3;
    });
    EXPECT_TRUE(shared) << (wait_for_time ? "SpreadIfSlow" : "Spread");
  }
  // Off a job's calling thread both are no-ops.
  ThreadPool::SpreadIfSlow();
  ThreadPool::Spread();
}

TEST(ThreadPoolTest, NestedParallelForRunsEveryIndexOnce) {
  ThreadPool pool(2);
  constexpr size_t kOuter = 4;
  constexpr size_t kInner = 10;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(kOuter, [&](size_t outer) {
    // Slow enough that both levels spread while the pool is busy.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    pool.ParallelFor(kInner, [&](size_t inner) {
      if (inner % 4 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      hits[outer * kInner + inner].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// A helper woken for a job whose caller has already returned must touch
// none of the caller's state: its queue entry finds the job closed. Under
// ASan a touch of the dead `fn` or `hits` would fail this test.
TEST(ThreadPoolTest, HelperWokenAfterTheCallerReturnedIsSafe) {
  ThreadPool pool(1);
  std::atomic<int> started{0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  size_t busy_helpers = 0;
  // Keeps the pool's one worker inside this job until released.
  std::thread busy([&] {
    busy_helpers = pool.ParallelFor(
        2,
        [&](size_t) {
          started.fetch_add(1);
          released.wait();
        },
        /*spread_now=*/true);
  });
  while (started.load() < 2) std::this_thread::yield();
  {
    // Queues a helper entry that can only run once the worker is free, by
    // when this caller has returned and its fn and state are gone.
    std::vector<int> hits(5, 0);
    std::function<void(size_t)> fn = [&](size_t i) { ++hits[i]; };
    EXPECT_EQ(pool.ParallelFor(5, fn, /*spread_now=*/true), 0u);
    for (int h : hits) EXPECT_EQ(h, 1);
  }
  release.set_value();
  busy.join();
  EXPECT_EQ(busy_helpers, 1u);
  // Still usable afterwards; the destructor drains the stale entry.
  std::atomic<int> count{0};
  pool.ParallelFor(3, [&](size_t) { count.fetch_add(1); }, true);
  EXPECT_EQ(count.load(), 3);
}

// --- rng ---

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.Uniform(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
    EXPECT_LT(rng.Uniform(10), 10u);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

}  // namespace
}  // namespace just
