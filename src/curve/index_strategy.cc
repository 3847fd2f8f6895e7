#include "curve/index_strategy.h"

#include <algorithm>
#include <cctype>

#include "common/bytes.h"
#include "net/wire_protocol.h"

namespace just::curve {

namespace {

constexpr uint32_t kPeriodBias = 1u << 31;

// FNV-1a over the fid; stable across runs so shards are deterministic.
uint64_t HashFid(const std::string& fid) {
  uint64_t h = 14695981039346656037ull;
  for (char c : fid) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Appends an SFC value range for one shard (and optional period) as a byte
// KeyRange. `hi` is inclusive; the end key is computed as hi + 1 in the
// 8-byte big-endian space, or the prefix successor on overflow.
void AppendRangesForPrefix(const std::string& prefix,
                           const std::vector<SfcRange>& sfc_ranges,
                           std::vector<KeyRange>* out) {
  for (const SfcRange& r : sfc_ranges) {
    KeyRange kr;
    kr.contained = r.contained;
    kr.start = prefix;
    PutFixed64BE(&kr.start, r.lo);
    kr.end = prefix;
    if (r.hi == UINT64_MAX) {
      // End = prefix successor: bump the last prefix byte (prefix is never
      // empty here: it includes at least the shard byte).
      PutFixed64BE(&kr.end, r.hi);
      kr.end.push_back('\xff');  // just past any key with this sfc value
    } else {
      PutFixed64BE(&kr.end, r.hi + 1);
    }
    out->push_back(std::move(kr));
  }
}

class Z2Strategy : public IndexStrategy {
 public:
  explicit Z2Strategy(const IndexOptions& options)
      : IndexStrategy(IndexType::kZ2, options), sfc_(options.z2_bits) {}

  std::string EncodeKey(const RecordRef& record) const override {
    std::string key;
    key.push_back(static_cast<char>(ShardOf(record.fid)));
    PutFixed64BE(&key, sfc_.Index(record.mbr.Center()));
    key += record.fid;
    return key;
  }

  std::vector<KeyRange> QueryRanges(const geo::Mbr& box, TimestampMs,
                                    TimestampMs) const override {
    auto sfc_ranges = sfc_.Ranges(box, options_.max_ranges_per_period);
    std::vector<KeyRange> out;
    for (int shard = 0; shard < options_.num_shards; ++shard) {
      std::string prefix(1, static_cast<char>(shard));
      AppendRangesForPrefix(prefix, sfc_ranges, &out);
    }
    return out;
  }

 private:
  Z2Sfc sfc_;
};

class Xz2Strategy : public IndexStrategy {
 public:
  explicit Xz2Strategy(const IndexOptions& options)
      : IndexStrategy(IndexType::kXz2, options),
        sfc_(options.xz2_resolution) {}

  std::string EncodeKey(const RecordRef& record) const override {
    std::string key;
    key.push_back(static_cast<char>(ShardOf(record.fid)));
    PutFixed64BE(&key, sfc_.Index(record.mbr));
    key += record.fid;
    return key;
  }

  std::vector<KeyRange> QueryRanges(const geo::Mbr& box, TimestampMs,
                                    TimestampMs) const override {
    auto sfc_ranges = sfc_.Ranges(box, options_.max_ranges_per_period);
    std::vector<KeyRange> out;
    for (int shard = 0; shard < options_.num_shards; ++shard) {
      std::string prefix(1, static_cast<char>(shard));
      AppendRangesForPrefix(prefix, sfc_ranges, &out);
    }
    return out;
  }

 private:
  Xz2Sfc sfc_;
};

// Shared period plumbing for the four time-aware strategies: the period
// leads the curve value in every key, so a window is a run of periods.
class TimeAwareStrategy : public IndexStrategy {
 public:
  /// Step 1 of Section IV-B's query algorithm: the periods the window
  /// qualifies, each decomposed over the box. A box that covers the whole
  /// curve, or a list longer than one wire window (net::kMaxScanRanges),
  /// becomes one range per shard over those periods instead, and
  /// refinement applies the box and the exact window. A window open below
  /// (t_min == INT64_MIN) also reaches period 0, where rows with no time
  /// are keyed.
  std::vector<KeyRange> QueryRanges(const geo::Mbr& box, TimestampMs t_min,
                                    TimestampMs t_max) const final {
    const int64_t first =
        std::max(PeriodOf(t_min) - lead_periods_, kMinPeriod);
    int64_t last = PeriodOf(t_max);
    if (t_min == INT64_MIN) last = std::max<int64_t>(last, 0);
    if (first > last) return {};
    if (box.Contains(geo::Mbr::World())) return SpanRanges(first, last);
    if (!time_in_curve_) {
      // The spatial decomposition is shared by every qualified period.
      auto sfc_ranges = Decompose(box, 0.0, 1.0);
      return PeriodRanges(first, last, sfc_ranges, sfc_ranges, sfc_ranges);
    }
    const double t0 = FracOf(t_min, first);
    const double t1 = FracOf(t_max, last);
    if (first == last) {
      return PeriodRanges(first, last, Decompose(box, t0, t1), {}, {});
    }
    // Only the end periods see part of the window; those between share
    // one whole-period decomposition.
    std::vector<SfcRange> mid;
    if (last - first >= 2) mid = Decompose(box, 0.0, 1.0);
    return PeriodRanges(first, last, Decompose(box, t0, 1.0), mid,
                        Decompose(box, 0.0, t1));
  }

 protected:
  /// `lead_periods` earlier periods are scanned too; `time_in_curve`: the
  /// curve indexes the within-period time (Z3, XZ3).
  TimeAwareStrategy(IndexType type, const IndexOptions& options,
                    int64_t lead_periods, bool time_in_curve)
      : IndexStrategy(type, options),
        lead_periods_(lead_periods),
        time_in_curve_(time_in_curve) {}

  /// The box's curve ranges over the within-period time [t0, t1].
  virtual std::vector<SfcRange> Decompose(const geo::Mbr& box, double t0,
                                          double t1) const = 0;

  /// Periods a key carries: AppendPeriod's four biased bytes, less the
  /// top value, which stays free as the end of the last period, so every
  /// range ends inside its index's key space.
  static constexpr int64_t kMinPeriod = -(int64_t{1} << 31);
  static constexpr int64_t kMaxPeriod = (int64_t{1} << 31) - 2;

  int64_t PeriodOf(TimestampMs t) const {
    return std::clamp(TimePeriodNumber(t, options_.period_len_ms), kMinPeriod,
                      kMaxPeriod);
  }

  // Within-period fraction of t, clamped to [0, 1].
  double FracOf(TimestampMs t, int64_t period) const {
    // In doubles: t and a clamped period's start may lie ~2^63 apart.
    const double start = static_cast<double>(
        TimePeriodStart(period, options_.period_len_ms));
    double f = (static_cast<double>(t) - start) /
               static_cast<double>(options_.period_len_ms);
    return std::clamp(f, 0.0, 1.0);
  }

  std::string PrefixFor(int shard, int64_t period) const {
    std::string prefix(1, static_cast<char>(shard));
    AppendPeriod(&prefix, period);
    return prefix;
  }

 private:
  /// One range per shard, from the start of period `first` to the end of
  /// period `last`.
  std::vector<KeyRange> SpanRanges(int64_t first, int64_t last) const {
    std::vector<KeyRange> out;
    for (int shard = 0; shard < options_.num_shards; ++shard) {
      out.push_back({PrefixFor(shard, first), PrefixFor(shard, last + 1),
                     /*contained=*/false});
    }
    return out;
  }

  /// Key ranges for periods [first, last] on every shard: `head`
  /// decomposes the box in period `first`, `tail` in period `last` and
  /// `mid` in those between. Shard-major, so the list is sorted by key and
  /// disjoint like the spatial strategies'.
  std::vector<KeyRange> PeriodRanges(int64_t first, int64_t last,
                                     const std::vector<SfcRange>& head,
                                     const std::vector<SfcRange>& mid,
                                     const std::vector<SfcRange>& tail) const {
    const uint64_t periods = static_cast<uint64_t>(last - first) + 1;
    const uint64_t per_shard =
        periods == 1 ? head.size()
                     : head.size() + tail.size() + (periods - 2) * mid.size();
    if (per_shard * static_cast<uint64_t>(options_.num_shards) >
        net::kMaxScanRanges) {
      return SpanRanges(first, last);
    }
    std::vector<KeyRange> out;
    for (int shard = 0; shard < options_.num_shards; ++shard) {
      AppendRangesForPrefix(PrefixFor(shard, first), head, &out);
      // An empty `mid` may stand for billions of periods.
      if (!mid.empty()) {
        for (int64_t period = first + 1; period < last; ++period) {
          AppendRangesForPrefix(PrefixFor(shard, period), mid, &out);
        }
      }
      if (last > first) {
        AppendRangesForPrefix(PrefixFor(shard, last), tail, &out);
      }
    }
    return out;
  }

  const int64_t lead_periods_;
  const bool time_in_curve_;
};

class Z3Strategy : public TimeAwareStrategy {
 public:
  explicit Z3Strategy(const IndexOptions& options)
      : TimeAwareStrategy(IndexType::kZ3, options, /*lead_periods=*/0,
                          /*time_in_curve=*/true),
        sfc_(options.z3_bits) {}

  std::string EncodeKey(const RecordRef& record) const override {
    int64_t period = PeriodOf(record.t_min);
    std::string key = PrefixFor(ShardOf(record.fid), period);
    PutFixed64BE(&key,
                 sfc_.Index(record.mbr.Center(), FracOf(record.t_min, period)));
    key += record.fid;
    return key;
  }

 private:
  std::vector<SfcRange> Decompose(const geo::Mbr& box, double t0,
                                  double t1) const override {
    return sfc_.Ranges(box, t0, t1, options_.max_ranges_per_period);
  }

  Z3Sfc sfc_;
};

class Xz3Strategy : public TimeAwareStrategy {
 public:
  explicit Xz3Strategy(const IndexOptions& options)
      : TimeAwareStrategy(IndexType::kXz3, options, /*lead_periods=*/0,
                          /*time_in_curve=*/true),
        sfc_(options.xz3_resolution) {}

  std::string EncodeKey(const RecordRef& record) const override {
    // XZ3 bins the record by its start time (as XZ2T does, Section IV-C).
    int64_t period = PeriodOf(record.t_min);
    std::string key = PrefixFor(ShardOf(record.fid), period);
    PutFixed64BE(&key, sfc_.Index(record.mbr, FracOf(record.t_min, period),
                                  FracOf(record.t_max, period)));
    key += record.fid;
    return key;
  }

 private:
  std::vector<SfcRange> Decompose(const geo::Mbr& box, double t0,
                                  double t1) const override {
    return sfc_.Ranges(box, t0, t1, options_.max_ranges_per_period);
  }

  Xz3Sfc sfc_;
};

/// Z2T (Eq. 2): Num(t) :: Z2(lng, lat). A full-resolution Z2 curve inside
/// each time period keeps spatial filtering effective regardless of the
/// time-window / period-length ratio.
class Z2TStrategy : public TimeAwareStrategy {
 public:
  explicit Z2TStrategy(const IndexOptions& options)
      : TimeAwareStrategy(IndexType::kZ2T, options, /*lead_periods=*/0,
                          /*time_in_curve=*/false),
        sfc_(options.z2_bits) {}

  std::string EncodeKey(const RecordRef& record) const override {
    std::string key =
        PrefixFor(ShardOf(record.fid), PeriodOf(record.t_min));
    PutFixed64BE(&key, sfc_.Index(record.mbr.Center()));
    key += record.fid;
    return key;
  }

 private:
  std::vector<SfcRange> Decompose(const geo::Mbr& box, double,
                                  double) const override {
    return sfc_.Ranges(box, options_.max_ranges_per_period);
  }

  Z2Sfc sfc_;
};

/// XZ2T (Eq. 3): Num(t_min) :: XZ2(mbr). The non-point analogue of Z2T.
/// A record binned by its start time can satisfy a query whose window
/// begins up to one record-duration later; scanning one extra leading
/// period covers records that started in the previous period (the paper
/// stores by Time_start; trajectories are within-day in the datasets).
class Xz2TStrategy : public TimeAwareStrategy {
 public:
  explicit Xz2TStrategy(const IndexOptions& options)
      : TimeAwareStrategy(IndexType::kXz2T, options, /*lead_periods=*/1,
                          /*time_in_curve=*/false),
        sfc_(options.xz2_resolution) {}

  std::string EncodeKey(const RecordRef& record) const override {
    std::string key =
        PrefixFor(ShardOf(record.fid), PeriodOf(record.t_min));
    PutFixed64BE(&key, sfc_.Index(record.mbr));
    key += record.fid;
    return key;
  }

 private:
  std::vector<SfcRange> Decompose(const geo::Mbr& box, double,
                                  double) const override {
    auto sfc_ranges = sfc_.Ranges(box, options_.max_ranges_per_period);
    // Extent ranges always require refinement against the time window.
    for (SfcRange& r : sfc_ranges) r.contained = false;
    return sfc_ranges;
  }

  Xz2Sfc sfc_;
};

}  // namespace

Result<IndexType> ParseIndexType(const std::string& name) {
  std::string lower;
  for (char c : name) lower += static_cast<char>(std::tolower(c));
  if (lower == "z2") return IndexType::kZ2;
  if (lower == "z3") return IndexType::kZ3;
  if (lower == "xz2") return IndexType::kXz2;
  if (lower == "xz3") return IndexType::kXz3;
  if (lower == "z2t") return IndexType::kZ2T;
  if (lower == "xz2t") return IndexType::kXz2T;
  return Status::InvalidArgument("unknown index type: " + name);
}

std::string IndexTypeName(IndexType type) {
  switch (type) {
    case IndexType::kZ2:
      return "z2";
    case IndexType::kZ3:
      return "z3";
    case IndexType::kXz2:
      return "xz2";
    case IndexType::kXz3:
      return "xz3";
    case IndexType::kZ2T:
      return "z2t";
    case IndexType::kXz2T:
      return "xz2t";
  }
  return "?";
}

bool IsSpatioTemporal(IndexType type) {
  return type == IndexType::kZ3 || type == IndexType::kXz3 ||
         type == IndexType::kZ2T || type == IndexType::kXz2T;
}

bool IsExtentIndex(IndexType type) {
  return type == IndexType::kXz2 || type == IndexType::kXz3 ||
         type == IndexType::kXz2T;
}

int IndexStrategy::ShardOf(const std::string& fid) const {
  return static_cast<int>(HashFid(fid) % options_.num_shards);
}

void IndexStrategy::AppendPeriod(std::string* key, int64_t period) {
  PutFixed32BE(key, static_cast<uint32_t>(period + kPeriodBias));
}

std::unique_ptr<IndexStrategy> IndexStrategy::Create(
    IndexType type, const IndexOptions& options) {
  switch (type) {
    case IndexType::kZ2:
      return std::make_unique<Z2Strategy>(options);
    case IndexType::kZ3:
      return std::make_unique<Z3Strategy>(options);
    case IndexType::kXz2:
      return std::make_unique<Xz2Strategy>(options);
    case IndexType::kXz3:
      return std::make_unique<Xz3Strategy>(options);
    case IndexType::kZ2T:
      return std::make_unique<Z2TStrategy>(options);
    case IndexType::kXz2T:
      return std::make_unique<Xz2TStrategy>(options);
  }
  return nullptr;
}

}  // namespace just::curve
