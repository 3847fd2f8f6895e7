#include "curve/index_strategy.h"

#include <algorithm>
#include <cctype>

#include "common/bytes.h"

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

// Shared period plumbing for the four time-aware strategies.
class TimeAwareStrategy : public IndexStrategy {
 protected:
  using IndexStrategy::IndexStrategy;

  int64_t PeriodOf(TimestampMs t) const {
    return TimePeriodNumber(t, options_.period_len_ms);
  }

  // Within-period fraction of t, clamped to [0, 1].
  double FracOf(TimestampMs t, int64_t period) const {
    TimestampMs start = TimePeriodStart(period, options_.period_len_ms);
    double f = static_cast<double>(t - start) /
               static_cast<double>(options_.period_len_ms);
    return std::clamp(f, 0.0, 1.0);
  }

  std::string PrefixFor(int shard, int64_t period) const {
    std::string prefix(1, static_cast<char>(shard));
    AppendPeriod(&prefix, period);
    return prefix;
  }

  // Key ranges for periods [first, last] on every shard, where
  // `ranges_of(period)` is a period's curve decomposition. Shard-major, so
  // the list is sorted by key and disjoint like the spatial strategies'.
  template <typename RangesOf>
  std::vector<KeyRange> PeriodRanges(int64_t first, int64_t last,
                                     const RangesOf& ranges_of) const {
    std::vector<KeyRange> out;
    for (int shard = 0; shard < options_.num_shards; ++shard) {
      for (int64_t period = first; period <= last; ++period) {
        AppendRangesForPrefix(PrefixFor(shard, period), ranges_of(period),
                              &out);
      }
    }
    return out;
  }
};

class Z3Strategy : public TimeAwareStrategy {
 public:
  explicit Z3Strategy(const IndexOptions& options)
      : TimeAwareStrategy(IndexType::kZ3, options), sfc_(options.z3_bits) {}

  std::string EncodeKey(const RecordRef& record) const override {
    int64_t period = PeriodOf(record.t_min);
    std::string key = PrefixFor(ShardOf(record.fid), period);
    PutFixed64BE(&key,
                 sfc_.Index(record.mbr.Center(), FracOf(record.t_min, period)));
    key += record.fid;
    return key;
  }

  std::vector<KeyRange> QueryRanges(const geo::Mbr& box, TimestampMs t_min,
                                    TimestampMs t_max) const override {
    int64_t first = PeriodOf(t_min);
    int64_t last = PeriodOf(t_max);
    std::vector<std::vector<SfcRange>> per_period;
    for (int64_t period = first; period <= last; ++period) {
      double t0 = (period == first) ? FracOf(t_min, period) : 0.0;
      double t1 = (period == last) ? FracOf(t_max, period) : 1.0;
      per_period.push_back(
          sfc_.Ranges(box, t0, t1, options_.max_ranges_per_period));
    }
    return PeriodRanges(first, last, [&](int64_t period) -> const auto& {
      return per_period[static_cast<size_t>(period - first)];
    });
  }

 private:
  Z3Sfc sfc_;
};

class Xz3Strategy : public TimeAwareStrategy {
 public:
  explicit Xz3Strategy(const IndexOptions& options)
      : TimeAwareStrategy(IndexType::kXz3, options),
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

  std::vector<KeyRange> QueryRanges(const geo::Mbr& box, TimestampMs t_min,
                                    TimestampMs t_max) const override {
    int64_t first = PeriodOf(t_min);
    int64_t last = PeriodOf(t_max);
    std::vector<std::vector<SfcRange>> per_period;
    for (int64_t period = first; period <= last; ++period) {
      double t0 = (period == first) ? FracOf(t_min, period) : 0.0;
      double t1 = (period == last) ? FracOf(t_max, period) : 1.0;
      per_period.push_back(
          sfc_.Ranges(box, t0, t1, options_.max_ranges_per_period));
    }
    return PeriodRanges(first, last, [&](int64_t period) -> const auto& {
      return per_period[static_cast<size_t>(period - first)];
    });
  }

 private:
  Xz3Sfc sfc_;
};

/// Z2T (Eq. 2): Num(t) :: Z2(lng, lat). A full-resolution Z2 curve inside
/// each time period keeps spatial filtering effective regardless of the
/// time-window / period-length ratio.
class Z2TStrategy : public TimeAwareStrategy {
 public:
  explicit Z2TStrategy(const IndexOptions& options)
      : TimeAwareStrategy(IndexType::kZ2T, options), sfc_(options.z2_bits) {}

  std::string EncodeKey(const RecordRef& record) const override {
    std::string key =
        PrefixFor(ShardOf(record.fid), PeriodOf(record.t_min));
    PutFixed64BE(&key, sfc_.Index(record.mbr.Center()));
    key += record.fid;
    return key;
  }

  std::vector<KeyRange> QueryRanges(const geo::Mbr& box, TimestampMs t_min,
                                    TimestampMs t_max) const override {
    // The spatial decomposition is shared by every qualified period.
    auto sfc_ranges = sfc_.Ranges(box, options_.max_ranges_per_period);
    int64_t first = PeriodOf(t_min);
    int64_t last = PeriodOf(t_max);
    return PeriodRanges(first, last,
                        [&](int64_t) -> const auto& { return sfc_ranges; });
  }

 private:
  Z2Sfc sfc_;
};

/// XZ2T (Eq. 3): Num(t_min) :: XZ2(mbr). The non-point analogue of Z2T.
class Xz2TStrategy : public TimeAwareStrategy {
 public:
  explicit Xz2TStrategy(const IndexOptions& options)
      : TimeAwareStrategy(IndexType::kXz2T, options),
        sfc_(options.xz2_resolution) {}

  std::string EncodeKey(const RecordRef& record) const override {
    std::string key =
        PrefixFor(ShardOf(record.fid), PeriodOf(record.t_min));
    PutFixed64BE(&key, sfc_.Index(record.mbr));
    key += record.fid;
    return key;
  }

  std::vector<KeyRange> QueryRanges(const geo::Mbr& box, TimestampMs t_min,
                                    TimestampMs t_max) const override {
    auto sfc_ranges = sfc_.Ranges(box, options_.max_ranges_per_period);
    // Extent ranges always require refinement against the time window.
    for (SfcRange& r : sfc_ranges) r.contained = false;
    // A record binned by its start time can satisfy a query whose window
    // begins up to one record-duration later; scanning one extra leading
    // period covers records that started in the previous period (the paper
    // stores by Time_start; trajectories are within-day in the datasets).
    int64_t first = PeriodOf(t_min) - 1;
    int64_t last = PeriodOf(t_max);
    return PeriodRanges(first, last,
                        [&](int64_t) -> const auto& { return sfc_ranges; });
  }

 private:
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
