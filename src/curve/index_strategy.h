#ifndef JUST_CURVE_INDEX_STRATEGY_H_
#define JUST_CURVE_INDEX_STRATEGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time_util.h"
#include "curve/sfc.h"
#include "curve/xz2.h"
#include "curve/xz3.h"
#include "curve/z2.h"
#include "curve/z3.h"
#include "geo/point.h"

namespace just::curve {

/// The six indexing strategies of Figure 1's Indexing & Storing layer:
/// GeoMesa's native Z2/Z3/XZ2/XZ3 plus the paper's Z2T (Section IV-B) and
/// XZ2T (Section IV-C).
enum class IndexType { kZ2, kZ3, kXz2, kXz3, kZ2T, kXz2T };

/// Parses "z2" / "z3" / "xz2" / "xz3" / "z2t" / "xz2t" (case-insensitive).
Result<IndexType> ParseIndexType(const std::string& name);
std::string IndexTypeName(IndexType type);

/// True for strategies that index the time dimension.
bool IsSpatioTemporal(IndexType type);
/// True for strategies that index non-point extents.
bool IsExtentIndex(IndexType type);

/// What an index needs to know about a record to produce its key.
struct RecordRef {
  geo::Mbr mbr;                 ///< Point records use a degenerate box.
  TimestampMs t_min = 0;        ///< Record (or trajectory start) time.
  TimestampMs t_max = 0;        ///< Equal to t_min for instantaneous records.
  std::string fid;              ///< Feature id, appended for key uniqueness.
};

/// A byte-wise key range [start, end) against the ordered KV store.
struct KeyRange {
  std::string start;
  std::string end;
  bool contained = false;  ///< No exact refinement needed when true.
};

struct IndexOptions {
  int num_shards = 4;          ///< GeoMesa's random key prefix for balance.
  int64_t period_len_ms = kMillisPerDay;  ///< Eq. (1) TimePeriodLen.
  int z2_bits = 30;
  int z3_bits = 20;
  int xz2_resolution = 12;
  int xz3_resolution = 8;
  int max_ranges_per_period = 64;  ///< SFC decomposition budget.
};

/// An indexing strategy turns records into sortable row keys (Eq. 2 / Eq. 3)
/// and query boxes into SCAN key ranges.
class IndexStrategy {
 public:
  static std::unique_ptr<IndexStrategy> Create(IndexType type,
                                               const IndexOptions& options);

  virtual ~IndexStrategy() = default;

  IndexType type() const { return type_; }
  const IndexOptions& options() const { return options_; }

  /// Builds the full row key: shard(1B) [:: period(4B)] :: sfc(8B) :: fid.
  virtual std::string EncodeKey(const RecordRef& record) const = 0;

  /// Key ranges covering a spatio-temporal box query. Spatial-only indexes
  /// ignore the time bounds; time-aware indexes read the qualified periods
  /// (step 1 of Section IV-B's query algorithm), where INT64_MIN / INT64_MAX
  /// leave a side of the window open. Ranges are produced for every shard
  /// (step 3 scans them in parallel).
  virtual std::vector<KeyRange> QueryRanges(const geo::Mbr& box,
                                            TimestampMs t_min,
                                            TimestampMs t_max) const = 0;

  /// The shard a record's key lands on.
  int ShardOf(const std::string& fid) const;

  /// Byte offset of the fid suffix within keys this strategy emits:
  /// 9 for spatial-only keys (shard + sfc), 13 for time-aware keys
  /// (shard + period + sfc). Lets scan consumers identify records without
  /// decoding values.
  int FidOffset() const {
    return IsSpatioTemporal(type_) ? 13 : 9;
  }

 protected:
  IndexStrategy(IndexType type, const IndexOptions& options)
      : type_(type), options_(options) {}

  /// Encodes a biased period number in [-2^31, 2^31) to 4 sortable bytes.
  static void AppendPeriod(std::string* key, int64_t period);

  IndexType type_;
  IndexOptions options_;
};

}  // namespace just::curve

#endif  // JUST_CURVE_INDEX_STRATEGY_H_
