#ifndef JUST_CORE_TABLE_H_
#define JUST_CORE_TABLE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "cluster/region_cluster.h"
#include "common/status.h"
#include "core/row_codec.h"
#include "curve/index_strategy.h"
#include "exec/column_batch.h"
#include "exec/dataframe.h"
#include "meta/catalog.h"

namespace just::core {

/// Per-query execution statistics, exposed for the benches and EXPLAIN.
struct QueryStats {
  size_t key_ranges = 0;     ///< SCANs issued
  size_t rows_scanned = 0;   ///< KV pairs read before refinement
  size_t rows_matched = 0;   ///< rows surviving refinement and the residual
  size_t bytes_scanned = 0;  ///< key+value bytes read (scan-quota charging)
};

/// Feature ids, looked up by std::string_view without building a string
/// (k-NN's set of records delivered by earlier expansion areas).
struct FidHash {
  using is_transparent = void;
  size_t operator()(std::string_view fid) const {
    return std::hash<std::string_view>{}(fid);
  }
};
using FidSet = std::unordered_set<std::string, FidHash, std::equal_to<>>;

/// One bound of an attribute range predicate on a secondary index.
struct AttrBound {
  bool present = false;   ///< false: this side is unbounded
  bool inclusive = true;  ///< >= / <= vs > / <
  exec::Value value;
};

/// What one query asks of a table: the access path plus its arguments. The
/// SQL planner's sql::AccessPath extends it with the residual predicate, so
/// the path EXPLAIN prints is the spec the engine runs.
struct QuerySpec {
  enum class Kind {
    kKnn,               ///< Algorithm 1's area expansion around knn_query
    kStRange,           ///< curve index, time window [+ box]
    kSpatialRange,      ///< curve index, box only
    kSecondaryIndex,    ///< secondary index point/range lookup drives alone
    kIndexIntersection, ///< secondary index drives, spatio-temporal refines
    kFullScan,
  };

  Kind kind = Kind::kFullScan;
  bool have_box = false;
  geo::Mbr box{};
  /// The inclusive window [t_min, t_max]; INT64_MIN / INT64_MAX leave a
  /// side open. A row with no time passes exactly when t_min is open (NULL
  /// sorts first, as in SQL comparisons). kStRange without have_box reads
  /// the time-aware index over the whole curve and tests time alone.
  bool have_time = false;
  TimestampMs t_min = 0, t_max = 0;
  geo::Point knn_query{};
  int knn_k = 0;
  /// kSecondaryIndex / kIndexIntersection: the indexed column + bounds; the
  /// box and time window refine when have_box / have_time are set.
  std::string index_column;
  AttrBound lower, upper;

  static QuerySpec SpatialRange(const geo::Mbr& box) {
    QuerySpec spec;
    spec.kind = Kind::kSpatialRange;
    spec.have_box = true;
    spec.box = box;
    return spec;
  }
  static QuerySpec StRange(const geo::Mbr& box, TimestampMs t_min,
                           TimestampMs t_max) {
    QuerySpec spec = SpatialRange(box);
    spec.kind = Kind::kStRange;
    spec.have_time = true;
    spec.t_min = t_min;
    spec.t_max = t_max;
    return spec;
  }
  static QuerySpec Knn(const geo::Point& q, int k) {
    QuerySpec spec;
    spec.kind = Kind::kKnn;
    spec.knn_query = q;
    spec.knn_k = k;
    return spec;
  }
};

/// What the executor pushes into a table scan (k-NN ignores it): a row
/// limit, the residual predicate, and the columns the query keeps. The scan
/// decodes in two phases per batch: first the columns refinement and the
/// residual read, then, only for the rows that survive both, the other kept
/// columns. Columns neither kept nor read are never decoded (they come back
/// NULL).
struct ScanBudget {
  /// Stop once this many rows survive (0: no limit). The rows returned
  /// start with a prefix of the unlimited scan's rows, in its order.
  size_t limit = 0;
  /// The compiled SQL residual predicate, applied per batch by shrinking
  /// its selection; may be empty. Called concurrently from the per-server
  /// scan tasks.
  std::function<Status(exec::ColumnBatch*)> residual;
  /// The only columns `residual` reads; empty: it may read every column.
  ColumnMask residual_columns;
  ColumnMask projected;         ///< columns kept above the scan; empty: all
};

/// The in-memory catch-up journal of one online index build. While an index
/// is `building`, every writer appends its index-entry op here *before*
/// issuing the storage write; the builder replays the journal after the
/// backfill scan so writer ops always land after (and therefore win over)
/// any backfill put they raced with. FIFO replay converges: a stale replay
/// of an old op is always followed by the replay of the newer op for the
/// same key. Closed (atomically, once drained) at the `ready` flip.
class IndexBuildJournal {
 public:
  void Append(const kv::WriteOp& op) {
    std::lock_guard<std::mutex> lock(mu_);
    if (accepting_) ops_.push_back(op);
  }

  /// Removes and returns up to `max` ops (empty when drained right now).
  std::vector<kv::WriteOp> Drain(size_t max) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<kv::WriteOp> out;
    while (!ops_.empty() && out.size() < max) {
      out.push_back(std::move(ops_.front()));
      ops_.pop_front();
    }
    return out;
  }

  /// Atomically stops accepting appends iff the journal is drained. After a
  /// successful close, late writers skip the journal — their direct writes
  /// can no longer race with a backfill put, so this is the commit point.
  bool CloseIfDrained() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ops_.empty()) return false;
    accepting_ = false;
    return true;
  }

 private:
  std::mutex mu_;
  bool accepting_ = true;
  std::deque<kv::WriteOp> ops_;
};

/// A bound data table: metadata plus its key spaces in the cluster. Each
/// configured index gets its own key space (as each GeoMesa index is its own
/// HBase table); every row is written once per index, keyed per Eq. (2)/(3).
class StTable {
 public:
  StTable(meta::TableMeta meta, cluster::RegionCluster* cluster,
          const curve::IndexOptions& index_options);

  const meta::TableMeta& meta() const { return meta_; }

  /// Upserts one row (insert or historical update: same fid + same
  /// spatio-temporal key overwrites in place; Section I "update-enabled").
  Status Insert(const exec::Row& row);

  /// Upserts many rows in one cluster batch: every index key of every row
  /// is routed and group-committed per server (~1 WAL fsync per server
  /// instead of one per key). The bulk-load path (Section VII).
  Status InsertBatch(const std::vector<exec::Row>& rows);

  /// The streaming variant of InsertBatch: same key fan-out and group
  /// commit, but the batches carry the table owner as their tenant tag
  /// (RegionCluster::WriteBatch), so out-of-process region servers can
  /// apply their own per-tenant write admission before the WAL append.
  Status InsertBatchStream(const std::vector<exec::Row>& rows);

  /// Removes a previously inserted row (all index entries). The secondary-
  /// index tombstones ride the same group-commit batch as the base-row
  /// tombstones, so there is no window where an index lookup can resurrect
  /// the deleted row.
  Status Remove(const exec::Row& row);

  /// Updates a row in place: tombstones for every index entry of `old_row`
  /// that the new row does not overwrite, plus the puts for `new_row`, all
  /// in one group-commit batch. This is how an attribute change retires the
  /// stale secondary-index entry under the old value atomically.
  Status Replace(const exec::Row& old_row, const exec::Row& new_row);

  /// Runs one query (Section V-C): the spatial, spatio-temporal, k-NN,
  /// secondary-index or full-scan access path `spec` names. Scanned KV pairs
  /// decode straight into ColumnBatches (BatchRowDecoder); exact
  /// spatio-temporal refinement runs as column loops that shrink each
  /// batch's selection vector. `pushdown` (limit, residual and kept
  /// columns) is ignored by k-NN.
  Result<exec::BatchVector> Query(const QuerySpec& spec,
                                  QueryStats* stats = nullptr,
                                  const ScanBudget* pushdown = nullptr) const;

  /// Counts index entries in [lower, upper], stopping at `limit` — the
  /// cardinality probe behind access-path selection.
  Result<size_t> SecondaryIndexProbe(const meta::SecondaryIndexDef& def,
                                     const AttrBound& lower,
                                     const AttrBound& upper,
                                     size_t limit) const;

  /// The one index-entry op (put or tombstone) of `row` in secondary index
  /// `def`; used by the online builder's backfill.
  Result<kv::WriteOp> MakeSecondaryEntryOp(const meta::SecondaryIndexDef& def,
                                           const exec::Row& row,
                                           bool delete_instead) const;

  /// Registers the catch-up journal of an in-progress online build: writer
  /// ops on `index_name` are mirrored into it (before the storage write).
  void AttachBuildJournal(const std::string& index_name,
                          std::shared_ptr<IndexBuildJournal> journal) {
    build_journals_[index_name] = std::move(journal);
  }

  /// Most ops one engine write sends as one cluster WriteBatch: index
  /// fan-out multiplies rows into keys, and a loader chunk or a purge
  /// should translate into a handful of group commits, not an unbounded
  /// buffer.
  static constexpr size_t kMaxOpsPerBatch = 4096;

  /// Shard fan-out of this table's key spaces.
  int num_shards() const {
    return strategies_.empty() ? 1 : strategies_[0]->options().num_shards;
  }

  /// Chooses the index used for a query: `temporal` requests a
  /// spatio-temporal strategy. Falls back across categories when the ideal
  /// kind is absent. Exposed for tests and the optimizer.
  Result<const curve::IndexStrategy*> PickIndex(bool temporal) const;

  /// Key-space prefix for index slot `i` (after the shard byte).
  std::string IndexPrefix(size_t index_slot) const {
    return IndexPrefix(meta_.table_id, index_slot);
  }
  /// Every key of table `table_id`'s index slot `index_slot`: one range per
  /// shard. The one definition of a slot's key space, shared by full and
  /// slot scans and by the DROP TABLE / DROP INDEX purge.
  static std::vector<curve::KeyRange> SlotRanges(uint64_t table_id,
                                                 size_t index_slot,
                                                 int num_shards);

 private:
  static std::string IndexPrefix(uint64_t table_id, size_t index_slot);
  Status WriteKeys(const exec::Row& row, bool delete_instead);
  /// Shared body of InsertBatch / InsertBatchStream; `stream` tags each
  /// chunk with the table owner as its tenant.
  Status InsertBatchImpl(const std::vector<exec::Row>& rows, bool stream);
  /// Appends every index entry of `row` (one per strategy + one per
  /// secondary index) to `ops` as puts or tombstones; shared by the
  /// single-row and batch write paths.
  Status AppendWriteOps(const exec::Row& row, bool delete_instead,
                        std::vector<kv::WriteOp>* ops) const;
  /// Mirrors the ops that land in a `building` secondary index's key space
  /// into that build's catch-up journal. Must be called immediately before
  /// the cluster WriteBatch carrying `ops` (append-then-write ordering is
  /// what makes journal replay converge).
  void MirrorOpsToBuildJournals(const std::vector<kv::WriteOp>& ops) const;
  Result<curve::RecordRef> MakeRecordRef(const exec::Row& row) const;

  /// Rewrites a strategy key (shard :: rest) as
  /// shard :: table/index prefix :: rest.
  std::string WrapKey(size_t index_slot, std::string_view strategy_key) const;
  /// The key of a row's entry in the secondary index at `index_slot`:
  /// shard :: table/index prefix :: order-preserving `value` :: fid, on
  /// the base row's shard (index lookups stay shard-local).
  std::string SecondaryKey(size_t index_slot, const exec::Value& value,
                           const std::string& fid) const;
  std::vector<curve::KeyRange> WrapRanges(
      size_t index_slot, std::vector<curve::KeyRange> ranges) const;

  /// The shared scan core over RegionCluster::Scan: each server's task
  /// decodes its rows straight from the backend's views into its own
  /// batches, runs `refine` (a selection shrink reading the columns in
  /// `refine_columns`) and the pushdown's residual per batch, then decodes
  /// the kept columns nobody read, for survivors only (see ScanBudget).
  /// Output is every server's batches in server order. `ranges` must be
  /// disjoint (every caller's are: curve ranges are sorted and merged per
  /// shard and period, the other paths emit one range per shard), so each
  /// key is read once and no per-row dedupe is needed. `fid_offset` is the
  /// byte position of the fid suffix in scanned keys; rows whose fid is in
  /// `skip_fids` (read-only during the scan) are dropped before decoding
  /// (the k-NN expansion's records seen in earlier areas). With a pushdown,
  /// an st_series geometry column among `refine_columns` that the residual
  /// does not read is read through its trajectory summary: RefineBatch
  /// needs only the MBR and start time.
  Result<exec::BatchVector> ScanRangesToBatches(
      const std::vector<curve::KeyRange>& ranges,
      const std::function<void(exec::ColumnBatch*)>& refine,
      const std::vector<int>& refine_columns, QueryStats* stats,
      const ScanBudget* pushdown, int fid_offset, const FidSet* skip_fids,
      bool record_counters) const;

  /// Exact refinement as column loops: geometry containment / trajectory
  /// intersection in `box` (none when null) plus the temporal check,
  /// shrinking `batch`'s selection. Without a box it reads the geometry
  /// column only in a table with no time column (a trajectory's start time
  /// stands in).
  void RefineBatch(exec::ColumnBatch* batch, const geo::Mbr* box,
                   bool temporal, TimestampMs t_min, TimestampMs t_max) const;
  /// The columns RefineBatch reads.
  std::vector<int> RefineColumns(bool have_box, bool temporal) const;

  /// Spatial (`temporal` false), spatio-temporal, or (`box` null)
  /// time-only range query over the curve index PickIndex(temporal)
  /// chooses, with a k-NN skip set.
  Result<exec::BatchVector> CurveRangeScan(
      const geo::Mbr* box, bool temporal, TimestampMs t_min,
      TimestampMs t_max, QueryStats* stats, const FidSet* skip_fids,
      const ScanBudget* pushdown) const;

  /// k-NN per Algorithm 1 (iterative area expansion with Lemma 1 pruning)
  /// over CurveRangeScan; the k nearest rows come back nearest first.
  Result<exec::BatchVector> KnnScan(const geo::Point& q, int k,
                                    QueryStats* stats) const;

  /// Full scan over the primary (first) index.
  Result<exec::BatchVector> FullScanBatches(QueryStats* stats,
                                            const ScanBudget* pushdown) const;

  /// Point/range lookup through the secondary index `def`. Entries are
  /// covering (the value is the encoded row), so no base-table fetch is
  /// needed. With `spec.have_box`/`have_time` this is the curve-intersection
  /// hybrid path: index entries drive, exact spatio-temporal refinement
  /// filters — equivalent to intersecting the curve and secondary indexes
  /// but without a second key lookup per row.
  Result<exec::BatchVector> SecondaryIndexScan(
      const meta::SecondaryIndexDef& def, const QuerySpec& spec,
      QueryStats* stats, const ScanBudget* pushdown) const;

  /// Per-shard key ranges covering secondary index `def` restricted to
  /// [lower, upper] in the order-preserving attribute encoding.
  std::vector<curve::KeyRange> SecondaryIndexRanges(
      const meta::SecondaryIndexDef& def, const AttrBound& lower,
      const AttrBound& upper) const;

  meta::TableMeta meta_;
  cluster::RegionCluster* cluster_;
  std::vector<std::unique_ptr<curve::IndexStrategy>> strategies_;
  int fid_col_ = -1;
  int geom_col_ = -1;
  int time_col_ = -1;
  /// Catch-up journals of in-progress online builds, by index name.
  std::map<std::string, std::shared_ptr<IndexBuildJournal>> build_journals_;
};

}  // namespace just::core

#endif  // JUST_CORE_TABLE_H_
