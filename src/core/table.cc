#include "core/table.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <unordered_set>
#include <utility>

#include "common/bytes.h"
#include "core/row_codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace just::core {

namespace {
/// Dual attribution of per-query stats: the process-wide registry counters
/// and (when a trace is active) the current span.
void RecordQueryCounters(size_t ranges, size_t scanned, size_t matched,
                         size_t late_rows) {
  static obs::Counter* key_ranges =
      obs::Registry::Global().GetCounter("just_query_key_ranges_total");
  static obs::Counter* rows_scanned =
      obs::Registry::Global().GetCounter("just_query_rows_scanned_total");
  static obs::Counter* rows_matched =
      obs::Registry::Global().GetCounter("just_query_rows_matched_total");
  static obs::Counter* late =
      obs::Registry::Global().GetCounter("just_query_late_rows_total");
  key_ranges->Add(ranges);
  rows_scanned->Add(scanned);
  rows_matched->Add(matched);
  late->Add(late_rows);
  obs::TraceKeyRanges(ranges);
  obs::TraceRowsScanned(scanned);
  obs::TraceRowsMatched(matched);
  obs::TraceLateRows(late_rows);
}

/// Minimum expansion-area size for Algorithm 1 (the paper's g = 1km x 1km
/// system parameter, expressed in degrees at mid latitudes).
constexpr double kMinKnnAreaDeg = 0.01;

/// Smallest byte string strictly greater than every string with prefix `s`.
std::string PrefixSuccessor(std::string s) {
  while (!s.empty()) {
    if (static_cast<unsigned char>(s.back()) != 0xFF) {
      s.back() = static_cast<char>(s.back() + 1);
      return s;
    }
    s.pop_back();
  }
  return s;  // empty: no upper bound
}

/// Appends `s` with every 0x00 escaped as 0x00 0xFF, then a 0x00 0x01
/// terminator: lexicographic order over the escaped bytes matches the order
/// of the raw strings, and the terminator keeps values prefix-free so the
/// fid suffix never bleeds into the comparison.
void AppendEscapedTerminated(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '\0') {
      out->push_back('\0');
      out->push_back('\xFF');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('\0');
  out->push_back('\x01');
}

constexpr uint64_t kSignFlip = 1ull << 63;

/// Secondary-index cell: a type-class tag byte followed by a representation
/// whose byte order matches value order, so range predicates on the indexed
/// column translate to key ranges. Int and double share one ordered domain
/// (double bits); int64s beyond 2^53 may collide with a neighbor, which the
/// exact recheck on the decoded row resolves — the key order only has to be
/// *no more selective than* value order, never wrong about it.
std::string EncodeOrderedAttrKeyPart(const exec::Value& value) {
  std::string out;
  switch (value.type()) {
    case exec::DataType::kNull:
      out.push_back('\x00');
      return out;
    case exec::DataType::kBool:
      out.push_back('\x01');
      out.push_back(value.bool_value() ? '\x01' : '\x00');
      return out;
    case exec::DataType::kInt:
      out.push_back('\x02');
      PutFixed64BE(&out, OrderedDoubleBits(
                             static_cast<double>(value.int_value())));
      return out;
    case exec::DataType::kDouble:
      out.push_back('\x02');
      PutFixed64BE(&out, OrderedDoubleBits(value.double_value()));
      return out;
    case exec::DataType::kTimestamp:
      out.push_back('\x04');
      PutFixed64BE(&out,
                   static_cast<uint64_t>(value.timestamp_value()) ^ kSignFlip);
      return out;
    case exec::DataType::kString:
      out.push_back('\x05');
      AppendEscapedTerminated(&out, value.string_value());
      return out;
    default: {
      // Geometry/trajectory: equality-usable only (serialized bytes carry
      // no meaningful order), but entries stay well-formed and prefix-free.
      out.push_back('\x06');
      std::string raw;
      value.SerializeTo(&raw);
      AppendEscapedTerminated(&out, raw);
      return out;
    }
  }
}

obs::Counter* IdxLookupsCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_idx_lookups_total");
  return c;
}

obs::Counter* IdxEntriesWrittenCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_idx_entries_written_total");
  return c;
}

obs::Counter* IdxIntersectionsCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("just_idx_intersections_total");
  return c;
}

/// RegionCluster::Scan's consumer for StTable: per server, KV pairs decode
/// straight from the backend's views into that server's own batches. Each
/// batch runs its two phases when it fills (and at the end of the server's
/// scan): refine plus residual over the early columns, then the late
/// columns for survivors, re-read from the batch's arena of row bytes. The
/// split also runs inside a trajectory cell: refinement reads its summary,
/// and only survivors decompress and decode the GPS list.
class BatchSink : public cluster::RegionCluster::ScanSink {
 public:
  struct Plan {
    std::shared_ptr<exec::Schema> schema;
    const BatchRowDecoder* decoder;
    ColumnMask early;  ///< decoded per row; empty: every column
    ColumnMask late;   ///< decoded for survivors
    std::vector<size_t> late_columns;
    std::vector<size_t> skipped;  ///< never decoded: NULL in the output
    /// An st_series column refinement reads through its summary alone
    /// (-1: none). The early phase decodes it summary-only; the late phase
    /// decodes a survivor's cell in full when the column is kept (it is then
    /// in `late`), and every other row's cell is NULL.
    int summary_column = -1;
    std::function<void(exec::ColumnBatch*)> refine;
    std::function<Status(exec::ColumnBatch*)> residual;
    size_t limit = 0;
    size_t batch_cap = exec::kBatchRows;
    int fid_offset = 0;
    const FidSet* skip_fids = nullptr;
  };

  /// One server's output and counters; only its own task writes them,
  /// except the two LIMIT fields other tasks read.
  struct Server {
    exec::BatchVector batches;
    exec::ColumnBatch current;
    std::string arena;               ///< current batch's row bytes
    std::vector<size_t> row_ends;    ///< end of each row in `arena`
    size_t scanned = 0, matched = 0, bytes = 0, late_rows = 0;
    Status error;
    std::atomic<size_t> published{0};  ///< `matched` as of the last flush
    std::atomic<bool> finished{false};
  };

  BatchSink(Plan plan, size_t num_servers)
      : plan_(std::move(plan)), servers_(num_servers) {
    for (Server& s : servers_) s.current = exec::ColumnBatch(plan_.schema);
  }

  bool Accept(int server, size_t, std::string_view key,
              std::string_view value) override {
    Server& s = servers_[static_cast<size_t>(server)];
    ++s.scanned;
    s.bytes += key.size() + value.size();
    if (plan_.skip_fids != nullptr &&
        key.size() > static_cast<size_t>(plan_.fid_offset) &&
        plan_.skip_fids->contains(key.substr(plan_.fid_offset))) {
      return true;  // already delivered by an earlier expansion area
    }
    s.error = plan_.decoder->DecodeColumns(value, plan_.early, &s.current,
                                           plan_.summary_column);
    if (!s.error.ok()) return false;
    if (!plan_.late_columns.empty()) {
      s.arena.append(value);
      s.row_ends.push_back(s.arena.size());
    }
    s.current.FinishRow();
    if (s.current.num_rows() < plan_.batch_cap) return true;
    s.error = Flush(&s);
    if (!s.error.ok()) return false;
    s.current = exec::ColumnBatch(plan_.schema);
    return plan_.limit == 0 || !Publish(&s);
  }

  Status Finish(int server) override {
    Server& s = servers_[static_cast<size_t>(server)];
    if (s.error.ok()) s.error = Flush(&s);
    s.finished.store(true, std::memory_order_release);
    if (plan_.limit > 0) Publish(&s);
    return s.error;
  }

  std::atomic<bool>* stop() { return &stop_; }
  std::vector<Server>& servers() { return servers_; }
  const std::vector<size_t>& late_columns() const {
    return plan_.late_columns;
  }

 private:
  /// Runs both phases over the current batch and moves it to the output
  /// when any row survives. Refinement and the residual read only early
  /// columns, so the others may stay empty until then.
  Status Flush(Server* s) {
    exec::ColumnBatch& batch = s->current;
    const size_t n = batch.num_rows();
    if (n == 0) return Status::OK();
    if (plan_.refine) plan_.refine(&batch);
    if (plan_.residual) JUST_RETURN_NOT_OK(plan_.residual(&batch));
    // The summary-only values served refinement; the column starts over.
    std::optional<exec::ColumnVector> summaries;
    if (plan_.summary_column >= 0) {
      exec::ColumnVector& col =
          batch.column(static_cast<size_t>(plan_.summary_column));
      summaries.emplace(
          std::exchange(col, exec::ColumnVector(col.declared_type())));
    }
    if (!plan_.late_columns.empty()) {
      const bool kept = summaries.has_value() &&
                        plan_.late[static_cast<size_t>(plan_.summary_column)];
      JUST_RETURN_NOT_OK(DecodeLate(s, kept ? &*summaries : nullptr));
    }
    for (size_t c : plan_.skipped) batch.column(c).AppendNulls(n);
    s->matched += batch.num_active();
    if (batch.num_active() > 0) s->batches.push_back(std::move(batch));
    return Status::OK();
  }

  /// Phase 2: the late columns of the surviving rows, from the arena;
  /// dropped rows stay NULL. `summaries` holds the kept summary column's
  /// early values: a survivor's summary-only trajectory is decoded in full,
  /// and any other value (NULL, or a cell of another type) is carried over.
  Status DecodeLate(Server* s, const exec::ColumnVector* summaries) {
    exec::ColumnBatch& batch = s->current;
    const size_t n = batch.num_rows();
    const std::string_view arena(s->arena);
    ColumnMask late_rest;  // `late` without the carried-over summary column
    if (summaries != nullptr) {
      late_rest = plan_.late;
      late_rest[static_cast<size_t>(plan_.summary_column)] = false;
    }
    size_t filled = 0;  // physical rows the late columns hold so far
    auto decode = [&](uint32_t row) -> Status {
      if (row > filled) {
        for (size_t c : plan_.late_columns) {
          batch.column(c).AppendNulls(row - filled);
        }
      }
      const size_t begin = row == 0 ? 0 : s->row_ends[row - 1];
      filled = row + 1;
      const ColumnMask* mask = &plan_.late;
      if (summaries != nullptr) {
        const exec::Value& v = summaries->ObjectAt(row);
        if (v.type() != exec::DataType::kTrajectory ||
            v.trajectory_value() == nullptr ||
            !v.trajectory_value()->summary_only()) {
          batch.column(static_cast<size_t>(plan_.summary_column))
              .AppendValue(v);
          mask = &late_rest;
        }
      }
      return plan_.decoder->DecodeColumns(
          arena.substr(begin, s->row_ends[row] - begin), *mask, &batch);
    };
    if (batch.has_selection()) {
      for (uint32_t row : batch.selection()) JUST_RETURN_NOT_OK(decode(row));
    } else {
      for (uint32_t row = 0; row < n; ++row) JUST_RETURN_NOT_OK(decode(row));
    }
    if (n > filled) {
      for (size_t c : plan_.late_columns) {
        batch.column(c).AppendNulls(n - filled);
      }
    }
    s->late_rows += batch.num_active();
    s->arena.clear();
    s->row_ends.clear();
    return Status::OK();
  }

  /// LIMIT: publishes this server's survivors and stops every server once
  /// the servers up to the first unfinished one already hold `limit` rows —
  /// their output, in server order, then starts with the answer. Returns
  /// true when this server has enough on its own and should stop.
  bool Publish(Server* s) {
    s->published.store(s->matched, std::memory_order_release);
    size_t total = 0;
    for (const Server& other : servers_) {
      total += other.published.load(std::memory_order_acquire);
      if (total >= plan_.limit) {
        stop_.store(true, std::memory_order_relaxed);
        break;
      }
      if (!other.finished.load(std::memory_order_acquire)) break;
    }
    return s->matched >= plan_.limit;
  }

  Plan plan_;
  std::vector<Server> servers_;
  std::atomic<bool> stop_{false};
};
}  // namespace

StTable::StTable(meta::TableMeta meta, cluster::RegionCluster* cluster,
                 const curve::IndexOptions& index_options)
    : meta_(std::move(meta)), cluster_(cluster) {
  for (const meta::IndexConfig& config : meta_.indexes) {
    curve::IndexOptions options = index_options;
    options.period_len_ms = config.period_len_ms;
    strategies_.push_back(curve::IndexStrategy::Create(config.type, options));
  }
  fid_col_ = meta_.ColumnIndex(meta_.fid_column);
  geom_col_ = meta_.ColumnIndex(meta_.geom_column);
  time_col_ = meta_.ColumnIndex(meta_.time_column);
}

std::string StTable::IndexPrefix(uint64_t table_id, size_t index_slot) {
  std::string prefix;
  PutFixed32BE(&prefix, static_cast<uint32_t>(table_id));
  prefix.push_back(static_cast<char>(index_slot));
  return prefix;
}

std::string StTable::WrapKey(size_t index_slot,
                             std::string_view strategy_key) const {
  std::string key;
  key.push_back(strategy_key[0]);  // shard byte stays first for routing
  key += IndexPrefix(index_slot);
  key.append(strategy_key.data() + 1, strategy_key.size() - 1);
  return key;
}

std::vector<curve::KeyRange> StTable::WrapRanges(
    size_t index_slot, std::vector<curve::KeyRange> ranges) const {
  for (curve::KeyRange& range : ranges) {
    range.start = WrapKey(index_slot, range.start);
    range.end = WrapKey(index_slot, range.end);
  }
  return ranges;
}

std::vector<curve::KeyRange> StTable::SlotRanges(uint64_t table_id,
                                                 size_t index_slot,
                                                 int num_shards) {
  std::vector<curve::KeyRange> ranges;
  const std::string prefix = IndexPrefix(table_id, index_slot);
  // Successor of the 5-byte prefix: bump the index-slot byte.
  std::string end_prefix = prefix;
  end_prefix.back() = static_cast<char>(end_prefix.back() + 1);
  for (int shard = 0; shard < num_shards; ++shard) {
    curve::KeyRange range;
    range.start.push_back(static_cast<char>(shard));
    range.start += prefix;
    range.end.push_back(static_cast<char>(shard));
    range.end += end_prefix;
    ranges.push_back(std::move(range));
  }
  return ranges;
}

Result<curve::RecordRef> StTable::MakeRecordRef(const exec::Row& row) const {
  curve::RecordRef ref;
  if (fid_col_ >= 0 && !row[fid_col_].is_null()) {
    ref.fid = row[fid_col_].ToString();
  }
  if (geom_col_ < 0) {
    return Status::InvalidArgument("table " + meta_.name +
                                   " has no geometry column");
  }
  const exec::Value& g = row[geom_col_];
  if (g.type() == exec::DataType::kGeometry) {
    ref.mbr = g.geometry_value().Bounds();
  } else if (g.type() == exec::DataType::kTrajectory &&
             g.trajectory_value() != nullptr) {
    ref.mbr = g.trajectory_value()->Bounds();
    ref.t_min = g.trajectory_value()->start_time();
    ref.t_max = g.trajectory_value()->end_time();
  } else {
    return Status::InvalidArgument("row has no geometry value");
  }
  // A table with a time column keys by it; a row with no time there keys
  // at time 0, in the period a window open below reaches (RefineBatch
  // keeps it for such a window only).
  if (time_col_ >= 0) {
    const exec::Value& t = row[time_col_];
    ref.t_min = t.type() == exec::DataType::kTimestamp ? t.timestamp_value()
                                                       : 0;
    if (ref.t_max < ref.t_min) ref.t_max = ref.t_min;
  }
  return ref;
}

Status StTable::AppendWriteOps(const exec::Row& row, bool delete_instead,
                               std::vector<kv::WriteOp>* ops) const {
  JUST_ASSIGN_OR_RETURN(auto ref, MakeRecordRef(row));
  std::string value;
  if (!delete_instead) {
    JUST_ASSIGN_OR_RETURN(value, EncodeRow(meta_, row));
  }
  for (size_t slot = 0; slot < strategies_.size(); ++slot) {
    std::string key = WrapKey(slot, strategies_[slot]->EncodeKey(ref));
    ops->push_back(kv::WriteOp{std::move(key), value, delete_instead});
  }
  // Secondary indexes (keys: see SecondaryKey), with the covering row as
  // the value. Ops for a `building` index are mirrored into the build's
  // catch-up journal *before* the storage write (see IndexBuildJournal).
  for (const meta::SecondaryIndexDef& def : meta_.secondary_indexes) {
    int col = meta_.ColumnIndex(def.column);
    if (col < 0) continue;
    ops->push_back(kv::WriteOp{SecondaryKey(def.slot, row[col], ref.fid),
                               value, delete_instead});
    IdxEntriesWrittenCounter()->Add(1);
  }
  return Status::OK();
}

void StTable::MirrorOpsToBuildJournals(
    const std::vector<kv::WriteOp>& ops) const {
  if (build_journals_.empty()) return;
  for (const meta::SecondaryIndexDef& def : meta_.secondary_indexes) {
    if (def.state != meta::IndexState::kBuilding) continue;
    auto it = build_journals_.find(def.name);
    if (it == build_journals_.end()) continue;
    std::string prefix = IndexPrefix(def.slot);
    for (const kv::WriteOp& op : ops) {
      if (op.key.size() > prefix.size() &&
          op.key.compare(1, prefix.size(), prefix) == 0) {
        it->second->Append(op);
      }
    }
  }
}

Result<kv::WriteOp> StTable::MakeSecondaryEntryOp(
    const meta::SecondaryIndexDef& def, const exec::Row& row,
    bool delete_instead) const {
  JUST_ASSIGN_OR_RETURN(auto ref, MakeRecordRef(row));
  int col = meta_.ColumnIndex(def.column);
  if (col < 0) {
    return Status::InvalidArgument("index column not in table: " + def.column);
  }
  std::string value;
  if (!delete_instead) {
    JUST_ASSIGN_OR_RETURN(value, EncodeRow(meta_, row));
  }
  return kv::WriteOp{SecondaryKey(def.slot, row[col], ref.fid),
                     std::move(value), delete_instead};
}

std::string StTable::SecondaryKey(size_t index_slot, const exec::Value& value,
                                  const std::string& fid) const {
  const int shard = strategies_.empty() ? 0 : strategies_[0]->ShardOf(fid);
  std::string key(1, static_cast<char>(shard));
  key += IndexPrefix(index_slot);
  key += EncodeOrderedAttrKeyPart(value);
  key += fid;
  return key;
}

Status StTable::WriteKeys(const exec::Row& row, bool delete_instead) {
  std::vector<kv::WriteOp> ops;
  JUST_RETURN_NOT_OK(AppendWriteOps(row, delete_instead, &ops));
  MirrorOpsToBuildJournals(ops);
  return cluster_->WriteBatch(std::move(ops));
}

Result<exec::BatchVector> StTable::ScanRangesToBatches(
    const std::vector<curve::KeyRange>& ranges,
    const std::function<void(exec::ColumnBatch*)>& refine,
    const std::vector<int>& refine_columns, QueryStats* stats,
    const ScanBudget* pushdown, int fid_offset, const FidSet* skip_fids,
    bool record_counters) const {
  const size_t num_columns = meta_.columns.size();
  BatchRowDecoder decoder(meta_);
  BatchSink::Plan plan;
  plan.schema = meta_.MakeSchema();
  plan.decoder = &decoder;
  plan.refine = refine;
  plan.fid_offset = fid_offset;
  plan.skip_fids = skip_fids;
  if (pushdown != nullptr) {
    // Early: what refinement and the residual read. Late: the other kept
    // columns. The rest are never decoded.
    auto has = [](const ColumnMask& mask, size_t c) {
      return mask.empty() || mask[c];
    };
    ColumnMask early(num_columns, false);
    for (int c : refine_columns) {
      if (c >= 0) early[static_cast<size_t>(c)] = true;
    }
    ColumnMask late(num_columns, false);
    for (size_t c = 0; c < num_columns; ++c) {
      const bool residual =
          pushdown->residual && has(pushdown->residual_columns, c);
      if (residual) early[c] = true;
      // A trajectory geometry only refinement reads is early as its
      // summary: its cells decode in full only late.
      const bool summary =
          static_cast<int>(c) == geom_col_ && early[c] && !residual &&
          meta_.columns[c].type == exec::DataType::kTrajectory;
      if (summary) plan.summary_column = geom_col_;
      if (early[c] && !summary) continue;
      if (has(pushdown->projected, c)) {
        late[c] = true;
        plan.late_columns.push_back(c);
      } else {
        plan.skipped.push_back(c);
      }
    }
    if (!plan.late_columns.empty() || !plan.skipped.empty()) {
      plan.early = std::move(early);
    }
    plan.late = std::move(late);
    plan.residual = pushdown->residual;
    plan.limit = pushdown->limit;
  }
  // Limited scans flush (and re-check the limit) on smaller batches so a
  // tiny LIMIT stops within ~one batch per server instead of 4096 rows.
  if (plan.limit > 0) {
    plan.batch_cap =
        std::min<size_t>(exec::kBatchRows, std::max<size_t>(plan.limit, 512));
  }
  BatchSink sink(std::move(plan), static_cast<size_t>(cluster_->num_servers()));
  JUST_RETURN_NOT_OK(cluster_->Scan(ranges, &sink, sink.stop()));
  exec::BatchVector batches;
  size_t scanned = 0, matched = 0, bytes = 0, late_rows = 0;
  for (BatchSink::Server& server : sink.servers()) {
    scanned += server.scanned;
    matched += server.matched;
    bytes += server.bytes;
    late_rows += server.late_rows;
    for (exec::ColumnBatch& batch : server.batches) {
      batches.push_back(std::move(batch));
    }
  }
  if (stats != nullptr) {
    stats->key_ranges += ranges.size();
    stats->rows_scanned += scanned;
    stats->rows_matched += matched;
    stats->bytes_scanned += bytes;
  }
  if (record_counters) {
    RecordQueryCounters(ranges.size(), scanned, matched, late_rows);
    const auto& late = sink.late_columns();
    if (!late.empty() && obs::CurrentSpan() != nullptr) {
      std::string names;
      for (size_t c : late) {
        names += (names.empty() ? "" : ",") + meta_.columns[c].name;
      }
      obs::CurrentSpan()->AddAttr("late", names);
    }
  }
  return batches;
}

std::vector<curve::KeyRange> StTable::SecondaryIndexRanges(
    const meta::SecondaryIndexDef& def, const AttrBound& lower,
    const AttrBound& upper) const {
  std::string prefix = IndexPrefix(def.slot);
  std::vector<curve::KeyRange> ranges;
  for (int shard = 0; shard < num_shards(); ++shard) {
    std::string base(1, static_cast<char>(shard));
    base += prefix;
    curve::KeyRange range;
    if (lower.present) {
      std::string start = base + EncodeOrderedAttrKeyPart(lower.value);
      // Exclusive lower: skip every entry whose value-part equals the bound.
      range.start = lower.inclusive ? start : PrefixSuccessor(start);
    } else {
      range.start = base;
    }
    if (upper.present) {
      std::string end = base + EncodeOrderedAttrKeyPart(upper.value);
      range.end = upper.inclusive ? PrefixSuccessor(end) : end;
    } else {
      range.end = PrefixSuccessor(base);
    }
    if (!range.end.empty() && range.start < range.end) {
      ranges.push_back(std::move(range));
    }
  }
  return ranges;
}

Result<exec::BatchVector> StTable::SecondaryIndexScan(
    const meta::SecondaryIndexDef& def, const QuerySpec& spec,
    QueryStats* stats, const ScanBudget* pushdown) const {
  int col = meta_.ColumnIndex(def.column);
  if (col < 0) {
    return Status::InvalidArgument("index column not in table: " + def.column);
  }
  const AttrBound& lower = spec.lower;
  const AttrBound& upper = spec.upper;
  auto ranges = SecondaryIndexRanges(def, lower, upper);
  IdxLookupsCounter()->Add(1);
  if (spec.have_box || spec.have_time) IdxIntersectionsCounter()->Add(1);
  // Exact recheck of the attribute bounds on the decoded (covering) rows —
  // the numeric key encoding may admit boundary neighbors — composed with
  // spatio-temporal refinement when this is the intersection path.
  auto refine = [this, col, &spec, &lower,
                 &upper](exec::ColumnBatch* batch) {
    if (spec.have_box || spec.have_time) {
      RefineBatch(batch, spec.have_box ? &spec.box : nullptr, spec.have_time,
                  spec.t_min, spec.t_max);
    }
    if (batch->num_rows() == 0) return;
    const exec::ColumnVector& c = batch->column(static_cast<size_t>(col));
    std::vector<uint32_t> sel;
    sel.reserve(batch->num_active());
    auto in_bounds = [&](uint32_t row) {
      exec::Value v = c.ValueAt(row);
      if (lower.present) {
        int cmp = v.Compare(lower.value);
        if (cmp < 0 || (cmp == 0 && !lower.inclusive)) return false;
      }
      if (upper.present) {
        int cmp = v.Compare(upper.value);
        if (cmp > 0 || (cmp == 0 && !upper.inclusive)) return false;
      }
      return true;
    };
    if (batch->has_selection()) {
      for (uint32_t row : batch->selection()) {
        if (in_bounds(row)) sel.push_back(row);
      }
    } else {
      for (uint32_t row = 0; row < batch->num_rows(); ++row) {
        if (in_bounds(row)) sel.push_back(row);
      }
    }
    batch->SetSelection(std::move(sel));
  };
  std::vector<int> read = RefineColumns(spec.have_box, spec.have_time);
  read.push_back(col);
  return ScanRangesToBatches(ranges, refine, read, stats, pushdown,
                             /*fid_offset=*/0, /*skip_fids=*/nullptr,
                             /*record_counters=*/true);
}

Result<size_t> StTable::SecondaryIndexProbe(const meta::SecondaryIndexDef& def,
                                            const AttrBound& lower,
                                            const AttrBound& upper,
                                            size_t limit) const {
  auto ranges = SecondaryIndexRanges(def, lower, upper);
  IdxLookupsCounter()->Add(1);
  // Counts entries across the servers' concurrent scans; the first to
  // reach `limit` stops them all.
  class CountSink : public cluster::RegionCluster::ScanSink {
   public:
    explicit CountSink(size_t limit) : limit_(limit) {}
    bool Accept(int, size_t, std::string_view, std::string_view) override {
      if (count_.fetch_add(1, std::memory_order_relaxed) + 1 < limit_) {
        return true;
      }
      stop_.store(true, std::memory_order_relaxed);
      return false;
    }
    size_t count() const { return std::min(count_.load(), limit_); }
    std::atomic<bool>* stop() { return &stop_; }

   private:
    const size_t limit_;
    std::atomic<size_t> count_{0};
    std::atomic<bool> stop_{false};
  };
  if (limit == 0) return size_t{0};
  CountSink sink(limit);
  JUST_RETURN_NOT_OK(cluster_->Scan(ranges, &sink, sink.stop()));
  return sink.count();
}

Status StTable::Insert(const exec::Row& row) {
  if (strategies_.empty()) {
    return Status::InvalidArgument("table " + meta_.name + " has no indexes");
  }
  return WriteKeys(row, /*delete_instead=*/false);
}

Status StTable::InsertBatch(const std::vector<exec::Row>& rows) {
  return InsertBatchImpl(rows, /*stream=*/false);
}

Status StTable::InsertBatchStream(const std::vector<exec::Row>& rows) {
  return InsertBatchImpl(rows, /*stream=*/true);
}

Status StTable::InsertBatchImpl(const std::vector<exec::Row>& rows,
                                bool stream) {
  if (strategies_.empty()) {
    return Status::InvalidArgument("table " + meta_.name + " has no indexes");
  }
  std::vector<kv::WriteOp> ops;
  const std::string_view tenant =
      stream ? std::string_view(meta_.user) : std::string_view();
  auto commit = [&](std::vector<kv::WriteOp> chunk) -> Status {
    MirrorOpsToBuildJournals(chunk);
    return cluster_->WriteBatch(std::move(chunk), tenant);
  };
  for (const exec::Row& row : rows) {
    JUST_RETURN_NOT_OK(AppendWriteOps(row, /*delete_instead=*/false, &ops));
    if (ops.size() >= kMaxOpsPerBatch) {
      JUST_RETURN_NOT_OK(commit(std::move(ops)));
      ops.clear();
    }
  }
  return commit(std::move(ops));
}

Status StTable::Remove(const exec::Row& row) {
  return WriteKeys(row, /*delete_instead=*/true);
}

Status StTable::Replace(const exec::Row& old_row, const exec::Row& new_row) {
  std::vector<kv::WriteOp> ops;
  JUST_RETURN_NOT_OK(AppendWriteOps(new_row, /*delete_instead=*/false, &ops));
  // Tombstone only the old entries the new row does not overwrite, so the
  // batch is correct regardless of per-key application order within it.
  std::unordered_set<std::string> new_keys;
  new_keys.reserve(ops.size());
  for (const kv::WriteOp& op : ops) new_keys.insert(op.key);
  std::vector<kv::WriteOp> old_ops;
  JUST_RETURN_NOT_OK(
      AppendWriteOps(old_row, /*delete_instead=*/true, &old_ops));
  for (kv::WriteOp& op : old_ops) {
    if (new_keys.count(op.key) == 0) ops.push_back(std::move(op));
  }
  MirrorOpsToBuildJournals(ops);
  return cluster_->WriteBatch(std::move(ops));
}

Result<const curve::IndexStrategy*> StTable::PickIndex(bool temporal) const {
  if (strategies_.empty()) {
    return Status::InvalidArgument("table " + meta_.name + " has no indexes");
  }
  // Exact category first; otherwise any index can answer (with weaker
  // filtering).
  for (const auto& strategy : strategies_) {
    if (curve::IsSpatioTemporal(strategy->type()) == temporal) {
      return strategy.get();
    }
  }
  return strategies_.front().get();
}

std::vector<int> StTable::RefineColumns(bool have_box, bool temporal) const {
  std::vector<int> read;
  if (have_box || (temporal && time_col_ < 0)) read.push_back(geom_col_);
  if (temporal) read.push_back(time_col_);
  return read;
}

void StTable::RefineBatch(exec::ColumnBatch* batch, const geo::Mbr* box,
                          bool temporal, TimestampMs t_min,
                          TimestampMs t_max) const {
  using Storage = exec::ColumnVector::Storage;
  const exec::ColumnVector* tcol =
      temporal && time_col_ >= 0
          ? &batch->column(static_cast<size_t>(time_col_))
          : nullptr;
  // Geometry and trajectory cells live in object storage; a non-object
  // geometry column means runtime values of a non-geometry type, which the
  // refinement passes through (same as the row-at-a-time check).
  const exec::ColumnVector* gcol =
      geom_col_ >= 0 && (box != nullptr || (temporal && tcol == nullptr))
          ? &batch->column(static_cast<size_t>(geom_col_))
          : nullptr;
  if (gcol != nullptr && gcol->storage() != Storage::kObject) gcol = nullptr;
  const bool t_typed = tcol != nullptr && tcol->storage() == Storage::kInt64 &&
                       tcol->declared_type() == exec::DataType::kTimestamp;
  const int64_t* t_data = t_typed ? tcol->i64_data() : nullptr;
  // A NULL time sorts first: it passes an upper bound, never a lower one.
  const bool open_below = t_min == INT64_MIN;
  const exec::Value lo = exec::Value::Timestamp(t_min);
  const exec::Value hi = exec::Value::Timestamp(t_max);

  std::vector<uint32_t> sel;
  sel.reserve(batch->num_rows());
  for (uint32_t row = 0; row < batch->num_rows(); ++row) {
    // Exact refinement (contained ranges still need the time check for
    // extent indexes; cheap relative to decode).
    bool keep = true;
    const traj::Trajectory* traj = nullptr;
    if (gcol != nullptr) {
      const exec::Value& g = gcol->ObjectAt(row);
      if (g.type() == exec::DataType::kGeometry) {
        keep = box == nullptr || g.geometry_value().Within(*box);
      } else if (g.type() == exec::DataType::kTrajectory &&
                 g.trajectory_value() != nullptr) {
        traj = g.trajectory_value().get();
        keep = box == nullptr || box->Intersects(traj->Bounds());
      }
    }
    if (keep && temporal) {
      if (t_typed) {
        keep = tcol->IsNull(row)
                   ? open_below
                   : t_data[row] >= t_min && t_data[row] <= t_max;
      } else if (tcol != nullptr) {
        // Cells of another type compare as SQL compares them.
        const exec::Value t = tcol->ValueAt(row);
        keep = (open_below || t.Compare(lo) >= 0) && t.Compare(hi) <= 0;
      } else {
        // No time column: a trajectory's start time, else time 0.
        const TimestampMs t = traj != nullptr ? traj->start_time() : 0;
        keep = t >= t_min && t <= t_max;
      }
    }
    if (keep) sel.push_back(row);
  }
  batch->SetSelection(std::move(sel));
}

Result<exec::BatchVector> StTable::Query(const QuerySpec& spec,
                                         QueryStats* stats,
                                         const ScanBudget* pushdown) const {
  switch (spec.kind) {
    case QuerySpec::Kind::kKnn:
      return KnnScan(spec.knn_query, spec.knn_k, stats);
    case QuerySpec::Kind::kSpatialRange:
      return CurveRangeScan(&spec.box, /*temporal=*/false, 0, 0, stats,
                            /*skip_fids=*/nullptr, pushdown);
    case QuerySpec::Kind::kStRange:
      return CurveRangeScan(spec.have_box ? &spec.box : nullptr,
                            /*temporal=*/true, spec.t_min, spec.t_max, stats,
                            /*skip_fids=*/nullptr, pushdown);
    case QuerySpec::Kind::kSecondaryIndex:
    case QuerySpec::Kind::kIndexIntersection: {
      const meta::SecondaryIndexDef* def =
          meta_.ReadySecondaryIndexOn(spec.index_column);
      if (def == nullptr) {
        return Status::NotFound("no ready secondary index on column: " +
                                spec.index_column);
      }
      return SecondaryIndexScan(*def, spec, stats, pushdown);
    }
    case QuerySpec::Kind::kFullScan:
      return FullScanBatches(stats, pushdown);
  }
  return Status::Internal("bad query kind");
}

Result<exec::BatchVector> StTable::CurveRangeScan(
    const geo::Mbr* box, bool temporal, TimestampMs t_min, TimestampMs t_max,
    QueryStats* stats, const FidSet* skip_fids,
    const ScanBudget* pushdown) const {
  JUST_ASSIGN_OR_RETURN(const curve::IndexStrategy* strategy,
                        PickIndex(temporal));
  size_t slot = 0;
  for (size_t i = 0; i < strategies_.size(); ++i) {
    if (strategies_[i].get() == strategy) slot = i;
  }
  // Without time bounds a time-aware index spans every period: its
  // QueryRanges then reads one range per shard.
  std::vector<curve::KeyRange> ranges = WrapRanges(
      slot, strategy->QueryRanges(box != nullptr ? *box : geo::Mbr::World(),
                                  temporal ? t_min : INT64_MIN,
                                  temporal ? t_max : INT64_MAX));
  auto refine = [this, box, temporal, t_min, t_max](exec::ColumnBatch* b) {
    RefineBatch(b, box, temporal, t_min, t_max);
  };
  // Table/index prefix (5 bytes) is spliced in after the shard byte.
  return ScanRangesToBatches(ranges, refine,
                             RefineColumns(box != nullptr, temporal), stats,
                             pushdown,
                             strategy->FidOffset() + 5, skip_fids,
                             /*record_counters=*/true);
}

Result<exec::BatchVector> StTable::KnnScan(const geo::Point& q, int k,
                                           QueryStats* stats) const {
  // Algorithm 1. cq: max-heap of (distance, row) keeping the k nearest;
  // aq: min-heap of areas ordered by dA(q, a) (Eq. 4). Candidates are read
  // straight off the scanned batches; only rows entering cq materialize.
  struct Candidate {
    double dist;
    exec::Row row;
    bool operator<(const Candidate& o) const { return dist < o.dist; }
  };
  std::priority_queue<Candidate> cq;  // top = farthest kept
  struct Area {
    double dist;
    geo::Mbr box;
    bool operator<(const Area& o) const { return dist > o.dist; }  // min-heap
  };
  std::priority_queue<Area> aq;
  aq.push(Area{0.0, geo::Mbr::World()});
  double dmax = 0;
  FidSet seen_fids;
  // Degenerate-input guard: when k approaches the table size the expansion
  // cannot prune and would enumerate the whole quadtree; fall back to a
  // sequential scan after a bounded number of area queries.
  constexpr size_t kMaxAreaQueries = 1024;
  size_t area_queries = 0;

  // Offers every active row of `batches` to cq. Area rows (`track_dmax`)
  // join seen_fids and move dmax; fallback rows skip fids already seen.
  auto offer_all = [&](const exec::BatchVector& batches, bool track_dmax) {
    std::vector<uint32_t> all_rows;
    for (const exec::ColumnBatch& batch : batches) {
      const exec::ColumnVector* fcol =
          fid_col_ >= 0 ? &batch.column(static_cast<size_t>(fid_col_))
                        : nullptr;
      const exec::ColumnVector* gcol =
          geom_col_ >= 0 ? &batch.column(static_cast<size_t>(geom_col_))
                         : nullptr;
      if (gcol != nullptr &&
          gcol->storage() != exec::ColumnVector::Storage::kObject) {
        gcol = nullptr;  // non-geometry runtime values: distance 0
      }
      const std::vector<uint32_t>* rows = &batch.selection();
      if (!batch.has_selection()) {
        all_rows.resize(batch.num_rows());
        for (uint32_t r = 0; r < all_rows.size(); ++r) all_rows[r] = r;
        rows = &all_rows;
      }
      const bool fid_strings =
          fcol != nullptr &&
          fcol->storage() == exec::ColumnVector::Storage::kString;
      std::string rendered;  // a non-string fid's text
      for (uint32_t row : *rows) {
        std::string_view fid;
        if (fid_strings && !fcol->IsNull(row)) {
          fid = fcol->StringAt(row);
        } else if (fcol != nullptr) {
          rendered = fcol->ValueAt(row).ToString();
          fid = rendered;
        }
        if (!fid.empty()) {
          if (track_dmax ? !seen_fids.emplace(fid).second
                         : seen_fids.contains(fid)) {
            continue;
          }
        }
        double dist = 0;
        if (gcol != nullptr) {
          const exec::Value& g = gcol->ObjectAt(row);
          if (g.type() == exec::DataType::kGeometry) {
            dist = g.geometry_value().Distance(q);
          } else if (g.type() == exec::DataType::kTrajectory &&
                     g.trajectory_value() != nullptr) {
            dist = g.trajectory_value()->Bounds().MinDistance(q);
          }
        }
        if (static_cast<int>(cq.size()) < k) {
          cq.push(Candidate{dist, batch.MaterializeRow(row)});
        } else if (dist < cq.top().dist) {
          cq.pop();
          cq.push(Candidate{dist, batch.MaterializeRow(row)});
        } else {
          continue;
        }
        if (track_dmax) dmax = cq.top().dist;
      }
    }
  };

  while (!aq.empty()) {
    Area a = aq.top();
    aq.pop();
    if (static_cast<int>(cq.size()) == k && a.dist > dmax) {
      break;  // Lemma 1: area pruning
    }
    if (area_queries >= kMaxAreaQueries) {
      JUST_ASSIGN_OR_RETURN(auto all, FullScanBatches(stats, nullptr));
      offer_all(all, /*track_dmax=*/false);
      break;
    }
    if (a.box.Width() > kMinKnnAreaDeg || a.box.Height() > kMinKnnAreaDeg) {
      double lng_mid = (a.box.lng_min + a.box.lng_max) / 2;
      double lat_mid = (a.box.lat_min + a.box.lat_max) / 2;
      geo::Mbr children[4] = {
          {a.box.lng_min, a.box.lat_min, lng_mid, lat_mid},
          {lng_mid, a.box.lat_min, a.box.lng_max, lat_mid},
          {a.box.lng_min, lat_mid, lng_mid, a.box.lat_max},
          {lng_mid, lat_mid, a.box.lng_max, a.box.lat_max},
      };
      for (const geo::Mbr& child : children) {
        aq.push(Area{child.MinDistance(q), child});
      }
      continue;
    }
    ++area_queries;
    JUST_ASSIGN_OR_RETURN(
        auto partial, CurveRangeScan(&a.box, /*temporal=*/false, 0, 0, stats,
                                     &seen_fids, /*pushdown=*/nullptr));
    offer_all(partial, /*track_dmax=*/true);
  }

  std::vector<exec::Row> rows;
  rows.reserve(cq.size());
  while (!cq.empty()) {
    rows.push_back(cq.top().row);
    cq.pop();
  }
  std::reverse(rows.begin(), rows.end());  // nearest first
  auto schema = meta_.MakeSchema();
  exec::BatchVector out;
  for (exec::Row& row : rows) {
    if (out.empty() || out.back().num_rows() >= exec::kBatchRows) {
      out.emplace_back(schema);
    }
    out.back().AppendRow(std::move(row));
  }
  return out;
}

Result<exec::BatchVector> StTable::FullScanBatches(
    QueryStats* stats, const ScanBudget* pushdown) const {
  if (strategies_.empty()) {
    return Status::InvalidArgument("table " + meta_.name + " has no indexes");
  }
  // Internal full scans (k-NN's fallback, the catalog's rebuilds) stay
  // counter-silent; query scans record what they read.
  return ScanRangesToBatches(SlotRanges(meta_.table_id, 0, num_shards()),
                             /*refine=*/nullptr, {}, stats, pushdown,
                             /*fid_offset=*/0, /*skip_fids=*/nullptr,
                             /*record_counters=*/pushdown != nullptr);
}

}  // namespace just::core
