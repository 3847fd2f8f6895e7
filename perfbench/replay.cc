// The traced replay: one query op re-run step by step through each layer's
// public entry points, with a span around every call. The steps mirror
// sql::Executor's columnar scan path and core::StTable's scan core; the
// caller checks that a replay fetches exactly the rows the engine op
// fetched (QueryStats::rows_scanned), so the spans describe the program.

#include <algorithm>
#include <fstream>
#include <queue>
#include <unordered_set>

#include "common/bytes.h"
#include "compress/codec.h"
#include "core/row_codec.h"
#include "exec/column_batch.h"
#include "perfbench.h"
#include "sql/access_path.h"
#include "sql/analyzer.h"
#include "sql/executor.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/predicate_program.h"

namespace just::perfbench {

// --- Tracer ---------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), index_(tracer->Open(name)) {}

Tracer::Scope::~Scope() { tracer_->Close(index_); }

size_t Tracer::Open(const std::string& name) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.request = current_request_;
  s.name = name;
  s.start_ns = WallNs();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::Close(size_t index) {
  spans_[index].end_ns = WallNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

uint64_t Tracer::BeginRequest(const std::string& name) {
  current_request_ = next_request_++;
  Open(name);
  return current_request_;
}

void Tracer::EndRequest() {
  if (!open_.empty()) Close(open_.back());
  open_.clear();
  current_request_ = 0;
}

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      children[s.parent - 1].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the span.
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write trace file " + path);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

// --- Engine op with visible stats ------------------------------------------

Result<exec::DataFrame> ExecuteWithStats(Deployment* d, const std::string& sql,
                                         core::QueryStats* stats) {
  JUST_ASSIGN_OR_RETURN(auto stmt, sql::ParseStatement(sql));
  if (stmt.kind != sql::Statement::Kind::kSelect) {
    return Status::InvalidArgument("not a SELECT: " + sql);
  }
  sql::Analyzer analyzer(d->engine.get(), kUser);
  JUST_ASSIGN_OR_RETURN(auto plan, analyzer.Analyze(*stmt.select));
  JUST_ASSIGN_OR_RETURN(plan, sql::Optimize(std::move(plan)));
  sql::Executor executor(d->engine.get(), kUser);
  return executor.Execute(*plan, stats);
}

// --- Replay -----------------------------------------------------------------

namespace {

struct ReplayCounts {
  size_t rows_fetched = 0;
  size_t bytes = 0;  ///< key + value bytes fetched (scan-quota charge)
  size_t ranges = 0;
  size_t empty_ranges = 0;
};

/// The key-space slot of a strategy: tables keep one per configured index,
/// in catalog order.
size_t SlotOf(const core::StTable& table,
              const curve::IndexStrategy* strategy) {
  const auto& indexes = table.meta().indexes;
  for (size_t i = 0; i < indexes.size(); ++i) {
    if (indexes[i].type == strategy->type()) return i;
  }
  return 0;
}

/// StTable's key layout: shard byte, table/index prefix, strategy key.
std::string WrapKey(const core::StTable& table, size_t slot,
                    const std::string& key) {
  std::string out(1, key[0]);
  out += table.IndexPrefix(slot);
  out.append(key, 1, std::string::npos);
  return out;
}

std::vector<curve::KeyRange> CurveRanges(const core::StTable& table,
                                         bool temporal, const geo::Mbr& box,
                                         TimestampMs t_min, TimestampMs t_max,
                                         int* fid_offset) {
  auto strategy = table.PickIndex(temporal);
  if (!strategy.ok()) return {};
  size_t slot = SlotOf(table, *strategy);
  auto ranges = temporal ? (*strategy)->QueryRanges(box, t_min, t_max)
                         : (*strategy)->QueryRanges(box, INT64_MIN, INT64_MAX);
  for (auto& r : ranges) {
    r.start = WrapKey(table, slot, r.start);
    r.end = WrapKey(table, slot, r.end);
  }
  *fid_offset = (*strategy)->FidOffset() + 5;  // + table/index prefix
  return ranges;
}

std::vector<curve::KeyRange> FullScanRanges(const core::StTable& table) {
  std::vector<curve::KeyRange> ranges;
  std::string end_prefix = table.IndexPrefix(0);
  end_prefix.back() = static_cast<char>(end_prefix.back() + 1);
  for (int shard = 0; shard < table.num_shards(); ++shard) {
    curve::KeyRange r;
    r.start.assign(1, static_cast<char>(shard));
    r.start += table.IndexPrefix(0);
    r.end.assign(1, static_cast<char>(shard));
    r.end += end_prefix;
    ranges.push_back(std::move(r));
  }
  return ranges;
}

/// Geometry containment / trajectory intersection plus the time window,
/// as a selection shrink (the engine's exact refinement).
void Refine(const meta::TableMeta& meta, exec::ColumnBatch* batch,
            const geo::Mbr& box, bool temporal, TimestampMs t_min,
            TimestampMs t_max) {
  using Storage = exec::ColumnVector::Storage;
  int g = meta.ColumnIndex(meta.geom_column);
  int t = meta.ColumnIndex(meta.time_column);
  const exec::ColumnVector* gcol =
      g >= 0 ? &batch->column(static_cast<size_t>(g)) : nullptr;
  if (gcol != nullptr && gcol->storage() != Storage::kObject) gcol = nullptr;
  const exec::ColumnVector* tcol =
      t >= 0 ? &batch->column(static_cast<size_t>(t)) : nullptr;
  const bool t_typed = tcol != nullptr && tcol->storage() == Storage::kInt64;
  std::vector<uint32_t> sel;
  sel.reserve(batch->num_rows());
  for (uint32_t row = 0; row < batch->num_rows(); ++row) {
    bool keep = true;
    const traj::Trajectory* trj = nullptr;
    if (gcol != nullptr) {
      const exec::Value& v = gcol->ObjectAt(row);
      if (v.type() == exec::DataType::kGeometry) {
        keep = v.geometry_value().Within(box);
      } else if (v.type() == exec::DataType::kTrajectory &&
                 v.trajectory_value() != nullptr) {
        trj = v.trajectory_value().get();
        keep = box.Intersects(trj->Bounds());
      }
    }
    if (keep && temporal) {
      TimestampMs ts = 0;
      if (t_typed && !tcol->IsNull(row)) {
        ts = tcol->i64_data()[row];
      } else if (trj != nullptr) {
        ts = trj->start_time();
      }
      keep = ts >= t_min && ts <= t_max;
    }
    if (keep) sel.push_back(row);
  }
  batch->SetSelection(std::move(sel));
}

/// Re-frames every compressed cell of a stored row with the identity codec,
/// so decompression is timed on its own and decode sees plain cells.
Status Decompress(std::string_view value, std::string* out) {
  const char* p = value.data();
  const char* limit = p + value.size();
  out->clear();
  std::string_view cell;
  while (p < limit) {
    if (!GetLengthPrefixed(&p, limit, &cell)) {
      return Status::Corruption("truncated row");
    }
    if (!cell.empty() &&
        cell[0] != static_cast<char>(compress::CodecId::kNone)) {
      JUST_ASSIGN_OR_RETURN(std::string raw, compress::DecodeCell(cell));
      PutLengthPrefixed(out, compress::EncodeCell(*compress::NoneCodec(), raw));
    } else {
      PutLengthPrefixed(out, cell);
    }
  }
  return Status::OK();
}

/// ParallelScan plus the scan core of StTable, batch by batch as the
/// engine runs it: skip/dedupe and decode rows until a batch fills, then
/// refine it. Compressed tables decompress each batch's cells first.
Status ScanRanges(Deployment* d, const core::StTable& table,
                  const std::vector<curve::KeyRange>& ranges, bool refine,
                  const geo::Mbr& box, bool temporal, TimestampMs t_min,
                  TimestampMs t_max, int fid_offset,
                  const std::unordered_set<std::string>* skip_fids,
                  bool dedupe, Tracer* tracer, ReplayCounts* counts,
                  exec::BatchVector* out) {
  std::vector<cluster::RegionCluster::RangeResult> results;
  {
    Tracer::Scope span(tracer, "cluster.scan");
    JUST_ASSIGN_OR_RETURN(results, d->engine->cluster()->ParallelScan(ranges));
  }
  counts->ranges += ranges.size();
  for (const auto& r : results) {
    if (r.rows.empty()) ++counts->empty_ranges;
    counts->rows_fetched += r.rows.size();
    for (const auto& kv : r.rows) counts->bytes += kv.key.size() + kv.value.size();
  }
  bool compressed = false;
  for (const auto& c : table.meta().columns) compressed |= !c.compress.empty();
  auto schema = table.meta().MakeSchema();
  core::BatchRowDecoder decoder(table.meta());
  std::unordered_set<std::string> seen;
  size_t ri = 0, ki = 0;  // cursor over results[ri].rows[ki]
  // Next row that survives the k-NN skip set and range dedupe, or null.
  auto next = [&]() -> const std::string* {
    for (; ri < results.size(); ++ri, ki = 0) {
      const auto& rows = results[ri].rows;
      while (ki < rows.size()) {
        const auto& kv = rows[ki++];
        if (skip_fids != nullptr &&
            kv.key.size() > static_cast<size_t>(fid_offset) &&
            skip_fids->count(kv.key.substr(fid_offset)) != 0) {
          continue;
        }
        if (dedupe && !seen.insert(kv.key).second) continue;
        return &kv.value;
      }
    }
    return nullptr;
  };
  for (bool done = false; !done;) {
    exec::ColumnBatch batch(schema);
    if (compressed) {
      std::vector<const std::string*> cells;
      {
        Tracer::Scope span(tracer, "core.decode");
        while (cells.size() < exec::kBatchRows) {
          const std::string* v = next();
          if (v == nullptr) {
            done = true;
            break;
          }
          cells.push_back(v);
        }
      }
      std::vector<std::string> plain(cells.size());
      {
        Tracer::Scope span(tracer, "compress.decompress");
        for (size_t i = 0; i < cells.size(); ++i) {
          JUST_RETURN_NOT_OK(Decompress(*cells[i], &plain[i]));
        }
      }
      Tracer::Scope span(tracer, "core.decode");
      for (const std::string& v : plain) {
        JUST_RETURN_NOT_OK(decoder.DecodeInto(v, &batch));
      }
    } else {
      Tracer::Scope span(tracer, "core.decode");
      while (batch.num_rows() < exec::kBatchRows) {
        const std::string* v = next();
        if (v == nullptr) {
          done = true;
          break;
        }
        JUST_RETURN_NOT_OK(decoder.DecodeInto(*v, &batch));
      }
    }
    if (batch.num_rows() == 0) break;
    if (refine) {
      Tracer::Scope span(tracer, "core.refine");
      Refine(table.meta(), &batch, box, temporal, t_min, t_max);
    }
    out->push_back(std::move(batch));
  }
  // Releasing the fetched copies is part of the scan's cost.
  Tracer::Scope span(tracer, "cluster.scan");
  results.clear();
  seen.clear();
  return Status::OK();
}

/// StTable::KnnQuery's Algorithm 1 (iterative area expansion with Lemma 1
/// pruning), each area query replayed through ScanRanges.
Result<exec::DataFrame> ReplayKnn(Deployment* d, const core::StTable& table,
                                  const geo::Point& q, int k, Tracer* tracer,
                                  ReplayCounts* counts) {
  const meta::TableMeta& meta = table.meta();
  const int fid_col = meta.ColumnIndex(meta.fid_column);
  const int geom_col = meta.ColumnIndex(meta.geom_column);
  struct Candidate {
    double dist;
    exec::Row row;
    bool operator<(const Candidate& o) const { return dist < o.dist; }
  };
  struct Area {
    double dist;
    geo::Mbr box;
    bool operator<(const Area& o) const { return dist > o.dist; }
  };
  constexpr double kMinKnnAreaDeg = 0.01;
  constexpr size_t kMaxAreaQueries = 1024;
  std::priority_queue<Candidate> cq;
  std::priority_queue<Area> aq;
  aq.push(Area{0.0, geo::Mbr::World()});
  double dmax = 0;
  std::unordered_set<std::string> seen_fids;
  size_t area_queries = 0;
  auto distance = [&](const exec::Row& row) {
    if (geom_col < 0) return 0.0;
    const exec::Value& g = row[geom_col];
    if (g.type() == exec::DataType::kGeometry) {
      return g.geometry_value().Distance(q);
    }
    if (g.type() == exec::DataType::kTrajectory &&
        g.trajectory_value() != nullptr) {
      return g.trajectory_value()->Bounds().MinDistance(q);
    }
    return 0.0;
  };
  auto offer = [&](const exec::Row& row, bool track_dmax) {
    double dist = distance(row);
    if (static_cast<int>(cq.size()) < k) {
      cq.push(Candidate{dist, row});
      if (track_dmax) dmax = cq.top().dist;
    } else if (dist < cq.top().dist) {
      cq.pop();
      cq.push(Candidate{dist, row});
      if (track_dmax) dmax = cq.top().dist;
    }
  };
  while (!aq.empty()) {
    Area a = aq.top();
    aq.pop();
    if (static_cast<int>(cq.size()) == k && a.dist > dmax) break;
    if (area_queries >= kMaxAreaQueries) {
      exec::BatchVector batches;
      JUST_RETURN_NOT_OK(ScanRanges(d, table, FullScanRanges(table), false,
                                    {}, false, 0, 0, 0, nullptr, false,
                                    tracer, counts, &batches));
      exec::DataFrame all;
      {
        Tracer::Scope span(tracer, "exec.materialize");
        all = exec::BatchesToDataFrame(meta.MakeSchema(), batches);
      }
      Tracer::Scope span(tracer, "exec.knn_select");
      for (const exec::Row& row : all.rows()) {
        std::string fid = fid_col >= 0 ? row[fid_col].ToString() : "";
        if (!fid.empty() && seen_fids.count(fid) != 0) continue;
        offer(row, false);
      }
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
    std::vector<curve::KeyRange> ranges;
    int fid_offset = 0;
    {
      Tracer::Scope span(tracer, "curve.plan");
      ranges = CurveRanges(table, false, a.box, 0, 0, &fid_offset);
    }
    exec::BatchVector batches;
    JUST_RETURN_NOT_OK(ScanRanges(d, table, ranges, true, a.box, false, 0, 0,
                                  fid_offset, &seen_fids, true, tracer,
                                  counts, &batches));
    exec::DataFrame partial;
    {
      Tracer::Scope span(tracer, "exec.materialize");
      partial = exec::BatchesToDataFrame(meta.MakeSchema(), batches);
      batches.clear();
    }
    Tracer::Scope span(tracer, "exec.knn_select");
    for (const exec::Row& row : partial.rows()) {
      std::string fid = fid_col >= 0 ? row[fid_col].ToString() : "";
      if (!fid.empty() && !seen_fids.insert(fid).second) continue;
      offer(row, true);
    }
    partial = exec::DataFrame();
  }
  Tracer::Scope span(tracer, "exec.knn_select");
  std::vector<exec::Row> rows;
  rows.reserve(cq.size());
  while (!cq.empty()) {
    rows.push_back(cq.top().row);
    cq.pop();
  }
  std::reverse(rows.begin(), rows.end());
  return exec::DataFrame(meta.MakeSchema(), std::move(rows));
}

/// Column-reference projection (scan pushdown or a Project node).
Result<exec::BatchVector> Project(const exec::BatchVector& in,
                                  const exec::Schema& in_schema,
                                  const std::vector<std::string>& columns,
                                  std::shared_ptr<exec::Schema>* schema) {
  std::vector<int> idx;
  auto out_schema = std::make_shared<exec::Schema>();
  for (const std::string& c : columns) {
    int i = in_schema.IndexOf(c);
    if (i < 0) return Status::InvalidArgument("no such column: " + c);
    idx.push_back(i);
    out_schema->AddField(in_schema.field(static_cast<size_t>(i)));
  }
  exec::BatchVector out;
  std::vector<uint32_t> all;
  for (const exec::ColumnBatch& b : in) {
    const uint32_t* rows = b.selection_data();
    if (rows == nullptr) {
      all.resize(b.num_rows());
      for (uint32_t r = 0; r < b.num_rows(); ++r) all[r] = r;
      rows = all.data();
    }
    std::vector<exec::ColumnVector> cols;
    for (int i : idx) {
      cols.push_back(b.column(static_cast<size_t>(i)).Gather(rows,
                                                            b.num_active()));
    }
    out.push_back(
        exec::ColumnBatch::FromColumns(out_schema, std::move(cols),
                                       b.num_active()));
  }
  *schema = out_schema;
  return out;
}

}  // namespace

Result<exec::DataFrame> ReplayQuery(Deployment* d, const QueryOp& op,
                                    Tracer* tracer, size_t* rows_fetched,
                                    size_t* ranges_planned,
                                    size_t* empty_ranges) {
  ReplayCounts counts;
  sql::Statement stmt;
  {
    Tracer::Scope span(tracer, "sql.parse");
    JUST_ASSIGN_OR_RETURN(stmt, sql::ParseStatement(op.sql));
  }
  std::unique_ptr<sql::PlanNode> plan;
  std::vector<const sql::PlanNode*> projects;
  const sql::PlanNode* scan = nullptr;
  std::vector<const sql::Expr*> conjuncts;
  meta::TableMeta table_meta;
  sql::AccessPath path;
  {
    Tracer::Scope span(tracer, "sql.plan");
    sql::Analyzer analyzer(d->engine.get(), kUser);
    JUST_ASSIGN_OR_RETURN(plan, analyzer.Analyze(*stmt.select));
    JUST_ASSIGN_OR_RETURN(plan, sql::Optimize(std::move(plan)));
    // Supported shape: Project* -> [Filter] -> ScanTable.
    const sql::PlanNode* node = plan.get();
    while (node->kind == sql::PlanNode::Kind::kProject) {
      projects.push_back(node);
      node = node->children[0].get();
    }
    const sql::Expr* predicate = nullptr;
    if (node->kind == sql::PlanNode::Kind::kFilter) {
      predicate = node->predicate.get();
      node = node->children[0].get();
    }
    if (node->kind != sql::PlanNode::Kind::kScanTable) {
      return Status::NotSupported("replay needs Project*/Filter/Scan plans");
    }
    scan = node;
    JUST_ASSIGN_OR_RETURN(table_meta,
                          d->engine->DescribeTable(kUser, scan->name));
    if (predicate != nullptr) sql::SplitConjuncts(predicate, &conjuncts);
    JUST_ASSIGN_OR_RETURN(path, sql::ChooseAccessPath(d->engine.get(), kUser,
                                                      table_meta, conjuncts));
  }
  auto schema = table_meta.MakeSchema();
  exec::BatchVector batches;
  // The engine's per-tenant scan admission and charge wrap every query.
  stream::QuotaManager* quota = d->engine->quota_manager();
  JUST_RETURN_NOT_OK(quota->AdmitScan(kUser));
  switch (path.kind) {
    case sql::AccessPath::Kind::kSpatialRange:
    case sql::AccessPath::Kind::kStRange: {
      const bool temporal = path.kind == sql::AccessPath::Kind::kStRange;
      std::shared_ptr<core::StTable> table;
      std::vector<curve::KeyRange> ranges;
      int fid_offset = 0;
      {
        Tracer::Scope span(tracer, "curve.plan");
        JUST_ASSIGN_OR_RETURN(table, d->engine->GetTable(kUser, scan->name));
        ranges = CurveRanges(*table, temporal, path.box, path.t_min,
                             path.t_max, &fid_offset);
      }
      JUST_RETURN_NOT_OK(ScanRanges(d, *table, ranges, true, path.box,
                                    temporal, path.t_min, path.t_max,
                                    fid_offset, nullptr, true, tracer,
                                    &counts, &batches));
      break;
    }
    case sql::AccessPath::Kind::kFullScan: {
      std::shared_ptr<core::StTable> table;
      std::vector<curve::KeyRange> ranges;
      {
        Tracer::Scope span(tracer, "curve.plan");
        JUST_ASSIGN_OR_RETURN(table, d->engine->GetTable(kUser, scan->name));
        ranges = FullScanRanges(*table);
      }
      JUST_RETURN_NOT_OK(ScanRanges(d, *table, ranges, false, {}, false, 0, 0,
                                    0, nullptr, false, tracer, &counts,
                                    &batches));
      break;
    }
    case sql::AccessPath::Kind::kKnn: {
      std::shared_ptr<core::StTable> table;
      {
        Tracer::Scope span(tracer, "curve.plan");
        JUST_ASSIGN_OR_RETURN(table, d->engine->GetTable(kUser, scan->name));
      }
      JUST_ASSIGN_OR_RETURN(auto frame, ReplayKnn(d, *table, path.knn_query,
                                                  path.knn_k, tracer,
                                                  &counts));
      Tracer::Scope span(tracer, "exec.materialize");
      batches = exec::BatchesFromDataFrame(std::move(frame));
      break;
    }
    default:
      return Status::NotSupported(std::string("replay has no access path ") +
                                  path.label);
  }
  if (counts.bytes > 0) quota->ChargeScanBytes(kUser, counts.bytes);
  if (!path.residual.empty()) {
    Tracer::Scope span(tracer, "sql.residual");
    const std::string tag = std::to_string(table_meta.table_id) + ":" +
                            std::to_string(table_meta.generation);
    JUST_ASSIGN_OR_RETURN(auto program,
                          sql::PredicateProgramCache::Global().GetOrCompile(
                              path.residual, *schema, tag));
    for (exec::ColumnBatch& b : batches) {
      JUST_RETURN_NOT_OK(program->Run(&b));
    }
  }
  exec::DataFrame frame;
  {
    Tracer::Scope span(tracer, "exec.materialize");
    if (!scan->required_columns.empty()) {
      JUST_ASSIGN_OR_RETURN(batches, Project(batches, *schema,
                                             scan->required_columns, &schema));
    }
    for (size_t i = projects.size(); i-- > 0;) {
      std::vector<std::string> columns;
      for (const auto& item : projects[i]->items) {
        if (item.expr->kind != sql::Expr::Kind::kColumn) {
          return Status::NotSupported("replay projects columns only");
        }
        columns.push_back(item.expr->column);
      }
      JUST_ASSIGN_OR_RETURN(batches,
                            Project(batches, *schema, columns, &schema));
      schema = projects[i]->schema;
    }
    frame = exec::BatchesToDataFrame(schema, batches);
    batches.clear();
  }
  *rows_fetched = counts.rows_fetched;
  *ranges_planned = counts.ranges;
  *empty_ranges = counts.empty_ranges;
  return frame;
}

}  // namespace just::perfbench
