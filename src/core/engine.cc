#include "core/engine.h"

#include <algorithm>
#include <iterator>

#include "core/plugins.h"
#include "obs/metrics.h"

namespace just::core {

namespace {
std::string ViewKey(const std::string& user, const std::string& name) {
  return user + "." + name;
}
}  // namespace

Result<std::unique_ptr<JustEngine>> JustEngine::Open(
    const EngineOptions& options) {
  auto engine = std::unique_ptr<JustEngine>(new JustEngine(options));
  engine->options_.index.num_shards = options.num_shards;
  JUST_ASSIGN_OR_RETURN(
      engine->catalog_, meta::Catalog::Open(options.data_dir + "/catalog.jsonl"));
  cluster::ClusterOptions cluster_options;
  cluster_options.dir = options.data_dir + "/cluster";
  cluster_options.num_servers = options.num_servers;
  cluster_options.store = options.store;
  cluster_options.server_addrs = options.server_addrs;
  JUST_ASSIGN_OR_RETURN(engine->cluster_,
                        cluster::RegionCluster::Open(cluster_options));
  engine->slow_query_log_ = std::make_unique<obs::SlowQueryLog>(
      options.slow_query_threshold_us, /*capacity=*/128,
      options.slow_query_log_to_stderr);
  // Streaming subsystem: the standing-query hub and the per-tenant quota
  // buckets, re-armed from the quotas the catalog persisted.
  engine->stream_hub_ = std::make_unique<stream::StreamHub>();
  engine->quota_ = std::make_unique<stream::QuotaManager>();
  for (const auto& [tenant, quota] : engine->catalog_->AllTenantQuotas()) {
    engine->quota_->SetQuota(tenant, quota);
  }
  // Crash recovery: a `building` secondary index means a prior process died
  // mid-build (the in-memory catch-up journal died with it, so the entries
  // already on disk cannot be trusted). Drop it and purge its key space —
  // CREATE INDEX can simply be rerun.
  for (const meta::TableMeta& table : engine->catalog_->AllTables()) {
    for (const meta::SecondaryIndexDef& def : table.secondary_indexes) {
      if (def.state != meta::IndexState::kBuilding) continue;
      JUST_RETURN_NOT_OK(
          engine->catalog_->DropIndex(table.user, table.name, def.name));
      JUST_RETURN_NOT_OK(
          engine->PurgeIndexKeySpace(table.table_id, def.slot));
    }
  }
  return engine;
}

void JustEngine::ApplyDefaultIndexes(meta::TableMeta* table) {
  if (!table->indexes.empty()) return;
  // Section V-C: by default JUST builds Z2 (point) or XZ2 (non-point) for
  // spatial data, plus Z2T/XZ2T when a time column exists.
  bool has_time = !table->time_column.empty();
  bool extent = false;
  int geom_idx = table->ColumnIndex(table->geom_column);
  if (geom_idx >= 0 &&
      table->columns[geom_idx].type == exec::DataType::kTrajectory) {
    extent = true;
  }
  if (extent) {
    table->indexes.push_back({curve::IndexType::kXz2, kMillisPerDay});
    if (has_time) {
      table->indexes.push_back({curve::IndexType::kXz2T, kMillisPerDay});
    }
  } else {
    table->indexes.push_back({curve::IndexType::kZ2, kMillisPerDay});
    if (has_time) {
      table->indexes.push_back({curve::IndexType::kZ2T, kMillisPerDay});
    }
  }
}

Status JustEngine::CreateTable(meta::TableMeta table) {
  if (table.user.empty() || table.name.empty()) {
    return Status::InvalidArgument("table needs user and name");
  }
  if (table.columns.empty()) {
    return Status::InvalidArgument("table needs at least one column");
  }
  table.InferSpecialColumns();
  ApplyDefaultIndexes(&table);
  // Declared secondary indexes (USERDATA 'just.attr.indexes') start ready:
  // the table is empty, so there is nothing to backfill. Their slots follow
  // the curve-index slots.
  table.next_index_slot = static_cast<uint32_t>(table.indexes.size());
  for (meta::SecondaryIndexDef& def : table.secondary_indexes) {
    if (table.ColumnIndex(def.column) < 0) {
      return Status::InvalidArgument("no such column to index: " +
                                     def.column);
    }
    if (table.FindSecondaryIndex(def.name) != &def) {
      return Status::InvalidArgument("index already exists: " + def.name);
    }
    def.slot = table.next_index_slot++;
    def.state = meta::IndexState::kReady;
  }
  return catalog_->CreateTable(&table);
}

Status JustEngine::CreatePluginTable(const std::string& user,
                                     const std::string& name,
                                     const std::string& plugin) {
  JUST_ASSIGN_OR_RETURN(auto table, MakePluginTable(plugin, user, name));
  return catalog_->CreateTable(&table);
}

Status JustEngine::DropTable(const std::string& user,
                             const std::string& name) {
  JUST_ASSIGN_OR_RETURN(auto table_meta, catalog_->GetTable(user, name));
  JUST_RETURN_NOT_OK(catalog_->DropTable(user, name));
  // Standing queries against a dropped table would never fire again; drop
  // them with it.
  stream_hub_->DropQueriesForTable(user, name);
  {
    std::lock_guard<std::mutex> lock(mu_);
    table_cache_.erase(ViewKey(user, name));
  }
  // Delete the table's key spaces: SFC slots plus every secondary-index
  // slot ever assigned (slots are monotonic, so sweeping up to
  // next_index_slot also clears orphans a crashed DROP INDEX left).
  size_t total_slots = std::max<size_t>(table_meta.indexes.size(),
                                        table_meta.next_index_slot);
  return PurgeIndexKeySpace(table_meta.table_id, 0,
                            static_cast<uint32_t>(total_slots));
}

Status JustEngine::PurgeIndexKeySpace(uint64_t table_id, uint32_t slot,
                                      uint32_t count) {
  // One scan over every slot's ranges. Each server's tombstones collect
  // apart (one thread delivers its rows) and go out from inside the scan
  // as each chunk fills: a chunk of one server's keys is one RPC to that
  // server, and no slot is ever buffered whole.
  class TombstoneSink : public cluster::RegionCluster::ScanSink {
   public:
    explicit TombstoneSink(cluster::RegionCluster* cluster)
        : cluster_(cluster),
          ops_(static_cast<size_t>(cluster->num_servers())),
          errors_(ops_.size()) {}
    bool Accept(int server, size_t, std::string_view key,
                std::string_view) override {
      std::vector<kv::WriteOp>& ops = ops_[static_cast<size_t>(server)];
      ops.push_back(kv::WriteOp{std::string(key), {}, /*is_delete=*/true});
      if (ops.size() < StTable::kMaxOpsPerBatch) return true;
      errors_[static_cast<size_t>(server)] = Send(server);
      return errors_[static_cast<size_t>(server)].ok();
    }
    Status Finish(int server) override {
      JUST_RETURN_NOT_OK(errors_[static_cast<size_t>(server)]);
      return Send(server);
    }

   private:
    Status Send(int server) {
      std::vector<kv::WriteOp>& ops = ops_[static_cast<size_t>(server)];
      if (ops.empty()) return Status::OK();
      Status st = cluster_->WriteBatch(std::move(ops));
      ops.clear();
      return st;
    }
    cluster::RegionCluster* cluster_;
    std::vector<std::vector<kv::WriteOp>> ops_;
    std::vector<Status> errors_;
  };
  std::vector<curve::KeyRange> ranges;
  for (uint32_t s = slot; s < slot + count; ++s) {
    for (curve::KeyRange& range :
         StTable::SlotRanges(table_id, s, options_.index.num_shards)) {
      ranges.push_back(std::move(range));
    }
  }
  TombstoneSink sink(cluster_.get());
  return cluster_->Scan(ranges, &sink);
}

void JustEngine::InvalidateTableAndDrainWriters(const std::string& user,
                                                const std::string& table) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    table_cache_.erase(ViewKey(user, table));
  }
  // Momentary exclusive hold: any writer that bound the table before the
  // cache flush finishes its write first; writers arriving after re-bind
  // and see the new catalog state. Writers are only ever blocked for the
  // duration of in-flight WriteBatch calls.
  std::unique_lock<std::shared_mutex> barrier(write_barrier_);
}

Status JustEngine::CreateIndex(const std::string& user,
                               const std::string& table,
                               const std::string& index_name,
                               const std::string& column) {
  JUST_ASSIGN_OR_RETURN(auto table_meta, catalog_->GetTable(user, table));
  if (table_meta.ColumnIndex(column) < 0) {
    return Status::InvalidArgument("no such column to index: " + column);
  }
  if (table_meta.FindSecondaryIndex(index_name) != nullptr) {
    return Status::InvalidArgument("index already exists: " + index_name);
  }
  meta::SecondaryIndexDef def;
  def.name = index_name;
  def.column = column;
  // Secondary slots live above the SFC slots and are monotonic (never
  // reused after a drop), so stale entries of a dropped index can never
  // alias a live one.
  def.slot = std::max<uint32_t>(
      static_cast<uint32_t>(table_meta.indexes.size()),
      table_meta.next_index_slot);
  def.state = meta::IndexState::kBuilding;
  JUST_RETURN_NOT_OK(catalog_->AddIndex(user, table, def));
  auto journal = std::make_shared<IndexBuildJournal>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_builds_[ViewKey(user, table)][index_name] = journal;
    table_cache_.erase(ViewKey(user, table));
  }
  // Drain writers still holding the pre-index binding (they would neither
  // dual-write nor journal); after this, every write dual-maintains the
  // building index, so the backfill below can never miss a row it raced.
  { std::unique_lock<std::shared_mutex> barrier(write_barrier_); }
  Status build = BuildIndex(user, table, def, journal);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_builds_.find(ViewKey(user, table));
    if (it != active_builds_.end()) {
      it->second.erase(index_name);
      if (it->second.empty()) active_builds_.erase(it);
    }
    table_cache_.erase(ViewKey(user, table));
  }
  if (!build.ok()) {
    // Roll the registration back; best-effort cleanup of partial entries.
    catalog_->DropIndex(user, table, index_name);
    PurgeIndexKeySpace(table_meta.table_id, def.slot);
    return build;
  }
  return Status::OK();
}

Status JustEngine::BuildIndex(const std::string& user, const std::string& table,
                              const meta::SecondaryIndexDef& def,
                              const std::shared_ptr<IndexBuildJournal>& journal) {
  static obs::Counter* build_rows =
      obs::Registry::Global().GetCounter("just_idx_build_rows_total");
  JUST_ASSIGN_OR_RETURN(auto bound, GetTable(user, table));
  // Backfill from a scan of the base rows (slot 0). Concurrent writers are
  // untouched: they dual-write the index directly and mirror those ops into
  // the journal, whose FIFO replay below wins over any backfill put raced.
  JUST_ASSIGN_OR_RETURN(auto batches, bound->Query(QuerySpec{}));
  size_t chunk_rows = std::max<size_t>(1, options_.index_build_batch_rows);
  std::vector<kv::WriteOp> chunk;
  chunk.reserve(chunk_rows);
  for (const exec::ColumnBatch& batch : batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      JUST_ASSIGN_OR_RETURN(auto op, bound->MakeSecondaryEntryOp(
                                         def, batch.MaterializeRow(r), false));
      chunk.push_back(std::move(op));
      if (chunk.size() >= chunk_rows) {
        size_t n = chunk.size();
        JUST_RETURN_NOT_OK(cluster_->WriteBatch(std::move(chunk)));
        build_rows->Add(n);
        chunk.clear();
      }
    }
  }
  if (!chunk.empty()) {
    size_t n = chunk.size();
    JUST_RETURN_NOT_OK(cluster_->WriteBatch(std::move(chunk)));
    build_rows->Add(n);
  }
  // Catch-up: replay writer ops journaled during the backfill until the
  // journal closes empty — the atomic commit point (late writers then write
  // directly, with no backfill put left in flight to race with).
  for (;;) {
    std::vector<kv::WriteOp> ops = journal->Drain(chunk_rows);
    if (ops.empty()) {
      if (journal->CloseIfDrained()) break;
      continue;
    }
    size_t n = ops.size();
    JUST_RETURN_NOT_OK(cluster_->WriteBatch(std::move(ops)));
    build_rows->Add(n);
  }
  // The catalog is durable on its own; make the entries durable before it
  // says `ready`, so power loss cannot leave a ready index missing rows.
  JUST_RETURN_NOT_OK(cluster_->FlushAll());
  return catalog_->SetIndexState(user, table, def.name,
                                 meta::IndexState::kReady);
}

Status JustEngine::DropIndex(const std::string& user, const std::string& table,
                             const std::string& index_name) {
  JUST_ASSIGN_OR_RETURN(auto table_meta, catalog_->GetTable(user, table));
  meta::SecondaryIndexDef dropped;
  JUST_RETURN_NOT_OK(catalog_->DropIndex(user, table, index_name, &dropped));
  InvalidateTableAndDrainWriters(user, table);
  return PurgeIndexKeySpace(table_meta.table_id, dropped.slot);
}

std::vector<std::string> JustEngine::ShowTables(const std::string& user) const {
  std::vector<std::string> names;
  for (const auto& table : catalog_->ListTables(user)) {
    names.push_back(table.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<meta::TableMeta> JustEngine::DescribeTable(
    const std::string& user, const std::string& name) const {
  return catalog_->GetTable(user, name);
}

Result<std::shared_ptr<StTable>> JustEngine::GetTable(
    const std::string& user, const std::string& name) {
  std::string key = ViewKey(user, name);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = table_cache_.find(key);
    if (it != table_cache_.end()) return it->second;
  }
  JUST_ASSIGN_OR_RETURN(auto table_meta, catalog_->GetTable(user, name));
  auto table = std::make_shared<StTable>(std::move(table_meta),
                                         cluster_.get(), options_.index);
  std::lock_guard<std::mutex> lock(mu_);
  // Bindings created while an online build is in flight mirror their index
  // ops into the build's catch-up journal.
  auto builds = active_builds_.find(key);
  if (builds != active_builds_.end()) {
    for (const auto& [index_name, journal] : builds->second) {
      table->AttachBuildJournal(index_name, journal);
    }
  }
  table_cache_[key] = table;
  return table;
}

Status JustEngine::Insert(const std::string& user, const std::string& table,
                          const exec::Row& row) {
  // Writers bind + write under a shared hold of the write barrier so index
  // DDL can drain them (see InvalidateTableAndDrainWriters); writers never
  // block each other.
  JUST_RETURN_NOT_OK(quota_->AdmitWrite(user, 1));
  std::shared_lock<std::shared_mutex> barrier(write_barrier_);
  JUST_ASSIGN_OR_RETURN(auto bound, GetTable(user, table));
  JUST_RETURN_NOT_OK(bound->Insert(row));
  stream_hub_->OnInsert(user, table, {row});
  return Status::OK();
}

Status JustEngine::InsertBatch(const std::string& user,
                               const std::string& table,
                               const std::vector<exec::Row>& rows) {
  JUST_RETURN_NOT_OK(quota_->AdmitWrite(user, rows.size()));
  std::shared_lock<std::shared_mutex> barrier(write_barrier_);
  JUST_ASSIGN_OR_RETURN(auto bound, GetTable(user, table));
  // One table-level batch: all index keys of the chunk ride the cluster's
  // per-server group commits instead of one WAL round-trip per key.
  JUST_RETURN_NOT_OK(bound->InsertBatch(rows));
  stream_hub_->OnInsert(user, table, rows);
  return Status::OK();
}

Status JustEngine::InsertStream(const std::string& user,
                                const std::string& table,
                                const std::vector<exec::Row>& rows) {
  // Quota shed (kResourceExhausted) happens before any cluster I/O so a
  // throttled tenant costs nothing but the bucket check.
  JUST_RETURN_NOT_OK(quota_->AdmitWrite(user, rows.size()));
  std::shared_lock<std::shared_mutex> barrier(write_barrier_);
  JUST_ASSIGN_OR_RETURN(auto bound, GetTable(user, table));
  JUST_RETURN_NOT_OK(bound->InsertBatchStream(rows));
  // Committed rows feed the standing queries: incremental evaluation against
  // the insert stream, no polling scans (rows_scanned stays 0).
  stream_hub_->OnInsert(user, table, rows);
  return Status::OK();
}

Status JustEngine::Remove(const std::string& user, const std::string& table,
                          const exec::Row& row) {
  std::shared_lock<std::shared_mutex> barrier(write_barrier_);
  JUST_ASSIGN_OR_RETURN(auto bound, GetTable(user, table));
  return bound->Remove(row);
}

Status JustEngine::Replace(const std::string& user, const std::string& table,
                           const exec::Row& old_row,
                           const exec::Row& new_row) {
  std::shared_lock<std::shared_mutex> barrier(write_barrier_);
  JUST_ASSIGN_OR_RETURN(auto bound, GetTable(user, table));
  return bound->Replace(old_row, new_row);
}

Result<exec::BatchVector> JustEngine::Query(const std::string& user,
                                            const std::string& table,
                                            const QuerySpec& spec,
                                            QueryStats* stats,
                                            const ScanBudget* budget) {
  // Post-paid scan quota: admission only refuses tenants already in debt;
  // the bytes actually read are debited afterwards (a scan's size is
  // unknowable up front).
  JUST_RETURN_NOT_OK(quota_->AdmitScan(user));
  JUST_ASSIGN_OR_RETURN(auto bound, GetTable(user, table));
  QueryStats scanned;
  auto result = bound->Query(spec, &scanned, budget);
  if (scanned.bytes_scanned > 0) {
    quota_->ChargeScanBytes(user, scanned.bytes_scanned);
  }
  if (stats != nullptr) {
    stats->key_ranges += scanned.key_ranges;
    stats->rows_scanned += scanned.rows_scanned;
    stats->rows_matched += scanned.rows_matched;
    stats->bytes_scanned += scanned.bytes_scanned;
  }
  return result;
}

Status JustEngine::SetTenantQuota(const std::string& tenant,
                                  const meta::TenantQuotaConfig& quota) {
  // Persist first: if the catalog write fails the in-memory buckets keep
  // the old limits, so restart never resurrects a quota the caller saw fail.
  JUST_RETURN_NOT_OK(catalog_->SetTenantQuota(tenant, quota));
  quota_->SetQuota(tenant, quota);
  return Status::OK();
}

Result<size_t> JustEngine::SecondaryIndexProbe(
    const std::string& user, const std::string& table,
    const std::string& column, const AttrBound& lower, const AttrBound& upper,
    size_t limit) {
  JUST_ASSIGN_OR_RETURN(auto bound, GetTable(user, table));
  const meta::SecondaryIndexDef* def =
      bound->meta().ReadySecondaryIndexOn(column);
  if (def == nullptr) {
    return Status::NotFound("no ready secondary index on column: " + column);
  }
  return bound->SecondaryIndexProbe(*def, lower, upper, limit);
}

Result<std::unique_ptr<ResultSet>> JustEngine::MakeResultSet(
    exec::DataFrame frame) {
  return ResultSet::Make(std::move(frame), options_.result_options);
}

Status JustEngine::CreateView(const std::string& user, const std::string& name,
                              exec::DataFrame frame) {
  std::lock_guard<std::mutex> lock(mu_);
  views_[ViewKey(user, name)] = std::move(frame);
  return Status::OK();
}

Result<exec::DataFrame> JustEngine::GetView(const std::string& user,
                                            const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(ViewKey(user, name));
  if (it == views_.end()) return Status::NotFound("no such view: " + name);
  return it->second;
}

Status JustEngine::DropView(const std::string& user, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (views_.erase(ViewKey(user, name)) == 0) {
    return Status::NotFound("no such view: " + name);
  }
  return Status::OK();
}

bool JustEngine::ViewExists(const std::string& user,
                            const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.count(ViewKey(user, name)) != 0;
}

std::vector<std::string> JustEngine::ShowViews(const std::string& user) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  std::string prefix = user + ".";
  for (const auto& [key, frame] : views_) {
    if (key.rfind(prefix, 0) == 0) names.push_back(key.substr(prefix.size()));
  }
  return names;
}

Status JustEngine::StoreViewToTable(const std::string& user,
                                    const std::string& view,
                                    const std::string& table) {
  JUST_ASSIGN_OR_RETURN(auto frame, GetView(user, view));
  if (!catalog_->TableExists(user, table)) {
    // Auto-create a common table mirroring the view schema (Section IV-D).
    meta::TableMeta table_meta;
    table_meta.user = user;
    table_meta.name = table;
    for (const exec::Field& f : frame.schema().fields()) {
      table_meta.columns.push_back(
          meta::ColumnDef{f.name, f.type, false, "", ""});
    }
    JUST_RETURN_NOT_OK(CreateTable(std::move(table_meta)));
  }
  return InsertBatch(user, table, frame.rows());
}

Status JustEngine::Finalize() {
  JUST_RETURN_NOT_OK(cluster_->FlushAll());
  return cluster_->CompactAll();
}

JustEngine::StorageStats JustEngine::GetStorageStats() const {
  auto stats = cluster_->GetStats();
  return StorageStats{stats.disk_bytes, stats.entries};
}

}  // namespace just::core
