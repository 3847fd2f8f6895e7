#ifndef JUST_CORE_ENGINE_H_
#define JUST_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cluster/region_cluster.h"
#include "common/status.h"
#include "core/result_set.h"
#include "core/table.h"
#include "exec/dataframe.h"
#include "meta/catalog.h"
#include "obs/slow_query_log.h"
#include "stream/continuous_query.h"
#include "stream/quota.h"

namespace just::core {

struct EngineOptions {
  std::string data_dir;  ///< root directory (catalog + region servers)
  int num_servers = 4;   ///< region servers in the simulated cluster
  int num_shards = 8;    ///< key shard prefixes (>= num_servers for balance)
  kv::StoreOptions store;             ///< per-region-server store options
  /// Out-of-process deployment: when non-empty, each entry is a
  /// "host:port" of a running just_region_server and the cluster talks
  /// sockets instead of opening local stores (overrides num_servers; see
  /// cluster::ClusterOptions::server_addrs). EXPLAIN ANALYZE still shows
  /// per-server work — the remote span trees are grafted into the query
  /// trace over the wire.
  std::vector<std::string> server_addrs;
  curve::IndexOptions index;          ///< SFC resolutions, range budgets
  ResultSet::Options result_options;  ///< direct-vs-spill thresholds
  /// Statements at least this slow are captured in the engine's slow-query
  /// log (and counted as just_sql_slow_queries_total). Negative disables.
  int64_t slow_query_threshold_us = 500000;
  bool slow_query_log_to_stderr = true;
  /// Online index build: base-table rows backfilled per WriteBatch chunk.
  size_t index_build_batch_rows = 1024;
  /// Access-path selection: a secondary index drives an intersection query
  /// only when its cardinality probe counts at most this many entries;
  /// above it the curve index drives and the attribute predicate becomes a
  /// residual filter.
  size_t index_intersection_threshold = 4096;
};

/// The JUST engine: one shared instance serves every user (the paper's
/// shared Spark context, Section VII-A), with per-user namespaces isolating
/// tables and views. This is the programmatic API that the JustQL layer and
/// the SDK examples drive.
class JustEngine {
 public:
  static Result<std::unique_ptr<JustEngine>> Open(const EngineOptions& options);

  // --- Definition operations (Section V-A) ---

  /// CREATE TABLE with explicit columns (common table). `table.user` and
  /// `table.name` must be set; the engine fills defaults (indexes by column
  /// kinds) when `table.indexes` is empty.
  Status CreateTable(meta::TableMeta table);

  /// CREATE TABLE <name> AS <plugin> (plugin table).
  Status CreatePluginTable(const std::string& user, const std::string& name,
                           const std::string& plugin);

  /// DROP TABLE: removes catalog entry and deletes the key spaces.
  Status DropTable(const std::string& user, const std::string& name);

  /// CREATE INDEX <index_name> ON <table> (<column>): registers the index
  /// as `building`, backfills it online (concurrent writers are never
  /// blocked — they dual-write from registration on; a brief write barrier
  /// only drains in-flight ops), replays the catch-up journal, and
  /// atomically flips the catalog entry to `ready`. Synchronous: returns
  /// once the index is queryable, or rolls the registration back on error.
  Status CreateIndex(const std::string& user, const std::string& table,
                     const std::string& index_name, const std::string& column);

  /// DROP INDEX: removes the catalog entry and purges the index key space.
  Status DropIndex(const std::string& user, const std::string& table,
                   const std::string& index_name);

  /// SHOW TABLES (meta-table only; fast).
  std::vector<std::string> ShowTables(const std::string& user) const;

  /// DESC TABLE.
  Result<meta::TableMeta> DescribeTable(const std::string& user,
                                        const std::string& name) const;

  // --- Manipulation operations (Section V-B) ---

  Status Insert(const std::string& user, const std::string& table,
                const exec::Row& row);
  Status InsertBatch(const std::string& user, const std::string& table,
                     const std::vector<exec::Row>& rows);
  /// INSERT STREAM: the streaming-ingest path. Rides the same group-commit
  /// write path as InsertBatch but sends tenant-tagged kWriteBatchReq
  /// batches (remote region servers can apply their own write admission),
  /// and feeds every committed row to the registered continuous queries.
  /// Per-tenant write quotas (SetTenantQuota) are enforced up front:
  /// over-quota batches shed with kResourceExhausted before touching the
  /// cluster.
  Status InsertStream(const std::string& user, const std::string& table,
                      const std::vector<exec::Row>& rows);
  /// Deletes a row (base entry plus every index entry, tombstoned in the
  /// same group-commit batch — no resurrection window).
  Status Remove(const std::string& user, const std::string& table,
                const exec::Row& row);
  /// Atomically replaces `old_row` with `new_row` in one batch.
  Status Replace(const std::string& user, const std::string& table,
                 const exec::Row& old_row, const exec::Row& new_row);

  // --- Query operations (Section V-C) ---

  /// Runs one query against `table`: the access path and arguments `spec`
  /// names (see StTable::Query). Admission against the tenant's scan-byte
  /// quota, the charge of the bytes actually scanned, and the stats all
  /// happen here; `stats`, when non-null, accumulates this query's counts.
  Result<exec::BatchVector> Query(const std::string& user,
                                  const std::string& table,
                                  const QuerySpec& spec,
                                  QueryStats* stats = nullptr,
                                  const ScanBudget* budget = nullptr);
  /// Counts index entries in [lower, upper], stopping at `limit` — the
  /// optimizer's cardinality probe for intersection-path selection.
  Result<size_t> SecondaryIndexProbe(const std::string& user,
                                     const std::string& table,
                                     const std::string& column,
                                     const AttrBound& lower,
                                     const AttrBound& upper, size_t limit);

  /// Wraps a query result for cursor-style delivery.
  Result<std::unique_ptr<ResultSet>> MakeResultSet(exec::DataFrame frame);

  // --- View tables (Section IV-D) ---

  Status CreateView(const std::string& user, const std::string& name,
                    exec::DataFrame frame);
  Result<exec::DataFrame> GetView(const std::string& user,
                                  const std::string& name) const;
  Status DropView(const std::string& user, const std::string& name);
  std::vector<std::string> ShowViews(const std::string& user) const;
  bool ViewExists(const std::string& user, const std::string& name) const;

  /// STORE VIEW <view> TO TABLE <table>: persists a view, creating the
  /// table automatically if needed (the paper's "one query, multiple
  /// usages" flow).
  Status StoreViewToTable(const std::string& user, const std::string& view,
                          const std::string& table);

  // --- Maintenance ---

  /// Flushes memtables and compacts (bulk-load finalization).
  Status Finalize();

  struct StorageStats {
    uint64_t disk_bytes = 0;
    uint64_t entries = 0;
  };
  StorageStats GetStorageStats() const;

  /// Resolves a bound table (for the SQL layer).
  Result<std::shared_ptr<StTable>> GetTable(const std::string& user,
                                            const std::string& name);

  // --- Multi-tenant quotas + continuous queries (streaming subsystem) ---

  /// Sets (or replaces) a tenant's rate limits, persisting them in the
  /// catalog so they survive restarts. Zero fields mean unlimited.
  Status SetTenantQuota(const std::string& tenant,
                        const meta::TenantQuotaConfig& quota);

  /// Standing-query hub: CREATE CONTINUOUS QUERY registrations live here;
  /// InsertStream feeds committed rows through it.
  stream::StreamHub* stream_hub() { return stream_hub_.get(); }
  /// Per-tenant admission control (write rows/sec, scan bytes/sec).
  stream::QuotaManager* quota_manager() { return quota_.get(); }

  meta::Catalog* catalog() { return catalog_.get(); }
  cluster::RegionCluster* cluster() { return cluster_.get(); }
  obs::SlowQueryLog* slow_query_log() { return slow_query_log_.get(); }
  const EngineOptions& options() const { return options_; }

 private:
  explicit JustEngine(EngineOptions options) : options_(std::move(options)) {}

  static void ApplyDefaultIndexes(meta::TableMeta* table);

  /// Backfills `def` by streaming the base table (slot 0) in WriteBatch
  /// chunks, then replays the catch-up journal until CloseIfDrained()
  /// succeeds. Never blocks writers.
  Status BuildIndex(const std::string& user, const std::string& table,
                    const meta::SecondaryIndexDef& def,
                    const std::shared_ptr<IndexBuildJournal>& journal);

  /// Deletes every key in index slots [slot, slot + count) of a table's
  /// key space, in one cluster scan.
  Status PurgeIndexKeySpace(uint64_t table_id, uint32_t slot,
                            uint32_t count = 1);

  /// Drops the cached StTable binding and momentarily takes the write
  /// barrier exclusively so no in-flight writer still holds a stale binding
  /// (one without the new index defs) when the caller proceeds.
  void InvalidateTableAndDrainWriters(const std::string& user,
                                      const std::string& table);

  EngineOptions options_;
  std::unique_ptr<meta::Catalog> catalog_;
  std::unique_ptr<cluster::RegionCluster> cluster_;
  std::unique_ptr<obs::SlowQueryLog> slow_query_log_;
  std::unique_ptr<stream::QuotaManager> quota_;
  std::unique_ptr<stream::StreamHub> stream_hub_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<StTable>> table_cache_;
  std::map<std::string, exec::DataFrame> views_;

  /// Writers hold this shared around (bind table, write); index DDL takes
  /// it exclusive for a moment after invalidating the table cache, so a
  /// writer can never insert through a binding that predates the DDL after
  /// the backfill scan has started.
  mutable std::shared_mutex write_barrier_;
  /// In-progress online builds: ViewKey(user, table) -> index name ->
  /// catch-up journal. GetTable attaches these to fresh bindings.
  std::map<std::string, std::map<std::string, std::shared_ptr<IndexBuildJournal>>>
      active_builds_;
};

}  // namespace just::core

#endif  // JUST_CORE_ENGINE_H_
