#ifndef JUST_META_CATALOG_H_
#define JUST_META_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "curve/index_strategy.h"
#include "exec/dataframe.h"
#include "kvstore/env.h"

namespace just::meta {

/// Table kinds of Section IV-D. (View tables live in memory and are tracked
/// by the engine session state, not the durable catalog.)
enum class TableKind { kCommon, kPlugin };

/// One column declaration from CREATE TABLE.
struct ColumnDef {
  std::string name;
  exec::DataType type = exec::DataType::kNull;
  bool primary_key = false;
  std::string srid;      ///< e.g. "4326" from point:srid=4326
  std::string compress;  ///< e.g. "gzip" from st_series:compress=gzip|zip
};

/// One secondary index over the table's spatio-temporal fields.
struct IndexConfig {
  curve::IndexType type = curve::IndexType::kZ2;
  int64_t period_len_ms = kMillisPerDay;
};

/// Lifecycle of a secondary attribute index. `kBuilding` indexes are being
/// backfilled online: writers already maintain them, but queries must not
/// use them until the atomic catalog flip to `kReady`.
enum class IndexState { kBuilding, kReady };

/// One CREATE INDEX secondary index: entries live in their own key-prefix
/// slot of the table's key space, keyed by an order-preserving encoding of
/// the indexed column value followed by the row fid, with the full encoded
/// row as a covering value.
struct SecondaryIndexDef {
  std::string name;    ///< index name, unique within the table
  std::string column;  ///< indexed column name
  uint32_t slot = 0;   ///< key-prefix slot (assigned at creation, stable)
  IndexState state = IndexState::kBuilding;
};

/// Everything the meta table records about a data table: kind, fields,
/// index configuration, and the special-column bindings.
struct TableMeta {
  std::string user;    ///< namespace owner (Section VII-A)
  std::string name;    ///< logical table name
  TableKind kind = TableKind::kCommon;
  std::string plugin;  ///< plugin type name, e.g. "trajectory"
  std::vector<ColumnDef> columns;
  std::vector<IndexConfig> indexes;
  std::string fid_column;
  std::string geom_column;
  std::string time_column;
  /// Secondary indexes (Figure 1's Attribute Indexing): CREATE INDEX builds
  /// them online; USERDATA {'just.attr.indexes':'col'} declares them ready
  /// at CREATE TABLE.
  std::vector<SecondaryIndexDef> secondary_indexes;
  /// Next free secondary-index slot: monotonic over the table's lifetime so
  /// a dropped index's slot (and any orphaned entries a crashed drop left
  /// behind) is never reused.
  uint32_t next_index_slot = 0;
  uint64_t table_id = 0;  ///< storage key prefix, assigned by the catalog
  /// Catalog generation: globally monotonic, reassigned on CREATE TABLE and
  /// bumped on every index DDL touching this table. Compiled-plan caches key
  /// on it so any DDL invalidates cached programs for the table.
  uint64_t generation = 0;

  int ColumnIndex(const std::string& column_name) const;
  std::shared_ptr<exec::Schema> MakeSchema() const;
  /// Fills whichever special columns are unset: fid from the first
  /// primary-key column, geom from the first geometry or trajectory column,
  /// time from the first timestamp column.
  void InferSpecialColumns();
  /// The secondary index named `index_name`, or nullptr.
  const SecondaryIndexDef* FindSecondaryIndex(
      const std::string& index_name) const;
  /// A `kReady` secondary index over `column_name`, or nullptr.
  const SecondaryIndexDef* ReadySecondaryIndexOn(
      const std::string& column_name) const;
};

/// Per-tenant (namespace/user) resource quota. Zero means unlimited for
/// that dimension; burst values of zero default to one second's worth of
/// the rate. Enforced by stream::QuotaManager; stored here so limits
/// survive restarts alongside the rest of the metadata.
struct TenantQuotaConfig {
  uint64_t write_rows_per_sec = 0;
  uint64_t write_burst_rows = 0;
  uint64_t scan_bytes_per_sec = 0;
  uint64_t scan_burst_bytes = 0;
};

/// The meta store (the role MySQL plays in the paper): durable, transactional
/// table metadata with namespace isolation. Persistence is a journaled JSON
/// file rewritten on every DDL commit the way the LSM store commits its
/// MANIFEST: a tmp file is written and fsynced, then renamed over the old
/// one, so a crash leaves either the old catalog or the new one. Its first
/// line stamps the catalog format (`{"format":1}`); Open refuses a
/// non-empty file without that exact line with NotSupported, and a missing
/// file is a fresh catalog.
class Catalog {
 public:
  /// `env` is the filesystem seam (the engine passes its stores' Env);
  /// nullptr means kv::Env::Default().
  static Result<std::unique_ptr<Catalog>> Open(const std::string& path,
                                               kv::Env* env = nullptr);

  /// Assigns `table_id` and persists. Fails on duplicate (user, name).
  Status CreateTable(TableMeta* table);

  Status DropTable(const std::string& user, const std::string& name);

  /// Registers a secondary index on (user, name) and persists. Fails on a
  /// duplicate index name. Bumps the table's generation.
  Status AddIndex(const std::string& user, const std::string& name,
                  const SecondaryIndexDef& def);

  /// Removes the secondary index and persists; `dropped` (optional)
  /// receives the removed definition. Bumps the table's generation.
  Status DropIndex(const std::string& user, const std::string& name,
                   const std::string& index_name,
                   SecondaryIndexDef* dropped = nullptr);

  /// Flips the index's lifecycle state (the atomic `building` -> `ready`
  /// commit point of an online build). Bumps the table's generation.
  Status SetIndexState(const std::string& user, const std::string& name,
                       const std::string& index_name, IndexState state);

  Result<TableMeta> GetTable(const std::string& user,
                             const std::string& name) const;

  bool TableExists(const std::string& user, const std::string& name) const;

  /// Tables owned by `user`, sorted by name (SHOW TABLES).
  std::vector<TableMeta> ListTables(const std::string& user) const;

  /// Every table in the catalog (the engine's startup sweep over leftover
  /// `building` indexes).
  std::vector<TableMeta> AllTables() const;

  /// Sets (or replaces) `tenant`'s quota and persists. An all-zero config
  /// still persists — it pins the tenant to "explicitly unlimited".
  Status SetTenantQuota(const std::string& tenant,
                        const TenantQuotaConfig& quota);

  /// True (and fills `out`) when `tenant` has a stored quota.
  bool GetTenantQuota(const std::string& tenant, TenantQuotaConfig* out) const;

  /// Every stored tenant quota (the engine's startup load into the
  /// QuotaManager), keyed by tenant.
  std::map<std::string, TenantQuotaConfig> AllTenantQuotas() const;

 private:
  Catalog(std::string path, kv::Env* env)
      : path_(std::move(path)), env_(env) {}

  Status Load();
  Status PersistLocked() const;
  static std::string Key(const std::string& user, const std::string& name);

  std::string path_;
  kv::Env* env_;
  mutable std::mutex mu_;
  std::map<std::string, TableMeta> tables_;
  std::map<std::string, TenantQuotaConfig> tenant_quotas_;
  uint64_t next_table_id_ = 1;
  uint64_t next_generation_ = 1;
};

}  // namespace just::meta

#endif  // JUST_META_CATALOG_H_
