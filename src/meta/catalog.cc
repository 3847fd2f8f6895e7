#include "meta/catalog.h"

#include <algorithm>
#include <string_view>

#include "common/json.h"

namespace just::meta {

int TableMeta::ColumnIndex(const std::string& column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == column_name) return static_cast<int>(i);
  }
  return -1;
}

std::shared_ptr<exec::Schema> TableMeta::MakeSchema() const {
  auto schema = std::make_shared<exec::Schema>();
  for (const ColumnDef& col : columns) {
    schema->AddField(exec::Field{col.name, col.type});
  }
  return schema;
}

void TableMeta::InferSpecialColumns() {
  for (const ColumnDef& col : columns) {
    if (fid_column.empty() && col.primary_key) fid_column = col.name;
    if (geom_column.empty() && (col.type == exec::DataType::kGeometry ||
                                col.type == exec::DataType::kTrajectory)) {
      geom_column = col.name;
    }
    if (time_column.empty() && col.type == exec::DataType::kTimestamp) {
      time_column = col.name;
    }
  }
}

const SecondaryIndexDef* TableMeta::FindSecondaryIndex(
    const std::string& index_name) const {
  for (const SecondaryIndexDef& def : secondary_indexes) {
    if (def.name == index_name) return &def;
  }
  return nullptr;
}

const SecondaryIndexDef* TableMeta::ReadySecondaryIndexOn(
    const std::string& column_name) const {
  for (const SecondaryIndexDef& def : secondary_indexes) {
    if (def.column == column_name && def.state == IndexState::kReady) {
      return &def;
    }
  }
  return nullptr;
}

namespace {

// The catalog's format stamp: the first line of every catalog file.
constexpr std::string_view kFormatStamp = R"({"format":1})";

JsonValue TableToJson(const TableMeta& table) {
  std::map<std::string, JsonValue> obj;
  obj["user"] = JsonValue::String(table.user);
  obj["name"] = JsonValue::String(table.name);
  obj["kind"] = JsonValue::String(table.kind == TableKind::kCommon
                                      ? "common"
                                      : "plugin");
  obj["plugin"] = JsonValue::String(table.plugin);
  obj["fid"] = JsonValue::String(table.fid_column);
  obj["geom"] = JsonValue::String(table.geom_column);
  obj["time"] = JsonValue::String(table.time_column);
  obj["id"] = JsonValue::Number(static_cast<double>(table.table_id));
  std::vector<JsonValue> cols;
  for (const ColumnDef& col : table.columns) {
    std::map<std::string, JsonValue> c;
    c["name"] = JsonValue::String(col.name);
    c["type"] = JsonValue::String(exec::DataTypeName(col.type));
    c["pk"] = JsonValue::Bool(col.primary_key);
    c["srid"] = JsonValue::String(col.srid);
    c["compress"] = JsonValue::String(col.compress);
    cols.push_back(JsonValue::Object(std::move(c)));
  }
  obj["columns"] = JsonValue::Array(std::move(cols));
  std::vector<JsonValue> idxs;
  for (const IndexConfig& idx : table.indexes) {
    std::map<std::string, JsonValue> x;
    x["type"] = JsonValue::String(curve::IndexTypeName(idx.type));
    x["period_ms"] = JsonValue::Number(static_cast<double>(idx.period_len_ms));
    idxs.push_back(JsonValue::Object(std::move(x)));
  }
  obj["indexes"] = JsonValue::Array(std::move(idxs));
  std::vector<JsonValue> sec;
  for (const SecondaryIndexDef& def : table.secondary_indexes) {
    std::map<std::string, JsonValue> s;
    s["name"] = JsonValue::String(def.name);
    s["column"] = JsonValue::String(def.column);
    s["slot"] = JsonValue::Number(static_cast<double>(def.slot));
    s["state"] = JsonValue::String(def.state == IndexState::kReady
                                       ? "ready"
                                       : "building");
    sec.push_back(JsonValue::Object(std::move(s)));
  }
  obj["sec_indexes"] = JsonValue::Array(std::move(sec));
  obj["next_slot"] =
      JsonValue::Number(static_cast<double>(table.next_index_slot));
  obj["gen"] = JsonValue::Number(static_cast<double>(table.generation));
  return JsonValue::Object(std::move(obj));
}

Result<TableMeta> TableFromJson(const JsonValue& json) {
  TableMeta table;
  table.user = json.GetString("user");
  table.name = json.GetString("name");
  table.kind =
      json.GetString("kind") == "plugin" ? TableKind::kPlugin
                                         : TableKind::kCommon;
  table.plugin = json.GetString("plugin");
  table.fid_column = json.GetString("fid");
  table.geom_column = json.GetString("geom");
  table.time_column = json.GetString("time");
  table.table_id = static_cast<uint64_t>(json.Get("id").number_value());
  for (const JsonValue& c : json.Get("columns").array_items()) {
    ColumnDef col;
    col.name = c.GetString("name");
    JUST_ASSIGN_OR_RETURN(col.type, exec::ParseDataType(c.GetString("type")));
    col.primary_key = c.Get("pk").bool_value();
    col.srid = c.GetString("srid");
    col.compress = c.GetString("compress");
    table.columns.push_back(std::move(col));
  }
  for (const JsonValue& x : json.Get("indexes").array_items()) {
    IndexConfig idx;
    JUST_ASSIGN_OR_RETURN(idx.type,
                          curve::ParseIndexType(x.GetString("type")));
    idx.period_len_ms =
        static_cast<int64_t>(x.Get("period_ms").number_value());
    if (idx.period_len_ms <= 0) idx.period_len_ms = kMillisPerDay;
    table.indexes.push_back(idx);
  }
  for (const JsonValue& s : json.Get("sec_indexes").array_items()) {
    SecondaryIndexDef def;
    def.name = s.GetString("name");
    def.column = s.GetString("column");
    def.slot = static_cast<uint32_t>(s.Get("slot").number_value());
    def.state = s.GetString("state") == "ready" ? IndexState::kReady
                                                : IndexState::kBuilding;
    table.secondary_indexes.push_back(std::move(def));
  }
  table.next_index_slot =
      static_cast<uint32_t>(json.Get("next_slot").number_value());
  table.generation = static_cast<uint64_t>(json.Get("gen").number_value());
  return table;
}

// Quota lines share the catalog's JSONL file with table lines and are told
// apart by their non-empty "tenant" member (table lines have "user"/"name"
// instead).
JsonValue QuotaToJson(const std::string& tenant, const TenantQuotaConfig& q) {
  std::map<std::string, JsonValue> obj;
  obj["tenant"] = JsonValue::String(tenant);
  obj["write_rps"] =
      JsonValue::Number(static_cast<double>(q.write_rows_per_sec));
  obj["write_burst"] =
      JsonValue::Number(static_cast<double>(q.write_burst_rows));
  obj["scan_bps"] =
      JsonValue::Number(static_cast<double>(q.scan_bytes_per_sec));
  obj["scan_burst"] =
      JsonValue::Number(static_cast<double>(q.scan_burst_bytes));
  return JsonValue::Object(std::move(obj));
}

TenantQuotaConfig QuotaFromJson(const JsonValue& json) {
  TenantQuotaConfig q;
  q.write_rows_per_sec =
      static_cast<uint64_t>(json.Get("write_rps").number_value());
  q.write_burst_rows =
      static_cast<uint64_t>(json.Get("write_burst").number_value());
  q.scan_bytes_per_sec =
      static_cast<uint64_t>(json.Get("scan_bps").number_value());
  q.scan_burst_bytes =
      static_cast<uint64_t>(json.Get("scan_burst").number_value());
  return q;
}

}  // namespace

std::string Catalog::Key(const std::string& user, const std::string& name) {
  return user + "." + name;
}

Result<std::unique_ptr<Catalog>> Catalog::Open(const std::string& path,
                                               kv::Env* env) {
  auto catalog = std::unique_ptr<Catalog>(
      new Catalog(path, env != nullptr ? env : kv::Env::Default()));
  JUST_RETURN_NOT_OK(catalog->Load());
  return catalog;
}

Status Catalog::Load() {
  if (!env_->FileExists(path_)) return Status::OK();  // fresh catalog
  std::string content;
  JUST_RETURN_NOT_OK(env_->ReadFileToString(path_, &content));

  if (content.empty()) return Status::OK();
  size_t pos = std::min(content.find('\n'), content.size());
  if (std::string_view(content).substr(0, pos) != kFormatStamp) {
    return Status::NotSupported("catalog " + path_ + " does not start with " +
                                std::string(kFormatStamp) +
                                "; this build reads that format only");
  }
  ++pos;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    JUST_ASSIGN_OR_RETURN(auto json, ParseJson(line));
    std::string tenant = json.GetString("tenant");
    if (!tenant.empty()) {
      tenant_quotas_[tenant] = QuotaFromJson(json);
      continue;
    }
    JUST_ASSIGN_OR_RETURN(auto table, TableFromJson(json));
    next_table_id_ = std::max(next_table_id_, table.table_id + 1);
    next_generation_ = std::max(next_generation_, table.generation + 1);
    tables_[Key(table.user, table.name)] = std::move(table);
  }
  return Status::OK();
}

Status Catalog::PersistLocked() const {
  std::string body = std::string(kFormatStamp) + "\n";
  for (const auto& [key, table] : tables_) {
    body += TableToJson(table).ToString() + "\n";
  }
  for (const auto& [tenant, quota] : tenant_quotas_) {
    body += QuotaToJson(tenant, quota).ToString() + "\n";
  }
  const std::string tmp = path_ + ".tmp";
  JUST_ASSIGN_OR_RETURN(auto file,
                        env_->NewWritableFile(tmp, /*truncate=*/true));
  JUST_RETURN_NOT_OK(file->Append(body));
  // Sync before rename: once the new name is visible it must survive a
  // power loss, or a crash after DDL could leave an empty catalog.
  JUST_RETURN_NOT_OK(file->Sync());
  JUST_RETURN_NOT_OK(file->Close());
  return env_->RenameFile(tmp, path_);
}

Status Catalog::CreateTable(TableMeta* table) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = Key(table->user, table->name);
  if (tables_.count(key) != 0) {
    return Status::AlreadyExists("table already exists: " + table->name);
  }
  table->table_id = next_table_id_++;
  table->generation = next_generation_++;
  tables_[key] = *table;
  Status st = PersistLocked();
  if (!st.ok()) {
    tables_.erase(key);  // roll back the in-memory change
    --next_table_id_;
    --next_generation_;
  }
  return st;
}

Status Catalog::AddIndex(const std::string& user, const std::string& name,
                         const SecondaryIndexDef& def) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(Key(user, name));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  TableMeta saved = it->second;
  for (const SecondaryIndexDef& existing : it->second.secondary_indexes) {
    if (existing.name == def.name) {
      return Status::AlreadyExists("index already exists: " + def.name);
    }
  }
  it->second.secondary_indexes.push_back(def);
  it->second.next_index_slot =
      std::max(it->second.next_index_slot, def.slot + 1);
  it->second.generation = next_generation_++;
  Status st = PersistLocked();
  if (!st.ok()) {
    it->second = std::move(saved);
    --next_generation_;
  }
  return st;
}

Status Catalog::DropIndex(const std::string& user, const std::string& name,
                          const std::string& index_name,
                          SecondaryIndexDef* dropped) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(Key(user, name));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  auto& defs = it->second.secondary_indexes;
  auto def_it = defs.begin();
  while (def_it != defs.end() && def_it->name != index_name) ++def_it;
  if (def_it == defs.end()) {
    return Status::NotFound("no such index: " + index_name);
  }
  TableMeta saved = it->second;
  SecondaryIndexDef removed = *def_it;
  defs.erase(def_it);
  it->second.generation = next_generation_++;
  Status st = PersistLocked();
  if (!st.ok()) {
    it->second = std::move(saved);
    --next_generation_;
    return st;
  }
  if (dropped != nullptr) *dropped = std::move(removed);
  return st;
}

Status Catalog::SetIndexState(const std::string& user, const std::string& name,
                              const std::string& index_name,
                              IndexState state) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(Key(user, name));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  for (SecondaryIndexDef& def : it->second.secondary_indexes) {
    if (def.name != index_name) continue;
    IndexState saved_state = def.state;
    uint64_t saved_gen = it->second.generation;
    def.state = state;
    it->second.generation = next_generation_++;
    Status st = PersistLocked();
    if (!st.ok()) {
      def.state = saved_state;
      it->second.generation = saved_gen;
      --next_generation_;
    }
    return st;
  }
  return Status::NotFound("no such index: " + index_name);
}

Status Catalog::DropTable(const std::string& user, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(Key(user, name));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  TableMeta saved = it->second;
  tables_.erase(it);
  Status st = PersistLocked();
  if (!st.ok()) tables_[Key(user, name)] = saved;
  return st;
}

Result<TableMeta> Catalog::GetTable(const std::string& user,
                                    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(Key(user, name));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return it->second;
}

bool Catalog::TableExists(const std::string& user,
                          const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(Key(user, name)) != 0;
}

Status Catalog::SetTenantQuota(const std::string& tenant,
                               const TenantQuotaConfig& quota) {
  if (tenant.empty()) {
    return Status::InvalidArgument("tenant name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_quotas_.find(tenant);
  bool existed = it != tenant_quotas_.end();
  TenantQuotaConfig saved = existed ? it->second : TenantQuotaConfig{};
  tenant_quotas_[tenant] = quota;
  Status st = PersistLocked();
  if (!st.ok()) {
    if (existed) {
      tenant_quotas_[tenant] = saved;
    } else {
      tenant_quotas_.erase(tenant);
    }
  }
  return st;
}

bool Catalog::GetTenantQuota(const std::string& tenant,
                             TenantQuotaConfig* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_quotas_.find(tenant);
  if (it == tenant_quotas_.end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

std::map<std::string, TenantQuotaConfig> Catalog::AllTenantQuotas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenant_quotas_;
}

std::vector<TableMeta> Catalog::AllTables() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TableMeta> out;
  for (const auto& [key, table] : tables_) out.push_back(table);
  return out;
}

std::vector<TableMeta> Catalog::ListTables(const std::string& user) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TableMeta> out;
  for (const auto& [key, table] : tables_) {
    if (table.user == user) out.push_back(table);
  }
  return out;
}

}  // namespace just::meta
