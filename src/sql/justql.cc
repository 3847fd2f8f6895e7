#include "sql/justql.h"

#include <cctype>
#include <chrono>

#include "common/json.h"
#include "core/loader.h"
#include "core/plugins.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/analyzer.h"
#include "sql/executor.h"
#include "sql/expr_eval.h"
#include "sql/optimizer.h"
#include "sql/parser.h"

namespace just::sql {

namespace {

exec::DataFrame MessageFrame(const std::string& column,
                             const std::vector<std::string>& values) {
  auto schema = std::make_shared<exec::Schema>();
  schema->AddField({column, exec::DataType::kString});
  exec::DataFrame frame(schema);
  for (const std::string& v : values) {
    frame.AddRow({exec::Value::String(v)});
  }
  return frame;
}

Result<int64_t> ParsePeriodName(const std::string& name) {
  std::string lower;
  for (char c : name) lower += static_cast<char>(std::tolower(c));
  if (lower == "day") return kMillisPerDay;
  if (lower == "week") return kMillisPerWeek;
  if (lower == "month") return kMillisPerMonth;
  if (lower == "year") return kMillisPerYear;
  if (lower == "century") return kMillisPerCentury;
  return Status::InvalidArgument("unknown time period: " + name);
}

// Applies the USERDATA hint: {'geomesa.indices.enabled':'z3,xz2t'} selects
// indexes, {'just.period':'day|week|month|year|century'} the Eq. (1) bin,
// {'just.attr.indexes':'col'} declares secondary indexes.
Status ApplyUserdata(const std::string& json, meta::TableMeta* table) {
  if (json.empty()) return Status::OK();
  JUST_ASSIGN_OR_RETURN(auto doc, ParseJson(json));
  int64_t period = kMillisPerDay;
  std::string period_name = doc.GetString("just.period");
  if (!period_name.empty()) {
    JUST_ASSIGN_OR_RETURN(period, ParsePeriodName(period_name));
  }
  // {'just.attr.indexes':'c1,c2'} declares secondary indexes on the new
  // (empty) table; the engine assigns their slots and marks them ready.
  std::string attrs = doc.GetString("just.attr.indexes");
  std::string current;
  auto declare = [&] {
    if (!current.empty() &&
        table->FindSecondaryIndex("attr_" + current) == nullptr) {
      meta::SecondaryIndexDef def;
      def.name = "attr_" + current;
      def.column = current;
      table->secondary_indexes.push_back(std::move(def));
    }
    current.clear();
  };
  for (char c : attrs) {
    if (c == ',' || c == ' ') {
      declare();
    } else {
      current += c;
    }
  }
  declare();
  std::string enabled = doc.GetString("geomesa.indices.enabled");
  if (!enabled.empty()) {
    table->indexes.clear();
    std::string current;
    auto flush = [&]() -> Status {
      if (current.empty()) return Status::OK();
      JUST_ASSIGN_OR_RETURN(auto type, curve::ParseIndexType(current));
      table->indexes.push_back({type, period});
      current.clear();
      return Status::OK();
    };
    for (char c : enabled) {
      if (c == ',' || c == ' ') {
        JUST_RETURN_NOT_OK(flush());
      } else {
        current += c;
      }
    }
    JUST_RETURN_NOT_OK(flush());
  } else if (!period_name.empty()) {
    for (auto& index : table->indexes) index.period_len_ms = period;
  }
  return Status::OK();
}

// Renders the LSM level layout + compaction totals from the metrics
// registry: one line per level (summed across every live store in the
// process) and one compaction summary line. Appended to EXPLAIN ANALYZE so
// the storage shape behind the plan's I/O numbers is visible in place.
// Token names deliberately avoid the span-counter tokens (" bytes_read=",
// " rows_scanned=", ...) that explain_analyze_test sums over the output.
std::string LsmStorageSummary() {
  obs::RegistrySnapshot snap = obs::Registry::Global().GetSnapshot();
  std::string out = "=== Storage (LSM levels) ===\n";
  for (int level = 0;; ++level) {
    std::string files_name = "just_kv_level" + std::to_string(level) +
                             "_files";
    if (snap.gauges.find(files_name) == snap.gauges.end()) break;
    out += "L" + std::to_string(level) + ": files=" +
           std::to_string(snap.gauge(files_name)) + " size_bytes=" +
           std::to_string(snap.gauge("just_kv_level" + std::to_string(level) +
                                     "_bytes")) +
           "\n";
  }
  out += "compactions=" +
         std::to_string(snap.counter("just_kv_compactions_total")) +
         " compaction_in=" +
         std::to_string(snap.counter("just_kv_compaction_input_bytes_total")) +
         " compaction_out=" +
         std::to_string(
             snap.counter("just_kv_compaction_output_bytes_total")) +
         " flush_out=" +
         std::to_string(snap.counter("just_kv_flush_output_bytes_total")) +
         " write_amp_x100=" +
         std::to_string(snap.gauge("just_kv_write_amp_x100")) + "\n";
  return out;
}

}  // namespace

Result<std::string> JustQL::ExplainSelect(const std::string& user,
                                          const std::string& sql) {
  JUST_ASSIGN_OR_RETURN(auto stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("EXPLAIN supports SELECT only");
  }
  Analyzer analyzer(engine_, user);
  JUST_ASSIGN_OR_RETURN(auto plan, analyzer.Analyze(*stmt.select));
  std::string out = "=== Analyzed Logical Plan ===\n" + plan->ToString();
  JUST_ASSIGN_OR_RETURN(plan, Optimize(std::move(plan), engine_, user));
  out += "=== Optimized Logical Plan ===\n" + plan->ToString();
  return out;
}

Result<QueryResult> JustQL::Execute(const std::string& user,
                                    const std::string& sql) {
  static obs::Counter* statements =
      obs::Registry::Global().GetCounter("just_sql_statements_total");
  static obs::Histogram* latency =
      obs::Registry::Global().GetHistogram("just_sql_statement_us");
  statements->Increment();
  const auto start = std::chrono::steady_clock::now();
  core::QueryStats stats;
  auto result = ExecuteParsed(user, sql, &stats);
  const uint64_t wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  latency->Record(wall_us);
  if (engine_->slow_query_log() != nullptr) {
    obs::SlowQueryEntry entry;
    entry.user = user;
    entry.sql = sql;
    entry.wall_us = wall_us;
    entry.rows = result.ok() ? result->frame.num_rows() : 0;
    entry.rows_scanned = stats.rows_scanned;
    entry.key_ranges = stats.key_ranges;
    if (result.ok()) entry.trace_json = result->trace_json;
    engine_->slow_query_log()->MaybeRecord(std::move(entry));
  }
  return result;
}

Result<QueryResult> JustQL::ExecuteParsed(const std::string& user,
                                          const std::string& sql,
                                          core::QueryStats* stats) {
  JUST_ASSIGN_OR_RETURN(auto stmt, ParseStatement(sql));
  QueryResult result;
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      Analyzer analyzer(engine_, user);
      JUST_ASSIGN_OR_RETURN(auto plan, analyzer.Analyze(*stmt.select));
      JUST_ASSIGN_OR_RETURN(plan, Optimize(std::move(plan)));
      Executor executor(engine_, user);
      JUST_ASSIGN_OR_RETURN(result.frame, executor.Execute(*plan, stats));
      return result;
    }
    case Statement::Kind::kExplain: {
      const ExplainStmt& explain = *stmt.explain;
      Analyzer analyzer(engine_, user);
      JUST_ASSIGN_OR_RETURN(auto plan, analyzer.Analyze(*explain.select));
      JUST_ASSIGN_OR_RETURN(plan, Optimize(std::move(plan), engine_, user));
      if (!explain.analyze) {
        result.message =
            "=== Optimized Logical Plan ===\n" + plan->ToString();
        return result;
      }
      // EXPLAIN ANALYZE: run the plan under a trace; every physical
      // operator (and the storage layers beneath it) contributes a span.
      obs::Trace trace("Query");
      {
        obs::SpanScope scope(trace.root());
        Executor executor(engine_, user);
        JUST_ASSIGN_OR_RETURN(result.frame, executor.Execute(*plan, stats));
      }
      trace.root()->counters().rows_out.store(result.frame.num_rows(),
                                              std::memory_order_relaxed);
      trace.root()->End();
      result.message =
          "=== EXPLAIN ANALYZE ===\n" + trace.ToString() + LsmStorageSummary();
      result.trace_json = trace.ToJson();
      return result;
    }
    case Statement::Kind::kCreateTable: {
      const CreateTableStmt& create = *stmt.create_table;
      if (!create.plugin.empty()) {
        if (!core::IsKnownPlugin(create.plugin)) {
          return Status::InvalidArgument("unknown plugin table type: " +
                                         create.plugin);
        }
        JUST_ASSIGN_OR_RETURN(
            auto table, core::MakePluginTable(create.plugin, user,
                                              create.name));
        JUST_RETURN_NOT_OK(ApplyUserdata(create.userdata_json, &table));
        JUST_RETURN_NOT_OK(engine_->CreateTable(std::move(table)));
        result.message = "plugin table created: " + create.name;
        return result;
      }
      meta::TableMeta table;
      table.user = user;
      table.name = create.name;
      for (const ColumnDecl& decl : create.columns) {
        meta::ColumnDef col;
        col.name = decl.name;
        JUST_ASSIGN_OR_RETURN(col.type,
                              exec::ParseDataType(decl.type_name));
        col.primary_key = decl.primary_key;
        col.srid = decl.srid;
        col.compress = decl.compress;
        table.columns.push_back(std::move(col));
      }
      // The engine fills special columns and default indexes; USERDATA
      // overrides apply on top of the inferred special columns.
      if (!create.userdata_json.empty()) {
        table.InferSpecialColumns();
        JUST_RETURN_NOT_OK(ApplyUserdata(create.userdata_json, &table));
      }
      JUST_RETURN_NOT_OK(engine_->CreateTable(std::move(table)));
      result.message = "table created: " + create.name;
      return result;
    }
    case Statement::Kind::kCreateView: {
      Analyzer analyzer(engine_, user);
      JUST_ASSIGN_OR_RETURN(auto plan,
                            analyzer.Analyze(*stmt.create_view->select));
      JUST_ASSIGN_OR_RETURN(plan, Optimize(std::move(plan)));
      Executor executor(engine_, user);
      JUST_ASSIGN_OR_RETURN(auto frame, executor.Execute(*plan));
      JUST_RETURN_NOT_OK(
          engine_->CreateView(user, stmt.create_view->name, std::move(frame)));
      result.message = "view created: " + stmt.create_view->name;
      return result;
    }
    case Statement::Kind::kCreateIndex: {
      const CreateIndexStmt& ci = *stmt.create_index;
      // Synchronous from the caller's view, but never blocks writers: the
      // index registers as `building`, backfills online, and flips to
      // `ready` atomically (see JustEngine::CreateIndex).
      JUST_RETURN_NOT_OK(
          engine_->CreateIndex(user, ci.table, ci.name, ci.column));
      result.message = "index created: " + ci.name + " on " + ci.table +
                       "(" + ci.column + ")";
      return result;
    }
    case Statement::Kind::kDropIndex: {
      JUST_RETURN_NOT_OK(engine_->DropIndex(user, stmt.drop_index->table,
                                            stmt.drop_index->name));
      result.message = "index dropped: " + stmt.drop_index->name;
      return result;
    }
    case Statement::Kind::kCreateContinuousQuery: {
      const CreateContinuousQueryStmt& cq = *stmt.create_continuous_query;
      JUST_ASSIGN_OR_RETURN(auto table_meta,
                            engine_->DescribeTable(user, cq.table));
      stream::ContinuousQuerySpec spec;
      spec.name = cq.name;
      spec.user = user;
      spec.table = cq.table;
      if (cq.where != nullptr) spec.predicate_sql = cq.where->ToString();
      spec.group_by = cq.group_by;
      spec.window_ms = cq.window_ms;
      // Same cache tag as the executor's scans: the CQ shares the compiled
      // predicate program with ad-hoc queries of this catalog generation.
      const std::string cache_tag = TableCacheTag(table_meta);
      int fid_col = table_meta.fid_column.empty()
                        ? -1
                        : table_meta.ColumnIndex(table_meta.fid_column);
      int time_col = table_meta.time_column.empty()
                         ? -1
                         : table_meta.ColumnIndex(table_meta.time_column);
      JUST_RETURN_NOT_OK(engine_->stream_hub()->Register(
          std::move(spec), table_meta.MakeSchema(), cq.where.get(),
          cache_tag, fid_col, time_col));
      result.message = "continuous query created: " + cq.name + " on " +
                       cq.table;
      return result;
    }
    case Statement::Kind::kDropContinuousQuery: {
      JUST_RETURN_NOT_OK(engine_->stream_hub()->Unregister(
          user, stmt.drop_continuous_query->name));
      result.message =
          "continuous query dropped: " + stmt.drop_continuous_query->name;
      return result;
    }
    case Statement::Kind::kDrop: {
      if (stmt.drop->is_view) {
        JUST_RETURN_NOT_OK(engine_->DropView(user, stmt.drop->name));
        result.message = "view dropped: " + stmt.drop->name;
      } else {
        JUST_RETURN_NOT_OK(engine_->DropTable(user, stmt.drop->name));
        result.message = "table dropped: " + stmt.drop->name;
      }
      return result;
    }
    case Statement::Kind::kShow: {
      if (stmt.show->continuous_queries) {
        auto schema = std::make_shared<exec::Schema>();
        schema->AddField({"name", exec::DataType::kString});
        schema->AddField({"table", exec::DataType::kString});
        schema->AddField({"kind", exec::DataType::kString});
        schema->AddField({"predicate", exec::DataType::kString});
        schema->AddField({"group_by", exec::DataType::kString});
        schema->AddField({"window_ms", exec::DataType::kInt});
        schema->AddField({"matches", exec::DataType::kInt});
        schema->AddField({"notifications", exec::DataType::kInt});
        schema->AddField({"dropped", exec::DataType::kInt});
        exec::DataFrame frame(schema);
        for (const auto& info : engine_->stream_hub()->List(user)) {
          frame.AddRow(
              {exec::Value::String(info.name), exec::Value::String(info.table),
               exec::Value::String(info.kind),
               exec::Value::String(info.predicate_sql),
               exec::Value::String(info.group_by),
               exec::Value::Int(info.window_ms),
               exec::Value::Int(static_cast<int64_t>(info.matches)),
               exec::Value::Int(static_cast<int64_t>(info.notifications)),
               exec::Value::Int(static_cast<int64_t>(info.dropped))});
        }
        result.frame = std::move(frame);
      } else if (stmt.show->views) {
        result.frame = MessageFrame("view", engine_->ShowViews(user));
      } else {
        result.frame = MessageFrame("table", engine_->ShowTables(user));
      }
      return result;
    }
    case Statement::Kind::kDesc: {
      auto schema = std::make_shared<exec::Schema>();
      schema->AddField({"column", exec::DataType::kString});
      schema->AddField({"type", exec::DataType::kString});
      schema->AddField({"modifiers", exec::DataType::kString});
      exec::DataFrame frame(schema);
      if (stmt.desc->is_view) {
        JUST_ASSIGN_OR_RETURN(auto view,
                              engine_->GetView(user, stmt.desc->name));
        for (const auto& f : view.schema().fields()) {
          frame.AddRow({exec::Value::String(f.name),
                        exec::Value::String(exec::DataTypeName(f.type)),
                        exec::Value::String("")});
        }
      } else {
        JUST_ASSIGN_OR_RETURN(auto table,
                              engine_->DescribeTable(user, stmt.desc->name));
        for (const auto& col : table.columns) {
          std::string mods;
          if (col.primary_key) mods += "primary key ";
          if (!col.srid.empty()) mods += "srid=" + col.srid + " ";
          if (!col.compress.empty()) mods += "compress=" + col.compress;
          frame.AddRow({exec::Value::String(col.name),
                        exec::Value::String(exec::DataTypeName(col.type)),
                        exec::Value::String(mods)});
        }
      }
      result.frame = std::move(frame);
      return result;
    }
    case Statement::Kind::kLoad: {
      const LoadStmt& load = *stmt.load;
      if (load.source_kind != "csv" && load.source_kind != "file") {
        return Status::NotSupported(
            "only csv:'<path>' sources are available in this build (got " +
            load.source_kind + ")");
      }
      core::LoadConfig config;
      if (!load.config_json.empty()) {
        JUST_ASSIGN_OR_RETURN(auto doc, ParseJson(load.config_json));
        for (const auto& [key, value] : doc.object_members()) {
          if (value.is_string()) {
            config.mapping[key] = value.string_value();
          }
        }
      }
      if (!load.filter.empty()) {
        // FILTER 'limit N' simplification.
        size_t pos = load.filter.find("limit");
        if (pos != std::string::npos) {
          config.limit = std::strtol(load.filter.c_str() + pos + 5, nullptr,
                                     10);
        }
      }
      JUST_ASSIGN_OR_RETURN(
          size_t loaded,
          core::LoadCsv(engine_, user, load.target_table, load.source_path,
                        config));
      result.message = "loaded " + std::to_string(loaded) + " rows into " +
                       load.target_table;
      return result;
    }
    case Statement::Kind::kStoreView: {
      JUST_RETURN_NOT_OK(engine_->StoreViewToTable(
          user, stmt.store_view->view, stmt.store_view->table));
      result.message = "view " + stmt.store_view->view + " stored to " +
                       stmt.store_view->table;
      return result;
    }
    case Statement::Kind::kInsert: {
      JUST_ASSIGN_OR_RETURN(auto table_meta,
                            engine_->DescribeTable(user, stmt.insert->table));
      std::vector<exec::Row> rows;
      for (const auto& value_list : stmt.insert->rows) {
        if (value_list.size() != table_meta.columns.size()) {
          return Status::InvalidArgument(
              "INSERT width mismatch: expected " +
              std::to_string(table_meta.columns.size()) + " values");
        }
        exec::Row row;
        for (size_t i = 0; i < value_list.size(); ++i) {
          JUST_ASSIGN_OR_RETURN(auto value,
                                EvaluateConstant(*value_list[i]));
          // Coerce strings to timestamps for date columns.
          if (table_meta.columns[i].type == exec::DataType::kTimestamp &&
              value.type() == exec::DataType::kString) {
            JUST_ASSIGN_OR_RETURN(auto ts,
                                  ParseTimestamp(value.string_value()));
            value = exec::Value::Timestamp(ts);
          }
          row.push_back(std::move(value));
        }
        rows.push_back(std::move(row));
      }
      if (stmt.insert->stream) {
        JUST_RETURN_NOT_OK(
            engine_->InsertStream(user, stmt.insert->table, rows));
        result.message =
            "streamed " + std::to_string(rows.size()) + " rows";
      } else {
        JUST_RETURN_NOT_OK(
            engine_->InsertBatch(user, stmt.insert->table, rows));
        result.message =
            "inserted " + std::to_string(rows.size()) + " rows";
      }
      return result;
    }
  }
  return Status::Internal("unhandled statement kind");
}

}  // namespace just::sql
