// Quickstart: a guided tour of JUST through JustQL — the Section V / VI
// surface. Creates tables, loads data, runs the paper's three query types,
// builds a view, and shows the Figure 8 optimizer at work.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_quickstart

#include <cstdio>
#include <memory>

#include "core/engine.h"
#include "sql/justql.h"
#include "workload/generators.h"

namespace {

void Run(just::sql::JustQL* ql, const std::string& sql, size_t max_rows = 5) {
  std::printf("justql> %s\n", sql.c_str());
  auto result = ql->Execute("demo", sql);
  if (!result.ok()) {
    std::printf("  !! %s\n\n", result.status().ToString().c_str());
    return;
  }
  if (!result->message.empty()) {
    std::printf("  %s\n\n", result->message.c_str());
    return;
  }
  std::printf("%s\n", result->frame.ToDisplayString(max_rows).c_str());
}

}  // namespace

int main() {
  // One shared engine serves every user (the paper's shared Spark context).
  just::core::EngineOptions options;
  options.data_dir = "/tmp/just_quickstart";
  auto engine = just::core::JustEngine::Open(options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  just::sql::JustQL ql(engine->get());

  std::printf("== 1. Definition operations (Section V-A) ==\n\n");
  Run(&ql,
      "CREATE TABLE orders (fid string:primary key, time date, "
      "geom point:srid=4326)");
  Run(&ql, "CREATE TABLE couriers AS trajectory");
  Run(&ql, "SHOW TABLES");
  Run(&ql, "DESC TABLE couriers");

  std::printf("== 2. Manipulation operations (Section V-B) ==\n\n");
  Run(&ql,
      "INSERT INTO orders VALUES "
      "('o1', '2018-10-01 09:30:00', st_makePoint(116.397, 39.916)), "
      "('o2', '2018-10-01 20:15:00', st_makePoint(116.410, 39.920)), "
      "('o3', '2018-10-02 11:05:00', st_makePoint(116.350, 39.870))");

  // Bulk data through the programmatic API (the SDK path).
  just::workload::OrderOptions gen;
  gen.num_orders = 5000;
  std::vector<just::exec::Row> batch;
  for (const auto& order : just::workload::GenerateOrders(gen)) {
    batch.push_back({just::exec::Value::String(order.fid),
                     just::exec::Value::Timestamp(order.time),
                     just::exec::Value::GeometryVal(
                         just::geo::Geometry::MakePoint(order.point))});
  }
  if (auto st = (*engine)->InsertBatch("demo", "orders", batch); !st.ok()) {
    std::fprintf(stderr, "bulk insert: %s\n", st.ToString().c_str());
    return 1;
  }
  (*engine)->Finalize().ok();
  std::printf("bulk-loaded %zu generated orders\n\n", batch.size());

  std::printf("== 3. Query operations (Section V-C) ==\n\n");
  std::printf("-- spatial range query (Z2 index) --\n");
  Run(&ql,
      "SELECT fid, time, geom FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.30, 39.85, 116.45, 39.95) LIMIT 5");
  std::printf("-- spatio-temporal range query (the paper's Z2T index) --\n");
  Run(&ql,
      "SELECT fid, time FROM orders WHERE geom WITHIN "
      "st_makeMBR(116.30, 39.85, 116.45, 39.95) AND "
      "time BETWEEN '2018-10-01' AND '2018-10-02' LIMIT 5");
  std::printf("-- k-NN query (Algorithm 1) --\n");
  Run(&ql,
      "SELECT fid, geom FROM orders WHERE geom IN "
      "st_KNN(st_makePoint(116.40, 39.91), 5)");

  std::printf("== 4. Views: one query, multiple usages (Section IV-D) ==\n\n");
  Run(&ql,
      "CREATE VIEW downtown AS SELECT fid, time, geom FROM orders WHERE "
      "geom WITHIN st_makeMBR(116.30, 39.85, 116.45, 39.95)");
  Run(&ql, "SELECT count(*) AS orders_downtown FROM downtown");
  Run(&ql,
      "SELECT st_asText(st_WGS84ToGCJ02(geom)) AS gcj02 FROM downtown "
      "LIMIT 3");
  Run(&ql, "STORE VIEW downtown TO TABLE downtown_snapshot");
  Run(&ql, "SHOW TABLES");

  std::printf("== 5. The SQL optimizer (Section VI, Figure 8) ==\n\n");
  auto explain = ql.ExplainSelect(
      "demo",
      "SELECT fid, geom FROM (SELECT * FROM orders) t "
      "WHERE fid = 'o' AND geom WITHIN st_makeMBR(116.3, 39.8, 116.5, 40.0) "
      "ORDER BY time");
  if (explain.ok()) std::printf("%s\n", explain->c_str());

  std::printf("== 6. Cursor-style results (Figure 2's data flow) ==\n\n");
  auto orders_meta = (*engine)->DescribeTable("demo", "orders");
  auto batches = (*engine)->Query("demo", "orders", just::core::QuerySpec{});
  if (orders_meta.ok() && batches.ok()) {
    just::core::ResultSet::Options rs_options;
    rs_options.direct_row_limit = 100;  // force the multi-part path
    rs_options.spill_dir = "/tmp/just_quickstart/spill";
    auto rs = just::core::ResultSet::Make(
        just::exec::BatchesToDataFrame(orders_meta->MakeSchema(), *batches),
        rs_options);
    if (rs.ok()) {
      size_t n = 0;
      while ((*rs)->HasNext() && (*rs)->Next().ok()) ++n;
      std::printf("streamed %zu rows through a %s result set\n", n,
                  (*rs)->spilled() ? "spilled (multi-part)" : "direct");
    }
  }
  std::printf("\nquickstart done.\n");
  return 0;
}
