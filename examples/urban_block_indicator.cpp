// Urban Block Indicator System (Section VII-B, Figure 9a): partitions the
// city into ~150m x 150m blocks, computes per-block indicators (order
// volume, purchasing-power proxy, peak hour) from JUST spatio-temporal
// range queries, and answers interactive "address portrait" lookups.
//
//   ./build/examples/example_urban_block_indicator

#include <algorithm>
#include <cstdio>
#include <map>

#include "core/engine.h"
#include "sql/justql.h"
#include "workload/generators.h"

namespace {

struct BlockIndicators {
  int orders = 0;
  double revenue_proxy = 0;
  std::map<int, int> orders_by_hour;

  int PeakHour() const {
    int best_hour = 0, best = -1;
    for (const auto& [hour, count] : orders_by_hour) {
      if (count > best) {
        best = count;
        best_hour = hour;
      }
    }
    return best_hour;
  }
};

}  // namespace

int main() {
  just::core::EngineOptions options;
  options.data_dir = "/tmp/just_urban_blocks";
  auto engine = just::core::JustEngine::Open(options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  const std::string user = "city";

  // The indicator store uses a Z2T-indexed order table (Table III's Order
  // settings; the paper's deployment uses XZ2T over block summaries).
  just::meta::TableMeta table;
  table.user = user;
  table.name = "orders";
  table.columns = {
      {"fid", just::exec::DataType::kString, true, "", ""},
      {"time", just::exec::DataType::kTimestamp, false, "", ""},
      {"geom", just::exec::DataType::kGeometry, false, "4326", ""},
  };
  if (auto st = (*engine)->CreateTable(table); !st.ok()) {
    std::fprintf(stderr, "create: %s\n", st.ToString().c_str());
    return 1;
  }

  just::workload::OrderOptions gen;
  gen.num_orders = 30000;
  auto orders = just::workload::GenerateOrders(gen);
  std::vector<just::exec::Row> batch;
  for (const auto& order : orders) {
    batch.push_back({just::exec::Value::String(order.fid),
                     just::exec::Value::Timestamp(order.time),
                     just::exec::Value::GeometryVal(
                         just::geo::Geometry::MakePoint(order.point))});
  }
  (*engine)->InsertBatch(user, "orders", batch).ok();
  (*engine)->Finalize().ok();
  std::printf("loaded %zu orders into JUST\n", orders.size());

  // Pick the busiest business district: coarse in-memory histogram over
  // the loaded orders (the deployed system would know its districts).
  std::map<std::pair<int, int>, int> coarse;
  for (const auto& order : orders) {
    coarse[{static_cast<int>(order.point.lng / 0.02),
            static_cast<int>(order.point.lat / 0.02)}]++;
  }
  std::pair<int, int> best_cell = coarse.begin()->first;
  for (const auto& [cell, n] : coarse) {
    if (n > coarse[best_cell]) best_cell = cell;
  }
  just::geo::Point district_center{(best_cell.first + 0.5) * 0.02,
                                   (best_cell.second + 0.5) * 0.02};
  std::printf("busiest district centered at (%.4f, %.4f)\n",
              district_center.lng, district_center.lat);

  // A month of data over a 12x12-block district: one ST range query per
  // block (the paper: "users can search the indicators of any area using a
  // spatio-temporal range query").
  constexpr int kBlocks = 12;
  constexpr double kBlockKm = 0.15;  // ~150m, GeoHash-7-sized blocks
  just::TimestampMs week_start =
      just::ParseTimestamp("2018-10-01").value();
  just::TimestampMs week_end = week_start + 31 * just::kMillisPerDay;

  auto orders_meta = (*engine)->DescribeTable(user, "orders");
  if (!orders_meta.ok()) return 1;
  auto orders_schema = orders_meta->MakeSchema();
  std::vector<std::vector<BlockIndicators>> blocks(
      kBlocks, std::vector<BlockIndicators>(kBlocks));
  int total_in_district = 0;
  for (int bx = 0; bx < kBlocks; ++bx) {
    for (int by = 0; by < kBlocks; ++by) {
      double lng = district_center.lng + (bx - kBlocks / 2) * kBlockKm / 85.0;
      double lat = district_center.lat + (by - kBlocks / 2) * kBlockKm / 111.0;
      auto box = just::geo::SquareWindowKm({lng, lat}, kBlockKm);
      auto batches = (*engine)->Query(
          user, "orders",
          just::core::QuerySpec::StRange(box, week_start, week_end));
      if (!batches.ok()) continue;
      just::exec::DataFrame rows =
          just::exec::BatchesToDataFrame(orders_schema, *batches);
      BlockIndicators& cell = blocks[bx][by];
      for (const auto& row : rows.rows()) {
        ++cell.orders;
        ++total_in_district;
        just::TimestampMs t = row[1].timestamp_value();
        int hour = static_cast<int>((t % just::kMillisPerDay) /
                                    just::kMillisPerHour);
        ++cell.orders_by_hour[hour];
        cell.revenue_proxy += 15.0 + (t % 97);  // synthetic order value
      }
    }
  }
  std::printf("district scan: %d orders across %dx%d blocks in the month\n\n",
              total_in_district, kBlocks, kBlocks);

  // Render the order-density heat map.
  std::printf("order density (each cell ~150m, darker = busier):\n");
  int max_orders = 1;
  for (const auto& col : blocks) {
    for (const auto& cell : col) max_orders = std::max(max_orders, cell.orders);
  }
  const char* shades = " .:-=+*#%@";
  for (int by = kBlocks - 1; by >= 0; --by) {
    std::printf("  ");
    for (int bx = 0; bx < kBlocks; ++bx) {
      int level = blocks[bx][by].orders * 9 / max_orders;
      std::printf("%c%c", shades[level], shades[level]);
    }
    std::printf("\n");
  }

  // Address portrait for the hottest block.
  int best_x = 0, best_y = 0;
  for (int bx = 0; bx < kBlocks; ++bx) {
    for (int by = 0; by < kBlocks; ++by) {
      if (blocks[bx][by].orders > blocks[best_x][best_y].orders) {
        best_x = bx;
        best_y = by;
      }
    }
  }
  const BlockIndicators& hot = blocks[best_x][best_y];
  std::printf("\naddress portrait of the hottest block (%d, %d):\n", best_x,
              best_y);
  std::printf("  monthly orders:       %d\n", hot.orders);
  std::printf("  purchasing power:     %.0f (proxy units)\n",
              hot.revenue_proxy);
  std::printf("  peak order hour:      %02d:00\n", hot.PeakHour());
  std::printf("  billboard suitability: %s\n",
              hot.orders > max_orders / 2 ? "HIGH" : "moderate");
  return 0;
}
