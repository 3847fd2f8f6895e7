// Input generation, query pools and the bench-side oracle.

#include <algorithm>
#include <cstdlib>

#include "common/time_util.h"
#include "geo/geometry.h"
#include "perfbench.h"

namespace just::perfbench {

const char* OpName(OpType type) {
  switch (type) {
    case OpType::kSpatial:
      return "spatial";
    case OpType::kStRange:
      return "st_range";
    case OpType::kKnn:
      return "knn";
    case OpType::kRefine:
      return "refine";
    case OpType::kTrajRange:
      return "traj_range";
    case OpType::kTrajSpatial:
      return "traj_spatial";
  }
  return "?";
}

OrderData MakeOrders(int count, uint64_t seed) {
  workload::OrderOptions opts;
  opts.num_orders = count;
  // Fifty times the generator's default hotspot count: each hotspot's
  // random spread and weight average out, so query answer sizes (and so
  // latency) move little from one seed to the next.
  opts.num_hotspots = 3000;
  opts.seed = seed;
  OrderData data;
  data.records = workload::GenerateOrders(opts);
  data.t_lo = ParseTimestamp(opts.start_date).value();
  data.t_hi = data.t_lo + opts.num_days * kMillisPerDay;
  return data;
}

TableData OrderTable(const OrderData& data, size_t batch_rows) {
  TableData t;
  t.name = "orders";
  t.create_sql =
      "CREATE TABLE orders (fid string:primary key, time date, "
      "geom point:srid=4326)";
  for (const auto& r : data.records) {
    t.Append({exec::Value::String(r.fid), exec::Value::Timestamp(r.time),
              exec::Value::GeometryVal(geo::Geometry::MakePoint(r.point))},
             batch_rows);
    t.raw_bytes += r.fid.size() + 8 + 16;  // fid + time + lng/lat
  }
  return t;
}

TrajData MakeTrajs(int count, int points_per_traj, uint64_t seed) {
  workload::TrajOptions opts;
  opts.num_trajectories = count;
  opts.points_per_traj = points_per_traj;
  opts.seed = seed;
  TrajData data;
  data.trajs = workload::GenerateTrajectories(opts);
  data.t_lo = ParseTimestamp(opts.start_date).value();
  data.t_hi = data.t_lo + opts.num_days * kMillisPerDay;
  return data;
}

TableData TrajTable(const TrajData& data, size_t batch_rows) {
  TableData t;
  t.name = "traj";
  t.create_sql = "CREATE TABLE traj AS trajectory";
  for (const auto& tr : data.trajs) {
    std::string oid = "c_" + tr.oid();
    t.raw_bytes += tr.oid().size() + oid.size() + 16 + tr.size() * 24;
    t.Append({exec::Value::String(tr.oid()), exec::Value::String(oid),
              exec::Value::Timestamp(tr.start_time()),
              exec::Value::Timestamp(tr.end_time()),
              exec::Value::TrajectoryVal(
                  std::make_shared<const traj::Trajectory>(tr))},
             batch_rows);
  }
  return t;
}

// --- Oracle ---------------------------------------------------------------

void PointOracle::AddOrders(const OrderData& data) {
  entries_.reserve(entries_.size() + data.records.size());
  for (const auto& r : data.records) {
    entries_.push_back({r.point.lng, r.point.lat, r.time, r.fid});
  }
  sorted_ = false;
}

void PointOracle::Sort() {
  if (sorted_) return;
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.lng < b.lng; });
  sorted_ = true;
}

std::vector<std::string> PointOracle::Range(const geo::Mbr& box,
                                            bool temporal, TimestampMs t_min,
                                            TimestampMs t_max) {
  Sort();
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), box.lng_min,
      [](const Entry& e, double lng) { return e.lng < lng; });
  std::vector<std::string> out;
  for (; it != entries_.end() && it->lng <= box.lng_max; ++it) {
    if (it->lat < box.lat_min || it->lat > box.lat_max) continue;
    if (temporal && (it->time < t_min || it->time > t_max)) continue;
    out.push_back(it->fid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> PointOracle::KnnDistances(const geo::Point& q,
                                              int k) const {
  std::vector<double> d;
  d.reserve(entries_.size());
  for (const Entry& e : entries_) {
    d.push_back(geo::Geometry::MakePoint({e.lng, e.lat}).Distance(q));
  }
  size_t keep = std::min<size_t>(static_cast<size_t>(k), d.size());
  std::partial_sort(d.begin(), d.begin() + keep, d.end());
  d.resize(keep);
  return d;
}

// --- Pools ----------------------------------------------------------------

namespace {

std::string Num(double v) { return Fmt("%.17g", v); }

/// The box exactly as the SQL text round-trips it.
geo::Mbr Reparse(const geo::Mbr& box) {
  auto rt = [](double v) { return std::strtod(Num(v).c_str(), nullptr); };
  return geo::Mbr::Of(rt(box.lng_min), rt(box.lat_min), rt(box.lng_max),
                      rt(box.lat_max));
}

/// A query center near the data: a record's location with ~300 m jitter.
geo::Point Near(const geo::Point& p, Rng* rng) {
  return {p.lng + rng->NextGaussian() * 0.003,
          p.lat + rng->NextGaussian() * 0.003};
}

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

std::string BoxSql(const geo::Mbr& box) {
  return "st_makeMBR(" + Num(box.lng_min) + ", " + Num(box.lat_min) + ", " +
         Num(box.lng_max) + ", " + Num(box.lat_max) + ")";
}

geo::Mbr WindowBox(const geo::Point& center, double side_km) {
  return Reparse(geo::SquareWindowKm(center, side_km));
}

std::pair<TimestampMs, TimestampMs> DayWindow(TimestampMs t, TimestampMs t_lo,
                                              TimestampMs t_hi) {
  t = std::clamp(t, t_lo, t_hi - 1);
  TimestampMs start =
      TimePeriodStart(TimePeriodNumber(t, kMillisPerDay), kMillisPerDay);
  // The end is inclusive, so a 1-day window stays in one Z2T period.
  return {start, start + kMillisPerDay - 1};
}

std::vector<QueryOp> SpatialPool(const OrderData& data, PointOracle* oracle,
                                 int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryOp> pool;
  for (int i = 0; i < count; ++i) {
    const auto& r = data.records[rng.Uniform(data.records.size())];
    geo::Mbr box = WindowBox(Near(r.point, &rng), kWindowKm);
    QueryOp op;
    op.type = OpType::kSpatial;
    op.key_column = "fid";
    op.sql = "SELECT * FROM orders WHERE geom WITHIN " + BoxSql(box);
    op.expected = oracle->Range(box, false, 0, 0);
    pool.push_back(std::move(op));
  }
  return pool;
}

std::vector<QueryOp> StRangePool(const std::string& table,
                                 const OrderData& data, PointOracle* oracle,
                                 int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryOp> pool;
  for (int i = 0; i < count; ++i) {
    const auto& r = data.records[rng.Uniform(data.records.size())];
    geo::Mbr box = WindowBox(Near(r.point, &rng), kWindowKm);
    auto [t0, t1] = DayWindow(r.time, data.t_lo, data.t_hi);
    QueryOp op;
    op.type = OpType::kStRange;
    op.key_column = "fid";
    op.sql = "SELECT * FROM " + table + " WHERE geom WITHIN " + BoxSql(box) +
             " AND time BETWEEN " + std::to_string(t0) + " AND " +
             std::to_string(t1);
    op.expected = oracle->Range(box, true, t0, t1);
    pool.push_back(std::move(op));
  }
  return pool;
}

std::vector<QueryOp> KnnPool(const OrderData& data, const PointOracle& oracle,
                             int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryOp> pool;
  for (int i = 0; i < count; ++i) {
    const auto& r = data.records[rng.Uniform(data.records.size())];
    geo::Point q = Near(r.point, &rng);
    q = {std::strtod(Num(q.lng).c_str(), nullptr),
         std::strtod(Num(q.lat).c_str(), nullptr)};
    QueryOp op;
    op.type = OpType::kKnn;
    op.key_column = "fid";
    op.knn_point = q;
    op.sql = "SELECT * FROM orders WHERE geom IN st_KNN(st_makePoint(" +
             Num(q.lng) + ", " + Num(q.lat) + "), " + std::to_string(kKnnK) +
             ")";
    op.expected_dists = oracle.KnnDistances(q, kKnnK);
    pool.push_back(std::move(op));
  }
  return pool;
}

std::vector<QueryOp> RefinePool(const OrderData& data, int count,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryOp> pool;
  const double span = static_cast<double>(data.t_hi - data.t_lo);
  for (int i = 0; i < count; ++i) {
    // About 5% selective: the first 4-6% of the time span.
    TimestampMs cutoff =
        data.t_lo + static_cast<TimestampMs>(span * rng.Uniform(0.04, 0.06));
    const std::string& excluded =
        data.records[rng.Uniform(data.records.size())].fid;
    QueryOp op;
    op.type = OpType::kRefine;
    op.key_column = "fid";
    op.sql = "SELECT * FROM orders WHERE time < " + std::to_string(cutoff) +
             " AND fid != '" + excluded + "'";
    for (const auto& r : data.records) {
      if (r.time < cutoff && r.fid != excluded) op.expected.push_back(r.fid);
    }
    op.expected = Sorted(std::move(op.expected));
    pool.push_back(std::move(op));
  }
  return pool;
}

std::vector<QueryOp> TrajPool(const TrajData& data, bool temporal, int count,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::Mbr> bounds;
  for (const auto& t : data.trajs) bounds.push_back(t.Bounds());
  std::vector<QueryOp> pool;
  for (int i = 0; i < count; ++i) {
    const traj::Trajectory& anchor = data.trajs[rng.Uniform(data.trajs.size())];
    const geo::Point& p = anchor.points()[rng.Uniform(anchor.size())].position;
    geo::Mbr box = WindowBox(Near(p, &rng), kWindowKm);
    auto [t0, t1] = DayWindow(anchor.start_time(), data.t_lo, data.t_hi);
    QueryOp op;
    op.type = temporal ? OpType::kTrajRange : OpType::kTrajSpatial;
    op.key_column = "tid";
    op.sql = "SELECT * FROM traj WHERE item WITHIN " + BoxSql(box);
    if (temporal) {
      op.sql += " AND start_time BETWEEN " + std::to_string(t0) + " AND " +
                std::to_string(t1);
    }
    // Trajectory refinement is MBR intersection plus the start time.
    for (size_t j = 0; j < data.trajs.size(); ++j) {
      if (!box.Intersects(bounds[j])) continue;
      TimestampMs s = data.trajs[j].start_time();
      if (temporal && (s < t0 || s > t1)) continue;
      op.expected.push_back(data.trajs[j].oid());
    }
    op.expected = Sorted(std::move(op.expected));
    pool.push_back(std::move(op));
  }
  return pool;
}

bool CheckResult(const QueryOp& op, const exec::DataFrame& frame,
                 std::string* why) {
  if (op.type == OpType::kKnn) {
    int g = frame.schema().IndexOf("geom");
    if (g < 0) {
      *why = "k-NN result has no geom column";
      return false;
    }
    std::vector<double> d;
    for (const exec::Row& row : frame.rows()) {
      d.push_back(row[g].geometry_value().Distance(op.knn_point));
    }
    std::sort(d.begin(), d.end());
    if (d != op.expected_dists) {
      *why = Fmt("k-NN distance multiset differs (%zu rows vs %zu expected)",
                 d.size(), op.expected_dists.size());
      return false;
    }
    return true;
  }
  int k = frame.schema().IndexOf(op.key_column);
  if (k < 0) {
    *why = "result has no " + op.key_column + " column";
    return false;
  }
  std::vector<std::string> keys;
  keys.reserve(frame.num_rows());
  for (const exec::Row& row : frame.rows()) {
    keys.push_back(row[k].string_value());
  }
  std::sort(keys.begin(), keys.end());
  if (keys != op.expected) {
    *why = Fmt("%s keys differ: %zu rows vs %zu expected", OpName(op.type),
               keys.size(), op.expected.size());
    return false;
  }
  return true;
}

}  // namespace just::perfbench
