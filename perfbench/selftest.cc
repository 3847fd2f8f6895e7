// Fast self-test of the benchmark itself: oracle vs engine for every op
// type on tiny data, replay vs engine op, deterministic set-up, the
// percentile rule, span self time, the result line, and the region-server
// lifecycle. Run with `python3 perfbench/run.py --selftest`.

#include <signal.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/json.h"
#include "perfbench.h"

namespace just::perfbench {

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("selftest: %-64s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) ++g_failures;
}

Spec TinySpec(uint64_t seed, OrderData* orders, TrajData* trajs) {
  // Dense enough that k-NN never falls back to its full scan, whose rows
  // QueryStats does not count.
  *orders = MakeOrders(20000, seed);
  *trajs = MakeTrajs(40, 60, seed + 1);
  Spec spec;
  spec.options = BaseOptions();
  spec.tables.push_back(OrderTable(*orders, 500));
  spec.tables.push_back(TrajTable(*trajs, 16));
  return spec;
}

void CheckQueries(Deployment* d, const std::vector<QueryOp>& pool,
                  const std::string& label) {
  int ok_engine = 0, ok_replay = 0, ok_rows = 0;
  for (const QueryOp& op : pool) {
    std::string why;
    auto r = d->ql->Execute(kUser, op.sql);
    if (r.ok() && CheckResult(op, r->frame, &why)) ++ok_engine;
    core::QueryStats stats;
    auto e = ExecuteWithStats(d, op.sql, &stats);
    Tracer tracer;
    tracer.BeginRequest("query");
    size_t fetched = 0, ranges = 0, empty = 0;
    auto rep = ReplayQuery(d, op, &tracer, &fetched, &ranges, &empty);
    tracer.EndRequest();
    if (rep.ok() && CheckResult(op, *rep, &why)) ++ok_replay;
    if (e.ok() && rep.ok() && fetched == stats.rows_scanned) ++ok_rows;
  }
  const int n = static_cast<int>(pool.size());
  Check(ok_engine == n, label + ": engine matches oracle");
  Check(ok_replay == n, label + ": replay matches oracle");
  Check(ok_rows == n, label + ": replay fetches the engine op's rows");
}

void TestOracleAndReplay(const Args& args) {
  OrderData orders;
  TrajData trajs;
  Spec spec = TinySpec(7, &orders, &trajs);
  double s = 0;
  auto d = SetUp(args, spec, args.work_dir + "/selftest-a", &s);
  Check(d.ok(), "tiny set-up");
  if (!d.ok()) return;
  PointOracle oracle;
  oracle.AddOrders(orders);
  CheckQueries(d->get(), SpatialPool(orders, &oracle, 12, 1), "spatial");
  CheckQueries(d->get(), StRangePool("orders", orders, &oracle, 12, 2),
               "st_range");
  CheckQueries(d->get(), KnnPool(orders, oracle, 6, 3), "knn");
  CheckQueries(d->get(), RefinePool(orders, 3, 4), "refine");
  CheckQueries(d->get(), TrajPool(trajs, true, 12, 5), "traj_range");
  CheckQueries(d->get(), TrajPool(trajs, false, 12, 6), "traj_spatial");

  // A wrong answer must be caught.
  QueryOp wrong = SpatialPool(orders, &oracle, 1, 9)[0];
  wrong.expected.push_back("no-such-fid");
  std::string why;
  auto r = (*d)->ql->Execute(kUser, wrong.sql);
  Check(r.ok() && !CheckResult(wrong, r->frame, &why),
        "a wrong expected answer is reported as a mismatch");

  // Ingest: INSERT STREAM rows raise exactly the geofence's alerts.
  auto& ql = *(*d)->ql;
  bool ok = ql.Execute(kUser,
                       "CREATE TABLE vehicles (fid string:primary key, "
                       "district string, speed double, time date, "
                       "geom point:srid=4326)")
                .ok();
  geo::Mbr fence = WindowBox({116.4, 39.9}, 2.0);
  ok = ok && ql.Execute(kUser, "CREATE CONTINUOUS QUERY fence ON vehicles "
                               "WHERE geom WITHIN " +
                                   BoxSql(fence))
                 .ok();
  std::vector<exec::Row> rows;
  std::vector<std::string> inside;
  for (int i = 0; i < 20; ++i) {
    geo::Point p{116.4 + (i % 2 == 0 ? 0.001 * i : 0.1), 39.9};
    std::string fid = "v";
    fid += std::to_string(i);
    if (fence.Contains(p)) inside.push_back(fid);
    rows.push_back({exec::Value::String(fid), exec::Value::String("d"),
                    exec::Value::Double(10), exec::Value::Timestamp(1000 + i),
                    exec::Value::GeometryVal(geo::Geometry::MakePoint(p))});
  }
  ok = ok && (*d)->engine->InsertStream(kUser, "vehicles", rows).ok();
  auto notes =
      (*d)->engine->stream_hub()->TakeNotifications(kUser, "fence", 64);
  std::vector<std::string> got;
  if (notes.ok()) {
    for (const auto& n : *notes) got.push_back(n.fid);
  }
  Check(ok && notes.ok() && got == inside && !inside.empty(),
        "ingest: geofence alerts equal the oracle's fenced rows");
}

void TestDeterministicSetUp(const Args& args) {
  OrderData orders;
  TrajData trajs;
  Spec spec = TinySpec(11, &orders, &trajs);
  uint64_t bytes[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    double s = 0;
    auto d = SetUp(args, spec,
                   args.work_dir + "/selftest-b" + std::to_string(i), &s);
    if (d.ok()) bytes[i] = (*d)->engine->GetStorageStats().disk_bytes;
  }
  Check(bytes[0] != 0 && bytes[0] == bytes[1],
        Fmt("two set-ups store identical bytes (%llu, %llu)",
            static_cast<unsigned long long>(bytes[0]),
            static_cast<unsigned long long>(bytes[1])));
}

void TestStatistics() {
  auto series = [](size_t n) {
    std::vector<double> v;
    for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    return v;
  };
  Check(!HighestSupportedTail(series(19)).supported,
        "tail: 19 samples support no percentile");
  Tail t20 = HighestSupportedTail(series(20));
  Check(t20.supported && t20.percentile == 50 && t20.beyond == 10,
        "tail: 20 samples support p50 with 10 beyond");
  Tail t100 = HighestSupportedTail(series(100));
  Check(t100.percentile == 90 && t100.value == 90 && t100.beyond == 10,
        "tail: 100 samples support p90 = 90");
  Tail t1000 = HighestSupportedTail(series(1000));
  Check(t1000.percentile == 99 && t1000.beyond == 10,
        "tail: 1000 samples support p99");
  Tail t10k = HighestSupportedTail(series(10000));
  Check(t10k.percentile == 99.9 && t10k.beyond == 10,
        "tail: 10000 samples support p99.9");
  Check(Median({3, 1, 2}) == 2 && Median({4, 1, 2, 3}) == 2.5,
        "median of odd and even counts");

  // Slow passes move no op's best time.
  SampleLog log;
  for (size_t op = 0; op < 5; ++op) {
    for (int pass = 0; pass < 5; ++pass) {
      log.Add(op, pass % 2 == 0 ? 100.0 : 1.0 + static_cast<double>(op));
    }
  }
  Check(log.MedianOfOpMinimums() == 3.0 && log.All().size() == 25,
        "median of op minimums ignores disturbed passes");
}

void TestTracer() {
  Tracer tracer;
  tracer.BeginRequest("root");
  {
    Tracer::Scope a(&tracer, "a");
    { Tracer::Scope b(&tracer, "b"); }
  }
  tracer.EndRequest();
  const auto& spans = tracer.spans();
  const auto self = tracer.SelfNs();
  bool ok = spans.size() == 3 && spans[1].parent == spans[0].id &&
            spans[2].parent == spans[1].id && spans[0].request == 1 &&
            spans[2].request == 1;
  for (size_t i = 0; ok && i < spans.size(); ++i) {
    ok = self[i] >= 0 && self[i] <= spans[i].end_ns - spans[i].start_ns;
  }
  ok = ok && self[1] == (spans[1].end_ns - spans[1].start_ns) -
                            (spans[2].end_ns - spans[2].start_ns);
  Check(ok, "span self time = duration minus children");
}

void TestResultLine() {
  Report r;
  r.Op(true);
  r.Op(false);
  r.Metric("latency_ms", 1.0 / 3.0, "ms");
  r.Metric("setup_s", 0.8127, "s");
  auto doc = ParseJson(r.ToJson());
  bool ok = doc.ok() && !doc->Get("correct").bool_value() &&
            doc->Get("attempted").number_value() == 2 &&
            doc->Get("failed").number_value() == 1;
  if (ok) {
    const auto& m = doc->Get("metrics");
    ok = m.object_members().size() == 2 &&
         m.Get("latency_ms").Get("value").number_value() == 1.0 / 3.0 &&
         m.Get("setup_s").Get("unit").string_value() == "s";
  }
  Check(ok, "result line parses with every digit kept");
}

void TestServers(const Args& args) {
  ServerGroup group;
  Status st = group.Start(args.server_bin, args.work_dir + "/selftest-rs", 1);
  const std::vector<int> pids = group.pids();
  bool healthy = false;
  if (st.ok() && !group.admin_ports().empty()) {
    auto body = HttpGet(group.admin_ports()[0], "/healthz");
    healthy = body.ok() && body->rfind("ok", 0) == 0;
  }
  group.Stop();
  bool reaped = !pids.empty();
  for (int pid : pids) reaped = reaped && kill(pid, 0) != 0;
  Check(st.ok() && healthy, "region server starts via its port file");
  Check(reaped, "region server is reaped on stop");
}

}  // namespace

int RunSelfTest(const Args& args) {
  TestStatistics();
  TestTracer();
  TestResultLine();
  TestOracleAndReplay(args);
  TestDeterministicSetUp(args);
  TestServers(args);
  for (const char* dir : {"/selftest-a", "/selftest-b0", "/selftest-b1",
                          "/selftest-rs"}) {
    std::error_code ec;
    std::filesystem::remove_all(args.work_dir + dir, ec);
  }
  std::printf("selftest: %s (%d failed)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace just::perfbench
