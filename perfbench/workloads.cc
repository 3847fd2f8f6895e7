// The four workloads. Each run: generate inputs and expected answers from
// the seed (off the clock), set the deployment up kSetupRepeats times
// (median = setup_s), run one warm-up pass over the op schedule, then
// measure whole passes of the same schedule, closed loop with one client
// thread, until --seconds have elapsed. With --trace 1 the measured passes
// instead alternate each sampled op untraced and replayed under the tracer
// (replay.cc) and print the per-layer metrics.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "common/time_util.h"
#include "geo/geometry.h"
#include "kvstore/sstable.h"
#include "perfbench.h"

namespace just::perfbench {

core::EngineOptions BaseOptions() {
  core::EngineOptions o;
  o.num_servers = 4;
  o.num_shards = 8;
  o.slow_query_log_to_stderr = false;
  return o;
}

Result<std::unique_ptr<Deployment>> SetUp(const Args& args, const Spec& spec,
                                          const std::string& dir,
                                          double* seconds) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  const int64_t t0 = WallNs();
  core::EngineOptions opts = spec.options;
  opts.data_dir = dir + "/engine";
  std::filesystem::create_directories(opts.data_dir);
  if (spec.socket_servers > 0) {
    d->servers = std::make_unique<ServerGroup>();
    JUST_RETURN_NOT_OK(d->servers->Start(args.server_bin, dir + "/servers",
                                         spec.socket_servers));
    opts.server_addrs = d->servers->addrs();
  }
  JUST_ASSIGN_OR_RETURN(d->engine, core::JustEngine::Open(opts));
  d->ql = std::make_unique<sql::JustQL>(d->engine.get());
  for (const TableData& t : spec.tables) {
    JUST_RETURN_NOT_OK(d->ql->Execute(kUser, t.create_sql).status());
    for (const auto& batch : t.batches) {
      JUST_RETURN_NOT_OK(d->engine->InsertBatch(kUser, t.name, batch));
    }
  }
  JUST_RETURN_NOT_OK(d->engine->Finalize());
  *seconds = static_cast<double>(WallNs() - t0) / 1e9;
  return d;
}

namespace {

constexpr int kSetupRepeats = 3;
/// Disk time is modelled from bytes read, never slept.
constexpr double kModelDiskMBps = 300.0;
/// At most this many mismatches are printed per run.
constexpr int kMaxPrintedMismatches = 5;

void StampOptions(Report* r, const Spec& spec) {
  const core::EngineOptions& o = spec.options;
  const kv::StoreOptions& s = o.store;
  r->Detail(Fmt("engine: num_servers=%d num_shards=%d socket_servers=%d "
                "slow_query_threshold_us=%lld",
                o.num_servers, o.num_shards, spec.socket_servers,
                static_cast<long long>(o.slow_query_threshold_us)));
  r->Detail(Fmt("store: memtable_bytes=%zu block_cache_bytes=%zu "
                "block_size=%zu bloom_bits_per_key=%d compaction_trigger=%d "
                "sync_wal=%d level_base_bytes=%zu target_file_size=%zu",
                s.memtable_bytes, s.block_cache_bytes, s.block_size,
                s.bloom_bits_per_key, s.compaction_trigger, s.sync_wal ? 1 : 0,
                s.level_base_bytes, s.target_file_size));
  if (spec.socket_servers > 0) {
    r->Detail("region servers: default just_region_server store options");
  }
  r->Detail(Fmt("simulated disk: off (SetSimulatedReadBandwidthMBps=%g); "
                "kvstore.sim_disk_ms_per_query models %g MB/s, not slept",
                kv::SimulatedReadBandwidthMBps(), kModelDiskMBps));
  for (const auto& t : spec.tables) {
    r->Detail(Fmt("table %s: %zu rows in %zu load batches, %llu raw bytes",
                  t.name.c_str(), t.num_rows, t.batches.size(),
                  static_cast<unsigned long long>(t.raw_bytes)));
  }
}

/// Sets up kSetupRepeats times (once when tracing) and keeps the last.
/// Stored bytes must repeat exactly: set-up is deterministic by design.
Result<std::unique_ptr<Deployment>> SetUpRepeated(const Args& args,
                                                  const Spec& spec,
                                                  Report* report,
                                                  uint64_t* stored_bytes) {
  const int repeats = args.trace ? 1 : kSetupRepeats;
  const std::string base = args.work_dir + "/" + args.workload + "-" +
                           std::to_string(getpid());
  std::vector<double> times;
  std::set<uint64_t> sizes;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < repeats; ++i) {
    if (d != nullptr) {
      std::string old = d->dir;
      d.reset();
      std::filesystem::remove_all(old);
    }
    double s = 0;
    JUST_ASSIGN_OR_RETURN(d, SetUp(args, spec, base + "/setup" +
                                                   std::to_string(i), &s));
    times.push_back(s);
    *stored_bytes = d->engine->GetStorageStats().disk_bytes;
    sizes.insert(*stored_bytes);
  }
  std::string line = "setup_s per repeat:";
  for (double t : times) line += Fmt(" %.4f", t);
  report->Detail(line);
  report->Detail(Fmt("stored bytes after set-up: %llu",
                     static_cast<unsigned long long>(*stored_bytes)));
  if (sizes.size() != 1) {
    report->Fail("set-up repeats stored different byte counts");
  }
  if (!args.trace) report->Metric("setup_s", Median(times), "s");
  return d;
}

/// Prints a mismatch (bounded) and counts the op.
void CountOp(Report* report, bool ok, const std::string& why,
             const std::string& what, int* printed) {
  report->Op(ok);
  if (!ok && (*printed)++ < kMaxPrintedMismatches) {
    report->Detail("mismatch: " + why + " :: " + what.substr(0, 200));
  }
}

/// CPU time of the region-server processes (0 in-process).
int64_t ServerCpuNs(const Deployment* d) {
  return d->servers ? d->servers->CpuNs() : 0;
}

/// Measures the op `fn` runs: wall time, and the CPU every engine thread
/// and region server spent meanwhile. Reading the servers' CPU is the
/// benchmark's own work and is added to `overhead_cpu_ns`.
template <typename Fn>
void MeasureOp(const Deployment* d, double* wall_ms, double* cpu_ms,
               int64_t* overhead_cpu_ns, Fn fn) {
  const int64_t p0 = ThreadCpuNs();
  const int64_t s0 = ServerCpuNs(d);
  const int64_t p1 = ThreadCpuNs();
  const int64_t c0 = ProcessCpuNs();
  const int64_t t0 = WallNs();
  fn();
  const int64_t t1 = WallNs();
  const int64_t c1 = ProcessCpuNs();
  const int64_t p2 = ThreadCpuNs();
  const int64_t s1 = ServerCpuNs(d);
  *overhead_cpu_ns += (p1 - p0) + (ThreadCpuNs() - p2);
  *wall_ms = static_cast<double>(t1 - t0) / 1e6;
  *cpu_ms = static_cast<double>((c1 - c0) + (s1 - s0)) / 1e6;
}

/// Runs one query op untraced: JustQL::Execute, issue to full result. The
/// check runs after and is charged to `overhead_cpu_ns`.
bool RunQuery(Deployment* d, const QueryOp& op, double* wall_ms,
              double* cpu_ms, int64_t* overhead_cpu_ns, std::string* why) {
  Result<sql::QueryResult> r = Status::Internal("not run");
  MeasureOp(d, wall_ms, cpu_ms, overhead_cpu_ns,
            [&] { r = d->ql->Execute(kUser, op.sql); });
  const int64_t c0 = ThreadCpuNs();
  bool ok = r.ok() && CheckResult(op, r->frame, why);
  if (!r.ok()) *why = r.status().ToString();
  *overhead_cpu_ns += ThreadCpuNs() - c0;
  return ok;
}

Counters ServerCounters(Deployment* d, Report* report) {
  Counters total;
  if (d->servers == nullptr) return total;
  for (int port : d->servers->admin_ports()) {
    auto body = HttpGet(port, "/statsz");
    if (!body.ok()) {
      report->Fail("admin plane: " + body.status().ToString());
      continue;
    }
    auto c = ParseStatsz(*body);
    if (!c.ok()) {
      report->Fail("statsz: " + c.status().ToString());
      continue;
    }
    total.Add(*c);
  }
  return total;
}

/// CPU time of the deployment: this process plus its region servers.
int64_t DeploymentCpuNs(const Deployment* d) {
  return ProcessCpuNs() + (d->servers ? d->servers->CpuNs() : 0);
}

/// cpu_ms_per_op is the median over passes of each pass's CPU per op.
void ReportCpu(Report* report, const std::vector<double>& per_pass) {
  report->Metric("cpu_ms_per_op", Median(per_pass), "ms");
  std::string line = "cpu_ms_per_op per pass:";
  for (double v : per_pass) line += Fmt(" %.4f", v);
  report->Detail(line);
}

/// Accumulated over a traced run.
struct TraceTotals {
  size_t queries = 0;         ///< replayed query ops
  size_t query_execs = 0;     ///< engine + replay executions of queries
  size_t ingests = 0;         ///< replayed ingest batches
  size_t streamed_rows = 0;   ///< rows through InsertStream in the phase
  size_t rows_fetched = 0;
  size_t rows_matched = 0;
  size_t ranges = 0;
  size_t empty_ranges = 0;
  std::vector<double> overhead_ratio;  ///< replay wall / engine wall
  std::map<std::string, std::vector<double>> overhead_by_op;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// `local_delta`: this process's counters over the traced passes.
/// `store_delta`/`store_end`: the stores' counters over the passes and at
/// the end of the run (the region servers' on sockets, else this
/// process's). `server_delta`: region-server counters over the passes.
void ReportPerLayer(Report* r, const Tracer& tracer, const TraceTotals& t,
                    const Counters& local_delta, const Counters& store_delta,
                    const Counters& store_end, const Counters& server_delta) {
  // Span self time per layer, per replayed query.
  std::map<std::string, double> self_us;
  double unattributed_us = 0;
  const auto self = tracer.SelfNs();
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const auto& s = tracer.spans()[i];
    if (s.parent == 0) {
      if (s.name.rfind("query.", 0) == 0) unattributed_us += self[i] / 1e3;
    } else {
      self_us[s.name] += self[i] / 1e3;
    }
  }
  const double q = static_cast<double>(t.queries);
  auto per_query = [&](const std::string& span) {
    return Ratio(self_us[span], q);
  };
  r->Metric("sql.parse_us", per_query("sql.parse"), "us");
  r->Metric("sql.plan_us", per_query("sql.plan"), "us");
  r->Metric("sql.residual_us", per_query("sql.residual"), "us");
  const double hits = local_delta.Get("just_sql_plan_cache_hits_total");
  const double misses = local_delta.Get("just_sql_plan_cache_misses_total");
  r->Metric("sql.plan_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  r->Metric("curve.plan_us", per_query("curve.plan"), "us");
  r->Metric("curve.ranges_per_query", Ratio(t.ranges, q), "count");
  r->Metric("cluster.scan_us", per_query("cluster.scan"), "us");
  r->Metric("cluster.empty_range_ratio", Ratio(t.empty_ranges, t.ranges),
            "ratio");
  r->Metric("cluster.rows_fetched_per_query", Ratio(t.rows_fetched, q),
            "count");
  r->Metric("cluster.retries", local_delta.Get("just_cluster_retries_total"),
            "count");

  const double execs = static_cast<double>(t.query_execs);
  const double cache_hits = store_delta.Get("just_kv_block_cache_hits_total");
  const double cache_misses =
      store_delta.Get("just_kv_block_cache_misses_total");
  r->Metric("kvstore.block_cache_hit_ratio",
            Ratio(cache_hits, cache_hits + cache_misses), "ratio");
  const double bytes_per_query =
      Ratio(store_delta.Get("just_kv_bytes_read_total"), execs);
  r->Metric("kvstore.bytes_read_per_query", bytes_per_query, "bytes");
  r->Metric("kvstore.read_ops_per_query",
            Ratio(store_delta.Get("just_kv_read_ops_total"), execs), "count");
  r->Metric("kvstore.sim_disk_ms_per_query",
            bytes_per_query / (kModelDiskMBps * 1e6) * 1e3, "ms");
  // Background work over the whole run, set-up included.
  r->Metric("kvstore.flushes", store_end.Get("just_kv_flushes_total"),
            "count");
  r->Metric("kvstore.compactions", store_end.Get("just_kv_compactions_total"),
            "count");
  r->Metric("kvstore.flush_ms", store_end.Get("just_kv_bg_flush_us#sum") / 1e3,
            "ms");
  r->Metric("kvstore.compaction_ms",
            store_end.Get("just_kv_compaction_us#sum") / 1e3, "ms");
  // (flush + compaction output) / flush output, as just_kv_write_amp_x100
  // defines it, from counters that sum correctly across server processes.
  const double flushed = store_end.Get("just_kv_flush_output_bytes_total");
  r->Metric("kvstore.write_amp",
            Ratio(flushed +
                      store_end.Get("just_kv_compaction_output_bytes_total"),
                  flushed),
            "ratio");
  r->Metric("kvstore.write_stall_ms",
            store_end.Get("just_kv_write_stall_us#sum") / 1e3, "ms");
  r->Metric("kvstore.group_commit_ops_per_batch",
            Ratio(store_end.Get("just_kv_group_commit_batch_ops#sum"),
                  store_end.Get("just_kv_group_commit_batch_ops#count")),
            "count");
  r->Metric("kvstore.l0_tables", store_end.Get("just_kv_level0_files"),
            "count");

  r->Metric("compress.decompress_us", per_query("compress.decompress"), "us");
  r->Metric("core.decode_us", per_query("core.decode"), "us");
  r->Metric("core.refine_us", per_query("core.refine"), "us");
  r->Metric("core.rows_scanned_per_match",
            Ratio(t.rows_fetched, t.rows_matched), "ratio");
  r->Metric("exec.materialize_us", per_query("exec.materialize"), "us");
  r->Metric("exec.knn_select_us", per_query("exec.knn_select"), "us");

  const double eval_rows = local_delta.Get("just_cq_eval_rows_total");
  r->Metric("stream.cq_eval_us_per_row",
            Ratio(local_delta.Get("just_cq_eval_us#sum"), eval_rows), "us");
  r->Metric("stream.matches_per_row",
            Ratio(local_delta.Family("just_cq_matches_total"), eval_rows),
            "ratio");
  r->Metric("core.write_us_per_row",
            Ratio(self_us["core.write"], static_cast<double>(
                                             t.streamed_rows)),
            "us");

  r->Metric("net.rpcs_per_query",
            Ratio(local_delta.Get("just_net_client_rpcs_total"), execs),
            "count");
  r->Metric("net.client_rpc_us_per_query",
            Ratio(local_delta.Family("just_net_client_rpc_us#sum"), execs),
            "us");
  r->Metric("net.server_request_us_per_query",
            Ratio(server_delta.Get("just_net_server_request_us#sum"), execs),
            "us");

  r->Metric("query.unattributed_us", Ratio(unattributed_us, q), "us");
  r->Metric("trace.overhead_pct", (Median(t.overhead_ratio) - 1) * 100, "%");
  std::string by_op = "trace overhead by op (median replay/engine - 1):";
  for (const auto& [op, v] : t.overhead_by_op) {
    by_op += Fmt(" %s=%.2f%% (n=%zu)", op.c_str(), (Median(v) - 1) * 100,
                 v.size());
  }
  r->Detail(by_op);
}

void WriteTrace(const Args& args, const Tracer& tracer, Report* report) {
  std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                     std::to_string(args.seed) + ".jsonl";
  Status st = tracer.WriteJsonLines(path);
  if (!st.ok()) {
    report->Fail(st.ToString());
    return;
  }
  report->Detail(Fmt("trace: %zu spans written to %s", tracer.spans().size(),
                     path.c_str()));
}

/// Replays `op` under the tracer and checks it against the oracle and the
/// engine op's rows_scanned.
bool TracedQuery(Deployment* d, const QueryOp& op, Tracer* tracer,
                 TraceTotals* totals, double* ms, std::string* why) {
  const int64_t t0 = WallNs();
  tracer->BeginRequest(std::string("query.") + OpName(op.type));
  size_t fetched = 0, ranges = 0, empty = 0;
  auto frame = ReplayQuery(d, op, tracer, &fetched, &ranges, &empty);
  tracer->EndRequest();
  *ms = static_cast<double>(WallNs() - t0) / 1e6;
  if (!frame.ok()) {
    *why = "replay: " + frame.status().ToString();
    return false;
  }
  totals->queries++;
  totals->rows_fetched += fetched;
  totals->ranges += ranges;
  totals->empty_ranges += empty;
  totals->rows_matched += frame->num_rows();
  return CheckResult(op, *frame, why);
}

/// The engine op, untraced, with its QueryStats.
bool StatsQuery(Deployment* d, const QueryOp& op, double* ms,
                size_t* rows_scanned, std::string* why) {
  core::QueryStats stats;
  const int64_t t0 = WallNs();
  auto frame = ExecuteWithStats(d, op.sql, &stats);
  *ms = static_cast<double>(WallNs() - t0) / 1e6;
  *rows_scanned = stats.rows_scanned;
  if (!frame.ok()) {
    *why = frame.status().ToString();
    return false;
  }
  return CheckResult(op, *frame, why);
}

/// One traced sample: engine op and replay, in alternating order.
bool TracedSample(Deployment* d, const QueryOp& op, bool replay_first,
                  Tracer* tracer, TraceTotals* totals, std::string* why) {
  double engine_ms = 0, replay_ms = 0;
  size_t engine_rows = 0;
  const size_t fetched_before = totals->rows_fetched;
  bool ok = true;
  for (int step = 0; step < 2; ++step) {
    if ((step == 0) == replay_first) {
      ok &= TracedQuery(d, op, tracer, totals, &replay_ms, why);
    } else {
      ok &= StatsQuery(d, op, &engine_ms, &engine_rows, why);
    }
  }
  totals->query_execs += 2;
  const size_t replay_rows = totals->rows_fetched - fetched_before;
  if (ok && replay_rows != engine_rows) {
    *why = Fmt("replay fetched %zu rows, engine op scanned %zu", replay_rows,
               engine_rows);
    ok = false;
  }
  if (engine_ms > 0) {
    totals->overhead_ratio.push_back(replay_ms / engine_ms);
    totals->overhead_by_op[OpName(op.type)].push_back(replay_ms / engine_ms);
  }
  return ok;
}

// --- Query workloads --------------------------------------------------------

struct QueryWorkload {
  Spec spec;
  std::vector<std::vector<QueryOp>> pools;
  std::map<OpType, std::string> metric;  ///< op type -> end-to-end metric
  size_t trace_sample = 12;              ///< ops per pool replayed
};

int RunQueryWorkload(const Args& args, Report* report, QueryWorkload w) {
  StampOptions(report, w.spec);
  std::string pools_line = "pools:";
  std::string sizes_line = "answer rows (median over pool):";
  for (const auto& p : w.pools) {
    if (p.empty()) continue;
    pools_line += Fmt(" %s=%zu", OpName(p[0].type), p.size());
    std::vector<double> rows;
    for (const auto& op : p) {
      rows.push_back(static_cast<double>(op.type == OpType::kKnn
                                             ? op.expected_dists.size()
                                             : op.expected.size()));
    }
    std::sort(rows.begin(), rows.end());
    sizes_line += Fmt(" %s=%g [p25 %g, p75 %g]", OpName(p[0].type),
                      Median(rows), PercentileSorted(rows, 25),
                      PercentileSorted(rows, 75));
  }
  report->Detail(pools_line);
  report->Detail(sizes_line);
  uint64_t stored = 0;
  auto dep = SetUpRepeated(args, w.spec, report, &stored);
  if (!dep.ok()) {
    report->Detail("set-up failed: " + dep.status().ToString());
    return 1;
  }
  Deployment* d = dep->get();
  if (!args.trace) {
    report->Metric("bytes_per_raw_byte",
                   static_cast<double>(stored) /
                       static_cast<double>(w.spec.raw_bytes()),
                   "ratio");
  }

  // One shuffled schedule holding every pool query once: one pass.
  std::vector<const QueryOp*> schedule;
  for (const auto& pool : w.pools) {
    for (const auto& op : pool) schedule.push_back(&op);
  }
  Shuffle(&schedule, args.seed ^ 0x5ced);

  int printed = 0;
  int64_t check_cpu = 0;
  std::string why;
  for (const QueryOp* op : schedule) {  // warm-up pass
    double ms = 0, cpu = 0;
    if (!RunQuery(d, *op, &ms, &cpu, &check_cpu, &why)) {
      report->Fail("warm-up mismatch: " + why);
    }
  }

  if (args.trace) {
    std::vector<const QueryOp*> sample;
    for (const auto& pool : w.pools) {
      for (size_t i = 0; i < std::min(w.trace_sample, pool.size()); ++i) {
        sample.push_back(&pool[i]);
      }
    }
    Tracer tracer;
    TraceTotals totals;
    const Counters local0 = LocalCounters();
    const Counters server0 = ServerCounters(d, report);
    const HostTicks host0 = ReadHostTicks();
    const int64_t start = WallNs();
    int passes = 0;
    do {
      for (const QueryOp* op : sample) {
        bool ok = TracedSample(d, *op, passes % 2 == 1, &tracer, &totals,
                               &why);
        CountOp(report, ok, why, op->sql, &printed);
      }
      ++passes;
    } while (WallNs() - start < static_cast<int64_t>(args.seconds) * 1000000000);
    const Counters local1 = LocalCounters();
    const Counters server1 = ServerCounters(d, report);
    const bool remote = d->servers != nullptr;
    report->Detail(Fmt("traced passes=%d sample=%zu replays=%zu", passes,
                       sample.size(), totals.queries));
    report->Detail(Fmt("host steal share over the run: %.4f",
                       StealShare(host0, ReadHostTicks())));
    ReportPerLayer(report, tracer, totals, local1.Minus(local0),
                   remote ? server1.Minus(server0) : local1.Minus(local0),
                   remote ? server1 : local1, server1.Minus(server0));
    WriteTrace(args, tracer, report);
    return 0;
  }

  std::map<OpType, OpLog> lat;
  std::vector<double> cpu_ms_per_op;
  const HostTicks host0 = ReadHostTicks();
  const int64_t start = WallNs();
  int passes = 0;
  do {
    const int64_t cpu0 = DeploymentCpuNs(d);
    check_cpu = 0;
    for (size_t i = 0; i < schedule.size(); ++i) {
      const QueryOp* op = schedule[i];
      double ms = 0, cpu = 0;
      bool ok = RunQuery(d, *op, &ms, &cpu, &check_cpu, &why);
      CountOp(report, ok, why, op->sql, &printed);
      lat[op->type].Add(i, ms, cpu);
    }
    cpu_ms_per_op.push_back(
        static_cast<double>(DeploymentCpuNs(d) - cpu0 - check_cpu) / 1e6 /
        static_cast<double>(schedule.size()));
    ++passes;
  } while (WallNs() - start < static_cast<int64_t>(args.seconds) * 1000000000);
  const int64_t wall = WallNs() - start;
  const HostTicks host1 = ReadHostTicks();

  for (const auto& [type, log] : lat) {
    ReportOp(report, w.metric[type], OpName(type), log);
  }
  report->Detail(Fmt("passes=%d (first warm-up pass excluded) measured=%.3f s",
                     passes, static_cast<double>(wall) / 1e9));
  ReportCpu(report, cpu_ms_per_op);
  report->Detail(Fmt("host steal share over the run: %.4f",
                     StealShare(host0, host1)));
  return 0;
}

int RunPointQueries(const Args& args, Report* report, bool sockets) {
  // Pools are sized so one pass takes about a second in-process (about two
  // over sockets): a run measures many whole passes of one population.
  OrderData data = MakeOrders(300000, args.seed);
  PointOracle oracle;
  oracle.AddOrders(data);
  QueryWorkload w;
  w.spec.options = BaseOptions();
  if (sockets) {
    w.spec.socket_servers =
        static_cast<int>(std::min<long>(4, sysconf(_SC_NPROCESSORS_ONLN)));
  }
  w.spec.tables.push_back(OrderTable(data, 2048));
  w.pools.push_back(SpatialPool(data, &oracle, sockets ? 24 : 100,
                                args.seed * 31 + 1));
  w.pools.push_back(StRangePool("orders", data, &oracle, sockets ? 48 : 200,
                                args.seed * 31 + 2));
  w.pools.push_back(KnnPool(data, oracle, sockets ? 24 : 40,
                            args.seed * 31 + 3));
  w.metric = {{OpType::kSpatial, "spatial_cpu_ms"},
              {OpType::kStRange, "st_range_cpu_ms"},
              {OpType::kKnn, "own_op_cpu_ms"}};
  w.trace_sample = 12;
  return RunQueryWorkload(args, report, std::move(w));
}

int RunScanHeavy(const Args& args, Report* report) {
  // The refinement query scans the whole Order table; 40k rows keep it
  // short enough that some passes run it free of host steal.
  OrderData orders = MakeOrders(40000, args.seed);
  TrajData trajs = MakeTrajs(400, 300, args.seed * 7 + 5);
  QueryWorkload w;
  w.spec.options = BaseOptions();
  // Far below the stored bytes: every query reads the store, following the
  // paper's "perform each query only once" method.
  w.spec.options.store.block_cache_bytes = 64 << 10;
  // Coarse curve decomposition: a few wide ranges per query, so the Traj
  // ranges' time goes to block reads, decompress and decode (refinement
  // drops the extra rows) rather than to per-range fan-out, which
  // point_queries and socket_point_queries measure.
  w.spec.options.index.max_ranges_per_period = 8;
  w.spec.tables.push_back(OrderTable(orders, 2048));
  w.spec.tables.push_back(TrajTable(trajs, 256));
  w.pools.push_back(RefinePool(orders, 8, args.seed * 31 + 4));
  w.pools.push_back(TrajPool(trajs, true, 120, args.seed * 31 + 5));
  w.pools.push_back(TrajPool(trajs, false, 60, args.seed * 31 + 6));
  w.metric = {{OpType::kRefine, "own_op_cpu_ms"},
              {OpType::kTrajRange, "st_range_cpu_ms"},
              {OpType::kTrajSpatial, "spatial_cpu_ms"}};
  w.trace_sample = 8;
  return RunQueryWorkload(args, report, std::move(w));
}

// --- stream_mixed -------------------------------------------------------------

constexpr int kVehicleHubs = 30;
constexpr int kBaseVehicleRows = 40000;
constexpr int kBaseDays = 7;
constexpr size_t kStreamBatchRows = 64;
constexpr int kIngestsPerQuery = 1;
constexpr int kDistricts = 16;
constexpr double kHeatSpeed = 30;
constexpr int kStreamPoolPerType = 48;

/// Courier positions. Base rows and the range queries sit around hubs in
/// the west of the city; the stream lands around hubs in the east, where
/// the geofence is: one row in eight of every batch falls inside the fence
/// (so every batch raises alerts) and one in 64 near a west hub (so the
/// queries must see acknowledged rows, while their answer sets grow by
/// only a few percent over a run, whatever its pass count).
struct Vehicles {
  std::vector<geo::Point> west_hubs;
  std::vector<geo::Point> east_hubs;
  geo::Mbr fence;
  TimestampMs day0 = 0;
  TimestampMs stream_day = 0;
  uint64_t seed = 0;

  static uint64_t RawBytes(const exec::Row& row) {
    return row[0].string_value().size() + row[1].string_value().size() + 8 +
           8 + 16;
  }

  static geo::Point Around(const std::vector<geo::Point>& hubs, Rng* rng) {
    const geo::Point& h = hubs[rng->Uniform(hubs.size())];
    return {h.lng + rng->NextGaussian() * 0.008,
            h.lat + rng->NextGaussian() * 0.008};
  }

  exec::Row Row(const std::string& fid, Rng* rng, TimestampMs t,
                geo::Point p) const {
    int district = static_cast<int>(rng->Uniform(kDistricts));
    double speed = rng->Uniform(1.0, 60.0);
    return {exec::Value::String(fid),
            exec::Value::String("d" + std::to_string(district)),
            exec::Value::Double(speed), exec::Value::Timestamp(t),
            exec::Value::GeometryVal(geo::Geometry::MakePoint(p))};
  }

  std::vector<exec::Row> StreamBatch(uint64_t b) const {
    Rng rng(seed * 1000003 + b);
    std::vector<exec::Row> rows;
    rows.reserve(kStreamBatchRows);
    for (size_t i = 0; i < kStreamBatchRows; ++i) {
      uint64_t id = b * kStreamBatchRows + i;
      TimestampMs t = stream_day + static_cast<TimestampMs>(
                                       (id * 37) % static_cast<uint64_t>(
                                                       kMillisPerDay));
      geo::Point p;
      if (i % 8 == 0) {
        p = {rng.Uniform(fence.lng_min, fence.lng_max),
             rng.Uniform(fence.lat_min, fence.lat_max)};
      } else if (i % 64 == 1) {
        p = Around(west_hubs, &rng);
      } else {
        p = Around(east_hubs, &rng);
      }
      std::string fid = "s";
      fid += std::to_string(id);
      rows.push_back(Row(fid, &rng, t, p));
    }
    return rows;
  }
};

geo::Point RowPoint(const exec::Row& row) {
  return row[4].geometry_value().points()[0];
}

struct StreamQuery {
  QueryOp op;  ///< expected = base matches
  geo::Mbr box;
  bool temporal = false;
  TimestampMs t0 = 0, t1 = 0;
  std::vector<std::string> streamed;  ///< acknowledged stream matches
};

int RunStreamMixed(const Args& args, Report* report) {
  Vehicles v;
  v.seed = args.seed;
  Rng rng(args.seed * 131 + 7);
  const geo::Mbr area = workload::DefaultCityArea();
  // Hubs on a jittered 5 x 6 grid per half, ~5 km apart: a query box holds
  // one hub's couriers, so answer sizes barely depend on the seed.
  for (int i = 0; i < kVehicleHubs; ++i) {
    const double lng = 0.06 + 0.075 * (i % 5) + rng.Uniform(-0.01, 0.01);
    const double lat = 0.1 + 0.15 * (i / 5) + rng.Uniform(-0.01, 0.01);
    v.west_hubs.push_back({area.lng_min + area.Width() * lng,
                           area.lat_min + area.Height() * lat});
    v.east_hubs.push_back({area.lng_min + area.Width() * (lng + 0.55),
                           area.lat_min + area.Height() * lat});
  }
  v.fence = WindowBox(v.east_hubs[0], 2.0);
  v.day0 = ParseTimestamp("2018-10-01").value();
  v.stream_day = v.day0 + (kBaseDays - 1) * kMillisPerDay;

  TableData base;
  base.name = "vehicles";
  base.create_sql =
      "CREATE TABLE vehicles (fid string:primary key, district string, "
      "speed double, time date, geom point:srid=4326)";
  PointOracle oracle;
  uint64_t heat_expected = 0;
  for (int i = 0; i < kBaseVehicleRows; ++i) {
    TimestampMs t = v.day0 + static_cast<TimestampMs>(rng.Uniform(
                                 static_cast<uint64_t>(kBaseDays) *
                                 kMillisPerDay));
    exec::Row row =
        v.Row("b" + std::to_string(i), &rng, t, Vehicles::Around(v.west_hubs, &rng));
    geo::Point p = RowPoint(row);
    oracle.Add({p.lng, p.lat, t, row[0].string_value()});
    base.raw_bytes += Vehicles::RawBytes(row);
    base.Append(std::move(row), 2048);
  }

  std::vector<StreamQuery> pool;
  for (int i = 0; i < 2 * kStreamPoolPerType; ++i) {
    StreamQuery q;
    q.temporal = i < kStreamPoolPerType;
    const geo::Point& h = v.west_hubs[rng.Uniform(v.west_hubs.size())];
    q.box = WindowBox({h.lng + rng.NextGaussian() * 0.005,
                       h.lat + rng.NextGaussian() * 0.005},
                      kWindowKm);
    // Any base day; the last one is also the stream's.
    q.t0 = v.day0 + static_cast<TimestampMs>(rng.Uniform(kBaseDays)) *
                        kMillisPerDay;
    q.t1 = q.t0 + kMillisPerDay - 1;
    q.op.type = q.temporal ? OpType::kStRange : OpType::kSpatial;
    q.op.key_column = "fid";
    q.op.sql = "SELECT * FROM vehicles WHERE geom WITHIN " + BoxSql(q.box);
    if (q.temporal) {
      q.op.sql += " AND time BETWEEN " + std::to_string(q.t0) + " AND " +
                  std::to_string(q.t1);
    }
    q.op.expected = oracle.Range(q.box, q.temporal, q.t0, q.t1);
    pool.push_back(std::move(q));
  }
  std::vector<size_t> schedule(pool.size());
  for (size_t i = 0; i < schedule.size(); ++i) schedule[i] = i;
  Shuffle(&schedule, args.seed ^ 0x57e4);

  Spec spec;
  spec.options = BaseOptions();
  // Small memtables: every run spans many flush and compaction cycles.
  spec.options.store.memtable_bytes = 256 << 10;
  spec.tables.push_back(std::move(base));
  StampOptions(report, spec);
  report->Detail(Fmt("stream: batch_rows=%zu ingests_per_query=%d "
                     "pool=%zu (st_range=%d spatial=%d) fence_share>=1/8",
                     kStreamBatchRows, kIngestsPerQuery, pool.size(),
                     kStreamPoolPerType, kStreamPoolPerType));
  uint64_t stored = 0;
  auto dep = SetUpRepeated(args, spec, report, &stored);
  if (!dep.ok()) {
    report->Detail("set-up failed: " + dep.status().ToString());
    return 1;
  }
  Deployment* d = dep->get();
  for (const std::string& cq :
       {"CREATE CONTINUOUS QUERY fence ON vehicles WHERE geom WITHIN " +
            BoxSql(v.fence),
        Fmt("CREATE CONTINUOUS QUERY heat ON vehicles WHERE speed > %g "
            "GROUP BY district WINDOW 10 minutes",
            kHeatSpeed)}) {
    auto r = d->ql->Execute(kUser, cq);
    if (!r.ok()) {
      report->Detail("continuous query: " + r.status().ToString());
      return 1;
    }
  }

  uint64_t raw_bytes = spec.raw_bytes();
  uint64_t next_batch = 0;
  uint64_t streamed_rows = 0;
  int printed = 0;
  int64_t check_cpu = 0;
  std::string why;
  OpLog ingest_log, notify_log;
  std::map<OpType, OpLog> query_log;
  Tracer tracer;
  TraceTotals totals;

  // One ingest batch: InsertStream, then the geofence alerts it raised.
  // Replayed under the tracer when `traced`.
  auto ingest = [&](bool measure, bool traced, size_t slot) {
    int64_t c0 = ThreadCpuNs();
    std::vector<exec::Row> rows = v.StreamBatch(next_batch++);
    std::vector<std::string> fenced;
    for (const auto& row : rows) {
      if (v.fence.Contains(RowPoint(row))) fenced.push_back(row[0].string_value());
    }
    check_cpu += ThreadCpuNs() - c0;
    Status st;
    Result<std::vector<stream::Notification>> notes =
        Status::Internal("not taken");
    // Ingest: the InsertStream call. Notify: from that call until the
    // alerts are in the client's hands.
    double ingest_ms = 0, ingest_cpu = 0, notify_ms = 0, notify_cpu = 0;
    if (traced) {
      const int64_t t0 = WallNs();
      tracer.BeginRequest("ingest");
      {
        Tracer::Scope span(&tracer, "core.write");
        auto table = d->engine->GetTable(kUser, "vehicles");
        st = table.ok() ? (*table)->InsertBatchStream(rows) : table.status();
      }
      if (st.ok()) {
        Tracer::Scope span(&tracer, "stream.match");
        d->engine->stream_hub()->OnInsert(kUser, "vehicles", rows);
      }
      ingest_ms = static_cast<double>(WallNs() - t0) / 1e6;
      {
        Tracer::Scope span(&tracer, "stream.notify");
        notes = d->engine->stream_hub()->TakeNotifications(kUser, "fence",
                                                           kStreamBatchRows);
      }
      tracer.EndRequest();
      notify_ms = static_cast<double>(WallNs() - t0) / 1e6;
      totals.ingests++;
      totals.streamed_rows += rows.size();
    } else {
      MeasureOp(d, &notify_ms, &notify_cpu, &check_cpu, [&] {
        const int64_t t0 = WallNs();
        const int64_t cpu0 = ProcessCpuNs();
        st = d->engine->InsertStream(kUser, "vehicles", rows);
        ingest_cpu = static_cast<double>(ProcessCpuNs() - cpu0) / 1e6;
        ingest_ms = static_cast<double>(WallNs() - t0) / 1e6;
        notes = d->engine->stream_hub()->TakeNotifications(kUser, "fence",
                                                           kStreamBatchRows);
      });
    }
    c0 = ThreadCpuNs();
    bool ok = st.ok() && notes.ok();
    why = !st.ok() ? st.ToString()
                   : (!notes.ok() ? notes.status().ToString() : "");
    if (ok) {
      std::vector<std::string> got;
      for (const auto& n : *notes) got.push_back(n.fid);
      if (got != fenced) {
        ok = false;
        why = Fmt("geofence raised %zu alerts, expected %zu", got.size(),
                  fenced.size());
      }
      for (const auto& row : rows) {
        const geo::Point p = RowPoint(row);
        const TimestampMs t = row[3].timestamp_value();
        for (StreamQuery& q : pool) {
          if (q.box.Contains(p) && (!q.temporal || (t >= q.t0 && t <= q.t1))) {
            q.streamed.push_back(row[0].string_value());
          }
        }
        if (row[2].double_value() > kHeatSpeed) ++heat_expected;
        raw_bytes += Vehicles::RawBytes(row);
      }
      streamed_rows += rows.size();
    }
    check_cpu += ThreadCpuNs() - c0;
    if (measure) {
      CountOp(report, ok, why, "ingest", &printed);
      ingest_log.Add(slot, ingest_ms, ingest_cpu);
      notify_log.Add(slot, notify_ms, notify_cpu);
    } else if (!ok) {
      report->Fail("warm-up ingest: " + why);
    }
  };
  // The query with its expected answer as of now: base + acknowledged rows.
  auto current_op = [&](const StreamQuery& q) {
    QueryOp op = q.op;
    op.expected.insert(op.expected.end(), q.streamed.begin(), q.streamed.end());
    std::sort(op.expected.begin(), op.expected.end());
    return op;
  };
  auto query = [&](StreamQuery& q, bool measure, size_t slot) {
    int64_t c0 = ThreadCpuNs();
    QueryOp op = current_op(q);
    check_cpu += ThreadCpuNs() - c0;
    double ms = 0, cpu = 0;
    bool ok = RunQuery(d, op, &ms, &cpu, &check_cpu, &why);
    if (measure) {
      CountOp(report, ok, why, op.sql, &printed);
      query_log[op.type].Add(slot, ms, cpu);
    } else if (!ok) {
      report->Fail("warm-up mismatch: " + why);
    }
  };

  for (size_t i : schedule) {  // warm-up pass
    for (int k = 0; k < kIngestsPerQuery; ++k) ingest(false, false, 0);
    query(pool[i], false, i);
  }

  const Counters local0 = LocalCounters();
  const HostTicks host0 = ReadHostTicks();
  std::vector<double> cpu_ms_per_op;
  const int64_t start = WallNs();
  int passes = 0;
  do {
    const int64_t cpu0 = ProcessCpuNs();
    check_cpu = 0;
    for (size_t s = 0; s < schedule.size(); ++s) {
      const size_t i = schedule[s];
      for (int k = 0; k < kIngestsPerQuery; ++k) {
        // Traced runs alternate engine ingests with replayed ones.
        ingest(true, args.trace && (k + passes) % 2 == 1,
               s * kIngestsPerQuery + k);
      }
      if (args.trace) {
        QueryOp op = current_op(pool[i]);
        bool ok = TracedSample(d, op, passes % 2 == 1, &tracer, &totals, &why);
        CountOp(report, ok, why, op.sql, &printed);
      } else {
        query(pool[i], true, i);
      }
    }
    cpu_ms_per_op.push_back(
        static_cast<double>(ProcessCpuNs() - cpu0 - check_cpu) / 1e6 /
        static_cast<double>(schedule.size() * (kIngestsPerQuery + 1)));
    ++passes;
  } while (WallNs() - start < static_cast<int64_t>(args.seconds) * 1000000000);
  const int64_t wall = WallNs() - start;
  const HostTicks host1 = ReadHostTicks();

  // The standing window query saw every acknowledged row.
  for (const auto& info : d->engine->stream_hub()->List(kUser)) {
    if (info.name == "heat" && info.matches != heat_expected) {
      report->Fail(Fmt("window query matched %llu rows, expected %llu",
                       static_cast<unsigned long long>(info.matches),
                       static_cast<unsigned long long>(heat_expected)));
    }
  }
  Status flushed = d->engine->cluster()->FlushAll();
  if (!flushed.ok()) report->Fail("end-of-run flush: " + flushed.ToString());
  const uint64_t end_bytes = d->engine->GetStorageStats().disk_bytes;
  report->Detail(Fmt("passes=%d (first warm-up pass excluded) measured=%.3f "
                     "s streamed_rows=%llu stored_bytes_after_flush=%llu",
                     passes, static_cast<double>(wall) / 1e9,
                     static_cast<unsigned long long>(streamed_rows),
                     static_cast<unsigned long long>(end_bytes)));
  report->Detail(Fmt("host steal share over the run: %.4f",
                     StealShare(host0, host1)));

  if (args.trace) {
    const Counters local1 = LocalCounters();
    const Counters delta = local1.Minus(local0);
    report->Detail(Fmt("traced passes=%d replays=%zu ingest_replays=%zu",
                       passes, totals.queries, totals.ingests));
    ReportPerLayer(report, tracer, totals, delta, delta, local1, Counters());
    WriteTrace(args, tracer, report);
    return 0;
  }
  report->Metric("bytes_per_raw_byte",
                 static_cast<double>(end_bytes) / static_cast<double>(raw_bytes),
                 "ratio");
  ReportOp(report, "spatial_cpu_ms", "spatial", query_log[OpType::kSpatial]);
  ReportOp(report, "st_range_cpu_ms", "st_range", query_log[OpType::kStRange]);
  ReportOp(report, "own_op_cpu_ms", "notify", notify_log);
  ReportOp(report, "", "ingest", ingest_log);
  ReportCpu(report, cpu_ms_per_op);
  return 0;
}

}  // namespace

int RunWorkload(const Args& args, Report* report) {
  if (args.workload == "point_queries") {
    return RunPointQueries(args, report, false);
  }
  if (args.workload == "socket_point_queries") {
    return RunPointQueries(args, report, true);
  }
  if (args.workload == "scan_heavy") return RunScanHeavy(args, report);
  if (args.workload == "stream_mixed") return RunStreamMixed(args, report);
  report->Detail("unknown workload: " + args.workload);
  return 2;
}


}  // namespace just::perfbench
