// Shared declarations of the JUST benchmark driver (see DESIGN.md).
#ifndef JUST_PERFBENCH_PERFBENCH_H_
#define JUST_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "sql/justql.h"
#include "traj/trajectory.h"
#include "workload/generators.h"

namespace just::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string work_dir;    ///< scratch root for stores and the trace file
  std::string server_bin;  ///< just_region_server, for the socket workload
  std::string git_sha = "unknown";
};

// --- Clocks and host counters (stats.cc) ---------------------------------

int64_t WallNs();
/// CPU time of every thread of this process.
int64_t ProcessCpuNs();
/// CPU time of the calling thread.
int64_t ThreadCpuNs();
/// CPU time of another process (all its threads); -1 when unreadable.
int64_t ProcessCpuNsOf(int pid);

/// Aggregate host CPU ticks from /proc/stat.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostTicks ReadHostTicks();
/// Share of host CPU time stolen by the hypervisor between two readings.
double StealShare(const HostTicks& before, const HostTicks& after);

// --- Statistics (stats.cc) -----------------------------------------------

double Median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]) of an ascending vector.
double PercentileSorted(const std::vector<double>& sorted, double p);

/// A latency's highest percentile from the ladder 50/75/90/95/99/99.9 that
/// still has at least kTailMinBeyond samples above its rank.
constexpr size_t kTailMinBeyond = 10;
struct Tail {
  bool supported = false;
  double percentile = 0;
  double value = 0;
  size_t beyond = 0;
};
Tail HighestSupportedTail(std::vector<double> v);

// --- Output (stats.cc) ---------------------------------------------------

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Collects a run's outcome. Detail lines print immediately as "# ...";
/// ToJson() is the result line the harness parses.
class Report {
 public:
  void Detail(const std::string& line);
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts one measured operation; a failed or wrong one marks the run.
  void Op(bool ok);
  /// Marks the run incorrect with a reason.
  void Fail(const std::string& why);
  std::string ToJson() const;

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Samples of one op type, kept per op (a pool query, or an ingest slot of
/// the pass), one sample per measured pass.
class SampleLog {
 public:
  void Add(size_t op, double v) { per_op_[op].push_back(v); }
  /// Each op's best (minimum) over the measured passes, then the median
  /// over ops. Interference only ever adds time, so the best of several
  /// passes estimates the op without it, and the outer median is always
  /// over the same op population.
  double MedianOfOpMinimums() const;
  std::vector<double> All() const;
  size_t ops() const { return per_op_.size(); }

 private:
  std::map<size_t, std::vector<double>> per_op_;
};

/// Wall latency and CPU time of each op of one type.
struct OpLog {
  SampleLog wall_ms;  ///< issue to full result
  SampleLog cpu_ms;   ///< CPU of every engine thread (and region server)
  void Add(size_t op, double wall, double cpu) {
    wall_ms.Add(op, wall);
    cpu_ms.Add(op, cpu);
  }
};

/// Reports one op type: its CPU cost (median over ops of each op's least
/// CPU over the passes) as `metric` unless empty, and a detail line with
/// the same statistic of its wall latency, the all-sample latency p50, the
/// highest percentile with kTailMinBeyond samples beyond it, and the
/// sample count.
void ReportOp(Report* report, const std::string& metric,
              const std::string& op, const OpLog& log);

// --- Data and oracle (data.cc) -------------------------------------------

enum class OpType {
  kSpatial,      ///< Fig 11 spatial range, Z2 on Order
  kStRange,      ///< Fig 12 spatio-temporal range, Z2T on Order / vehicles
  kKnn,          ///< Fig 13 k-NN on Order
  kRefine,       ///< JustQL refinement query: full scan + residual
  kTrajRange,    ///< Fig 12 spatio-temporal range, XZ2T on Traj
  kTrajSpatial,  ///< Fig 11 spatial range, XZ2 on Traj
};
const char* OpName(OpType type);

constexpr const char* kUser = "bench";
/// Table IV defaults.
constexpr double kWindowKm = 3.0;
constexpr int kKnnK = 100;

/// Pre-generated rows of one table, in fixed-size load batches, plus their
/// raw logical size.
struct TableData {
  std::string name;
  std::string create_sql;
  std::vector<std::vector<exec::Row>> batches;
  size_t num_rows = 0;
  uint64_t raw_bytes = 0;

  void Append(exec::Row row, size_t batch_rows) {
    if (batches.empty() || batches.back().size() == batch_rows) {
      batches.emplace_back();
      batches.back().reserve(batch_rows);
    }
    batches.back().push_back(std::move(row));
    ++num_rows;
  }
};

struct OrderData {
  std::vector<workload::OrderRecord> records;
  TimestampMs t_lo = 0;
  TimestampMs t_hi = 0;
};
OrderData MakeOrders(int count, uint64_t seed);
TableData OrderTable(const OrderData& data, size_t batch_rows);

struct TrajData {
  std::vector<traj::Trajectory> trajs;
  TimestampMs t_lo = 0;
  TimestampMs t_hi = 0;
};
TrajData MakeTrajs(int count, int points_per_traj, uint64_t seed);
TableData TrajTable(const TrajData& data, size_t batch_rows);

/// One pool query with its expected answer, computed before timing.
struct QueryOp {
  OpType type = OpType::kSpatial;
  std::string sql;
  std::string key_column;              ///< fid column of the table
  std::vector<std::string> expected;   ///< sorted keys (range and refine)
  geo::Point knn_point{};              ///< k-NN query point
  std::vector<double> expected_dists;  ///< k-NN: ascending distances
};

/// Brute-force oracle over Order-like points (sorted by longitude).
class PointOracle {
 public:
  struct Entry {
    double lng, lat;
    TimestampMs time;
    std::string fid;
  };
  void Add(Entry e) { entries_.push_back(std::move(e)); sorted_ = false; }
  void AddOrders(const OrderData& data);
  std::vector<std::string> Range(const geo::Mbr& box, bool temporal,
                                 TimestampMs t_min, TimestampMs t_max);
  std::vector<double> KnnDistances(const geo::Point& q, int k) const;

 private:
  void Sort();
  std::vector<Entry> entries_;
  bool sorted_ = true;
};

/// Deterministic query pools drawn from the seed (Table IV shapes).
std::string BoxSql(const geo::Mbr& box);
geo::Mbr WindowBox(const geo::Point& center, double side_km);
/// A [start, start + 1 day) window aligned to a day boundary inside
/// [t_lo, t_hi).
std::pair<TimestampMs, TimestampMs> DayWindow(TimestampMs t, TimestampMs t_lo,
                                              TimestampMs t_hi);

std::vector<QueryOp> SpatialPool(const OrderData& data, PointOracle* oracle,
                                 int count, uint64_t seed);
std::vector<QueryOp> StRangePool(const std::string& table,
                                 const OrderData& data, PointOracle* oracle,
                                 int count, uint64_t seed);
std::vector<QueryOp> KnnPool(const OrderData& data, const PointOracle& oracle,
                             int count, uint64_t seed);
std::vector<QueryOp> RefinePool(const OrderData& data, int count,
                                uint64_t seed);
std::vector<QueryOp> TrajPool(const TrajData& data, bool temporal, int count,
                              uint64_t seed);

/// Compares a query's result with its expected answer; fills `why` on a
/// mismatch.
bool CheckResult(const QueryOp& op, const exec::DataFrame& frame,
                 std::string* why);

/// Fisher-Yates shuffle driven by the seed.
template <typename T>
void Shuffle(std::vector<T>* v, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  }
}

// --- Region-server processes (servers.cc) --------------------------------

/// `just_region_server` child processes started through the --port-file
/// contract. Every exit path reaps them: the destructor, SIGTERM/SIGINT/
/// SIGHUP (via a handler that kills every live child and exits), and the
/// benchmark's own death (PR_SET_PDEATHSIG in each child).
class ServerGroup {
 public:
  ServerGroup() = default;
  ServerGroup(const ServerGroup&) = delete;
  ServerGroup& operator=(const ServerGroup&) = delete;
  ~ServerGroup();

  /// Starts `count` servers with stores under `dir`, each on an ephemeral
  /// port with an admin plane, and waits for their port files.
  Status Start(const std::string& binary, const std::string& dir, int count);
  /// SIGTERM, wait, SIGKILL stragglers; idempotent.
  void Stop();

  std::vector<std::string> addrs() const;
  const std::vector<int>& pids() const { return pids_; }
  const std::vector<int>& admin_ports() const { return admin_ports_; }
  /// Summed CPU time of the live servers.
  int64_t CpuNs() const;

 private:
  std::vector<int> pids_;
  std::vector<int> ports_;
  std::vector<int> admin_ports_;
};
/// Installs the signal handlers that reap every ServerGroup child.
void InstallReaper();

/// GET http://127.0.0.1:<port><path>; the body on success.
Result<std::string> HttpGet(int port, const std::string& path);

// --- Counters -------------------------------------------------------------

/// A flat view of registry counters/histogram sums, from this process or
/// from region servers' /statsz.
struct Counters {
  std::map<std::string, double> values;
  double Get(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  }
  /// Sums every entry whose name (labels stripped) equals `base`.
  double Family(const std::string& base) const;
  Counters Minus(const Counters& before) const;
  void Add(const Counters& other);
};
Counters LocalCounters();
Result<Counters> ParseStatsz(const std::string& json);

// --- Tracing (replay.cc) --------------------------------------------------

/// In-memory spans of the traced replay: name, request id, parent, start and
/// end on one steady clock. Written out as JSON lines at the end of a run.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t request = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// RAII span on the calling thread's current request.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_;
  };

  /// Starts a request's root span; returns its request id.
  uint64_t BeginRequest(const std::string& name);
  void EndRequest();

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span: duration minus the union of its children.
  std::vector<int64_t> SelfNs() const;
  Status WriteJsonLines(const std::string& path) const;

 private:
  size_t Open(const std::string& name);
  void Close(size_t index);

  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t next_request_ = 1;
  uint64_t current_request_ = 0;
};

/// A connected deployment under test.
struct Deployment {
  std::unique_ptr<ServerGroup> servers;  ///< socket workload only
  std::unique_ptr<core::JustEngine> engine;
  std::unique_ptr<sql::JustQL> ql;
  std::string dir;
};

/// A workload's deployment and bulk-loaded tables.
struct Spec {
  core::EngineOptions options;
  int socket_servers = 0;  ///< > 0: out-of-process region servers
  std::vector<TableData> tables;
  uint64_t raw_bytes() const {
    uint64_t n = 0;
    for (const auto& t : tables) n += t.raw_bytes;
    return n;
  }
};

/// 4 in-process region servers, 8 shards, default store options.
core::EngineOptions BaseOptions();

/// The timed set-up: engine open (plus region-server start), bulk load of
/// the pre-generated batches, and Finalize, in a fresh `dir`.
Result<std::unique_ptr<Deployment>> SetUp(const Args& args, const Spec& spec,
                                          const std::string& dir,
                                          double* seconds);

/// Replays one query op step by step through the layers' public entry
/// points under `tracer` and returns its result frame, with the rows the
/// scans fetched (comparable to QueryStats::rows_scanned), the key ranges
/// planned and how many of them came back empty.
Result<exec::DataFrame> ReplayQuery(Deployment* d, const QueryOp& op,
                                    Tracer* tracer, size_t* rows_fetched,
                                    size_t* ranges_planned,
                                    size_t* empty_ranges);

/// Runs a query through the same public calls as JustQL::Execute
/// (parse, analyze, optimize, execute) so its QueryStats are visible.
Result<exec::DataFrame> ExecuteWithStats(Deployment* d, const std::string& sql,
                                         core::QueryStats* stats);

// --- Workloads (workloads.cc) and self-test (selftest.cc) -----------------

int RunWorkload(const Args& args, Report* report);
int RunSelfTest(const Args& args);

}  // namespace just::perfbench

#endif  // JUST_PERFBENCH_PERFBENCH_H_
