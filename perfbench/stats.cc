// Clocks, host counters, percentiles and the result line.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/json.h"
#include "obs/metrics.h"
#include "perfbench.h"

namespace just::perfbench {

namespace {

int64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

/// Drops a `{label="..."}` block from a metric key.
std::string StripLabels(const std::string& key) {
  size_t open = key.find('{');
  if (open == std::string::npos) return key;
  size_t close = key.find('}', open);
  if (close == std::string::npos) return key;
  return key.substr(0, open) + key.substr(close + 1);
}

}  // namespace

int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

int64_t ProcessCpuNsOf(int pid) {
  // The first field of a task's schedstat is its on-CPU time in ns; the
  // per-pid file covers the main thread only, so sum the live threads.
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  int64_t total = 0;
  bool any = false;
  for (const auto& task : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream in(task.path() / "schedstat");
    int64_t ns = 0;
    if (in >> ns) {
      total += ns;
      any = true;
    }
  }
  return any ? total : -1;
}

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  HostTicks t;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  uint64_t v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealShare(const HostTicks& before, const HostTicks& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Tail HighestSupportedTail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Tail tail;
  const double ladder[] = {99.9, 99, 95, 90, 75, 50};
  for (double p : ladder) {
    // Nearest rank; the epsilon keeps 0.999 * 10000 from rounding up.
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
    if (rank == 0 || rank > v.size()) continue;
    size_t beyond = v.size() - rank;
    if (beyond >= kTailMinBeyond) {
      tail.supported = true;
      tail.percentile = p;
      tail.value = v[rank - 1];
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

void Report::Detail(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Op(bool ok) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
  }
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  Detail("FAILED: " + why);
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(vu.first) +
           ", \"unit\": " + JsonString(vu.second) + "}";
  }
  return out + "}}";
}

double SampleLog::MedianOfOpMinimums() const {
  std::vector<double> best;
  for (const auto& [op, v] : per_op_) {
    best.push_back(*std::min_element(v.begin(), v.end()));
  }
  return Median(best);
}

std::vector<double> SampleLog::All() const {
  std::vector<double> all;
  for (const auto& [op, v] : per_op_) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void ReportOp(Report* report, const std::string& metric,
              const std::string& op, const OpLog& log) {
  const double cpu = log.cpu_ms.MedianOfOpMinimums();
  if (!metric.empty()) report->Metric(metric, cpu, "ms");
  std::vector<double> all = log.wall_ms.All();
  std::string line =
      Fmt("%s: cpu %.4f ms; latency: median of op minimums = %.4f ms over "
          "%zu ops, all-sample p50 = %.4f ms",
          op.c_str(), cpu, log.wall_ms.MedianOfOpMinimums(),
          log.wall_ms.ops(), Median(all));
  Tail tail = HighestSupportedTail(all);
  if (tail.supported) {
    line += Fmt("; tail p%g = %.4f ms (%zu samples beyond, n=%zu)",
                tail.percentile, tail.value, tail.beyond, all.size());
  } else {
    line += Fmt("; no tail supported (n=%zu)", all.size());
  }
  report->Detail(line);
}

double Counters::Family(const std::string& base) const {
  double sum = 0;
  for (const auto& [key, value] : values) {
    if (StripLabels(key) == base) sum += value;
  }
  return sum;
}

Counters Counters::Minus(const Counters& before) const {
  Counters out;
  for (const auto& [key, value] : values) {
    out.values[key] = value - before.Get(key);
  }
  return out;
}

void Counters::Add(const Counters& other) {
  for (const auto& [key, value] : other.values) values[key] += value;
}

Counters LocalCounters() {
  obs::RegistrySnapshot snap = obs::Registry::Global().GetSnapshot();
  Counters c;
  for (const auto& [name, v] : snap.counters) {
    c.values[name] = static_cast<double>(v);
  }
  for (const auto& [name, v] : snap.gauges) {
    c.values[name] = static_cast<double>(v);
  }
  for (const auto& [name, h] : snap.histograms) {
    c.values[name + "#sum"] = static_cast<double>(h.sum);
    c.values[name + "#count"] = static_cast<double>(h.count);
  }
  return c;
}

Result<Counters> ParseStatsz(const std::string& json) {
  JUST_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(json));
  Counters c;
  for (const char* section : {"counters", "gauges"}) {
    for (const auto& [name, v] : doc.Get(section).object_members()) {
      c.values[name] = v.number_value();
    }
  }
  for (const auto& [name, h] : doc.Get("histograms").object_members()) {
    c.values[name + "#sum"] = h.Get("sum").number_value();
    c.values[name + "#count"] = h.Get("count").number_value();
  }
  return c;
}

}  // namespace just::perfbench
