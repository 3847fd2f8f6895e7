#include "obs/trace.h"

#include <chrono>
#include <cstdio>

namespace just::obs {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

thread_local TraceSpan* tls_current_span = nullptr;

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

void AppendCounter(std::string* out, const char* name, uint64_t value) {
  if (value == 0) return;
  *out += " ";
  *out += name;
  *out += "=";
  *out += std::to_string(value);
}

}  // namespace

TraceSpan* CurrentSpan() { return tls_current_span; }

SpanScope::SpanScope(TraceSpan* span) : prev_(tls_current_span) {
  tls_current_span = span;
}

SpanScope::~SpanScope() { tls_current_span = prev_; }

ScopedSpan::ScopedSpan(std::string name) {
  TraceSpan* parent = tls_current_span;
  if (parent == nullptr) return;
  span_ = parent->StartChild(std::move(name));
  prev_ = parent;
  tls_current_span = span_;
}

ScopedSpan::~ScopedSpan() {
  if (span_ == nullptr) return;
  span_->End();
  tls_current_span = prev_;
}

TraceSpan::TraceSpan(std::string name)
    : name_(std::move(name)), start_ns_(NowNs()) {}

TraceSpan* TraceSpan::StartChild(std::string name) {
  auto child = std::make_unique<TraceSpan>(std::move(name));
  TraceSpan* raw = child.get();
  std::lock_guard<std::mutex> lock(mu_);
  children_.push_back(std::move(child));
  return raw;
}

void TraceSpan::End() {
  bool expected = false;
  if (ended_.compare_exchange_strong(expected, true)) {
    wall_ns_.store(NowNs() - start_ns_, std::memory_order_relaxed);
  }
}

void TraceSpan::SetWallNs(uint64_t ns) {
  wall_ns_.store(ns, std::memory_order_relaxed);
  ended_.store(true, std::memory_order_release);
}

uint64_t TraceSpan::wall_ns() const {
  if (ended_.load(std::memory_order_acquire)) {
    return wall_ns_.load(std::memory_order_relaxed);
  }
  return NowNs() - start_ns_;
}

void TraceSpan::AddAttr(std::string_view key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  attrs_.emplace_back(std::string(key), std::string(value));
}

std::vector<TraceSpan*> TraceSpan::children() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceSpan*> out;
  out.reserve(children_.size());
  for (const auto& child : children_) out.push_back(child.get());
  return out;
}

std::vector<std::pair<std::string, std::string>> TraceSpan::attrs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attrs_;
}

template <typename Fn>
uint64_t TraceSpan::SubtreeSum(Fn fn) const {
  uint64_t total = fn(counters_);
  for (const TraceSpan* child : children()) {
    total += child->SubtreeSum(fn);
  }
  return total;
}

#define JUST_SPAN_TOTAL(Name, field)                                        \
  uint64_t TraceSpan::Name() const {                                        \
    return SubtreeSum([](const SpanCounters& c) {                           \
      return c.field.load(std::memory_order_relaxed);                       \
    });                                                                     \
  }

JUST_SPAN_TOTAL(TotalBytesRead, bytes_read)
JUST_SPAN_TOTAL(TotalKeyRanges, key_ranges)
JUST_SPAN_TOTAL(TotalCacheHits, cache_hits)
JUST_SPAN_TOTAL(TotalCacheMisses, cache_misses)
JUST_SPAN_TOTAL(TotalRowsScanned, rows_scanned)

#undef JUST_SPAN_TOTAL

std::string TraceSpan::ToString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += name_;
  for (const auto& [key, value] : attrs()) {
    out += " " + key + "=" + value;
  }
  out += "  (time=" + FormatMs(wall_ns()) + "ms";
  const SpanCounters& c = counters_;
  AppendCounter(&out, "rows", c.rows_out.load(std::memory_order_relaxed));
  AppendCounter(&out, "ranges", c.key_ranges.load(std::memory_order_relaxed));
  AppendCounter(&out, "rows_scanned",
                c.rows_scanned.load(std::memory_order_relaxed));
  AppendCounter(&out, "rows_matched",
                c.rows_matched.load(std::memory_order_relaxed));
  AppendCounter(&out, "late_rows",
                c.late_rows.load(std::memory_order_relaxed));
  AppendCounter(&out, "bytes_read",
                c.bytes_read.load(std::memory_order_relaxed));
  AppendCounter(&out, "read_ops", c.read_ops.load(std::memory_order_relaxed));
  uint64_t hits = c.cache_hits.load(std::memory_order_relaxed);
  uint64_t misses = c.cache_misses.load(std::memory_order_relaxed);
  AppendCounter(&out, "cache_hits", hits);
  AppendCounter(&out, "cache_misses", misses);
  if (hits + misses > 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " cache_hit_rate=%.2f",
                  static_cast<double>(hits) /
                      static_cast<double>(hits + misses));
    out += buf;
  }
  AppendCounter(&out, "batches", c.batches.load(std::memory_order_relaxed));
  AppendCounter(&out, "eval_specialized_us",
                c.eval_specialized_ns.load(std::memory_order_relaxed) / 1000);
  AppendCounter(&out, "eval_interpreted_us",
                c.eval_interpreted_ns.load(std::memory_order_relaxed) / 1000);
  out += ")\n";
  for (const TraceSpan* child : children()) {
    out += child->ToString(indent + 1);
  }
  return out;
}

std::string TraceSpan::ToJson() const {
  std::string out = "{\"name\":\"";
  for (char c : name_) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out += "\",\"wall_us\":" + std::to_string(wall_ns() / 1000);
  out += ",\"attrs\":{";
  bool first = true;
  for (const auto& [key, value] : attrs()) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"" + key + "\":\"" + value + "\"";
  }
  out += "},\"counters\":{";
  const SpanCounters& c = counters_;
  auto add = [&out](const char* name, uint64_t v, bool* first_counter) {
    if (v == 0) return;
    if (!*first_counter) out.push_back(',');
    *first_counter = false;
    out += "\"" + std::string(name) + "\":" + std::to_string(v);
  };
  bool fc = true;
  add("rows", c.rows_out.load(std::memory_order_relaxed), &fc);
  add("key_ranges", c.key_ranges.load(std::memory_order_relaxed), &fc);
  add("rows_scanned", c.rows_scanned.load(std::memory_order_relaxed), &fc);
  add("rows_matched", c.rows_matched.load(std::memory_order_relaxed), &fc);
  add("late_rows", c.late_rows.load(std::memory_order_relaxed), &fc);
  add("bytes_read", c.bytes_read.load(std::memory_order_relaxed), &fc);
  add("read_ops", c.read_ops.load(std::memory_order_relaxed), &fc);
  add("cache_hits", c.cache_hits.load(std::memory_order_relaxed), &fc);
  add("cache_misses", c.cache_misses.load(std::memory_order_relaxed), &fc);
  add("batches", c.batches.load(std::memory_order_relaxed), &fc);
  add("eval_specialized_ns",
      c.eval_specialized_ns.load(std::memory_order_relaxed), &fc);
  add("eval_interpreted_ns",
      c.eval_interpreted_ns.load(std::memory_order_relaxed), &fc);
  out += "},\"children\":[";
  first = true;
  for (const TraceSpan* child : children()) {
    if (!first) out.push_back(',');
    first = false;
    out += child->ToJson();
  }
  out += "]}";
  return out;
}

}  // namespace just::obs
