#ifndef JUST_OBS_TRACE_H_
#define JUST_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace just::obs {

/// Counters a span accumulates while it is the thread's current span. All
/// fields are relaxed atomics because ParallelScan fans one span out to many
/// worker threads. Counters are *not* rolled up into parents automatically;
/// TotalXxx() helpers aggregate a subtree at report time.
struct SpanCounters {
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> read_ops{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> key_ranges{0};       ///< SCANs issued
  std::atomic<uint64_t> rows_scanned{0};     ///< KV pairs before refinement
  std::atomic<uint64_t> rows_matched{0};     ///< rows surviving refinement
  /// Rows whose late (kept but unread) columns the scan decoded.
  std::atomic<uint64_t> late_rows{0};
  std::atomic<uint64_t> rows_out{0};         ///< rows the operator emitted
  std::atomic<uint64_t> batches{0};          ///< column batches processed
  /// Time spent in compiled (type-specialized) predicate/projection kernels
  /// vs the interpreted EvaluateExpr fallback — the JIT papers' headline
  /// number, surfaced per operator by EXPLAIN ANALYZE.
  std::atomic<uint64_t> eval_specialized_ns{0};
  std::atomic<uint64_t> eval_interpreted_ns{0};
};

/// One node of a per-query trace: a named time interval with counters,
/// string attributes, and children. Spans are created via
/// Trace::root()->StartChild(...) or the ScopedSpan helper and live as long
/// as the owning Trace.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name);

  TraceSpan* StartChild(std::string name);
  /// Stops the clock (idempotent; the first End wins).
  void End();

  void AddAttr(std::string_view key, std::string_view value);

  const std::string& name() const { return name_; }
  /// Wall time in nanoseconds; measured up to now if the span is still open.
  uint64_t wall_ns() const;
  /// Forces the wall time (and marks the span ended). Only for spans rebuilt
  /// from a serialized tree (obs/trace_codec.h), whose clock ran in another
  /// process.
  void SetWallNs(uint64_t ns);
  SpanCounters& counters() { return counters_; }
  const SpanCounters& counters() const { return counters_; }

  std::vector<TraceSpan*> children() const;
  std::vector<std::pair<std::string, std::string>> attrs() const;

  /// Subtree totals (this span + descendants).
  uint64_t TotalBytesRead() const;
  uint64_t TotalKeyRanges() const;
  uint64_t TotalCacheHits() const;
  uint64_t TotalCacheMisses() const;
  uint64_t TotalRowsScanned() const;

  /// Indented rendering: one line per span with wall time, attributes, and
  /// the non-zero counters (the EXPLAIN ANALYZE body).
  std::string ToString(int indent = 0) const;

  /// JSON object {"name":...,"wall_us":...,"counters":{...},"children":[...]}.
  std::string ToJson() const;

 private:
  template <typename Fn>
  uint64_t SubtreeSum(Fn fn) const;

  std::string name_;
  uint64_t start_ns_ = 0;
  std::atomic<uint64_t> wall_ns_{0};
  std::atomic<bool> ended_{false};
  SpanCounters counters_;
  mutable std::mutex mu_;  ///< guards children_ and attrs_
  std::vector<std::unique_ptr<TraceSpan>> children_;
  std::vector<std::pair<std::string, std::string>> attrs_;
};

/// A per-query trace: owns the span tree rooted at `root()`. Create one,
/// scope the root with SpanScope (or ScopedSpan children), run the query,
/// then render or export.
class Trace {
 public:
  explicit Trace(std::string name) : root_(std::move(name)) {}

  TraceSpan* root() { return &root_; }
  std::string ToString() const { return root_.ToString(); }
  std::string ToJson() const { return root_.ToJson(); }

 private:
  TraceSpan root_;
};

/// The current thread's active span; nullptr when no trace is running.
TraceSpan* CurrentSpan();

/// Makes `span` the thread's current span for the scope's lifetime (restores
/// the previous one on destruction). Pass the parent span into thread-pool
/// workers this way: capture CurrentSpan() before dispatch, SpanScope inside
/// the worker. Does NOT end the span.
class SpanScope {
 public:
  explicit SpanScope(TraceSpan* span);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceSpan* prev_;
};

/// Starts a child of the current span (no-op when no trace is active), makes
/// it current, and ends it on destruction — the one-liner for instrumenting
/// an operator or a phase.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// nullptr when tracing is inactive.
  TraceSpan* span() const { return span_; }

 private:
  TraceSpan* span_ = nullptr;
  TraceSpan* prev_ = nullptr;
};

// --- Hot-path attribution helpers -----------------------------------------
// Storage-layer code calls these unconditionally; they cost one TLS load and
// a branch when no trace is active.

inline void TraceAdd(std::atomic<uint64_t> SpanCounters::* field, uint64_t n) {
  TraceSpan* span = CurrentSpan();
  if (span != nullptr) {
    (span->counters().*field).fetch_add(n, std::memory_order_relaxed);
  }
}

inline void TraceBytesRead(uint64_t n) {
  TraceAdd(&SpanCounters::bytes_read, n);
  TraceAdd(&SpanCounters::read_ops, 1);
}
inline void TraceCacheHit() { TraceAdd(&SpanCounters::cache_hits, 1); }
inline void TraceCacheMiss() { TraceAdd(&SpanCounters::cache_misses, 1); }
inline void TraceKeyRanges(uint64_t n) { TraceAdd(&SpanCounters::key_ranges, n); }
inline void TraceRowsScanned(uint64_t n) {
  TraceAdd(&SpanCounters::rows_scanned, n);
}
inline void TraceRowsMatched(uint64_t n) {
  TraceAdd(&SpanCounters::rows_matched, n);
}
inline void TraceLateRows(uint64_t n) {
  TraceAdd(&SpanCounters::late_rows, n);
}
inline void TraceBatches(uint64_t n) { TraceAdd(&SpanCounters::batches, n); }
inline void TraceEvalSpecializedNs(uint64_t ns) {
  TraceAdd(&SpanCounters::eval_specialized_ns, ns);
}
inline void TraceEvalInterpretedNs(uint64_t ns) {
  TraceAdd(&SpanCounters::eval_interpreted_ns, ns);
}

}  // namespace just::obs

#endif  // JUST_OBS_TRACE_H_
