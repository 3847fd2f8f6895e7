#include "obs/trace_codec.h"

#include <string>

#include "common/bytes.h"

namespace just::obs {

namespace {

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed span tree: ") + what);
}

/// Stable wire ids for SpanCounters fields. Never renumber; new counters
/// append new ids and old decoders skip them. Ids 5 and 6 belonged to
/// retired counters: decoders skip them and they are never reused.
enum CounterId : uint32_t {
  kBytesRead = 1,
  kReadOps = 2,
  kCacheHits = 3,
  kCacheMisses = 4,
  kKeyRanges = 7,
  kRowsScanned = 8,
  kRowsMatched = 9,
  kRowsOut = 10,
  kBatches = 11,
  kEvalSpecializedNs = 12,
  kEvalInterpretedNs = 13,
};

uint64_t LoadCounter(const SpanCounters& c,
                     std::atomic<uint64_t> SpanCounters::*field) {
  return (c.*field).load(std::memory_order_relaxed);
}

void PutCounter(std::string* out, uint32_t id, uint64_t value) {
  if (value == 0) return;
  PutVarint32(out, id);
  PutVarint64(out, value);
}

uint32_t CountNonZero(const SpanCounters& c) {
  uint32_t n = 0;
  auto tick = [&n](uint64_t v) { n += (v != 0) ? 1 : 0; };
  tick(LoadCounter(c, &SpanCounters::bytes_read));
  tick(LoadCounter(c, &SpanCounters::read_ops));
  tick(LoadCounter(c, &SpanCounters::cache_hits));
  tick(LoadCounter(c, &SpanCounters::cache_misses));
  tick(LoadCounter(c, &SpanCounters::key_ranges));
  tick(LoadCounter(c, &SpanCounters::rows_scanned));
  tick(LoadCounter(c, &SpanCounters::rows_matched));
  tick(LoadCounter(c, &SpanCounters::rows_out));
  tick(LoadCounter(c, &SpanCounters::batches));
  tick(LoadCounter(c, &SpanCounters::eval_specialized_ns));
  tick(LoadCounter(c, &SpanCounters::eval_interpreted_ns));
  return n;
}

void EncodeSpan(const TraceSpan& span, std::string* out) {
  PutLengthPrefixed(out, span.name());
  PutVarint64(out, span.wall_ns());
  const SpanCounters& c = span.counters();
  PutVarint32(out, CountNonZero(c));
  PutCounter(out, kBytesRead, LoadCounter(c, &SpanCounters::bytes_read));
  PutCounter(out, kReadOps, LoadCounter(c, &SpanCounters::read_ops));
  PutCounter(out, kCacheHits, LoadCounter(c, &SpanCounters::cache_hits));
  PutCounter(out, kCacheMisses, LoadCounter(c, &SpanCounters::cache_misses));
  PutCounter(out, kKeyRanges, LoadCounter(c, &SpanCounters::key_ranges));
  PutCounter(out, kRowsScanned, LoadCounter(c, &SpanCounters::rows_scanned));
  PutCounter(out, kRowsMatched, LoadCounter(c, &SpanCounters::rows_matched));
  PutCounter(out, kRowsOut, LoadCounter(c, &SpanCounters::rows_out));
  PutCounter(out, kBatches, LoadCounter(c, &SpanCounters::batches));
  PutCounter(out, kEvalSpecializedNs,
             LoadCounter(c, &SpanCounters::eval_specialized_ns));
  PutCounter(out, kEvalInterpretedNs,
             LoadCounter(c, &SpanCounters::eval_interpreted_ns));
  auto attrs = span.attrs();
  PutVarint32(out, static_cast<uint32_t>(attrs.size()));
  for (const auto& [key, value] : attrs) {
    PutLengthPrefixed(out, key);
    PutLengthPrefixed(out, value);
  }
  auto children = span.children();
  PutVarint32(out, static_cast<uint32_t>(children.size()));
  for (const TraceSpan* child : children) EncodeSpan(*child, out);
}

void StoreCounter(SpanCounters* c, uint32_t id, uint64_t value) {
  switch (id) {
    case kBytesRead:
      c->bytes_read.store(value, std::memory_order_relaxed);
      break;
    case kReadOps:
      c->read_ops.store(value, std::memory_order_relaxed);
      break;
    case kCacheHits:
      c->cache_hits.store(value, std::memory_order_relaxed);
      break;
    case kCacheMisses:
      c->cache_misses.store(value, std::memory_order_relaxed);
      break;
    case kKeyRanges:
      c->key_ranges.store(value, std::memory_order_relaxed);
      break;
    case kRowsScanned:
      c->rows_scanned.store(value, std::memory_order_relaxed);
      break;
    case kRowsMatched:
      c->rows_matched.store(value, std::memory_order_relaxed);
      break;
    case kRowsOut:
      c->rows_out.store(value, std::memory_order_relaxed);
      break;
    case kBatches:
      c->batches.store(value, std::memory_order_relaxed);
      break;
    case kEvalSpecializedNs:
      c->eval_specialized_ns.store(value, std::memory_order_relaxed);
      break;
    case kEvalInterpretedNs:
      c->eval_interpreted_ns.store(value, std::memory_order_relaxed);
      break;
    default:
      break;  // unknown id from a newer writer: value already consumed
  }
}

/// One recursive descent over a serialized span. In the validation pass
/// (`into == nullptr`) it only checks structure against the limits; in the
/// build pass it also materializes spans under `into`'s parent-provided
/// node. Decode is two-pass so a tree that fails late leaves nothing
/// half-grafted in the caller's trace.
Status ParseSpan(const char** p, const char* limit, uint32_t depth,
                 uint32_t* spans_seen, TraceSpan* into) {
  if (depth > kTraceCodecMaxDepth) return Malformed("depth limit");
  if (++*spans_seen > kTraceCodecMaxSpans) return Malformed("span limit");
  std::string_view name;
  if (!GetLengthPrefixed(p, limit, &name)) return Malformed("span name");
  uint64_t wall_ns = 0;
  if (!GetVarint64(p, limit, &wall_ns)) return Malformed("wall_ns");
  if (into != nullptr) into->SetWallNs(wall_ns);
  uint32_t n_counters = 0;
  if (!GetVarint32(p, limit, &n_counters)) return Malformed("counter count");
  for (uint32_t i = 0; i < n_counters; ++i) {
    uint32_t id = 0;
    uint64_t value = 0;
    if (!GetVarint32(p, limit, &id)) return Malformed("counter id");
    if (!GetVarint64(p, limit, &value)) return Malformed("counter value");
    if (into != nullptr) StoreCounter(&into->counters(), id, value);
  }
  uint32_t n_attrs = 0;
  if (!GetVarint32(p, limit, &n_attrs)) return Malformed("attr count");
  for (uint32_t i = 0; i < n_attrs; ++i) {
    std::string_view key, value;
    if (!GetLengthPrefixed(p, limit, &key)) return Malformed("attr key");
    if (!GetLengthPrefixed(p, limit, &value)) return Malformed("attr value");
    if (into != nullptr) into->AddAttr(key, value);
  }
  uint32_t n_children = 0;
  if (!GetVarint32(p, limit, &n_children)) return Malformed("child count");
  for (uint32_t i = 0; i < n_children; ++i) {
    // Peek the child's name so the build pass can create it before
    // descending. Validation re-reads it inside the recursive call, so do
    // not advance `p` here.
    TraceSpan* child = nullptr;
    if (into != nullptr) {
      const char* peek = *p;
      std::string_view child_name;
      if (!GetLengthPrefixed(&peek, limit, &child_name)) {
        return Malformed("span name");
      }
      child = into->StartChild(std::string(child_name));
    }
    Status st = ParseSpan(p, limit, depth + 1, spans_seen, child);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace

std::string EncodeSpanTree(const TraceSpan& span) {
  std::string out;
  PutVarint32(&out, 1);  // version
  EncodeSpan(span, &out);
  return out;
}

TraceSpan* DecodeSpanTree(std::string_view data, TraceSpan* parent,
                          Status* st) {
  const char* p = data.data();
  const char* limit = p + data.size();
  uint32_t version = 0;
  if (!GetVarint32(&p, limit, &version)) {
    *st = Malformed("version");
    return nullptr;
  }
  if (version != 1) {
    *st = Malformed("unsupported version");
    return nullptr;
  }
  // Pass 1: validate without touching `parent`.
  const char* vp = p;
  uint32_t spans_seen = 0;
  *st = ParseSpan(&vp, limit, 0, &spans_seen, nullptr);
  if (!st->ok()) return nullptr;
  if (vp != limit) {
    *st = Malformed("trailing bytes");
    return nullptr;
  }
  // Pass 2: build. Cannot fail — the bytes just validated.
  const char* peek = p;
  std::string_view root_name;
  GetLengthPrefixed(&peek, limit, &root_name);
  TraceSpan* root = parent->StartChild(std::string(root_name));
  spans_seen = 0;
  *st = ParseSpan(&p, limit, 0, &spans_seen, root);
  return root;
}

}  // namespace just::obs
