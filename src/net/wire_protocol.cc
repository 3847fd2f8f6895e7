#include "net/wire_protocol.h"

#include "common/bytes.h"
#include "kvstore/wal.h"  // kv::Crc32
#include "net/socket.h"

namespace just::net {

namespace {

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed message: ") + what);
}

/// Rebuilds a Status from its wire code. The code has already been
/// range-checked by DecodeStatus.
Status StatusFromCode(StatusCode code, std::string msg) {
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(msg));
    case StatusCode::kIOError:
      return Status::IOError(std::move(msg));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(msg));
    case StatusCode::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
    case StatusCode::kPermissionDenied:
      return Status::PermissionDenied(std::move(msg));
    case StatusCode::kInternal:
      return Status::Internal(std::move(msg));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(msg));
  }
  return Status::Internal("unreachable status code");
}

/// Starts a payload: type byte + request id + (optional) extension field.
/// Body bytes append after.
void BeginPayload(MsgType type, uint64_t request_id, std::string* payload,
                  std::string_view ext) {
  uint8_t type_byte = static_cast<uint8_t>(type);
  if (!ext.empty()) type_byte |= kExtensionFlag;
  payload->push_back(static_cast<char>(type_byte));
  PutFixed64(payload, request_id);
  if (!ext.empty()) PutLengthPrefixed(payload, ext);
}

/// Wraps a finished payload into a frame appended to `dst`.
void FinishFrame(const std::string& payload, std::string* dst) {
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  PutFixed32(dst, kv::Crc32(payload));
  dst->append(payload);
}

bool GetString(const char** p, const char* limit, std::string* out) {
  std::string_view sv;
  if (!GetLengthPrefixed(p, limit, &sv)) return false;
  out->assign(sv.data(), sv.size());
  return true;
}

Status ExpectEnd(const char* p, const char* limit) {
  if (p != limit) return Malformed("trailing bytes");
  return Status::OK();
}

}  // namespace

bool IsRequestType(MsgType t) {
  switch (t) {
    case MsgType::kPingReq:
    case MsgType::kWriteBatchReq:
    case MsgType::kFlushReq:
    case MsgType::kCompactReq:
    case MsgType::kStatsReq:
    case MsgType::kMultiScanReq:
      return true;
    default:
      return false;
  }
}

bool IsKnownType(uint8_t t) {
  auto m = static_cast<MsgType>(t);
  return IsRequestType(m) || m == MsgType::kStatusResp ||
         m == MsgType::kStatsResp || m == MsgType::kMultiScanResp;
}

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kPingReq:
      return "ping";
    case MsgType::kWriteBatchReq:
      return "write_batch";
    case MsgType::kFlushReq:
      return "flush";
    case MsgType::kCompactReq:
      return "compact";
    case MsgType::kStatsReq:
      return "stats";
    case MsgType::kMultiScanReq:
      return "multi_scan";
    case MsgType::kStatusResp:
      return "status_resp";
    case MsgType::kStatsResp:
      return "stats_resp";
    case MsgType::kMultiScanResp:
      return "multi_scan_resp";
  }
  return "unknown";
}

std::string EncodeTraceContext(const TraceContext& ctx) {
  std::string ext;
  PutVarint32(&ext, ctx.sampled ? 1u : 0u);
  return ext;
}

Status DecodeTraceContext(std::string_view ext, TraceContext* ctx) {
  const char* p = ext.data();
  const char* limit = p + ext.size();
  uint32_t flags = 0;
  if (!GetVarint32(&p, limit, &flags)) {
    return Malformed("trace context flags");
  }
  ctx->sampled = (flags & 1u) != 0;
  // Trailing bytes are future fields from a newer peer: ignore them.
  return Status::OK();
}

void EncodeStatus(const Status& st, std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(st.code()));
  PutLengthPrefixed(dst, st.message());
}

Status DecodeStatus(const char** p, const char* limit, Status* st) {
  uint32_t code = 0;
  if (!GetVarint32(p, limit, &code)) return Malformed("status code");
  if (code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Malformed("status code out of range");
  }
  std::string msg;
  if (!GetString(p, limit, &msg)) return Malformed("status message");
  *st = StatusFromCode(static_cast<StatusCode>(code), std::move(msg));
  return Status::OK();
}

// --- Requests ----------------------------------------------------------

void EncodePingRequest(uint64_t request_id, std::string* dst,
                       std::string_view ext) {
  EncodeEmptyRequest(MsgType::kPingReq, request_id, dst, ext);
}

void EncodeEmptyRequest(MsgType type, uint64_t request_id, std::string* dst,
                        std::string_view ext) {
  std::string payload;
  BeginPayload(type, request_id, &payload, ext);
  FinishFrame(payload, dst);
}

void EncodeWriteBatchRequest(std::string_view tenant,
                             const std::vector<kv::WriteOp>& ops,
                             uint64_t request_id, std::string* dst,
                             std::string_view ext) {
  std::string payload;
  BeginPayload(MsgType::kWriteBatchReq, request_id, &payload, ext);
  PutLengthPrefixed(&payload, tenant);
  PutVarint32(&payload, static_cast<uint32_t>(ops.size()));
  for (const auto& op : ops) {
    payload.push_back(op.is_delete ? 1 : 0);
    PutLengthPrefixed(&payload, op.key);
    if (!op.is_delete) PutLengthPrefixed(&payload, op.value);
  }
  FinishFrame(payload, dst);
}

void EncodeMultiScanRequest(const MultiScanRequest& req, uint64_t request_id,
                            std::string* dst, std::string_view ext) {
  std::string payload;
  BeginPayload(MsgType::kMultiScanReq, request_id, &payload, ext);
  PutVarint32(&payload, static_cast<uint32_t>(req.ranges.size()));
  for (const kv::ScanRange& range : req.ranges) {
    PutLengthPrefixed(&payload, range.start);
    PutLengthPrefixed(&payload, range.end);
  }
  PutVarint32(&payload, req.limit_rows);
  PutVarint32(&payload, req.resume.range);
  PutLengthPrefixed(&payload, req.resume.key);
  FinishFrame(payload, dst);
}

Status DecodeWriteBatchRequest(std::string_view body, WriteBatchRequest* req) {
  const char* p = body.data();
  const char* limit = p + body.size();
  if (!GetString(&p, limit, &req->tenant)) return Malformed("batch tenant");
  uint32_t count = 0;
  if (!GetVarint32(&p, limit, &count)) return Malformed("batch count");
  // An op takes at least 2 bytes on the wire; a count promising more ops
  // than the body could possibly hold is rejected before reserving memory.
  if (count > body.size() / 2 + 1) return Malformed("batch count too large");
  req->ops.clear();
  req->ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (p >= limit) return Malformed("batch op truncated");
    uint8_t tag = static_cast<uint8_t>(*p++);
    if (tag > 1) return Malformed("batch op tag");
    kv::WriteOp op;
    op.is_delete = tag == 1;
    if (!GetString(&p, limit, &op.key)) return Malformed("batch op key");
    if (!op.is_delete && !GetString(&p, limit, &op.value)) {
      return Malformed("batch op value");
    }
    req->ops.push_back(std::move(op));
  }
  return ExpectEnd(p, limit);
}

Status DecodeMultiScanRequest(std::string_view body, MultiScanRequest* req) {
  const char* p = body.data();
  const char* limit = p + body.size();
  uint32_t count = 0;
  if (!GetVarint32(&p, limit, &count)) return Malformed("range count");
  if (count == 0) return Malformed("no ranges");
  if (count > kMaxScanRanges) return Malformed("too many ranges");
  // A range takes at least 2 bytes (two empty keys): a count the body
  // cannot hold is rejected before reserving memory.
  if (count > body.size() / 2) return Malformed("range count too large");
  req->ranges.clear();
  req->ranges.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    kv::ScanRange range;
    if (!GetLengthPrefixed(&p, limit, &range.start)) {
      return Malformed("range start");
    }
    if (!GetLengthPrefixed(&p, limit, &range.end)) {
      return Malformed("range end");
    }
    req->ranges.push_back(range);
  }
  if (!GetVarint32(&p, limit, &req->limit_rows)) {
    return Malformed("multi-scan limit");
  }
  if (req->limit_rows == 0) return Malformed("multi-scan limit zero");
  if (!GetVarint32(&p, limit, &req->resume.range)) {
    return Malformed("resume range");
  }
  if (req->resume.range >= count) return Malformed("resume range out of range");
  if (!GetString(&p, limit, &req->resume.key)) return Malformed("resume key");
  return ExpectEnd(p, limit);
}

Status DecodeEmptyBody(std::string_view body) {
  if (!body.empty()) return Malformed("unexpected body");
  return Status::OK();
}

// --- Responses ---------------------------------------------------------

void EncodeStatusResponse(const StatusResponse& resp, uint64_t request_id,
                          std::string* dst, std::string_view ext) {
  std::string payload;
  BeginPayload(MsgType::kStatusResp, request_id, &payload, ext);
  EncodeStatus(resp.status, &payload);
  FinishFrame(payload, dst);
}

void EncodeStatsResponse(const StatsResponse& resp, uint64_t request_id,
                         std::string* dst, std::string_view ext) {
  std::string payload;
  BeginPayload(MsgType::kStatsResp, request_id, &payload, ext);
  EncodeStatus(resp.status, &payload);
  PutFixed64(&payload, resp.disk_bytes);
  PutFixed64(&payload, resp.entries);
  PutFixed64(&payload, resp.num_sstables);
  PutFixed64(&payload, resp.requests_total);
  PutFixed64(&payload, resp.shed_total);
  PutFixed64(&payload, resp.corrupt_frames_total);
  PutFixed64(&payload, resp.active_connections);
  FinishFrame(payload, dst);
}

void EncodeMultiScanResponse(const MultiScanResponse& resp,
                             uint64_t request_id, std::string* dst,
                             std::string_view ext) {
  std::string payload;
  BeginPayload(MsgType::kMultiScanResp, request_id, &payload, ext);
  EncodeStatus(resp.status, &payload);
  PutVarint32(&payload, static_cast<uint32_t>(resp.rows.size()));
  for (const auto& row : resp.rows) {
    PutVarint32(&payload, row.range);
    PutLengthPrefixed(&payload, row.key);
    PutLengthPrefixed(&payload, row.value);
  }
  payload.push_back(resp.has_more ? 1 : 0);
  PutVarint32(&payload, resp.next.range);
  PutLengthPrefixed(&payload, resp.next.key);
  FinishFrame(payload, dst);
}

void ScanPageWriter::Begin() {
  body_.clear();
  rows_ = 0;
}

void ScanPageWriter::AddRow(uint32_t range, std::string_view key,
                            std::string_view value) {
  PutVarint32(&body_, range);
  PutVarint32(&body_, static_cast<uint32_t>(key.size()));
  last_key_at_ = body_.size();
  last_key_size_ = key.size();
  body_.append(key);
  PutLengthPrefixed(&body_, value);
  last_range_ = range;
  ++rows_;
}

void ScanPageWriter::Finish(const Status& status, bool has_more,
                            const ScanCursor& next, uint64_t request_id,
                            std::string_view ext) {
  body_.push_back(has_more ? 1 : 0);
  PutVarint32(&body_, next.range);
  PutLengthPrefixed(&body_, next.key);
  // The head's payload part first; its length and CRC go in front.
  std::string part;
  BeginPayload(MsgType::kMultiScanResp, request_id, &part, ext);
  EncodeStatus(status, &part);
  PutVarint32(&part, rows_);
  head_.clear();
  PutFixed32(&head_, static_cast<uint32_t>(part.size() + body_.size()));
  PutFixed32(&head_, kv::Crc32(kv::Crc32(part), body_));
  head_.append(part);
}

Status DecodeStatusResponse(std::string_view body, StatusResponse* resp) {
  const char* p = body.data();
  const char* limit = p + body.size();
  JUST_RETURN_NOT_OK(DecodeStatus(&p, limit, &resp->status));
  return ExpectEnd(p, limit);
}

Status DecodeMultiScanResponse(std::string_view body,
                               MultiScanResponse* resp) {
  const char* p = body.data();
  const char* limit = p + body.size();
  JUST_RETURN_NOT_OK(DecodeStatus(&p, limit, &resp->status));
  uint32_t count = 0;
  if (!GetVarint32(&p, limit, &count)) return Malformed("multi-scan row count");
  // A row takes at least 3 bytes (range index and two lengths).
  if (count > body.size() / 3) {
    return Malformed("multi-scan row count too large");
  }
  resp->rows.clear();
  resp->rows.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    MultiScanRow row;
    if (!GetVarint32(&p, limit, &row.range)) return Malformed("row range");
    if (!GetLengthPrefixed(&p, limit, &row.key)) return Malformed("row key");
    if (!GetLengthPrefixed(&p, limit, &row.value)) {
      return Malformed("row value");
    }
    resp->rows.push_back(row);
  }
  if (p >= limit) return Malformed("multi-scan has_more");
  uint8_t has_more = static_cast<uint8_t>(*p++);
  if (has_more > 1) return Malformed("multi-scan has_more flag");
  resp->has_more = has_more == 1;
  if (!GetVarint32(&p, limit, &resp->next.range)) {
    return Malformed("next range");
  }
  if (!GetString(&p, limit, &resp->next.key)) return Malformed("next key");
  return ExpectEnd(p, limit);
}

Status DecodeStatsResponse(std::string_view body, StatsResponse* resp) {
  const char* p = body.data();
  const char* limit = p + body.size();
  JUST_RETURN_NOT_OK(DecodeStatus(&p, limit, &resp->status));
  if (limit - p != 7 * 8) return Malformed("stats body size");
  resp->disk_bytes = GetFixed64(p);
  resp->entries = GetFixed64(p + 8);
  resp->num_sstables = GetFixed64(p + 16);
  resp->requests_total = GetFixed64(p + 24);
  resp->shed_total = GetFixed64(p + 32);
  resp->corrupt_frames_total = GetFixed64(p + 40);
  resp->active_connections = GetFixed64(p + 48);
  return Status::OK();
}

// --- Framing -----------------------------------------------------------

Status DecodeFrame(std::string_view frame, std::string_view* payload,
                   size_t max_frame_bytes) {
  if (frame.size() < kFrameHeaderBytes) {
    return Status::Corruption("truncated frame header");
  }
  uint32_t len = GetFixed32(frame.data());
  uint32_t crc = GetFixed32(frame.data() + 4);
  if (len > max_frame_bytes) {
    return Status::InvalidArgument("frame exceeds maximum size");
  }
  if (frame.size() - kFrameHeaderBytes < len) {
    return Status::Corruption("truncated frame payload");
  }
  std::string_view body(frame.data() + kFrameHeaderBytes, len);
  if (kv::Crc32(body) != crc) {
    return Status::Corruption("frame CRC mismatch");
  }
  *payload = body;
  return Status::OK();
}

Status ReadFramePayload(Socket& sock, std::string* payload,
                        size_t max_frame_bytes) {
  char header[kFrameHeaderBytes];
  JUST_RETURN_NOT_OK(sock.ReadFully(header, sizeof(header)));
  uint32_t len = GetFixed32(header);
  uint32_t crc = GetFixed32(header + 4);
  if (len > max_frame_bytes) {
    return Status::InvalidArgument("frame exceeds maximum size");
  }
  payload->resize(len);
  if (len > 0) JUST_RETURN_NOT_OK(sock.ReadFully(payload->data(), len));
  if (kv::Crc32(*payload) != crc) {
    return Status::Corruption("frame CRC mismatch");
  }
  return Status::OK();
}

Status ParsePayload(std::string_view payload, FrameHeader* header,
                    std::string_view* body) {
  if (payload.size() < kPayloadHeaderBytes) {
    return Status::InvalidArgument("payload too short for header");
  }
  uint8_t raw = static_cast<uint8_t>(payload[0]);
  uint8_t type = raw & static_cast<uint8_t>(~kExtensionFlag);
  if (!IsKnownType(type)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(type));
  }
  header->type = static_cast<MsgType>(type);
  header->request_id = GetFixed64(payload.data() + 1);
  header->ext = {};
  header->has_ext = false;
  const char* p = payload.data() + kPayloadHeaderBytes;
  const char* limit = payload.data() + payload.size();
  if (raw & kExtensionFlag) {
    std::string_view ext;
    if (!GetLengthPrefixed(&p, limit, &ext)) {
      return Malformed("extension field");
    }
    header->ext = ext;
    header->has_ext = true;
  }
  *body = std::string_view(p, static_cast<size_t>(limit - p));
  return Status::OK();
}

}  // namespace just::net
