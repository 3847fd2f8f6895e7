#ifndef JUST_NET_WIRE_PROTOCOL_H_
#define JUST_NET_WIRE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "kvstore/lsm_store.h"

namespace just::net {

/// Binary wire protocol between the region-server client stub and
/// `just_region_server` (docs/ARCHITECTURE.md "Wire protocol" has the
/// rationale; the frame layout is normative here).
///
/// Frame:
///   [payload_len: fixed32 LE]   bytes of payload (excludes the 8B header)
///   [crc32:       fixed32 LE]   CRC-32 (ISO-HDLC, kv::Crc32) of payload
///   [payload]
/// Payload:
///   [msg_type:    u8]           low 7 bits = type; bit 7 = extension flag
///   [request_id:  fixed64 LE]   echoed verbatim in the response
///   [extension]                 only when bit 7 of msg_type is set:
///                               varint length + opaque extension bytes
///   [body]                      per-message encoding, see Encode*/Decode*
///
/// The extension field carries optional metadata (today: trace context on
/// requests, serialized span trees on responses). A frame without it keeps
/// the unflagged layout byte for byte. Clients and servers ship from one
/// build, so there is one protocol version: a peer that answers "unknown
/// message type" (kInvalidArgument, connection kept) is incompatible, and
/// the client returns that answer as an ordinary error. Unknown bytes
/// *inside* a well-formed extension are ignored, so the extension itself
/// can grow fields later.
///
/// Safety contract (enforced by the fuzz tests): decoding arbitrary bytes
/// never crashes, never reads past the given buffer, and returns
///   - kInvalidArgument for frames larger than the negotiated maximum or
///     bodies that are structurally malformed *after* the CRC matched
///     (a buggy peer, not line noise), and
///   - kCorruption for truncated frames or CRC mismatches (torn or
///     bit-flipped bytes — the stream can no longer be trusted).
///
/// Requests a server cannot parse past the header still get a response
/// (kInvalidArgument, same request_id); frames failing CRC close the
/// connection, since resynchronizing an untrusted byte stream is hopeless.

/// Frame payloads larger than this are rejected before allocation.
constexpr size_t kMaxFrameBytes = 32u << 20;
/// Fixed bytes in front of every payload: length + CRC.
constexpr size_t kFrameHeaderBytes = 8;
/// Payload bytes before the body: type + request id.
constexpr size_t kPayloadHeaderBytes = 9;
/// Set on the msg_type byte when an extension field follows the request id.
constexpr uint8_t kExtensionFlag = 0x80;
/// Most ranges one kMultiScanReq may carry; clients send longer lists in
/// windows of this size.
constexpr size_t kMaxScanRanges = 1u << 16;

/// Type bytes 2, 3, 4, 6, 10, 11, 33 and 34 belonged to retired messages
/// (single-key get/put/delete, the one-range scan, wait-idle, the separate
/// tenant-tagged ingest, and the get and one-range scan answers). They stay
/// reserved, are never reused, and are rejected like any unknown type.
enum class MsgType : uint8_t {
  // Requests.
  kPingReq = 1,
  kWriteBatchReq = 5,  ///< the one write message, optionally tenant-tagged
  kFlushReq = 7,
  kCompactReq = 8,
  kStatsReq = 9,
  kMultiScanReq = 12,  ///< one page of a multi-range scan
  // Responses.
  kStatusResp = 32,  ///< status only: ping/batch/flush/compact, or a reject
  kStatsResp = 35,
  kMultiScanResp = 36,
};

/// True for the six types a client may send.
bool IsRequestType(MsgType t);
/// True for any known type (request or response). The extension flag must
/// already be stripped: a flagged byte is *not* a known type here.
bool IsKnownType(uint8_t t);

/// Lowercase identifier for a message type ("ping", "multi_scan", ...), used as
/// the {type=...} label value of the per-RPC latency histograms and as the
/// server-side trace span name ("rpc.<name>").
const char* MsgTypeName(MsgType t);

struct FrameHeader {
  MsgType type = MsgType::kPingReq;
  uint64_t request_id = 0;
  /// Extension bytes (views into the parsed payload); empty unless the
  /// frame carried the extension flag. `has_ext` disambiguates an absent
  /// extension from a present-but-empty one.
  std::string_view ext;
  bool has_ext = false;
};

/// Trace context carried in a *request's* extension field: varint flags
/// (bit 0 = sampled), trailing bytes reserved and ignored. A response's
/// extension field instead carries a serialized span tree
/// (obs/trace_codec.h).
struct TraceContext {
  bool sampled = false;
};

/// Returns the extension blob for a trace context.
std::string EncodeTraceContext(const TraceContext& ctx);
/// Parses a request extension as a trace context. Trailing bytes are
/// tolerated (forward compatibility); a malformed flags varint is
/// kInvalidArgument.
Status DecodeTraceContext(std::string_view ext, TraceContext* ctx);

// --- Message structs ---------------------------------------------------

/// A batch of puts and tombstones, committed as one group commit.
///
/// Body:
///   [tenant: lp]              empty = untagged
///   [count: varint32]
///   count x { [is_delete: u8] [key: lp] [value: lp, puts only] }
///
/// A tenant tag (the namespace/user that produced the rows: the streaming
/// ingest path) lets the server apply per-tenant write admission (token
/// bucket) before the WAL append; a shed returns kResourceExhausted, which
/// clients must not blindly retry. Untagged batches are never throttled.
struct WriteBatchRequest {
  std::string tenant;
  std::vector<kv::WriteOp> ops;
};

/// Where a paged multi-range scan resumes: range `range` from `key` (or
/// from the range's own start, whichever is later), then every later range
/// from its start. The server holds no per-scan state, so a resumed scan
/// survives server restarts and connection loss.
struct ScanCursor {
  uint32_t range = 0;
  std::string key;
};

/// One page of a multi-range scan: the ranges one region server owns for a
/// query, scanned in list order from `resume`.
///
/// Body:
///   [range_count: varint32]   1..kMaxScanRanges
///   range_count x { [start: lp] [end: lp] }   end empty = to the last key
///   [limit_rows: varint32]    >= 1; the server clamps it
///   [resume_range: varint32]  < range_count
///   [resume_key: lp]
struct MultiScanRequest {
  /// Views: into the caller's keys when encoding, into the decoded body
  /// (which must outlive the request) when decoding.
  std::vector<kv::ScanRange> ranges;
  uint32_t limit_rows = 512;
  ScanCursor resume;
};

/// A multi-range scan row tagged with the index of its range. The key and
/// value are views: into the decoded body, or into the caller's bytes when
/// encoding.
struct MultiScanRow {
  uint32_t range = 0;
  std::string_view key;
  std::string_view value;
};

/// Body:
///   [status]
///   [row_count: varint32]
///   row_count x { [range: varint32] [key: lp] [value: lp] }
///   [has_more: u8]            0 or 1
///   [next_range: varint32] [next_key: lp]   the resume cursor
struct MultiScanResponse {
  Status status;
  std::vector<MultiScanRow> rows;
  bool has_more = false;
  ScanCursor next;  ///< valid iff has_more
  /// The bytes `rows` view when the response came off a socket
  /// (RegionClient receives into it); moving the response can invalidate
  /// them, so receive into the response that is read.
  std::string payload;
};

struct StatusResponse {
  Status status;
};

/// Store structure plus the server-side admission/overload counters, so a
/// client (or test) can observe shedding without scraping the remote
/// process's metrics endpoint.
struct StatsResponse {
  Status status;
  uint64_t disk_bytes = 0;
  uint64_t entries = 0;
  uint64_t num_sstables = 0;
  uint64_t requests_total = 0;
  uint64_t shed_total = 0;
  uint64_t corrupt_frames_total = 0;
  uint64_t active_connections = 0;
};

// --- Encoding ----------------------------------------------------------
// Encode* append one complete frame (header + CRC + payload) to `dst`.
// A non-empty `ext` sets the extension flag and embeds the blob after the
// request id; the default keeps the unflagged frame layout byte for byte.

void EncodePingRequest(uint64_t request_id, std::string* dst,
                       std::string_view ext = {});
/// Encodes straight from the caller's ops; no WriteBatchRequest is built.
void EncodeWriteBatchRequest(std::string_view tenant,
                             const std::vector<kv::WriteOp>& ops,
                             uint64_t request_id, std::string* dst,
                             std::string_view ext = {});
void EncodeMultiScanRequest(const MultiScanRequest& req, uint64_t request_id,
                            std::string* dst, std::string_view ext = {});
void EncodeEmptyRequest(MsgType type, uint64_t request_id, std::string* dst,
                        std::string_view ext = {});

void EncodeStatusResponse(const StatusResponse& resp, uint64_t request_id,
                          std::string* dst, std::string_view ext = {});
void EncodeStatsResponse(const StatsResponse& resp, uint64_t request_id,
                         std::string* dst, std::string_view ext = {});
void EncodeMultiScanResponse(const MultiScanResponse& resp,
                             uint64_t request_id, std::string* dst,
                             std::string_view ext = {});

/// A scan response page written with each row copied once: AddRow appends
/// the row straight into the body, and Finish builds the short head (frame
/// length and CRC, type, request id, extension, status, row count) in front
/// of it, with one CRC run across both parts. `head() + body()` is
/// byte-identical to EncodeMultiScanResponse of the same rows, so peers
/// cannot tell which encoder wrote a frame. Reusing one writer keeps the
/// body's capacity across pages.
class ScanPageWriter {
 public:
  /// Starts an empty page.
  void Begin();
  void AddRow(uint32_t range, std::string_view key, std::string_view value);
  uint32_t rows() const { return rows_; }
  /// The last row's range and key (a view into the body, valid until the
  /// next AddRow); rows() must be > 0.
  uint32_t last_range() const { return last_range_; }
  std::string_view last_key() const {
    return std::string_view(body_).substr(last_key_at_, last_key_size_);
  }
  /// Seals the page: the status, the cursor (`next`, written as is), the
  /// request id and the extension blob.
  void Finish(const Status& status, bool has_more, const ScanCursor& next,
              uint64_t request_id, std::string_view ext = {});
  const std::string& head() const { return head_; }
  const std::string& body() const { return body_; }

 private:
  std::string head_;
  std::string body_;
  uint32_t rows_ = 0;
  uint32_t last_range_ = 0;
  size_t last_key_at_ = 0;
  size_t last_key_size_ = 0;
};

// --- Decoding ----------------------------------------------------------

/// Splits a complete frame into its CRC-verified payload. `frame` must hold
/// exactly one frame (header + payload). Returns kCorruption on truncation
/// or CRC mismatch, kInvalidArgument on an oversized declared length.
Status DecodeFrame(std::string_view frame, std::string_view* payload,
                   size_t max_frame_bytes = kMaxFrameBytes);

/// Parses the payload header (including the optional extension field);
/// `body` receives the remaining bytes. Unknown message types and a
/// flagged-but-malformed extension return kInvalidArgument — the framing
/// was intact, so the connection survives.
Status ParsePayload(std::string_view payload, FrameHeader* header,
                    std::string_view* body);

Status DecodeWriteBatchRequest(std::string_view body, WriteBatchRequest* req);
/// Validates the range count against the body length before allocating,
/// and rejects an empty or oversize list and a resume range out of bounds.
Status DecodeMultiScanRequest(std::string_view body, MultiScanRequest* req);
Status DecodeEmptyBody(std::string_view body);

Status DecodeStatusResponse(std::string_view body, StatusResponse* resp);
Status DecodeStatsResponse(std::string_view body, StatsResponse* resp);
/// Rows are views into `body`, which must outlive them.
Status DecodeMultiScanResponse(std::string_view body, MultiScanResponse* resp);

/// Status over the wire: varint code + length-prefixed message. Decoding
/// validates the code range.
void EncodeStatus(const Status& st, std::string* dst);
Status DecodeStatus(const char** p, const char* limit, Status* st);

class Socket;

/// Reads one frame off a socket and returns its CRC-verified payload:
/// kUnavailable for I/O failures (EOF, timeout, reset), kInvalidArgument
/// for an oversized declared length, kCorruption for a CRC mismatch. After
/// a non-OK return the stream is unsynced and must be closed.
Status ReadFramePayload(Socket& sock, std::string* payload,
                        size_t max_frame_bytes = kMaxFrameBytes);

}  // namespace just::net

#endif  // JUST_NET_WIRE_PROTOCOL_H_
