// Property/fuzz tests for the binary wire protocol (src/net/wire_protocol):
//  - every message type round-trips randomized payloads exactly;
//  - truncated, bit-flipped, and oversized frames decode to
//    kCorruption/kInvalidArgument — never a crash or over-read (this file
//    runs under the asan/ubsan CI job, which is what turns "never
//    over-read" into an enforced property).

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "kvstore/wal.h"
#include "net/wire_protocol.h"

namespace just::net {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  std::string s;
  size_t len = rng->Uniform(max_len + 1);
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng->Uniform(256)));
  }
  return s;
}

Status RandomStatus(Rng* rng) {
  switch (rng->Uniform(5)) {
    case 0:
      return Status::OK();
    case 1:
      return Status::NotFound(RandomBytes(rng, 40));
    case 2:
      return Status::Unavailable(RandomBytes(rng, 40));
    case 3:
      return Status::Corruption(RandomBytes(rng, 40));
    default:
      return Status::InvalidArgument(RandomBytes(rng, 40));
  }
}

/// Splits a frame and parses its payload header; EXPECTs success.
void MustParse(const std::string& frame, FrameHeader* header,
               std::string_view* body) {
  std::string_view payload;
  ASSERT_TRUE(DecodeFrame(frame, &payload).ok());
  ASSERT_TRUE(ParsePayload(payload, header, body).ok());
}

TEST(WireProtocolTest, RoundTripRequests) {
  Rng rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    uint64_t id = rng.Next();
    {
      // Untagged (empty tenant) about half the time.
      const std::string tenant =
          rng.Uniform(2) == 0 ? std::string() : RandomBytes(&rng, 32);
      std::vector<kv::WriteOp> ops;
      size_t n = rng.Uniform(20);
      for (size_t i = 0; i < n; ++i) {
        kv::WriteOp op;
        op.is_delete = rng.Uniform(4) == 0;
        op.key = RandomBytes(&rng, 48);
        if (!op.is_delete) op.value = RandomBytes(&rng, 128);
        ops.push_back(std::move(op));
      }
      std::string frame;
      EncodeWriteBatchRequest(tenant, ops, id, &frame);
      FrameHeader h;
      std::string_view body;
      MustParse(frame, &h, &body);
      EXPECT_EQ(h.type, MsgType::kWriteBatchReq);
      EXPECT_EQ(h.request_id, id);
      WriteBatchRequest out;
      ASSERT_TRUE(DecodeWriteBatchRequest(body, &out).ok());
      EXPECT_EQ(out.tenant, tenant);
      ASSERT_EQ(out.ops.size(), ops.size());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out.ops[i].is_delete, ops[i].is_delete);
        EXPECT_EQ(out.ops[i].key, ops[i].key);
        EXPECT_EQ(out.ops[i].value, ops[i].value);
      }
    }
    {
      std::string frame;
      EncodeEmptyRequest(MsgType::kFlushReq, id, &frame);
      FrameHeader h;
      std::string_view body;
      MustParse(frame, &h, &body);
      EXPECT_EQ(h.type, MsgType::kFlushReq);
      EXPECT_TRUE(DecodeEmptyBody(body).ok());
    }
  }
}

TEST(WireProtocolTest, RoundTripResponses) {
  Rng rng(43);
  for (int iter = 0; iter < 200; ++iter) {
    uint64_t id = rng.Next();
    {
      StatusResponse resp{RandomStatus(&rng)};
      std::string frame;
      EncodeStatusResponse(resp, id, &frame);
      FrameHeader h;
      std::string_view body;
      MustParse(frame, &h, &body);
      EXPECT_EQ(h.type, MsgType::kStatusResp);
      StatusResponse out;
      ASSERT_TRUE(DecodeStatusResponse(body, &out).ok());
      EXPECT_EQ(out.status.code(), resp.status.code());
      EXPECT_EQ(out.status.message(), resp.status.message());
    }
    {
      StatsResponse resp;
      resp.status = Status::OK();
      resp.disk_bytes = rng.Next();
      resp.entries = rng.Next();
      resp.num_sstables = rng.Next();
      resp.requests_total = rng.Next();
      resp.shed_total = rng.Next();
      resp.corrupt_frames_total = rng.Next();
      resp.active_connections = rng.Next();
      std::string frame;
      EncodeStatsResponse(resp, id, &frame);
      FrameHeader h;
      std::string_view body;
      MustParse(frame, &h, &body);
      StatsResponse out;
      ASSERT_TRUE(DecodeStatsResponse(body, &out).ok());
      EXPECT_EQ(out.disk_bytes, resp.disk_bytes);
      EXPECT_EQ(out.entries, resp.entries);
      EXPECT_EQ(out.num_sstables, resp.num_sstables);
      EXPECT_EQ(out.requests_total, resp.requests_total);
      EXPECT_EQ(out.shed_total, resp.shed_total);
      EXPECT_EQ(out.corrupt_frames_total, resp.corrupt_frames_total);
      EXPECT_EQ(out.active_connections, resp.active_connections);
    }
  }
}

TEST(WireProtocolTest, MultiScanRoundTrip) {
  Rng rng(44);
  for (int iter = 0; iter < 200; ++iter) {
    uint64_t id = rng.Next();
    {
      // Keys live here: the request holds views.
      std::vector<std::string> keys;
      size_t n = 1 + rng.Uniform(20);
      for (size_t i = 0; i < 2 * n; ++i) keys.push_back(RandomBytes(&rng, 40));
      MultiScanRequest req;
      for (size_t i = 0; i < n; ++i) {
        req.ranges.push_back({keys[2 * i], keys[2 * i + 1]});
      }
      req.limit_rows = 1 + static_cast<uint32_t>(rng.Uniform(100000));
      req.resume = ScanCursor{static_cast<uint32_t>(rng.Uniform(n)),
                              RandomBytes(&rng, 40)};
      std::string frame;
      EncodeMultiScanRequest(req, id, &frame);
      FrameHeader h;
      std::string_view body;
      MustParse(frame, &h, &body);
      EXPECT_EQ(h.type, MsgType::kMultiScanReq);
      MultiScanRequest out;
      ASSERT_TRUE(DecodeMultiScanRequest(body, &out).ok());
      ASSERT_EQ(out.ranges.size(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out.ranges[i].start, req.ranges[i].start);
        EXPECT_EQ(out.ranges[i].end, req.ranges[i].end);
      }
      EXPECT_EQ(out.limit_rows, req.limit_rows);
      EXPECT_EQ(out.resume.range, req.resume.range);
      EXPECT_EQ(out.resume.key, req.resume.key);
    }
    {
      MultiScanResponse resp;
      resp.status = RandomStatus(&rng);
      size_t n = rng.Uniform(30);
      std::vector<std::string> bytes;  // the rows' views point here
      bytes.reserve(2 * n);
      for (size_t i = 0; i < n; ++i) {
        bytes.push_back(RandomBytes(&rng, 48));
        bytes.push_back(RandomBytes(&rng, 96));
        resp.rows.push_back(
            MultiScanRow{static_cast<uint32_t>(rng.Uniform(1u << 20)),
                         bytes[2 * i], bytes[2 * i + 1]});
      }
      resp.has_more = rng.Uniform(2) == 1;
      if (resp.has_more) {
        resp.next = ScanCursor{static_cast<uint32_t>(rng.Uniform(1000)),
                               RandomBytes(&rng, 48)};
      }
      std::string frame;
      EncodeMultiScanResponse(resp, id, &frame);
      FrameHeader h;
      std::string_view body;
      MustParse(frame, &h, &body);
      EXPECT_EQ(h.type, MsgType::kMultiScanResp);
      MultiScanResponse out;
      ASSERT_TRUE(DecodeMultiScanResponse(body, &out).ok());
      EXPECT_EQ(out.status.code(), resp.status.code());
      EXPECT_EQ(out.status.message(), resp.status.message());
      ASSERT_EQ(out.rows.size(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out.rows[i].range, resp.rows[i].range);
        EXPECT_EQ(out.rows[i].key, resp.rows[i].key);
        EXPECT_EQ(out.rows[i].value, resp.rows[i].value);
      }
      EXPECT_EQ(out.has_more, resp.has_more);
      EXPECT_EQ(out.next.range, resp.next.range);
      EXPECT_EQ(out.next.key, resp.next.key);
    }
  }
}

TEST(WireProtocolTest, MalformedMultiScanRequestIsInvalidArgument) {
  // Body builder: `count` declared ranges, `present` of them encoded.
  auto body = [](uint32_t count, uint32_t present, uint32_t limit,
                 uint32_t resume_range) {
    std::string b;
    PutVarint32(&b, count);
    for (uint32_t i = 0; i < present; ++i) {
      PutLengthPrefixed(&b, "a");
      PutLengthPrefixed(&b, "b");
    }
    PutVarint32(&b, limit);
    PutVarint32(&b, resume_range);
    PutLengthPrefixed(&b, "");
    return b;
  };
  MultiScanRequest req;
  ASSERT_TRUE(DecodeMultiScanRequest(body(3, 3, 10, 2), &req).ok());
  EXPECT_EQ(req.ranges.size(), 3u);

  // A range count the body cannot hold: rejected before any allocation.
  Status st = DecodeMultiScanRequest(body(1000000, 3, 10, 0), &req);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  st = DecodeMultiScanRequest(body(5, 3, 10, 0), &req);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  // Resume cursor naming a range past the list.
  st = DecodeMultiScanRequest(body(3, 3, 10, 3), &req);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  st = DecodeMultiScanRequest(body(3, 3, 10, 0xFFFFFFFFu), &req);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  // An oversize list, even one the body really holds.
  const uint32_t oversize = static_cast<uint32_t>(kMaxScanRanges + 1);
  st = DecodeMultiScanRequest(body(oversize, oversize, 10, 0), &req);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  // No ranges, a zero page, trailing bytes.
  st = DecodeMultiScanRequest(body(0, 0, 10, 0), &req);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  st = DecodeMultiScanRequest(body(3, 3, 0, 0), &req);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  st = DecodeMultiScanRequest(body(3, 3, 10, 0) + "x", &req);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();

  // Responses: a row count beyond the body, a bad has_more flag.
  std::string resp;
  EncodeStatus(Status::OK(), &resp);
  PutVarint32(&resp, 1000000);
  MultiScanResponse out;
  st = DecodeMultiScanResponse(resp, &out);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  resp.clear();
  EncodeStatus(Status::OK(), &resp);
  PutVarint32(&resp, 0);
  resp.push_back(2);
  PutVarint32(&resp, 0);
  PutLengthPrefixed(&resp, "");
  st = DecodeMultiScanResponse(resp, &out);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

/// `writer`'s page as one frame.
std::string PageFrame(const ScanPageWriter& writer) {
  return writer.head() + writer.body();
}

TEST(WireProtocolTest, ScanPageWriterIsByteIdenticalToTheEncoders) {
  Rng rng(45);
  std::vector<std::string> bytes;
  for (int i = 0; i < 600; ++i) bytes.push_back(RandomBytes(&rng, 60));
  ScanPageWriter writer;  // reused across pages, as the server does
  // Multi-scan pages: empty; full with a cursor; traced; a failed scan.
  struct Case {
    size_t rows;
    bool has_more;
    std::string ext;
    Status status;
  };
  const std::vector<Case> cases = {
      {0, false, "", Status::OK()},
      {300, true, "", Status::OK()},
      {17, true, std::string("\x01\x02span tree", 11), Status::OK()},
      {5, false, "", Status::IOError("scan failed")},
  };
  for (const Case& c : cases) {
    MultiScanResponse resp;
    resp.status = c.status;
    writer.Begin();
    for (size_t i = 0; i < c.rows; ++i) {
      const uint32_t range = static_cast<uint32_t>(i / 7);
      resp.rows.push_back(MultiScanRow{range, bytes[2 * i], bytes[2 * i + 1]});
      writer.AddRow(range, bytes[2 * i], bytes[2 * i + 1]);
    }
    if (c.has_more) {
      EXPECT_EQ(writer.last_key(), resp.rows.back().key);
      resp.has_more = true;
      resp.next = ScanCursor{writer.last_range(),
                             std::string(writer.last_key()) + '\0'};
    }
    writer.Finish(resp.status, resp.has_more, resp.next, 99, c.ext);
    std::string want;
    EncodeMultiScanResponse(resp, 99, &want, c.ext);
    EXPECT_EQ(PageFrame(writer), want) << c.rows << " rows";
    std::string_view payload;
    ASSERT_TRUE(DecodeFrame(PageFrame(writer), &payload).ok());
  }
}

/// Attempts a full decode of `frame` as whatever it claims to be. The
/// assertion is implicit: no crash, no sanitizer report — and a non-OK
/// status must be kCorruption or kInvalidArgument, never something that
/// masks the damage (e.g. kOk with garbage).
void FuzzDecode(std::string_view frame, bool expect_failure) {
  std::string_view payload;
  Status st = DecodeFrame(frame, &payload);
  if (!st.ok()) {
    EXPECT_TRUE(st.IsCorruption() || st.IsInvalidArgument())
        << st.ToString();
    return;
  }
  FrameHeader header;
  std::string_view body;
  st = ParsePayload(payload, &header, &body);
  if (!st.ok()) {
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    return;
  }
  // Drive every body decoder the header could route to.
  Status decode;
  switch (header.type) {
    case MsgType::kWriteBatchReq: {
      WriteBatchRequest r;
      decode = DecodeWriteBatchRequest(body, &r);
      break;
    }
    case MsgType::kStatusResp: {
      StatusResponse r;
      decode = DecodeStatusResponse(body, &r);
      break;
    }
    case MsgType::kStatsResp: {
      StatsResponse r;
      decode = DecodeStatsResponse(body, &r);
      break;
    }
    case MsgType::kMultiScanReq: {
      MultiScanRequest r;
      decode = DecodeMultiScanRequest(body, &r);
      break;
    }
    case MsgType::kMultiScanResp: {
      MultiScanResponse r;
      decode = DecodeMultiScanResponse(body, &r);
      break;
    }
    default:
      decode = DecodeEmptyBody(body);
      break;
  }
  if (!decode.ok()) {
    EXPECT_TRUE(decode.IsInvalidArgument() || decode.IsCorruption())
        << decode.ToString();
  } else if (expect_failure) {
    // A bit flip the CRC did not catch is statistically impossible at
    // these sizes with CRC-32 over <1KB payloads and 1 flipped bit.
    ADD_FAILURE() << "corrupted frame decoded cleanly";
  }
}

/// A pool of valid frames of every type, for mutation.
std::vector<std::string> SampleFrames(Rng* rng) {
  std::vector<std::string> frames;
  uint64_t id = rng->Next();
  std::string f;
  EncodePingRequest(id, &f);
  frames.push_back(f);
  f.clear();
  std::vector<kv::WriteOp> ops;
  for (int i = 0; i < 8; ++i) {
    ops.push_back(kv::WriteOp{RandomBytes(rng, 24), RandomBytes(rng, 64),
                              i % 3 == 0});
  }
  EncodeWriteBatchRequest(/*tenant=*/{}, ops, id, &f);
  frames.push_back(f);
  f.clear();
  EncodeWriteBatchRequest(RandomBytes(rng, 16), ops, id, &f);
  frames.push_back(f);
  f.clear();
  StatsResponse st;
  st.status = Status::OK();
  EncodeStatsResponse(st, id, &f);
  frames.push_back(f);
  f.clear();
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back(RandomBytes(rng, 24));
  MultiScanRequest msr;
  for (int i = 0; i + 1 < 8; i += 2) msr.ranges.push_back({keys[i], keys[i + 1]});
  msr.resume = ScanCursor{2, RandomBytes(rng, 24)};
  EncodeMultiScanRequest(msr, id, &f);
  frames.push_back(f);
  f.clear();
  MultiScanResponse mresp;
  mresp.status = Status::OK();
  std::vector<std::string> row_bytes;  // the rows' views point here
  row_bytes.reserve(20);
  for (uint32_t i = 0; i < 10; ++i) {
    row_bytes.push_back(RandomBytes(rng, 24));
    row_bytes.push_back(RandomBytes(rng, 48));
    mresp.rows.push_back(
        MultiScanRow{i / 3, row_bytes[2 * i], row_bytes[2 * i + 1]});
  }
  mresp.has_more = true;
  mresp.next = ScanCursor{3, RandomBytes(rng, 24)};
  EncodeMultiScanResponse(mresp, id, &f);
  frames.push_back(f);
  // The server's page writer.
  ScanPageWriter writer;
  writer.Begin();
  for (const MultiScanRow& row : mresp.rows) {
    writer.AddRow(row.range, row.key, row.value);
  }
  writer.Finish(Status::OK(), true, mresp.next, id);
  frames.push_back(writer.head() + writer.body());
  return frames;
}

TEST(WireProtocolFuzzTest, TruncatedFramesNeverCrash) {
  Rng rng(1234);
  for (int round = 0; round < 50; ++round) {
    for (const std::string& frame : SampleFrames(&rng)) {
      // Every prefix, including the empty one.
      for (size_t len = 0; len < frame.size(); ++len) {
        std::string_view truncated(frame.data(), len);
        std::string_view payload;
        Status st = DecodeFrame(truncated, &payload);
        EXPECT_FALSE(st.ok()) << "truncated frame decoded, len=" << len;
        EXPECT_TRUE(st.IsCorruption() || st.IsInvalidArgument())
            << st.ToString();
      }
    }
  }
}

TEST(WireProtocolFuzzTest, BitFlippedFramesNeverCrash) {
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    for (std::string frame : SampleFrames(&rng)) {
      size_t byte = rng.Uniform(frame.size());
      frame[byte] =
          static_cast<char>(frame[byte] ^ (1u << rng.Uniform(8)));
      FuzzDecode(frame, /*expect_failure=*/byte >= kFrameHeaderBytes);
    }
  }
}

TEST(WireProtocolFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(777);
  for (int round = 0; round < 2000; ++round) {
    std::string garbage = RandomBytes(&rng, 300);
    FuzzDecode(garbage, /*expect_failure=*/false);
  }
}

TEST(WireProtocolFuzzTest, OversizedFrameRejectedBeforeAllocation) {
  // A header declaring a huge payload must be rejected as kInvalidArgument
  // without trying to read (or allocate) the claimed bytes.
  std::string valid;
  EncodePingRequest(7, &valid);
  std::string frame = valid;
  // Overwrite the length field with max uint32.
  frame[0] = frame[1] = frame[2] = frame[3] = static_cast<char>(0xFF);
  std::string_view payload;
  Status st = DecodeFrame(frame, &payload);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();

  // Just over the cap: also rejected, and before the truncation check.
  std::string big;
  PutFixed32(&big, static_cast<uint32_t>(kMaxFrameBytes + 1));
  big.append(4, '\0');
  st = DecodeFrame(big, &payload);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(WireProtocolFuzzTest, MutatedBodyBehindValidCrcIsInvalidArgument) {
  // Re-CRC a deliberately malformed payload: decoding must fail cleanly
  // with kInvalidArgument (the CRC says "intact", the structure says no).
  Rng rng(31337);
  for (int round = 0; round < 500; ++round) {
    std::string payload;
    payload.push_back(static_cast<char>(rng.Uniform(64)));  // type, often bad
    for (int i = 0; i < 8; ++i) {
      payload.push_back(static_cast<char>(rng.Uniform(256)));
    }
    std::string body = RandomBytes(&rng, 120);
    payload += body;
    std::string frame;
    PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
    PutFixed32(&frame, kv::Crc32(payload));
    frame += payload;
    FuzzDecode(frame, /*expect_failure=*/false);
  }
}

TEST(WireProtocolTest, ExtensionRoundTrip) {
  Rng rng(2024);
  for (int iter = 0; iter < 100; ++iter) {
    uint64_t id = rng.Next();
    // Non-empty by construction: an empty ext means "no extension".
    std::string ext = "x" + RandomBytes(&rng, 63);
    {
      const std::string key = RandomBytes(&rng, 48);
      const std::string end = key + '\0';
      MultiScanRequest req;
      req.ranges = {{key, end}};
      std::string frame;
      EncodeMultiScanRequest(req, id, &frame, ext);
      FrameHeader h;
      std::string_view body;
      MustParse(frame, &h, &body);
      EXPECT_EQ(h.type, MsgType::kMultiScanReq);
      EXPECT_EQ(h.request_id, id);
      EXPECT_TRUE(h.has_ext);
      EXPECT_EQ(h.ext, ext);
      MultiScanRequest out;
      ASSERT_TRUE(DecodeMultiScanRequest(body, &out).ok());
      ASSERT_EQ(out.ranges.size(), 1u);
      EXPECT_EQ(out.ranges[0].start, key);
    }
    {
      const std::string key = RandomBytes(&rng, 24);
      const std::string value = RandomBytes(&rng, 48);
      MultiScanResponse resp;
      resp.status = Status::OK();
      resp.rows.push_back(MultiScanRow{0, key, value});
      std::string frame;
      EncodeMultiScanResponse(resp, id, &frame, ext);
      FrameHeader h;
      std::string_view body;
      MustParse(frame, &h, &body);
      EXPECT_TRUE(h.has_ext);
      EXPECT_EQ(h.ext, ext);
      MultiScanResponse out;
      ASSERT_TRUE(DecodeMultiScanResponse(body, &out).ok());
      ASSERT_EQ(out.rows.size(), 1u);
      EXPECT_EQ(out.rows[0].key, key);
    }
  }
  // A present-but-empty extension is distinguishable from no extension.
  std::string frame;
  EncodePingRequest(5, &frame, std::string_view("", 0));
  FrameHeader h;
  std::string_view body;
  MustParse(frame, &h, &body);
  EXPECT_FALSE(h.has_ext);  // empty ext means "don't set the flag"
}

TEST(WireProtocolTest, UnextendedFramesKeepLegacyLayout) {
  // The default (no ext) must produce the unflagged byte layout: no flag
  // bit, body immediately after the request id. Untraced requests go out
  // this way, byte for byte.
  const std::vector<kv::WriteOp> ops = {kv::WriteOp{"k", "v", false}};
  std::string frame;
  EncodeWriteBatchRequest(/*tenant=*/{}, ops, 9, &frame);
  ASSERT_GT(frame.size(), kFrameHeaderBytes);
  uint8_t type_byte = static_cast<uint8_t>(frame[kFrameHeaderBytes]);
  EXPECT_EQ(type_byte & kExtensionFlag, 0);
  EXPECT_EQ(type_byte, static_cast<uint8_t>(MsgType::kWriteBatchReq));

  std::string flagged;
  EncodeWriteBatchRequest(/*tenant=*/{}, ops, 9, &flagged, "tc");
  uint8_t flagged_byte = static_cast<uint8_t>(flagged[kFrameHeaderBytes]);
  EXPECT_EQ(flagged_byte & kExtensionFlag, kExtensionFlag);
}

TEST(WireProtocolTest, TraceContextRoundTrip) {
  for (bool sampled : {false, true}) {
    std::string ext = EncodeTraceContext(TraceContext{sampled});
    TraceContext out;
    ASSERT_TRUE(DecodeTraceContext(ext, &out).ok());
    EXPECT_EQ(out.sampled, sampled);
    // Trailing bytes are reserved for future fields and must be ignored.
    TraceContext out2;
    ASSERT_TRUE(DecodeTraceContext(ext + "future-field-bytes", &out2).ok());
    EXPECT_EQ(out2.sampled, sampled);
  }
  TraceContext ctx;
  EXPECT_TRUE(DecodeTraceContext("", &ctx).IsInvalidArgument());
}

/// The type bytes of retired messages: single-key get, put and delete,
/// the one-range scan, wait-idle, the separate tenant-tagged ingest, and
/// the get and one-range scan answers.
constexpr uint8_t kReservedTypes[] = {2, 3, 4, 6, 10, 11, 33, 34};

TEST(WireProtocolTest, LiveTypesAreExactlySixRequestsAndThreeResponses) {
  int requests = 0;
  int known = 0;
  for (int t = 0; t < 128; ++t) {
    requests += IsRequestType(static_cast<MsgType>(t)) ? 1 : 0;
    known += IsKnownType(static_cast<uint8_t>(t)) ? 1 : 0;
  }
  EXPECT_EQ(requests, 6);
  EXPECT_EQ(known, 9);
}

TEST(WireProtocolTest, UnknownTypeMessageNamesTheType) {
  // An unassigned type byte, and every retired message's reserved byte:
  // each is rejected by name, so an operator reading the error sees which
  // type the peer did not know.
  std::vector<uint8_t> types = {0x7F};
  types.insert(types.end(), std::begin(kReservedTypes),
               std::end(kReservedTypes));
  for (uint8_t type : types) {
    std::string payload;
    payload.push_back(static_cast<char>(type));  // no flag
    payload.append(8, '\0');
    FrameHeader h;
    std::string_view body;
    Status st = ParsePayload(payload, &h, &body);
    ASSERT_TRUE(st.IsInvalidArgument());
    EXPECT_NE(st.message().find("unknown message type " +
                                std::to_string(type)),
              std::string::npos)
        << st.ToString();
    EXPECT_FALSE(IsKnownType(type));
  }
}

TEST(WireProtocolFuzzTest, ExtensionFieldFuzz) {
  // Flagged frames whose extension field is truncated, oversized, or
  // garbage: ParsePayload must return kInvalidArgument (connection
  // survives) or hand back an ext whose TraceContext decode fails cleanly —
  // never crash, never over-read (asan enforces the latter).
  Rng rng(4242);
  for (int round = 0; round < 2000; ++round) {
    std::string payload;
    // A live request type with the extension flag set.
    constexpr MsgType kRequests[] = {
        MsgType::kPingReq,  MsgType::kWriteBatchReq, MsgType::kFlushReq,
        MsgType::kCompactReq, MsgType::kStatsReq,    MsgType::kMultiScanReq};
    uint8_t type = static_cast<uint8_t>(
        kRequests[rng.Uniform(std::size(kRequests))]);
    payload.push_back(static_cast<char>(type | kExtensionFlag));
    for (int i = 0; i < 8; ++i) {
      payload.push_back(static_cast<char>(rng.Uniform(256)));
    }
    switch (rng.Uniform(4)) {
      case 0:
        // No extension bytes at all: length prefix is missing.
        break;
      case 1: {
        // Length prefix promising more bytes than the payload holds.
        PutVarint32(&payload, 50 + static_cast<uint32_t>(rng.Uniform(1000)));
        payload += RandomBytes(&rng, 20);
        break;
      }
      case 2: {
        // Pathological varint (5 continuation bytes).
        payload.append(5, static_cast<char>(0xFF));
        break;
      }
      default: {
        // Well-formed length prefix around garbage ext bytes + random body.
        std::string ext = RandomBytes(&rng, 40);
        PutVarint32(&payload, static_cast<uint32_t>(ext.size()));
        payload += ext;
        payload += RandomBytes(&rng, 60);
        break;
      }
    }
    FrameHeader h;
    std::string_view body;
    Status st = ParsePayload(payload, &h, &body);
    if (!st.ok()) {
      EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
      continue;
    }
    ASSERT_TRUE(h.has_ext);
    TraceContext ctx;
    Status tc = DecodeTraceContext(h.ext, &ctx);
    if (!tc.ok()) {
      EXPECT_TRUE(tc.IsInvalidArgument()) << tc.ToString();
    }
  }
}

TEST(WireProtocolFuzzTest, FlaggedGarbageBehindValidCrc) {
  // Same shape as MutatedBodyBehindValidCrc but with the full type-byte
  // range, so extension-flagged bytes are exercised through the whole
  // DecodeFrame -> ParsePayload -> body-decoder pipeline.
  Rng rng(271828);
  for (int round = 0; round < 1000; ++round) {
    std::string payload;
    payload.push_back(static_cast<char>(rng.Uniform(256)));
    for (int i = 0; i < 8; ++i) {
      payload.push_back(static_cast<char>(rng.Uniform(256)));
    }
    payload += RandomBytes(&rng, 120);
    std::string frame;
    PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
    PutFixed32(&frame, kv::Crc32(payload));
    frame += payload;
    FuzzDecode(frame, /*expect_failure=*/false);
  }
}

}  // namespace
}  // namespace just::net
