// Multi-process tests for the out-of-process region server. Every test here
// spawns at least one real `just_region_server` process (tests/net_harness.h)
// and talks to it through the socket client — the same path a deployed
// cluster uses. The crash tests SIGKILL the process mid-write and assert,
// through the client, that every acknowledged write survives (the server
// runs with --sync-wal 1, so acknowledged == fsynced).
//
// These tests carry the ctest label "net": they run in the plain and
// asan/ubsan CI jobs but are excluded from tsan (fork + exec of an
// instrumented child per test is slow and adds no interleaving coverage the
// in-process tests lack).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/region_cluster.h"
#include "common/bytes.h"
#include "kvstore/wal.h"
#include "net/region_client.h"
#include "net/wire_protocol.h"
#include "net_harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace just::net {
namespace {

using just::testing::FaultProxy;
using just::testing::ServerProcess;
using just::testing::TempDir;

RegionClient MakeClient(int port, uint32_t page_rows = 512,
                        int io_timeout_ms = 10000) {
  RegionClientOptions opts;
  opts.port = port;
  opts.scan_page_rows = page_rows;
  opts.io_timeout_ms = io_timeout_ms;
  return RegionClient(opts);
}

std::string PaddedKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

TEST(RegionServerTest, PutGetDeleteOverSocket) {
  TempDir dir("net_basic");
  ServerProcess server({.dir = dir.path()});
  ASSERT_TRUE(server.Start());
  RegionClient client = MakeClient(server.port());

  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Put("alpha", "1").ok());
  ASSERT_TRUE(client.Put("beta", "2").ok());

  std::string v;
  ASSERT_TRUE(client.Get("alpha", &v).ok());
  EXPECT_EQ(v, "1");
  EXPECT_TRUE(client.Get("missing", &v).IsNotFound());

  ASSERT_TRUE(client.Delete("alpha").ok());
  EXPECT_TRUE(client.Get("alpha", &v).IsNotFound());
  ASSERT_TRUE(client.Get("beta", &v).ok());
  EXPECT_EQ(v, "2");
}

TEST(RegionServerTest, WriteBatchAndPagedScan) {
  TempDir dir("net_batch");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  // Page size far below the row count: the scan below crosses many
  // cursor-resumed pages.
  RegionClient client = MakeClient(server.port(), /*page_rows=*/16);

  constexpr int kRows = 200;
  std::vector<kv::WriteOp> ops;
  for (int i = 0; i < kRows; ++i) {
    ops.push_back(kv::WriteOp{PaddedKey(i), "v" + std::to_string(i), false});
  }
  // A couple of deletes in the same batch, applied in order.
  ops.push_back(kv::WriteOp{PaddedKey(3), "", true});
  ops.push_back(kv::WriteOp{PaddedKey(7), "", true});
  ASSERT_TRUE(client.WriteBatch(ops).ok());

  std::vector<std::string> keys;
  ASSERT_TRUE(client
                  .Scan({{"", ""}},
                        [&](size_t, std::string_view k, std::string_view v) {
                          keys.push_back(std::string(k));
                          // PaddedKey(i) is "k%05d": recover i to check v.
                          int i = std::atoi(std::string(k.substr(1)).c_str());
                          EXPECT_EQ(v, "v" + std::to_string(i));
                          return true;
                        })
                  .ok());
  EXPECT_EQ(keys.size(), static_cast<size_t>(kRows - 2));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::count(keys.begin(), keys.end(), PaddedKey(3)), 0);
  EXPECT_EQ(std::count(keys.begin(), keys.end(), PaddedKey(7)), 0);

  // Early stop: the callback's false return ends the scan cleanly.
  int seen = 0;
  ASSERT_TRUE(client
                  .Scan({{"", ""}},
                        [&](size_t, std::string_view, std::string_view) {
                          return ++seen < 10;
                        })
                  .ok());
  EXPECT_EQ(seen, 10);
}

TEST(RegionServerTest, ScanCursorResumesAcrossRestart) {
  TempDir dir("net_cursor");
  ServerProcess server({.dir = dir.path()});  // sync_wal on: survives SIGKILL
  ASSERT_TRUE(server.Start());

  constexpr int kRows = 100;
  {
    RegionClient client = MakeClient(server.port());
    std::vector<kv::WriteOp> ops;
    for (int i = 0; i < kRows; ++i) {
      ops.push_back(kv::WriteOp{PaddedKey(i), "v", false});
    }
    ASSERT_TRUE(client.WriteBatch(ops).ok());

    // First page.
    ScanRequest req;
    req.limit_rows = 30;
    ScanResponse page;
    ASSERT_TRUE(client.ScanPage(req, &page).ok());
    ASSERT_TRUE(page.status.ok());
    ASSERT_EQ(page.rows.size(), 30u);
    ASSERT_TRUE(page.has_more);

    // Kill the server between pages: the cursor is pure client state, so
    // the scan continues against the restarted process.
    server.Kill();
    ASSERT_TRUE(server.Restart());

    std::vector<std::string> keys;
    for (const auto& row : page.rows) keys.push_back(row.key);
    RegionClient client2 = MakeClient(server.port());
    std::string cursor = page.next_cursor;
    bool more = true;
    while (more) {
      ScanRequest next;
      next.start_key = cursor;
      next.limit_rows = 30;
      ScanResponse p;
      ASSERT_TRUE(client2.ScanPage(next, &p).ok());
      ASSERT_TRUE(p.status.ok());
      for (const auto& row : p.rows) keys.push_back(row.key);
      more = p.has_more;
      cursor = p.next_cursor;
    }
    ASSERT_EQ(keys.size(), static_cast<size_t>(kRows));
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
              keys.size())
        << "resumed scan duplicated rows";
  }
}

TEST(RegionServerTest, SigkillMidWriteLosesNoAcknowledgedWrite) {
  TempDir dir("net_crash");
  ServerProcess server({.dir = dir.path()});  // sync_wal = true
  ASSERT_TRUE(server.Start());

  // Hammer writes from a background thread, recording exactly which ones
  // the server acknowledged, then SIGKILL mid-stream.
  std::atomic<bool> stop{false};
  std::vector<int> acked;
  std::thread writer([&] {
    RegionClient client = MakeClient(server.port());
    for (int i = 0; !stop.load(); ++i) {
      if (client.Put(PaddedKey(i), "v" + std::to_string(i)).ok()) {
        acked.push_back(i);
      } else {
        break;  // server is gone
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server.Kill();
  stop.store(true);
  writer.join();
  ASSERT_FALSE(acked.empty()) << "no write completed before the kill";

  ASSERT_TRUE(server.Restart());
  RegionClient client = MakeClient(server.port());
  for (int i : acked) {
    std::string v;
    ASSERT_TRUE(client.Get(PaddedKey(i), &v).ok())
        << "acknowledged write " << i << " lost after SIGKILL";
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
}

TEST(RegionServerTest, ShedsOnInflightCapAndCountsIt) {
  TempDir dir("net_shed_inflight");
  // max_inflight=0 makes the server-wide admission cap shed every
  // non-exempt request, deterministically.
  ServerProcess server(
      {.dir = dir.path(), .sync_wal = false, .max_inflight = 0});
  ASSERT_TRUE(server.Start());
  RegionClient client = MakeClient(server.port());

  // Ping and GetStats bypass admission: overload introspection must work
  // while the server is shedding.
  ASSERT_TRUE(client.Ping().ok());

  Status st = client.Put("k", "v");
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_TRUE(st.IsTransient()) << "shed must feed the retry path";
  std::string v;
  EXPECT_TRUE(client.Get("k", &v).IsUnavailable());

  StatsResponse stats;
  ASSERT_TRUE(client.GetStats(&stats).ok());
  EXPECT_GE(stats.shed_total, 2u);
  EXPECT_GE(stats.requests_total, 2u);
}

TEST(RegionServerTest, PipelinedRequestsAnsweredInOrder) {
  TempDir dir("net_pipeline");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  RegionClient client = MakeClient(server.port());

  // 32 requests back to back on one connection before any answer is read:
  // they wait in the socket's buffers and are answered in order, each with
  // its own id. Each Get reads the key the Put before it wrote, so an
  // out-of-order execution would miss it.
  struct Sent {
    uint64_t id;
    MsgType answer;
    std::string value;  ///< the Get's expected value
  };
  std::vector<Sent> sent;
  for (int i = 0; i < 32; ++i) {
    const uint64_t id = client.NextRequestId();
    std::string frame;
    if (i == 31) {
      EncodePingRequest(id, &frame);
      sent.push_back({id, MsgType::kStatusResp, ""});
    } else if (i % 2 == 0) {
      EncodePutRequest({PaddedKey(i), "v" + std::to_string(i)}, id, &frame);
      sent.push_back({id, MsgType::kStatusResp, ""});
    } else {
      EncodeGetRequest({PaddedKey(i - 1)}, id, &frame);
      sent.push_back({id, MsgType::kGetResp, "v" + std::to_string(i - 1)});
    }
    ASSERT_TRUE(client.RawSend(frame).ok());
  }
  for (const Sent& want : sent) {
    std::string payload;
    ASSERT_TRUE(client.RawRecvPayload(&payload).ok());
    FrameHeader header;
    std::string_view body;
    ASSERT_TRUE(ParsePayload(payload, &header, &body).ok());
    EXPECT_EQ(header.request_id, want.id);
    ASSERT_EQ(header.type, want.answer);
    if (want.answer == MsgType::kGetResp) {
      GetResponse resp;
      ASSERT_TRUE(DecodeGetResponse(body, &resp).ok());
      EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
      EXPECT_EQ(resp.value, want.value);
    } else {
      StatusResponse resp;
      ASSERT_TRUE(DecodeStatusResponse(body, &resp).ok());
      EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    }
  }
  // The connection is still in sync.
  ASSERT_TRUE(client.Ping().ok());
}

TEST(RegionServerTest, CorruptFrameClosesConnectionAndCounts) {
  TempDir dir("net_corrupt");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());

  // Handcraft a frame whose payload byte is flipped after the CRC was
  // computed: the server must count it, close the connection, and keep
  // serving new connections.
  {
    auto sock = Connect("127.0.0.1", server.port());
    ASSERT_TRUE(sock.ok());
    std::string frame;
    EncodePingRequest(1, &frame);
    frame[frame.size() - 1] = static_cast<char>(frame.back() ^ 0x40);
    ASSERT_TRUE(sock->WriteFully(frame.data(), frame.size()).ok());
    // The server closes: the next read sees EOF (Unavailable).
    char byte;
    EXPECT_FALSE(sock->ReadFully(&byte, 1).ok());
  }
  {
    // Oversized declared length: also counted, also closes.
    auto sock = Connect("127.0.0.1", server.port());
    ASSERT_TRUE(sock.ok());
    std::string frame;
    PutFixed32(&frame, static_cast<uint32_t>(kMaxFrameBytes + 1));
    PutFixed32(&frame, 0);
    ASSERT_TRUE(sock->WriteFully(frame.data(), frame.size()).ok());
    char byte;
    EXPECT_FALSE(sock->ReadFully(&byte, 1).ok());
  }

  RegionClient client = MakeClient(server.port());
  StatsResponse stats;
  ASSERT_TRUE(client.GetStats(&stats).ok());
  EXPECT_GE(stats.corrupt_frames_total, 2u);
  ASSERT_TRUE(client.Put("still", "serving").ok());
}

TEST(RegionServerTest, MalformedBodyBehindValidCrcKeepsConnection) {
  TempDir dir("net_malformed");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  RegionClient client = MakeClient(server.port());
  ASSERT_TRUE(client.EnsureConnected().ok());

  // A structurally bad payload with a correct CRC: unknown message type 99.
  // The stream stays synced, so the server answers kInvalidArgument on the
  // same connection instead of dropping it.
  std::string payload;
  payload.push_back(static_cast<char>(99));
  PutFixed64(&payload, 42);
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, kv::Crc32(payload));
  frame += payload;
  ASSERT_TRUE(client.RawSend(frame).ok());

  std::string resp_payload;
  ASSERT_TRUE(client.RawRecvPayload(&resp_payload).ok());
  FrameHeader header;
  std::string_view body;
  ASSERT_TRUE(ParsePayload(resp_payload, &header, &body).ok());
  EXPECT_EQ(header.type, MsgType::kStatusResp);
  EXPECT_EQ(header.request_id, 42u);
  StatusResponse resp;
  ASSERT_TRUE(DecodeStatusResponse(body, &resp).ok());
  EXPECT_TRUE(resp.status.IsInvalidArgument()) << resp.status.ToString();

  // Same connection still serves real requests.
  ASSERT_TRUE(client.Ping().ok());
}

TEST(RegionServerTest, ClusterScanSurvivesConnectionCutWithoutDupOrDrop) {
  TempDir dir("net_cut");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  FaultProxy proxy(server.port());

  // Load rows directly (not through the proxy).
  constexpr int kRows = 400;
  {
    RegionClient direct = MakeClient(server.port());
    std::vector<kv::WriteOp> ops;
    for (int i = 0; i < kRows; ++i) {
      ops.push_back(
          kv::WriteOp{PaddedKey(i), std::string(100, 'x'), false});
    }
    ASSERT_TRUE(direct.WriteBatch(ops).ok());
  }

  cluster::ClusterOptions opts;
  opts.server_addrs = {"127.0.0.1:" + std::to_string(proxy.port())};
  opts.scan_batch_rows = 50;  // many wire pages -> the cut lands mid-scan
  opts.max_retries = 6;
  opts.retry_backoff_ms = 1;
  auto cluster = cluster::RegionCluster::Open(opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  obs::Counter* retries =
      obs::Registry::Global().GetCounter("just_cluster_retries_total");
  const uint64_t retries_before = retries->Value();

  // Tear the connection a few pages into the scan: the client sees a torn
  // frame (kUnavailable), the cluster resumes just past the last row it
  // delivered, and the row stream downstream must not notice.
  proxy.CutAfterUpstreamBytes(8 * 1024);
  auto rows = just::testing::ScanRows(**cluster, {curve::KeyRange{"", ""}});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::string> keys;
  for (const auto& row : *rows) keys.push_back(row.first);
  ASSERT_EQ(keys.size(), static_cast<size_t>(kRows));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
            keys.size())
      << "retried scan duplicated rows";
  EXPECT_GT(retries->Value(), retries_before)
      << "the cut should have forced at least one retry";
}

/// Ranges over PaddedKey(0..n): runs of various widths, an empty one and
/// overlapping ones. `keys` owns the bytes the views point into.
std::vector<kv::ScanRange> MultiRanges(std::vector<std::string>* keys) {
  const int bounds[][2] = {{0, 40},  {35, 60}, {60, 60},  {100, 180},
                           {150, 151}, {0, 400}, {390, 500}, {200, 230}};
  keys->clear();
  keys->reserve(2 * std::size(bounds));
  for (const auto& b : bounds) {
    keys->push_back(PaddedKey(b[0]));
    keys->push_back(PaddedKey(b[1]));
  }
  std::vector<kv::ScanRange> ranges;
  for (size_t i = 0; i < keys->size(); i += 2) {
    ranges.push_back({(*keys)[i], (*keys)[i + 1]});
  }
  return ranges;
}

/// The rows each range must yield, from keys PaddedKey(0..rows).
std::vector<std::vector<std::string>> ExpectedPerRange(
    const std::vector<kv::ScanRange>& ranges, int rows) {
  std::vector<std::vector<std::string>> want(ranges.size());
  for (size_t r = 0; r < ranges.size(); ++r) {
    for (int i = 0; i < rows; ++i) {
      std::string k = PaddedKey(i);
      if (k >= ranges[r].start && k < ranges[r].end) want[r].push_back(k);
    }
  }
  return want;
}

TEST(RegionServerTest, MultiRangeScanResumesAcrossRestart) {
  TempDir dir("net_multi_cursor");
  ServerProcess server({.dir = dir.path()});  // sync_wal on: survives SIGKILL
  ASSERT_TRUE(server.Start());
  constexpr int kRows = 400;
  std::vector<std::string> keys;
  const std::vector<kv::ScanRange> ranges = MultiRanges(&keys);
  std::vector<std::vector<std::string>> got(ranges.size());
  MultiScanRequest req;
  req.ranges = ranges;
  req.limit_rows = 23;
  {
    RegionClient client = MakeClient(server.port());
    std::vector<kv::WriteOp> ops;
    for (int i = 0; i < kRows; ++i) {
      ops.push_back(kv::WriteOp{PaddedKey(i), "v", false});
    }
    ASSERT_TRUE(client.WriteBatch(ops).ok());
    // Three pages: the cursor ends up inside the fourth range.
    for (int page = 0; page < 3; ++page) {
      MultiScanResponse resp;
      ASSERT_TRUE(client.MultiScanPage(req, &resp).ok());
      ASSERT_EQ(resp.rows.size(), 23u);
      ASSERT_TRUE(resp.has_more);
      for (const auto& row : resp.rows) {
        got[row.range].emplace_back(row.key);
      }
      req.resume = resp.next;
    }
  }
  // SIGKILL between pages: the cursor is pure client state, so the scan
  // continues against the restarted process.
  server.Kill();
  ASSERT_TRUE(server.Restart());
  RegionClient client2 = MakeClient(server.port());
  for (bool more = true; more;) {
    MultiScanResponse resp;
    ASSERT_TRUE(client2.MultiScanPage(req, &resp).ok());
    ASSERT_TRUE(resp.status.ok());
    for (const auto& row : resp.rows) got[row.range].emplace_back(row.key);
    more = resp.has_more;
    req.resume = resp.next;
  }
  const auto want = ExpectedPerRange(ranges, kRows);
  for (size_t r = 0; r < ranges.size(); ++r) {
    EXPECT_EQ(got[r], want[r]) << "range " << r
                               << " dropped or duplicated rows";
  }
}

TEST(RegionServerTest, ClusterParallelScanSurvivesConnectionCut) {
  TempDir dir("net_multi_cut");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  FaultProxy proxy(server.port());
  constexpr int kRows = 400;
  {
    RegionClient direct = MakeClient(server.port());
    std::vector<kv::WriteOp> ops;
    for (int i = 0; i < kRows; ++i) {
      ops.push_back(
          kv::WriteOp{PaddedKey(i), std::string(100, 'x'), false});
    }
    ASSERT_TRUE(direct.WriteBatch(ops).ok());
  }
  cluster::ClusterOptions opts;
  opts.server_addrs = {"127.0.0.1:" + std::to_string(proxy.port())};
  opts.scan_batch_rows = 50;  // many wire pages -> the cut lands mid-scan
  opts.max_retries = 6;
  opts.retry_backoff_ms = 1;
  auto cluster = cluster::RegionCluster::Open(opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  std::vector<std::string> keys;
  const std::vector<kv::ScanRange> ranges = MultiRanges(&keys);
  std::vector<curve::KeyRange> key_ranges;
  for (const auto& r : ranges) {
    key_ranges.push_back(
        curve::KeyRange{std::string(r.start), std::string(r.end), false});
  }

  obs::Counter* retries =
      obs::Registry::Global().GetCounter("just_cluster_retries_total");
  const uint64_t retries_before = retries->Value();
  // One multi-range scan, torn a few pages in: the retry resumes past the
  // last (range, key) delivered, so the ranges already streamed are not
  // scanned again.
  proxy.CutAfterUpstreamBytes(16 * 1024);
  auto results = (*cluster)->ParallelScan(key_ranges);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_GT(retries->Value(), retries_before)
      << "the cut should have forced at least one retry";
  const auto want = ExpectedPerRange(ranges, kRows);
  ASSERT_EQ(results->size(), ranges.size());
  for (size_t r = 0; r < ranges.size(); ++r) {
    std::vector<std::string> got;
    for (const auto& row : (*results)[r].rows) got.push_back(row.key);
    EXPECT_EQ(got, want[r]) << "range " << r
                            << " dropped or duplicated rows";
  }
}

/// An in-process stand-in for a region server from before kMultiScanReq:
/// it serves pings and one-range kScanReq pages from an in-memory map and
/// answers every other type — the multi-scan, and any extension-flagged
/// frame — with "unknown message type <byte>" on a surviving connection.
class FakePreMultiScanServer {
 public:
  explicit FakePreMultiScanServer(std::map<std::string, std::string> data)
      : data_(std::move(data)) {
    auto listener = Listener::Listen("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok());
    listener_ = std::move(*listener);
    thread_ = std::thread([this] { Serve(); });
  }

  ~FakePreMultiScanServer() {
    listener_.Close();
    if (thread_.joinable()) thread_.join();
  }

  int port() const { return listener_.port(); }
  int scan_requests() const { return scan_requests_.load(); }

 private:
  void Serve() {
    for (;;) {
      auto accepted = listener_.Accept();
      if (!accepted.ok()) return;
      Socket sock = std::move(*accepted);
      (void)sock.SetRecvTimeout(5000);
      while (ServeOne(sock)) {
      }
    }
  }

  bool ServeOne(Socket& sock) {
    std::string payload;
    if (!ReadFramePayload(sock, &payload).ok()) return false;
    if (payload.size() < kPayloadHeaderBytes) return false;
    const uint8_t raw = static_cast<uint8_t>(payload[0]);
    const uint64_t id = GetFixed64(payload.data() + 1);
    const std::string_view body(payload.data() + kPayloadHeaderBytes,
                                payload.size() - kPayloadHeaderBytes);
    std::string out;
    ScanRequest req;
    if (raw == static_cast<uint8_t>(MsgType::kPingReq)) {
      EncodeStatusResponse({Status::OK()}, id, &out);
    } else if (raw == static_cast<uint8_t>(MsgType::kScanReq) &&
               DecodeScanRequest(body, &req).ok()) {
      ++scan_requests_;
      ScanResponse resp;
      for (auto it = data_.lower_bound(req.start_key);
           it != data_.end() && (req.end_key.empty() || it->first < req.end_key);
           ++it) {
        if (resp.rows.size() == req.limit_rows) {
          resp.has_more = true;
          resp.next_cursor = resp.rows.back().key + '\0';
          break;
        }
        resp.rows.push_back(WireRow{it->first, it->second});
      }
      EncodeScanResponse(resp, id, &out);
    } else {
      EncodeStatusResponse(
          {Status::InvalidArgument("unknown message type " +
                                   std::to_string(raw))},
          id, &out);
    }
    return sock.WriteFully(out.data(), out.size()).ok();
  }

  std::map<std::string, std::string> data_;
  Listener listener_;
  std::thread thread_;
  std::atomic<int> scan_requests_{0};
};

TEST(RegionServerTest, MultiScanFallsBackOncePerPreMultiScanPeer) {
  constexpr int kRows = 400;
  std::map<std::string, std::string> data;
  std::vector<kv::WriteOp> ops;
  for (int i = 0; i < kRows; ++i) {
    data[PaddedKey(i)] = "v" + std::to_string(i);
    ops.push_back(kv::WriteOp{PaddedKey(i), data[PaddedKey(i)], false});
  }
  std::vector<std::string> keys;
  const std::vector<kv::ScanRange> ranges = MultiRanges(&keys);
  using Rows = std::vector<std::tuple<size_t, std::string, std::string>>;
  auto scan = [&](RegionClient& client, Rows* rows) {
    rows->clear();
    return client.Scan(ranges, [&](size_t r, std::string_view k,
                                   std::string_view v) {
      rows->emplace_back(r, std::string(k), std::string(v));
      return true;
    });
  };

  // Reference: a current server holding the same rows.
  TempDir dir("net_multi_fallback");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  RegionClient current = MakeClient(server.port(), /*page_rows=*/17);
  ASSERT_TRUE(current.WriteBatch(ops).ok());
  Rows want;
  ASSERT_TRUE(scan(current, &want).ok());
  EXPECT_FALSE(current.peer_multiscan_unsupported());
  ASSERT_EQ(want.size(), 40u + 25u + 0u + 80u + 1u + 400u + 10u + 30u);

  FakePreMultiScanServer old_server(data);
  RegionClient client = MakeClient(old_server.port(), /*page_rows=*/17);
  auto& registry = obs::Registry::Global();
  const uint64_t degrades_before =
      registry.CounterValue("just_net_client_multiscan_degrades_total");
  // Traced, so the first frame is also extension-flagged: the peer's
  // "unknown message type" first degrades tracing, then the retried plain
  // multi-scan degrades the scan.
  obs::Trace trace("caller");
  obs::SpanScope scope(trace.root());
  Rows got;
  ASSERT_TRUE(scan(client, &got).ok());
  EXPECT_EQ(got, want);
  EXPECT_TRUE(client.peer_multiscan_unsupported());
  EXPECT_TRUE(client.peer_trace_unsupported());
  EXPECT_EQ(registry.CounterValue("just_net_client_multiscan_degrades_total"),
            degrades_before + 1);
  // Sticky: a second scan goes straight to one-range pages.
  const int scans_before = old_server.scan_requests();
  ASSERT_TRUE(scan(client, &got).ok());
  EXPECT_EQ(got, want);
  EXPECT_EQ(registry.CounterValue("just_net_client_multiscan_degrades_total"),
            degrades_before + 1);
  EXPECT_GE(old_server.scan_requests() - scans_before,
            static_cast<int>(ranges.size()));
}

TEST(RegionServerTest, ClusterScanDegradesOncePerPreMultiScanPeer) {
  // A two-server cluster: server 0 a current region server, server 1 an
  // old one. Keys route by first byte % 2.
  constexpr int kRows = 300;
  std::map<std::string, std::string> old_data;
  std::vector<kv::WriteOp> all, current_ops;
  for (int b = 0; b < 4; ++b) {
    for (int i = 0; i < kRows; ++i) {
      std::string key = std::string(1, static_cast<char>(b)) + PaddedKey(i);
      std::string value = "v" + std::to_string(b) + "/" + std::to_string(i);
      all.push_back(kv::WriteOp{key, value, false});
      if (b % 2 == 0) {
        current_ops.push_back(kv::WriteOp{key, value, false});
      } else {
        old_data[key] = value;
      }
    }
  }
  TempDir dir("net_cluster_fallback");
  ServerProcess server({.dir = dir.path() + "/rs0", .sync_wal = false});
  std::filesystem::create_directories(dir.path() + "/rs0");
  ASSERT_TRUE(server.Start());
  ASSERT_TRUE(MakeClient(server.port()).WriteBatch(current_ops).ok());
  FakePreMultiScanServer old_server(old_data);

  // Per shard byte: a few ranges, a whole-shard one, and a range that
  // crosses shard bytes (so it goes to both servers).
  std::vector<curve::KeyRange> ranges;
  for (int b = 0; b < 4; ++b) {
    const std::string shard(1, static_cast<char>(b));
    ranges.push_back({shard + PaddedKey(10), shard + PaddedKey(40), false});
    ranges.push_back({shard + PaddedKey(35), shard + PaddedKey(290), false});
    ranges.push_back({shard, std::string(1, static_cast<char>(b + 1)), false});
  }
  ranges.push_back({std::string(1, '\0') + PaddedKey(250),
                    std::string(1, '\2') + PaddedKey(20), false});

  // Reference: the same rows in an in-process cluster.
  cluster::ClusterOptions inproc;
  inproc.dir = dir.path() + "/inproc";
  inproc.num_servers = 2;
  auto reference = cluster::RegionCluster::Open(inproc);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE((*reference)->WriteBatch(all).ok());
  auto want = (*reference)->ParallelScan(ranges);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  cluster::ClusterOptions opts;
  opts.server_addrs = {server.addr(),
                       "127.0.0.1:" + std::to_string(old_server.port())};
  opts.scan_batch_rows = 37;
  auto cluster = cluster::RegionCluster::Open(opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto& registry = obs::Registry::Global();
  const uint64_t scan_degrades =
      registry.CounterValue("just_net_client_multiscan_degrades_total");
  const uint64_t trace_degrades =
      registry.CounterValue("just_net_client_trace_degrades_total");
  auto expect_same = [&](const std::vector<cluster::RegionCluster::RangeResult>&
                             got) {
    ASSERT_EQ(got.size(), want->size());
    for (size_t r = 0; r < got.size(); ++r) {
      ASSERT_EQ(got[r].rows.size(), (*want)[r].rows.size()) << "range " << r;
      for (size_t i = 0; i < got[r].rows.size(); ++i) {
        EXPECT_EQ(got[r].rows[i].key, (*want)[r].rows[i].key);
        EXPECT_EQ(got[r].rows[i].value, (*want)[r].rows[i].value);
      }
    }
  };
  {
    // Traced: the old peer first rejects the trace extension, then the
    // multi-scan itself.
    obs::Trace trace("caller");
    obs::SpanScope scope(trace.root());
    auto got = (*cluster)->ParallelScan(ranges);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    expect_same(*got);
  }
  auto got = (*cluster)->ParallelScan(ranges);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  expect_same(*got);
  EXPECT_EQ(registry.CounterValue("just_net_client_multiscan_degrades_total"),
            scan_degrades + 1);
  EXPECT_EQ(registry.CounterValue("just_net_client_trace_degrades_total"),
            trace_degrades + 1);
}

TEST(RegionServerTest, ClusterWriteBatchRetriesThroughConnectionCut) {
  TempDir dir("net_cut_write");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  FaultProxy proxy(server.port());

  cluster::ClusterOptions opts;
  opts.server_addrs = {"127.0.0.1:" + std::to_string(proxy.port())};
  opts.max_retries = 6;
  opts.retry_backoff_ms = 1;
  auto cluster = cluster::RegionCluster::Open(opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  // Cut while the batch's response (or the batch itself) is in flight; the
  // retried batch re-applies the same puts, which is idempotent.
  proxy.CutAfterUpstreamBytes(1);
  std::vector<kv::WriteOp> ops;
  for (int i = 0; i < 100; ++i) {
    ops.push_back(kv::WriteOp{PaddedKey(i), "v", false});
  }
  ASSERT_TRUE((*cluster)->WriteBatch(std::move(ops)).ok());

  std::string v;
  ASSERT_TRUE((*cluster)->Get(PaddedKey(0), &v).ok());
  ASSERT_TRUE((*cluster)->Get(PaddedKey(99), &v).ok());
}

TEST(RegionServerTest, StalledConnectionHitsBoundedTimeout) {
  TempDir dir("net_stall");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  FaultProxy proxy(server.port());

  RegionClient client = MakeClient(proxy.port(), 512,
                                   /*io_timeout_ms=*/300);
  ASSERT_TRUE(client.Put("k", "v").ok());  // warm connection through proxy

  proxy.SetStalled(true);
  const auto start = std::chrono::steady_clock::now();
  std::string v;
  Status st = client.Get("k", &v);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_TRUE(st.IsTransient());
  EXPECT_LT(elapsed.count(), 5000) << "timeout must be bounded by the option";

  // Unstall: the lazy reconnect makes the next call succeed.
  proxy.SetStalled(false);
  ASSERT_TRUE(client.Get("k", &v).ok());
  EXPECT_EQ(v, "v");
}

}  // namespace
}  // namespace just::net
