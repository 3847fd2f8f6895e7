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
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/region_cluster.h"
#include "common/bytes.h"
#include "kvstore/wal.h"
#include "net/region_client.h"
#include "net/region_server.h"
#include "net/wire_protocol.h"
#include "net_harness.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace just::net {
namespace {

using just::testing::DeleteKey;
using just::testing::FaultProxy;
using just::testing::GetKey;
using just::testing::PutKey;
using just::testing::ScanPage;
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

  // One-op batches and one-key scans: the single-key shorthand of
  // test_util.h over the protocol's two data messages.
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(PutKey(client, "alpha", "1").ok());
  ASSERT_TRUE(PutKey(client, "beta", "2").ok());

  std::string v;
  ASSERT_TRUE(GetKey(client, "alpha", &v).ok());
  EXPECT_EQ(v, "1");
  EXPECT_TRUE(GetKey(client, "missing", &v).IsNotFound());
  // A key's prefix is another key.
  EXPECT_TRUE(GetKey(client, "alph", &v).IsNotFound());

  ASSERT_TRUE(DeleteKey(client, "alpha").ok());
  EXPECT_TRUE(GetKey(client, "alpha", &v).IsNotFound());
  ASSERT_TRUE(GetKey(client, "beta", &v).ok());
  EXPECT_EQ(v, "2");
}

TEST(RegionServerTest, WriteBatchAndPagedScan) {
  TempDir dir("net_batch");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  RegionClient client = MakeClient(server.port());

  constexpr int kRows = 200;
  std::vector<kv::WriteOp> ops;
  for (int i = 0; i < kRows; ++i) {
    ops.push_back(kv::WriteOp{PaddedKey(i), "v" + std::to_string(i), false});
  }
  // A couple of deletes in the same batch, applied in order.
  ops.push_back(kv::WriteOp{PaddedKey(3), "", true});
  ops.push_back(kv::WriteOp{PaddedKey(7), "", true});
  ASSERT_TRUE(client.WriteBatch(/*tenant=*/{}, ops).ok());

  // Page size far below the row count: the scan crosses many
  // cursor-resumed pages.
  MultiScanRequest req;
  req.ranges = {{"", ""}};
  req.limit_rows = 16;
  std::vector<std::string> keys;
  int pages = 0;
  for (bool more = true; more; ++pages) {
    MultiScanResponse resp;
    ASSERT_TRUE(ScanPage(client, req, &resp).ok());
    ASSERT_LE(resp.rows.size(), 16u);
    for (const MultiScanRow& row : resp.rows) {
      EXPECT_EQ(row.range, 0u);
      keys.emplace_back(row.key);
      // PaddedKey(i) is "k%05d": recover i to check v.
      int i = std::atoi(std::string(row.key.substr(1)).c_str());
      EXPECT_EQ(row.value, "v" + std::to_string(i));
    }
    more = resp.has_more;
    req.resume = resp.next;
  }
  EXPECT_GE(pages, (kRows - 2) / 16);
  EXPECT_EQ(keys.size(), static_cast<size_t>(kRows - 2));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::count(keys.begin(), keys.end(), PaddedKey(3)), 0);
  EXPECT_EQ(std::count(keys.begin(), keys.end(), PaddedKey(7)), 0);

  // A page stops at its limit and says where the scan would go on.
  req.resume = ScanCursor{};
  req.limit_rows = 10;
  MultiScanResponse first;
  ASSERT_TRUE(ScanPage(client, req, &first).ok());
  EXPECT_EQ(first.rows.size(), 10u);
  EXPECT_TRUE(first.has_more);
  EXPECT_EQ(first.next.key, std::string(first.rows.back().key) + '\0');
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
      if (PutKey(client, PaddedKey(i), "v" + std::to_string(i)).ok()) {
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
    ASSERT_TRUE(GetKey(client, PaddedKey(i), &v).ok())
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

  Status st = PutKey(client, "k", "v");
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_TRUE(st.IsTransient()) << "shed must feed the retry path";
  std::string v;
  EXPECT_TRUE(GetKey(client, "k", &v).IsUnavailable());

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
  // its own id. Each one-key scan reads the key the one-op batch before it
  // wrote, so an out-of-order execution would miss it.
  struct Sent {
    uint64_t id;
    MsgType answer;
    std::string value;  ///< the scan's expected value
  };
  std::vector<Sent> sent;
  for (int i = 0; i < 32; ++i) {
    const uint64_t id = client.NextRequestId();
    std::string frame;
    if (i == 31) {
      EncodePingRequest(id, &frame);
      sent.push_back({id, MsgType::kStatusResp, ""});
    } else if (i % 2 == 0) {
      EncodeWriteBatchRequest(
          /*tenant=*/{},
          {kv::WriteOp{PaddedKey(i), "v" + std::to_string(i), false}}, id,
          &frame);
      sent.push_back({id, MsgType::kStatusResp, ""});
    } else {
      const std::string key = PaddedKey(i - 1);
      const std::string end = key + '\0';
      MultiScanRequest req;
      req.ranges = {{key, end}};
      EncodeMultiScanRequest(req, id, &frame);
      sent.push_back(
          {id, MsgType::kMultiScanResp, "v" + std::to_string(i - 1)});
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
    if (want.answer == MsgType::kMultiScanResp) {
      MultiScanResponse resp;
      ASSERT_TRUE(DecodeMultiScanResponse(body, &resp).ok());
      EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
      ASSERT_EQ(resp.rows.size(), 1u);
      EXPECT_EQ(resp.rows[0].value, want.value);
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
  ASSERT_TRUE(PutKey(client, "still", "serving").ok());
}

TEST(RegionServerTest, MalformedBodyBehindValidCrcKeepsConnection) {
  TempDir dir("net_malformed");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  RegionClient client = MakeClient(server.port());
  ASSERT_TRUE(client.EnsureConnected().ok());

  // A structurally bad payload with a correct CRC: an unknown message type
  // (99, and every retired message's reserved byte: single-key get, put
  // and delete, the one-range scan, wait-idle, the separate ingest, and
  // the get and one-range scan answers). The stream stays synced, so the
  // server answers kInvalidArgument on the same connection instead of
  // dropping it.
  for (uint8_t type : {99, 2, 3, 4, 6, 10, 11, 33, 34}) {
    std::string payload;
    payload.push_back(static_cast<char>(type));
    PutFixed64(&payload, 42 + type);
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
    EXPECT_EQ(header.request_id, 42u + type);
    StatusResponse resp;
    ASSERT_TRUE(DecodeStatusResponse(body, &resp).ok());
    EXPECT_TRUE(resp.status.IsInvalidArgument())
        << int{type} << ": " << resp.status.ToString();

    // Same connection still serves real requests.
    ASSERT_TRUE(client.Ping().ok());
  }
}

TEST(RegionServerTest, TenantWriteAdmissionShedsTaggedBatchesOnly) {
  TempDir dir("net_tenant_quota");
  RegionServerOptions options;
  options.store.dir = dir.path();
  // 10 rows of burst, refilled at 1 row/s: a second 10-row batch right
  // after the first finds the bucket empty.
  options.tenant_write_rps = 1;
  options.tenant_write_burst = 10;
  auto server = RegionServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  cluster::ClusterOptions copts;
  copts.server_addrs = {"127.0.0.1:" + std::to_string((*server)->port())};
  copts.max_retries = 3;
  auto cluster = cluster::RegionCluster::Open(copts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto batch = [](const std::string& prefix, int rows) {
    std::vector<kv::WriteOp> ops;
    for (int i = 0; i < rows; ++i) {
      ops.push_back(kv::WriteOp{prefix + PaddedKey(i), "v", false});
    }
    return ops;
  };
  obs::Counter* retries =
      obs::Registry::Global().GetCounter("just_cluster_retries_total");

  ASSERT_TRUE((*cluster)->WriteBatch(batch("a", 10), "alice").ok());
  const uint64_t requests_before = (*server)->requests_total();
  const uint64_t retries_before = retries->Value();
  Status st = (*cluster)->WriteBatch(batch("b", 10), "alice");
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  // Counted as a shed, sent once: a quota shed is not transient.
  EXPECT_EQ((*server)->shed_total(), 1u);
  EXPECT_EQ((*server)->requests_total() - requests_before, 1u);
  EXPECT_EQ(retries->Value(), retries_before);
  std::string v;
  EXPECT_TRUE(GetKey(**cluster, "b" + PaddedKey(0), &v).IsNotFound());

  // Untagged batches are never throttled, however large.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        (*cluster)->WriteBatch(batch("c" + std::to_string(round), 500)).ok());
  }
  EXPECT_EQ((*server)->shed_total(), 1u);
  StatsResponse stats;
  ASSERT_TRUE(MakeClient((*server)->port()).GetStats(&stats).ok());
  EXPECT_EQ(stats.shed_total, 1u);
  ASSERT_TRUE(GetKey(**cluster, "c2" + PaddedKey(499), &v).ok());
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
    ASSERT_TRUE(direct.WriteBatch(/*tenant=*/{}, ops).ok());
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
    ASSERT_TRUE(client.WriteBatch(/*tenant=*/{}, ops).ok());
    // Three pages: the cursor ends up inside the fourth range.
    for (int page = 0; page < 3; ++page) {
      MultiScanResponse resp;
      ASSERT_TRUE(ScanPage(client, req, &resp).ok());
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
    ASSERT_TRUE(ScanPage(client2, req, &resp).ok());
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
    ASSERT_TRUE(direct.WriteBatch(/*tenant=*/{}, ops).ok());
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

TEST(RegionServerTest, ClusterScanCutAfterFirstWindowNeitherDropsNorDuplicates) {
  TempDir dir("net_window_cut");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  FaultProxy proxy(server.port());
  constexpr int kRows = 1000;
  std::vector<kv::WriteOp> ops;
  for (int i = 0; i < kRows; ++i) {
    ops.push_back(kv::WriteOp{
        PaddedKey(i), std::string(100, 'x') + std::to_string(i), false});
  }
  ASSERT_TRUE(MakeClient(server.port()).WriteBatch(/*tenant=*/{}, ops).ok());

  // More ranges than one request carries. The first window: one-key
  // ranges, every 16th of them non-empty. The second: 100 ranges of ten
  // rows each, many 50-row pages.
  std::vector<curve::KeyRange> ranges;
  for (size_t i = 0; i < kMaxScanRanges; ++i) {
    const std::string key = PaddedKey(static_cast<int>(i % kRows));
    ranges.push_back({key, i % 16 == 0 ? key + '\0' : key, false});
  }
  for (int j = 0; j < 100; ++j) {
    ranges.push_back({PaddedKey(10 * j), PaddedKey(10 * j + 10), false});
  }
  const std::vector<curve::KeyRange> first_window(
      ranges.begin(), ranges.begin() + kMaxScanRanges);

  // Reference: the same rows in an in-process cluster.
  cluster::ClusterOptions inproc;
  inproc.dir = dir.path() + "/inproc";
  inproc.num_servers = 1;
  auto reference = cluster::RegionCluster::Open(inproc);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE((*reference)->WriteBatch(ops).ok());
  auto want = (*reference)->ParallelScan(ranges);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  cluster::ClusterOptions opts;
  opts.server_addrs = {"127.0.0.1:" + std::to_string(proxy.port())};
  opts.scan_batch_rows = 50;
  opts.max_retries = 6;
  opts.retry_backoff_ms = 1;
  auto cluster = cluster::RegionCluster::Open(opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
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
  // Uncut, measuring the answer bytes: of the first window alone, and of
  // the whole scan (its first window's pages are the same bytes).
  int64_t at = proxy.upstream_bytes();
  ASSERT_TRUE((*cluster)->ParallelScan(first_window).ok());
  const int64_t first_bytes = proxy.upstream_bytes() - at;
  at = proxy.upstream_bytes();
  auto uncut = (*cluster)->ParallelScan(ranges);
  ASSERT_TRUE(uncut.ok()) << uncut.status().ToString();
  expect_same(*uncut);
  const int64_t all_bytes = proxy.upstream_bytes() - at;
  ASSERT_GT(all_bytes - first_bytes, 64 * 1024);

  // Cut halfway through the second window's answers: the stream reopens in
  // the second window, just past the last row delivered.
  obs::Counter* retries =
      obs::Registry::Global().GetCounter("just_cluster_retries_total");
  const uint64_t retries_before = retries->Value();
  proxy.CutAfterUpstreamBytes(first_bytes + (all_bytes - first_bytes) / 2);
  auto got = (*cluster)->ParallelScan(ranges);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(retries->Value(), retries_before)
      << "the cut should have forced a retry";
  expect_same(*got);
}

TEST(RegionServerTest, ClusterScanRetriesInThePollLoopThenFails) {
  TempDir dir("net_cut_all");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  FaultProxy proxy(server.port());
  std::vector<kv::WriteOp> ops;
  for (int i = 0; i < 100; ++i) {
    ops.push_back(kv::WriteOp{PaddedKey(i), "v", false});
  }
  ASSERT_TRUE(MakeClient(server.port()).WriteBatch(/*tenant=*/{}, ops).ok());

  cluster::ClusterOptions opts;
  opts.server_addrs = {"127.0.0.1:" + std::to_string(proxy.port())};
  opts.max_retries = 3;
  opts.retry_backoff_ms = 1;
  auto cluster = cluster::RegionCluster::Open(opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  class CountingSink : public cluster::RegionCluster::ScanSink {
   public:
    bool Accept(int, size_t, std::string_view, std::string_view) override {
      ++rows;
      return true;
    }
    Status Finish(int) override {
      ++finished;
      return Status::OK();
    }
    int rows = 0;
    int finished = 0;
  };
  // Every connection, the pooled one included, is cut before it answers:
  // each retry reopens the stream, and the last failure ends the scan.
  proxy.SetCutAll(true);
  obs::Counter* retries =
      obs::Registry::Global().GetCounter("just_cluster_retries_total");
  const uint64_t retries_before = retries->Value();
  CountingSink sink;
  Status st = (*cluster)->Scan({curve::KeyRange{"", ""}}, &sink);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsTransient()) << st.ToString();
  EXPECT_EQ(retries->Value() - retries_before,
            static_cast<uint64_t>(opts.max_retries));
  EXPECT_EQ(sink.rows, 0);
  EXPECT_EQ(sink.finished, 0) << "a failed server must not be finished";
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
  ASSERT_TRUE(GetKey(**cluster, PaddedKey(0), &v).ok());
  ASSERT_TRUE(GetKey(**cluster, PaddedKey(99), &v).ok());
}

TEST(RegionServerTest, StalledConnectionHitsBoundedTimeout) {
  TempDir dir("net_stall");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  FaultProxy proxy(server.port());

  RegionClient client = MakeClient(proxy.port(), 512,
                                   /*io_timeout_ms=*/300);
  ASSERT_TRUE(PutKey(client, "k", "v").ok());  // warm connection through proxy

  proxy.SetStalled(true);
  const auto start = std::chrono::steady_clock::now();
  std::string v;
  Status st = GetKey(client, "k", &v);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_TRUE(st.IsTransient());
  EXPECT_LT(elapsed.count(), 5000) << "timeout must be bounded by the option";

  // Unstall: the lazy reconnect makes the next call succeed.
  proxy.SetStalled(false);
  ASSERT_TRUE(GetKey(client, "k", &v).ok());
  EXPECT_EQ(v, "v");
}

}  // namespace
}  // namespace just::net
