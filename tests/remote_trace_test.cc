// End-to-end cross-process tracing (the PR's acceptance test): an engine
// whose region servers are real spawned `just_region_server` processes runs
// EXPLAIN ANALYZE, and the rendered span tree must contain per-server
// remote subtrees (grafted from the response extension field) whose
// counters match what the same data and query produce in-process. Also
// covers the wire's compatibility edges (unflagged frames from an untraced
// client, an incompatible peer) and the spawned server's HTTP admin plane
// (/metrics histograms, /tracez slow-RPC trees).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "cluster/region_cluster.h"
#include "common/rng.h"
#include "core/engine.h"
#include "net/region_client.h"
#include "net/socket.h"
#include "net/wire_protocol.h"
#include "net_harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/justql.h"
#include "test_util.h"

namespace just {
namespace {

using just::testing::ServerProcess;
using just::testing::TempDir;

constexpr const char* kStQuery =
    "SELECT fid FROM orders WHERE geom WITHIN "
    "st_makeMBR(116.0, 39.5, 117.5, 41.0) AND "
    "time BETWEEN '2018-10-01' AND '2018-10-02'";

/// Sums every `<token><number>` occurrence in `text`.
uint64_t SumToken(const std::string& text, const std::string& token) {
  uint64_t total = 0;
  size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    pos += token.size();
    uint64_t value = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      value = value * 10 + static_cast<uint64_t>(text[pos] - '0');
      ++pos;
    }
    total += value;
  }
  return total;
}

/// SumToken restricted to lines containing `line_filter` — e.g. counter
/// sums over only the remote (` server=`-tagged) spans of a rendering.
uint64_t SumTokenOnLines(const std::string& text,
                         const std::string& line_filter,
                         const std::string& token) {
  uint64_t total = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(line_filter) != std::string::npos) {
      total += SumToken(line, token);
    }
  }
  return total;
}

/// Loads the shared orders fixture into `engine` (identical data for the
/// socket-backed and in-process engines, so totals are comparable).
void LoadOrders(core::JustEngine* engine) {
  meta::TableMeta table;
  table.user = "u";
  table.name = "orders";
  table.columns = {
      {"fid", exec::DataType::kString, true, "", ""},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "", ""},
  };
  table.indexes = {{curve::IndexType::kZ2, kMillisPerDay},
                   {curve::IndexType::kZ2T, kMillisPerDay}};
  ASSERT_TRUE(engine->CreateTable(table).ok());
  TimestampMs base = ParseTimestamp("2018-10-01").value();
  Rng rng(17);
  std::vector<exec::Row> rows;
  for (int i = 0; i < 400; ++i) {
    rows.push_back({
        exec::Value::String("o" + std::to_string(i)),
        exec::Value::Timestamp(base + (i % (3 * 24)) * kMillisPerHour),
        exec::Value::GeometryVal(geo::Geometry::MakePoint(
            {116.0 + rng.NextDouble(), 39.5 + rng.NextDouble()})),
    });
  }
  ASSERT_TRUE(engine->InsertBatch("u", "orders", rows).ok());
  ASSERT_TRUE(engine->Finalize().ok());
}

/// One raw HTTP/1.0 GET against a spawned server's admin port.
std::string RawGet(int port, const std::string& path) {
  auto sock = net::Connect("127.0.0.1", port);
  if (!sock.ok()) return "";
  (void)sock->SetRecvTimeout(5000);
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!sock->WriteFully(request.data(), request.size()).ok()) return "";
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(sock->fd(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  return response;
}

class RemoteTraceTest : public ::testing::Test {
 protected:
  /// Spawns `n` region server processes (admin plane on, slow-RPC log
  /// capturing everything) and opens an engine routed at them.
  void StartSocketEngine(int n = 2) {
    dir_ = std::make_unique<TempDir>("remote_trace");
    core::EngineOptions options;
    options.data_dir = dir_->path() + "/engine";
    std::filesystem::create_directories(options.data_dir);
    options.num_servers = n;
    options.num_shards = 4;
    for (int i = 0; i < n; ++i) {
      ServerProcess::Options po;
      po.dir = dir_->path() + "/rs" + std::to_string(i);
      std::filesystem::create_directories(po.dir);
      po.sync_wal = false;
      po.admin = true;
      po.slow_query_us = 0;
      auto server = std::make_unique<ServerProcess>(po);
      ASSERT_TRUE(server->Start()) << "region server " << i;
      ASSERT_GT(server->admin_port(), 0) << "admin port missing";
      options.server_addrs.push_back(server->addr());
      servers_.push_back(std::move(server));
    }
    auto engine = core::JustEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
    LoadOrders(engine_.get());
    ql_ = std::make_unique<sql::JustQL>(engine_.get());
  }

  void TearDown() override {
    ql_.reset();
    engine_.reset();
    for (auto& server : servers_) server->Terminate();
    servers_.clear();
  }

  std::unique_ptr<TempDir> dir_;
  std::vector<std::unique_ptr<ServerProcess>> servers_;
  std::unique_ptr<core::JustEngine> engine_;
  std::unique_ptr<sql::JustQL> ql_;
};

TEST_F(RemoteTraceTest, ExplainAnalyzeRendersRemoteSubtrees) {
  StartSocketEngine(2);
  auto r = ql_->Execute("u", std::string("EXPLAIN ANALYZE ") + kStQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->frame.num_rows(), 0u);
  const std::string& msg = r->message;

  // Remote per-server subtrees: rpc spans tagged with the server address.
  // The Fig 12 query plans hundreds of key ranges across both servers, yet
  // each server answers exactly one multi-range scan RPC.
  ASSERT_NE(msg.find(" server="), std::string::npos) << msg;
  EXPECT_EQ(msg.find("rpc.scan "), std::string::npos) << msg;
  EXPECT_NE(msg.find("cluster.ParallelScan ranges="), std::string::npos)
      << msg;
  EXPECT_NE(msg.find(" servers=" + std::to_string(servers_.size())),
            std::string::npos)
      << msg;
  size_t multi_scans = 0;
  for (size_t pos = 0; (pos = msg.find("rpc.multi_scan", pos)) !=
                       std::string::npos;
       ++pos) {
    ++multi_scans;
  }
  EXPECT_EQ(multi_scans, servers_.size()) << msg;
  for (const auto& server : servers_) {
    const std::string tag = "server=" + server->addr();
    size_t at = msg.find(tag);
    EXPECT_NE(at, std::string::npos)
        << "no subtree from " << server->addr() << "\n"
        << msg;
    EXPECT_EQ(msg.find(tag, at + 1), std::string::npos)
        << "more than one RPC to " << server->addr() << "\n"
        << msg;
  }

  // The remote spans carry real counters: the rows the servers scanned sum
  // to what the client-side scan span reports (the remote lines are the
  // per-server breakdown of the same total), and the servers did real
  // block reads.
  uint64_t remote_rows =
      SumTokenOnLines(msg, " server=", " rows_scanned=");
  EXPECT_GT(remote_rows, 0u) << msg;
  uint64_t local_rows =
      SumToken(msg, " rows_scanned=") - remote_rows;
  EXPECT_EQ(remote_rows, local_rows) << msg;
  EXPECT_GT(SumTokenOnLines(msg, " server=", " bytes_read="), 0u) << msg;
  // Queue wait is attributed on every remote span.
  EXPECT_NE(msg.find("queue_us="), std::string::npos) << msg;

  // Same data and query, in-process backend: the remote breakdown must
  // match the single-process totals (the backends are interchangeable).
  TempDir inproc_dir("remote_trace_inproc");
  core::EngineOptions inproc;
  inproc.data_dir = inproc_dir.path();
  inproc.num_servers = 2;
  inproc.num_shards = 4;
  auto inproc_engine = core::JustEngine::Open(inproc);
  ASSERT_TRUE(inproc_engine.ok());
  LoadOrders(inproc_engine->get());
  sql::JustQL inproc_ql(inproc_engine->get());
  auto r2 =
      inproc_ql.Execute("u", std::string("EXPLAIN ANALYZE ") + kStQuery);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->frame.num_rows(), r->frame.num_rows());
  EXPECT_EQ(remote_rows, SumToken(r2->message, " rows_scanned="))
      << "socket:\n"
      << msg << "\ninproc:\n"
      << r2->message;
}

TEST_F(RemoteTraceTest, UntracedQueriesDegradeNothing) {
  StartSocketEngine(1);
  // No EXPLAIN ANALYZE: no thread-local span, so frames stay in the
  // unflagged layout, the query runs over the wire, and no trace decode
  // counter moves.
  auto& registry = obs::Registry::Global();
  const uint64_t rpcs_before =
      registry.CounterValue("just_net_client_rpcs_total");
  const uint64_t decode_errors_before =
      registry.CounterValue("just_net_client_trace_decode_errors_total");
  auto r = ql_->Execute("u", kStQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->frame.num_rows(), 0u);
  EXPECT_GT(registry.CounterValue("just_net_client_rpcs_total"), rpcs_before);
  EXPECT_EQ(registry.CounterValue("just_net_client_trace_decode_errors_total"),
            decode_errors_before);
}

TEST_F(RemoteTraceTest, AdminPlaneServesMetricsAndTracez) {
  StartSocketEngine(1);
  // Drive some RPCs through the engine so the server has latency samples
  // and slow-RPC entries (threshold 0 records everything).
  auto r = ql_->Execute("u", kStQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  int admin_port = servers_[0]->admin_port();
  std::string health = RawGet(admin_port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos) << health;
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  std::string metrics = RawGet(admin_port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  // Per-RPC latency histograms by type, exposed as one labeled family.
  EXPECT_NE(metrics.find("# TYPE just_net_server_rpc_us histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("just_net_server_rpc_us_count{type=\"ping\"}"),
            std::string::npos);
  EXPECT_NE(
      metrics.find("just_net_server_rpc_us_count{type=\"multi_scan\"}"),
      std::string::npos);
  EXPECT_NE(metrics.find("just_net_server_requests_total"),
            std::string::npos);

  // /tracez shows the recorded slow RPCs with their span trees.
  std::string tracez = RawGet(admin_port, "/tracez");
  EXPECT_NE(tracez.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(tracez.find("\"sql\":\"rpc:multi_scan\""), std::string::npos)
      << tracez;
  EXPECT_NE(tracez.find("\"name\":\"rpc.multi_scan\""), std::string::npos)
      << tracez;
}

TEST_F(RemoteTraceTest, OldClientFramesAgainstNewServer) {
  StartSocketEngine(1);
  // An old client never sets the extension flag; its frames are
  // byte-identical to what EncodePingRequest emits with no ext (pinned by
  // the wire tests). The new server must answer without an extension.
  net::RegionClientOptions copts;
  copts.port = servers_[0]->port();
  net::RegionClient client(copts);
  ASSERT_TRUE(client.EnsureConnected().ok());
  std::string frame;
  net::EncodePingRequest(7, &frame);
  ASSERT_TRUE(client.RawSend(frame).ok());
  std::string payload;
  ASSERT_TRUE(client.RawRecvPayload(&payload).ok());
  net::FrameHeader header;
  std::string_view body;
  ASSERT_TRUE(net::ParsePayload(payload, &header, &body).ok());
  EXPECT_EQ(header.type, net::MsgType::kStatusResp);
  EXPECT_EQ(header.request_id, 7u);
  EXPECT_FALSE(header.has_ext);
  net::StatusResponse resp;
  ASSERT_TRUE(net::DecodeStatusResponse(body, &resp).ok());
  EXPECT_TRUE(resp.status.ok());
}

/// A minimal in-process stand-in for a region server this client is not
/// built with: it answers unflagged pings OK and every other frame — an
/// extension-flagged one, or any other request type — with "unknown
/// message type" (kInvalidArgument) on a surviving connection.
class IncompatibleServer {
 public:
  IncompatibleServer() {
    auto listener = net::Listener::Listen("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok());
    listener_ = std::move(*listener);
    thread_ = std::thread([this] { Serve(); });
  }

  ~IncompatibleServer() {
    listener_.Close();
    if (thread_.joinable()) thread_.join();
  }

  int port() const { return listener_.port(); }
  std::string addr() const { return "127.0.0.1:" + std::to_string(port()); }
  /// Requests read so far, and those of them it rejected.
  int requests() const { return requests_.load(); }
  int rejected() const { return rejected_.load(); }

 private:
  void Serve() {
    for (;;) {
      auto accepted = listener_.Accept();
      if (!accepted.ok()) return;
      net::Socket sock = std::move(*accepted);
      (void)sock.SetRecvTimeout(5000);
      while (ServeOne(sock)) {
      }
    }
  }

  bool ServeOne(net::Socket& sock) {
    std::string payload;
    if (!net::ReadFramePayload(sock, &payload).ok()) return false;
    if (payload.size() < net::kPayloadHeaderBytes) return false;
    ++requests_;
    uint8_t raw = static_cast<uint8_t>(payload[0]);
    uint64_t id = GetFixed64(payload.data() + 1);
    std::string out;
    if (raw == static_cast<uint8_t>(net::MsgType::kPingReq)) {
      net::EncodeStatusResponse({Status::OK()}, id, &out);
    } else {
      ++rejected_;
      net::EncodeStatusResponse(
          {Status::InvalidArgument("unknown message type " +
                                   std::to_string(raw))},
          id, &out);
    }
    return sock.WriteFully(out.data(), out.size()).ok();
  }

  net::Listener listener_;
  std::thread thread_;
  std::atomic<int> requests_{0};
  std::atomic<int> rejected_{0};
};

TEST_F(RemoteTraceTest, TracedPingToIncompatiblePeerFailsOnce) {
  IncompatibleServer peer;
  net::RegionClientOptions copts;
  copts.port = peer.port();
  net::RegionClient client(copts);
  // Untraced frames keep the unflagged layout, which the peer reads.
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_EQ(peer.requests(), 1);

  obs::Trace trace("caller");
  obs::SpanScope scope(trace.root());
  // The flagged ping is rejected, and the rejection is the answer: no
  // second, untraced attempt.
  Status st = client.Ping();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_FALSE(st.IsTransient());
  EXPECT_EQ(peer.requests(), 2);
  EXPECT_EQ(peer.rejected(), 1);
  // No remote subtree was grafted (the peer sent none).
  EXPECT_TRUE(trace.root()->children().empty());
}

TEST_F(RemoteTraceTest, ClusterScanFailsAgainstIncompatiblePeer) {
  // Server 0 is current, server 1 the incompatible peer; keys route by
  // first byte % 2.
  TempDir dir("incompatible_peer");
  ServerProcess server({.dir = dir.path(), .sync_wal = false});
  ASSERT_TRUE(server.Start());
  std::vector<kv::WriteOp> ops;
  for (int i = 0; i < 100; ++i) {
    ops.push_back(kv::WriteOp{std::string(1, '\0') + std::to_string(i),
                              "v", false});
  }
  net::RegionClientOptions copts;
  copts.port = server.port();
  ASSERT_TRUE(net::RegionClient(copts).WriteBatch(/*tenant=*/{}, ops).ok());
  IncompatibleServer peer;

  cluster::ClusterOptions opts;
  opts.server_addrs = {server.addr(), peer.addr()};
  auto cluster = cluster::RegionCluster::Open(opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const int requests_before = peer.requests();

  class PerServerSink : public cluster::RegionCluster::ScanSink {
   public:
    bool Accept(int server, size_t, std::string_view,
                std::string_view) override {
      ++rows[server];
      return true;
    }
    Status Finish(int server) override {
      ++finished[server];
      return Status::OK();
    }
    int rows[2] = {0, 0};
    int finished[2] = {0, 0};
  };
  PerServerSink sink;
  // One range across every shard byte: both servers own part of it.
  Status st = (*cluster)->Scan({curve::KeyRange{"", ""}}, &sink);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(sink.rows[1], 0);
  EXPECT_EQ(sink.finished[1], 0);
  // Not transient, so not retried: the peer saw one multi-scan.
  EXPECT_EQ(peer.requests() - requests_before, 1);
  EXPECT_EQ(peer.rejected(), 1);
}

}  // namespace
}  // namespace just
