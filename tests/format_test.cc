// The on-disk format: a store's MANIFEST and the catalog each carry one
// format stamp, and Open refuses any other with NotSupported, leaving every
// file name and byte of the directory as it was. Each fixture is a store of
// this build, rewritten the way an older build left its files; both
// backends are covered (the engine's in-process stores, and in-process
// RegionServers over sockets). A store of this build reopens with every
// acknowledged write, flushed or not.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "net/region_server.h"
#include "sql/justql.h"
#include "test_util.h"

namespace just {
namespace {

namespace fs = std::filesystem;

constexpr int kServers = 2;

/// Every file (path relative to `root`, with its bytes) and directory
/// under `root`.
std::map<std::string, std::string> Snapshot(const std::string& root) {
  std::map<std::string, std::string> entries;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    const std::string rel = fs::relative(entry.path(), root).string();
    if (entry.is_directory()) {
      entries[rel + "/"] = "";
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    entries[rel].assign(std::istreambuf_iterator<char>(in), {});
  }
  return entries;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

enum class Backend { kInProcess, kSockets };

/// One data directory, run by either backend: the engine's own stores
/// under `<root>/engine/cluster/rs<i>`, or RegionServers in this process
/// on `<root>/rs<i>` with the engine's catalog in `<root>/engine`.
class Deployment {
 public:
  Deployment(Backend backend, const std::string& root)
      : backend_(backend), root_(root) {}

  ~Deployment() { Stop(); }

  std::string engine_dir() const { return root_ + "/engine"; }

  std::string store_dir(int i) const {
    return backend_ == Backend::kInProcess
               ? engine_dir() + "/cluster/rs" + std::to_string(i)
               : root_ + "/rs" + std::to_string(i);
  }

  /// Starts the region servers (sockets only).
  Status StartServers() {
    for (int i = 0; backend_ == Backend::kSockets && i < kServers; ++i) {
      net::RegionServerOptions options;
      options.store.dir = store_dir(i);
      fs::create_directories(options.store.dir);
      JUST_ASSIGN_OR_RETURN(auto server, net::RegionServer::Start(options));
      servers_.push_back(std::move(server));
    }
    return Status::OK();
  }

  Result<std::unique_ptr<core::JustEngine>> OpenEngine() const {
    core::EngineOptions options;
    options.data_dir = engine_dir();
    options.num_servers = kServers;
    options.num_shards = 4;
    for (const auto& server : servers_) {
      options.server_addrs.push_back("127.0.0.1:" +
                                     std::to_string(server->port()));
    }
    fs::create_directories(options.data_dir);
    return core::JustEngine::Open(options);
  }

  /// Starts the servers, then opens the engine.
  Result<std::unique_ptr<core::JustEngine>> Open() {
    JUST_RETURN_NOT_OK(StartServers());
    return OpenEngine();
  }

  void Stop() { servers_.clear(); }

 private:
  Backend backend_;
  std::string root_;
  std::vector<std::unique_ptr<net::RegionServer>> servers_;
};

std::vector<exec::Row> Rows(int first, int count) {
  std::vector<exec::Row> rows;
  for (int i = first; i < first + count; ++i) {
    rows.push_back({
        exec::Value::String("o" + std::to_string(i)),
        exec::Value::Timestamp(1538352000000 + i * kMillisPerMinute),
        exec::Value::GeometryVal(geo::Geometry::MakePoint(
            {116.0 + 0.001 * i, 39.5 + 0.0007 * i})),
    });
  }
  return rows;
}

Status CreateAndLoad(core::JustEngine* engine, int count) {
  meta::TableMeta table;
  table.user = "u";
  table.name = "orders";
  table.columns = {
      {"fid", exec::DataType::kString, true, "", ""},
      {"time", exec::DataType::kTimestamp, false, "", ""},
      {"geom", exec::DataType::kGeometry, false, "", ""},
  };
  JUST_RETURN_NOT_OK(engine->CreateTable(table));
  return engine->InsertBatch("u", "orders", Rows(0, count));
}

size_t CountRows(core::JustEngine* engine) {
  auto got = sql::JustQL(engine).Execute("u", "SELECT * FROM orders");
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  return got.ok() ? got->frame.num_rows() : 0;
}

std::string BackendName(Backend backend) {
  return backend == Backend::kInProcess ? "InProcess" : "Sockets";
}

// --- Refusal ------------------------------------------------------------

/// How an older build's files differ from this build's.
enum class OldFormat {
  kManifestV2,        ///< MANIFEST header "just-manifest 2"
  kManifestV1,        ///< headerless MANIFEST: "wal N" and bare file numbers
  kWalSegmentOnly,    ///< wal-000001.log and no MANIFEST
  kWalLogOnly,        ///< wal.log and no MANIFEST
  kUnstampedCatalog,  ///< catalog.jsonl without its format line
};

std::string OldFormatName(OldFormat format) {
  switch (format) {
    case OldFormat::kManifestV2:
      return "ManifestV2";
    case OldFormat::kManifestV1:
      return "ManifestV1";
    case OldFormat::kWalSegmentOnly:
      return "WalSegmentOnly";
    case OldFormat::kWalLogOnly:
      return "WalLogOnly";
    case OldFormat::kUnstampedCatalog:
      return "UnstampedCatalog";
  }
  return "Unknown";
}

/// Rewrites one store directory of this build as `format` left it.
void RewriteStore(const std::string& dir, OldFormat format) {
  const std::string manifest_path = dir + "/MANIFEST";
  const std::string manifest = ReadFile(manifest_path);
  ASSERT_EQ(manifest.rfind("just-manifest 3\n", 0), 0u) << manifest;
  if (format == OldFormat::kManifestV2 || format == OldFormat::kManifestV1) {
    // Crash debris an accepted open would quarantine or delete.
    WriteFile(dir + "/000999.sst", "unreferenced table");
    WriteFile(dir + "/000998.sst.tmp", "half-built table");
  }
  switch (format) {
    case OldFormat::kManifestV2:
      WriteFile(manifest_path, "just-manifest 2" + manifest.substr(15));
      break;
    case OldFormat::kManifestV1: {
      std::string v1;
      std::istringstream lines(manifest);
      std::string line;
      std::getline(lines, line);  // the header
      while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::string kind, level, number;
        fields >> kind;
        if (kind == "file") {
          fields >> level >> number;
          v1 += number + "\n";
        } else {
          v1 += line + "\n";  // "wal N"
        }
      }
      ASSERT_NE(v1.find('\n'), v1.rfind('\n')) << "no table to list";
      WriteFile(manifest_path, v1);
      break;
    }
    case OldFormat::kWalSegmentOnly:
    case OldFormat::kWalLogOnly: {
      fs::remove(manifest_path);
      std::vector<std::string> names;
      for (const auto& entry : fs::directory_iterator(dir)) {
        names.push_back(entry.path().filename().string());
      }
      ASSERT_EQ(names, std::vector<std::string>{"wal-000001.log"});
      if (format == OldFormat::kWalLogOnly) {
        fs::rename(dir + "/wal-000001.log", dir + "/wal.log");
      }
      break;
    }
    case OldFormat::kUnstampedCatalog:
      break;
  }
}

class OldFormatTest
    : public ::testing::TestWithParam<std::tuple<Backend, OldFormat>> {};

TEST_P(OldFormatTest, OpenIsNotSupportedAndChangesNoFile) {
  const auto [backend, format] = GetParam();
  just::testing::TempDir dir("old_format");
  Deployment deployment(backend, dir.path());
  const bool wal_only = format == OldFormat::kWalSegmentOnly ||
                        format == OldFormat::kWalLogOnly;
  {
    auto engine = deployment.Open();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(CreateAndLoad(engine->get(), 120).ok());
    if (!wal_only) {
      // Tables for the MANIFEST to list, then writes only the WAL holds.
      ASSERT_TRUE((*engine)->Finalize().ok());
      ASSERT_TRUE((*engine)->InsertBatch("u", "orders", Rows(120, 40)).ok());
    }
  }
  deployment.Stop();
  if (format == OldFormat::kUnstampedCatalog) {
    const std::string path = deployment.engine_dir() + "/catalog.jsonl";
    const std::string catalog = ReadFile(path);
    ASSERT_EQ(catalog.rfind("{\"format\":1}\n", 0), 0u) << catalog;
    WriteFile(path, catalog.substr(catalog.find('\n') + 1));
  } else {
    for (int i = 0; i < kServers; ++i) {
      ASSERT_NO_FATAL_FAILURE(RewriteStore(deployment.store_dir(i), format));
    }
  }

  if (backend == Backend::kSockets && format != OldFormat::kUnstampedCatalog) {
    // Each region server refuses its own store.
    for (int i = 0; i < kServers; ++i) {
      const auto before = Snapshot(deployment.store_dir(i));
      net::RegionServerOptions options;
      options.store.dir = deployment.store_dir(i);
      auto server = net::RegionServer::Start(options);
      ASSERT_FALSE(server.ok()) << "server " << i;
      EXPECT_EQ(server.status().code(), StatusCode::kNotSupported)
          << server.status().ToString();
      if (format == OldFormat::kManifestV2) {
        EXPECT_NE(server.status().message().find("'just-manifest 2'"),
                  std::string::npos)
            << server.status().ToString();
      }
      EXPECT_EQ(Snapshot(deployment.store_dir(i)), before) << "server " << i;
    }
    return;
  }
  // In process the engine refuses the catalog or its first store. Over
  // sockets (the catalog case) the servers' stores are this build's, and
  // only the engine's directory is the fixture.
  ASSERT_TRUE(deployment.StartServers().ok());
  const std::string root = backend == Backend::kSockets
                               ? deployment.engine_dir()
                               : dir.path();
  const auto before = Snapshot(root);
  auto engine = deployment.OpenEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotSupported)
      << engine.status().ToString();
  EXPECT_EQ(Snapshot(root), before);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, OldFormatTest,
    ::testing::Combine(::testing::Values(Backend::kInProcess,
                                         Backend::kSockets),
                       ::testing::Values(OldFormat::kManifestV2,
                                         OldFormat::kManifestV1,
                                         OldFormat::kWalSegmentOnly,
                                         OldFormat::kWalLogOnly,
                                         OldFormat::kUnstampedCatalog)),
    [](const auto& info) {
      return BackendName(std::get<0>(info.param)) + "_" +
             OldFormatName(std::get<1>(info.param));
    });

// --- This build's stores reopen -----------------------------------------

class ThisFormatTest : public ::testing::TestWithParam<Backend> {};

TEST_P(ThisFormatTest, ReopenBeforeAnyFlushReplaysEveryWrite) {
  just::testing::TempDir dir("this_format");
  Deployment deployment(GetParam(), dir.path());
  {
    auto engine = deployment.Open();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(CreateAndLoad(engine->get(), 150).ok());
  }
  deployment.Stop();
  // A WAL-only store: stamped at its first open, no table yet.
  for (int i = 0; i < kServers; ++i) {
    EXPECT_EQ(ReadFile(deployment.store_dir(i) + "/MANIFEST"),
              "just-manifest 3\nwal 0\n");
    for (const auto& entry : fs::directory_iterator(deployment.store_dir(i))) {
      EXPECT_NE(entry.path().extension(), ".sst") << entry.path();
    }
  }
  {
    auto engine = deployment.Open();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(CountRows(engine->get()), 150u);
    // Flushed, then more writes only the WAL holds.
    ASSERT_TRUE((*engine)->Finalize().ok());
    ASSERT_TRUE((*engine)->InsertBatch("u", "orders", Rows(150, 50)).ok());
  }
  deployment.Stop();
  auto engine = deployment.Open();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(CountRows(engine->get()), 200u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ThisFormatTest,
                         ::testing::Values(Backend::kInProcess,
                                           Backend::kSockets),
                         [](const auto& info) {
                           return BackendName(info.param);
                         });

}  // namespace
}  // namespace just
