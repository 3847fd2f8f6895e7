// just_region_server — standalone out-of-process region server.
//
// Serves the binary wire protocol (src/net/wire_protocol.h) over TCP on top
// of one LsmStore. Spawned by the multi-process tests (tests/net_harness.h)
// and usable directly:
//
//   just_region_server --dir /data/rs0 --port 4700 --sync-wal 1
//
// With --port 0 the kernel picks an ephemeral port; --port-file writes the
// bound port (atomically: tmp + rename) so a spawner can discover it. When
// --admin-port is given (>= 0; 0 = ephemeral) an HTTP admin plane serves
// /metrics, /healthz, /statsz, and /tracez (src/obs/http_admin.h) and the
// port file gains a second line with the admin port. --slow-query-us T
// records RPCs slower than T microseconds (span tree included) for /tracez.
// --tenant-write-rps R gives every tenant seen on a tenant-tagged
// kWriteBatchReq (the streaming ingest path) a token bucket of R rows/sec
// (--tenant-write-burst caps the burst; default one second's worth) —
// over-quota batches answer kResourceExhausted and count into shed_total;
// untagged batches are never throttled.
// SIGTERM/SIGINT stop the server cleanly; acknowledged writes survive
// SIGKILL via the store's WAL (run with --sync-wal 1 for that guarantee).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "kvstore/lsm_store.h"
#include "net/region_server.h"
#include "obs/http_admin.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --dir DIR [--host H] [--port P] [--port-file FILE]\n"
      "          [--max-inflight N] [--sync-wal 0|1]\n"
      "          [--memtable-bytes N] [--compaction-trigger N]\n"
      "          [--admin-port P] [--slow-query-us T]\n"
      "          [--tenant-write-rps N] [--tenant-write-burst N]\n",
      argv0);
}

/// Line 1: wire-protocol port. Line 2 (only with an admin plane): admin
/// port. Spawners that predate the admin plane read the first int and never
/// see the second line.
bool WritePortFile(const std::string& path, int port, int admin_port) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%d\n", port);
  if (admin_port >= 0) std::fprintf(f, "%d\n", admin_port);
  std::fflush(f);
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  just::net::RegionServerOptions options;
  std::string port_file;
  int admin_port = -1;  // < 0 = no admin plane
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dir") {
      options.store.dir = next();
    } else if (arg == "--host") {
      options.host = next();
    } else if (arg == "--port") {
      options.port = std::atoi(next());
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--max-inflight") {
      options.max_inflight = std::atoi(next());
    } else if (arg == "--sync-wal") {
      options.store.sync_wal = std::atoi(next()) != 0;
    } else if (arg == "--memtable-bytes") {
      options.store.memtable_bytes =
          static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--compaction-trigger") {
      options.store.compaction_trigger = std::atoi(next());
    } else if (arg == "--admin-port") {
      admin_port = std::atoi(next());
    } else if (arg == "--slow-query-us") {
      options.slow_rpc_threshold_us = std::atoll(next());
    } else if (arg == "--tenant-write-rps") {
      options.tenant_write_rps = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--tenant-write-burst") {
      options.tenant_write_burst = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (options.store.dir.empty()) {
    Usage(argv[0]);
    return 2;
  }

  auto server = just::net::RegionServer::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "just_region_server: start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  just::obs::HttpAdminServer::Options admin_options;
  admin_options.host = options.host;
  admin_options.port = admin_port;
  admin_options.slow_log = (*server)->slow_log();
  std::unique_ptr<just::obs::HttpAdminServer> admin;
  if (admin_port >= 0) {
    admin = std::make_unique<just::obs::HttpAdminServer>(admin_options);
    just::Status st = admin->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "just_region_server: admin plane failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  // The port file is written only after *both* listeners are up, so a
  // spawner that sees it may immediately hit either port.
  if (!port_file.empty() &&
      !WritePortFile(port_file, (*server)->port(),
                     admin ? admin->port() : -1)) {
    std::fprintf(stderr, "just_region_server: cannot write port file %s\n",
                 port_file.c_str());
    return 1;
  }
  std::fprintf(stderr, "just_region_server: serving %s on %s:%d\n",
               options.store.dir.c_str(), options.host.c_str(),
               (*server)->port());
  if (admin) {
    std::fprintf(stderr, "just_region_server: admin plane on %s:%d\n",
                 options.host.c_str(), admin->port());
  }

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (admin) admin->Stop();
  (*server)->Stop();
  return 0;
}
