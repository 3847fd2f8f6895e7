#ifndef JUST_TESTS_NET_HARNESS_H_
#define JUST_TESTS_NET_HARNESS_H_

// Multi-process test harness for the out-of-process region server:
//  - ServerProcess: fork/execs a real `just_region_server` binary, waits
//    for its port file, and can SIGKILL it mid-write (the crash tests) or
//    stop it cleanly. Restart() reuses the same data directory, which is
//    how WAL recovery is asserted *through the client*.
//  - FaultProxy: a TCP proxy between client and server that can cut
//    connections after a byte budget (torn responses mid-scan), stall
//    traffic (client timeouts), or drop everything — the socket-level
//    fault-injection counterpart of kv::FaultInjectionEnv.
//
// The server binary path comes from the JUST_REGION_SERVER_BIN compile
// definition (set in tests/CMakeLists.txt to $<TARGET_FILE:...>).

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/region_client.h"
#include "net/socket.h"

#ifndef JUST_REGION_SERVER_BIN
#define JUST_REGION_SERVER_BIN "./just_region_server"
#endif

namespace just::testing {

/// One spawned `just_region_server` process.
class ServerProcess {
 public:
  struct Options {
    std::string dir;  ///< data directory (required; reused across restarts)
    bool sync_wal = true;  ///< fsync per commit: acknowledged == durable
    int max_inflight = -1;   ///< -1 = server default
    size_t memtable_bytes = 0;  ///< 0 = server default
    bool admin = false;          ///< serve the HTTP admin plane (port 0)
    int64_t slow_query_us = -1;  ///< --slow-query-us; -1 = disabled
  };

  explicit ServerProcess(Options options) : options_(std::move(options)) {}

  ~ServerProcess() {
    if (running()) Kill();
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server and blocks until it is accepting (port file
  /// written). Returns false on spawn/startup failure.
  bool Start() {
    std::string port_file = options_.dir + "/port";
    std::remove(port_file.c_str());

    std::vector<std::string> args = {JUST_REGION_SERVER_BIN,
                                     "--dir",       options_.dir,
                                     "--port",      "0",
                                     "--port-file", port_file,
                                     "--sync-wal",  options_.sync_wal ? "1"
                                                                      : "0"};
    if (options_.max_inflight >= 0) {
      args.push_back("--max-inflight");
      args.push_back(std::to_string(options_.max_inflight));
    }
    if (options_.memtable_bytes > 0) {
      args.push_back("--memtable-bytes");
      args.push_back(std::to_string(options_.memtable_bytes));
    }
    if (options_.admin) {
      args.push_back("--admin-port");
      args.push_back("0");
    }
    if (options_.slow_query_us >= 0) {
      args.push_back("--slow-query-us");
      args.push_back(std::to_string(options_.slow_query_us));
    }

    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::fprintf(stderr, "execv %s: %s\n", argv[0], std::strerror(errno));
      ::_exit(127);
    }

    // Wait for the port file; bail early if the child already died.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(port_file);
      int port = 0;
      if (in && (in >> port) && port > 0) {
        port_ = port;
        // Second line (present only with --admin-port): the admin plane's
        // bound port. Old spawners that read just the first int still work.
        int admin = 0;
        if (in >> admin) admin_port_ = admin;
        return true;
      }
      int wstatus = 0;
      if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        pid_ = -1;
        return false;  // child exited before serving
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Kill();
    return false;
  }

  /// SIGKILL — the crash the WAL must survive. Reaps the zombie.
  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  /// SIGTERM and wait (bounded); escalates to SIGKILL.
  void Terminate() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Kill();
  }

  /// Starts a fresh process over the same data directory (crash recovery).
  bool Restart() {
    if (running()) Kill();
    return Start();
  }

  bool running() const { return pid_ > 0; }
  int port() const { return port_; }
  /// HTTP admin plane port; 0 unless Options::admin was set.
  int admin_port() const { return admin_port_; }
  std::string addr() const { return "127.0.0.1:" + std::to_string(port_); }
  const Options& options() const { return options_; }

 private:
  Options options_;
  pid_t pid_ = -1;
  int port_ = 0;
  int admin_port_ = 0;
};

/// TCP fault-injection proxy: client connects to port(), proxy forwards to
/// the upstream server. Faults are one-shot or toggled:
///  - CutAfterUpstreamBytes(n): after forwarding n more server->client
///    bytes, close both sides of every connection (tears a response
///    mid-frame — exactly what a server crash mid-scan looks like).
///  - SetStalled(true): stop forwarding in both directions without closing
///    (clients hit their io timeout).
///  - CloseAllConnections(): drop every live connection now.
///  - SetCutAll(true): drop every live connection now and every new one as
///    soon as it is accepted (a server that is up but never answers).
class FaultProxy {
 public:
  explicit FaultProxy(int upstream_port) : upstream_port_(upstream_port) {
    auto listener = net::Listener::Listen("127.0.0.1", 0);
    if (!listener.ok()) return;
    listener_ = std::move(*listener);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~FaultProxy() {
    stopping_.store(true);
    listener_.Close();
    CloseAllConnections();
    if (accept_thread_.joinable()) accept_thread_.join();
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : conns_) {
      if (conn->pump_up.joinable()) conn->pump_up.join();
      if (conn->pump_down.joinable()) conn->pump_down.join();
    }
  }

  int port() const { return listener_.port(); }

  void CutAfterUpstreamBytes(int64_t n) {
    cut_budget_.store(n);
    cut_armed_.store(true);
  }

  void SetStalled(bool on) { stalled_.store(on); }

  void SetCutAll(bool on) {
    cut_all_.store(on);
    if (on) CloseAllConnections();
  }

  void CloseAllConnections() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : conns_) {
      conn->client.ShutdownBoth();
      conn->upstream.ShutdownBoth();
    }
  }

  /// Total server->client bytes forwarded (to size cut budgets).
  int64_t upstream_bytes() const { return upstream_bytes_.load(); }

 private:
  struct Conn {
    net::Socket client;
    net::Socket upstream;
    std::thread pump_up;    ///< client -> upstream
    std::thread pump_down;  ///< upstream -> client
  };

  void AcceptLoop() {
    while (!stopping_.load()) {
      auto accepted = listener_.Accept();
      if (!accepted.ok()) return;
      if (cut_all_.load()) continue;  // the accepted socket closes here
      auto upstream = net::Connect("127.0.0.1", upstream_port_);
      if (!upstream.ok()) continue;  // server down: drop the client
      auto conn = std::make_shared<Conn>();
      conn->client = std::move(*accepted);
      conn->upstream = std::move(*upstream);
      // Short recv timeouts so the pumps poll the fault flags.
      (void)conn->client.SetRecvTimeout(20);
      (void)conn->upstream.SetRecvTimeout(20);
      conn->pump_up = std::thread(
          [this, conn] { Pump(conn, conn->client, conn->upstream, false); });
      conn->pump_down = std::thread(
          [this, conn] { Pump(conn, conn->upstream, conn->client, true); });
      std::lock_guard<std::mutex> lock(mu_);
      conns_.push_back(std::move(conn));
    }
  }

  void Pump(const std::shared_ptr<Conn>& conn, net::Socket& from,
            net::Socket& to, bool is_upstream_to_client) {
    char buf[4096];
    while (!stopping_.load()) {
      ssize_t n = ::recv(from.fd(), buf, sizeof(buf), 0);
      if (n == 0) break;  // peer closed
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;  // timeout tick: re-check flags
        }
        break;
      }
      if (stalled_.load()) {
        // Swallow nothing: hold the bytes until unstalled (the client's
        // io timeout fires first in the tests that use this).
        while (stalled_.load() && !stopping_.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (stopping_.load()) break;
      }
      ssize_t to_send = n;
      if (is_upstream_to_client) {
        upstream_bytes_.fetch_add(n);
        if (cut_armed_.load()) {
          int64_t before = cut_budget_.fetch_sub(n);
          if (before <= n) {
            // Budget exhausted inside this chunk: forward what remains of
            // the budget (possibly zero) and cut, leaving a torn frame.
            to_send = before > 0 ? static_cast<ssize_t>(before) : 0;
            if (to_send > 0) {
              (void)to.WriteFully(buf, static_cast<size_t>(to_send));
            }
            cut_armed_.store(false);  // one-shot
            conn->client.ShutdownBoth();
            conn->upstream.ShutdownBoth();
            break;
          }
        }
      }
      if (!to.WriteFully(buf, static_cast<size_t>(to_send)).ok()) break;
    }
    // One direction dying takes the whole connection with it.
    conn->client.ShutdownBoth();
    conn->upstream.ShutdownBoth();
  }

  int upstream_port_;
  net::Listener listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stalled_{false};
  std::atomic<bool> cut_all_{false};
  std::atomic<bool> cut_armed_{false};
  std::atomic<int64_t> cut_budget_{0};
  std::atomic<int64_t> upstream_bytes_{0};
  std::mutex mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
};

}  // namespace just::testing

#endif  // JUST_TESTS_NET_HARNESS_H_
