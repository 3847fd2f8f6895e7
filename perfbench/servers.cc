// just_region_server child processes and the admin-plane HTTP client.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "net/socket.h"
#include "perfbench.h"

namespace just::perfbench {

namespace {

// Live children, readable from a signal handler.
constexpr size_t kMaxChildren = 64;
std::atomic<int> g_children[kMaxChildren];

void TrackChild(int pid) {
  for (auto& slot : g_children) {
    int expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void UntrackChild(int pid) {
  for (auto& slot : g_children) {
    int expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

extern "C" void ReapAndExit(int sig) {
  for (auto& slot : g_children) {
    int pid = slot.load();
    if (pid > 0) kill(pid, SIGKILL);
  }
  for (auto& slot : g_children) {
    int pid = slot.load();
    if (pid > 0) waitpid(pid, nullptr, 0);
  }
  _exit(128 + sig);
}

bool ReadPortFile(const std::string& path, int* port, int* admin_port) {
  std::ifstream in(path);
  return static_cast<bool>(in >> *port >> *admin_port);
}

}  // namespace

void InstallReaper() {
  struct sigaction sa {};
  sa.sa_handler = ReapAndExit;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGTERM, SIGINT, SIGHUP}) sigaction(sig, &sa, nullptr);
}

ServerGroup::~ServerGroup() { Stop(); }

Status ServerGroup::Start(const std::string& binary, const std::string& dir,
                          int count) {
  if (access(binary.c_str(), X_OK) != 0) {
    return Status::NotFound("region server binary not found: " + binary);
  }
  const pid_t parent = getpid();
  for (int i = 0; i < count; ++i) {
    std::string store = dir + "/rs" + std::to_string(i);
    std::string port_file = dir + "/rs" + std::to_string(i) + ".port";
    std::filesystem::create_directories(store);
    std::filesystem::remove(port_file);
    std::vector<std::string> argv_s = {binary,          "--dir",  store,
                                       "--port",        "0",      "--port-file",
                                       port_file,       "--admin-port", "0"};
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);

    pid_t pid = fork();
    if (pid < 0) return Status::IOError("fork failed");
    if (pid == 0) {
      // Die with the benchmark, whatever kills it.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      dup2(STDERR_FILENO, STDOUT_FILENO);  // stdout carries only results
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    TrackChild(pid);
    pids_.push_back(pid);

    int port = -1, admin = -1;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!ReadPortFile(port_file, &port, &admin)) {
      int wstatus = 0;
      if (waitpid(pid, &wstatus, WNOHANG) == pid) {
        UntrackChild(pid);
        pids_.pop_back();
        return Status::IOError("region server exited during start-up");
      }
      if (std::chrono::steady_clock::now() > deadline) {
        return Status::Unavailable("region server did not write its port file");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ports_.push_back(port);
    admin_ports_.push_back(admin);
  }
  return Status::OK();
}

void ServerGroup::Stop() {
  for (int pid : pids_) kill(pid, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int pid : pids_) {
    for (;;) {
      int r = waitpid(pid, nullptr, WNOHANG);
      if (r == pid || r < 0) break;
      if (std::chrono::steady_clock::now() > deadline) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    UntrackChild(pid);
  }
  pids_.clear();
  ports_.clear();
  admin_ports_.clear();
}

std::vector<std::string> ServerGroup::addrs() const {
  std::vector<std::string> out;
  for (int port : ports_) out.push_back("127.0.0.1:" + std::to_string(port));
  return out;
}

int64_t ServerGroup::CpuNs() const {
  int64_t total = 0;
  for (int pid : pids_) {
    int64_t ns = ProcessCpuNsOf(pid);
    if (ns > 0) total += ns;
  }
  return total;
}

Result<std::string> HttpGet(int port, const std::string& path) {
  JUST_ASSIGN_OR_RETURN(net::Socket sock, net::Connect("127.0.0.1", port));
  JUST_RETURN_NOT_OK(sock.SetRecvTimeout(5000));
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  JUST_RETURN_NOT_OK(sock.WriteFully(request.data(), request.size()));
  std::string response;
  char buf[16384];
  for (;;) {
    ssize_t n = recv(sock.fd(), buf, sizeof(buf), 0);
    if (n < 0) return Status::IOError("admin plane read failed");
    if (n == 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  size_t body = response.find("\r\n\r\n");
  if (response.compare(0, 12, "HTTP/1.0 200") != 0 &&
      response.compare(0, 12, "HTTP/1.1 200") != 0) {
    return Status::IOError("admin plane answered: " +
                           response.substr(0, response.find('\r')));
  }
  if (body == std::string::npos) return Status::IOError("no HTTP body");
  return response.substr(body + 4);
}

}  // namespace just::perfbench
