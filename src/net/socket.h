#ifndef JUST_NET_SOCKET_H_
#define JUST_NET_SOCKET_H_

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace just::net {

/// Thin RAII wrapper over a connected TCP socket (IPv4). All I/O is
/// blocking; failures — including EOF and a receive timeout — surface as
/// Status::Unavailable so callers can funnel them into the engine's
/// transient-retry path (Status::IsTransient). The wrapper never raises
/// SIGPIPE (sends use MSG_NOSIGNAL).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void Close();
  /// Wakes any thread blocked in ReadFully/WriteFully on this socket (the
  /// fd stays open, so the waking thread sees an error, not a stale fd).
  void ShutdownBoth();

  /// Bounds how long a ReadFully may block; 0 restores "block forever".
  Status SetRecvTimeout(int timeout_ms);
  Status SetSendTimeout(int timeout_ms);
  /// Disables Nagle — every frame is a complete request/response, so
  /// coalescing only adds latency.
  Status SetNoDelay(bool on);

  /// Reads exactly `n` bytes. EOF, timeout, and errors all return
  /// Unavailable (the byte stream is dead or unsynced either way).
  Status ReadFully(void* buf, size_t n);
  Status WriteFully(const void* buf, size_t n);
  /// Writes `head` then `body` with as few syscalls as the socket allows
  /// (one sendmsg of both parts when the send buffer has room).
  Status WriteFully(std::string_view head, std::string_view body);

 private:
  int fd_ = -1;
};

/// Blocking IPv4 connect; `host` is a dotted quad (e.g. "127.0.0.1").
Result<Socket> Connect(const std::string& host, int port);

/// Listening socket. `Close()` (or destruction) wakes a blocked Accept().
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }

  /// Moves are for setup only: no thread may be inside Accept() on either
  /// side.
  Listener(Listener&& o) noexcept
      : fd_(o.fd_.exchange(-1)), port_(std::exchange(o.port_, 0)) {}
  Listener& operator=(Listener&& o) noexcept {
    if (this != &o) {
      Close();
      fd_.store(o.fd_.exchange(-1));
      port_ = std::exchange(o.port_, 0);
    }
    return *this;
  }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds + listens on `host:port`; port 0 picks an ephemeral port
  /// (readable via port()). SO_REUSEADDR is set so restarted servers can
  /// rebind immediately.
  static Result<Listener> Listen(const std::string& host, int port,
                                 int backlog = 128);

  /// Blocks for the next connection; Unavailable once Close()d.
  Result<Socket> Accept();

  int port() const { return port_; }
  bool valid() const { return fd_.load() >= 0; }
  /// Wakes any thread blocked in Accept() and releases the socket. Safe to
  /// call while another thread is accepting: the fd is closed only after
  /// every such thread has left accept(), so it can never be reused under
  /// one.
  void Close();

 private:
  std::atomic<int> fd_{-1};
  std::atomic<int> accepting_{0};  ///< threads between fd load and return
  int port_ = 0;
};

}  // namespace just::net

#endif  // JUST_NET_SOCKET_H_
